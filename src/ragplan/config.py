"""The run config every ``ragplan`` command reads.

A config file is a JSON object of top-level ``seed``, ``delta``, ``k``,
``metric``, ``split_ratio`` and ``strict_qpa``, plus one object per
section (``embedder``, ``rl``, ``meta``, ``backend``), in the layout
``RunConfig.to_json`` writes. Every key is optional; a missing key keeps
the default of its dataclass field, so ``configs/demo.json`` lists only
the values that differ from those defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .backend import BackendConfig
from .corpus import MetricKind
from .embedding import EmbedderConfig
from .errors import ConfigError
from .meta import MetaConfig
from .policy import RlConfig


@dataclass(frozen=True)
class RunConfig:
    """One command's settings. ``k``, ``seed`` and ``strict_qpa`` take their
    defaults from ``RlConfig.k``, ``MetaConfig.seed`` and
    ``MetaConfig.strict_qpa`` and are copied into ``rl`` and ``meta``; a
    config file sets them only at the top level. ``backend.seed`` is not
    settable."""

    seed: int = MetaConfig.seed
    delta: float = 0.4
    k: int = RlConfig.k
    metric: str = MetricKind.TOKEN_F1.value
    split_ratio: float = 0.6
    strict_qpa: bool = MetaConfig.strict_qpa
    embedder: EmbedderConfig = EmbedderConfig()
    rl: RlConfig = field(default=RlConfig(), metadata={"fixed": ("k",)})
    meta: MetaConfig = field(default=MetaConfig(), metadata={"fixed": ("seed", "strict_qpa")})
    backend: BackendConfig = field(default=BackendConfig(), metadata={"fixed": ("seed",)})

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {self.delta}")
        if self.metric not in {m.value for m in MetricKind}:
            raise ConfigError(f"unknown metric {self.metric!r}")
        object.__setattr__(self, "rl", dataclasses.replace(self.rl, k=self.k))
        object.__setattr__(self, "meta", dataclasses.replace(
            self.meta, seed=self.seed, strict_qpa=self.strict_qpa))

    def to_json(self) -> dict:
        """The config in its file layout, as ``manifest.json`` records it."""
        doc = dataclasses.asdict(self)
        for section in dataclasses.fields(self):
            for name in section.metadata.get("fixed", ()):
                del doc[section.name][name]
        return doc
