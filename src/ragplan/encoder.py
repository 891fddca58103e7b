"""Dual-encoder path selection.

Questions and serialized instruction paths are embedded by the shared
base embedder, passed through separate trainable linear projections,
and unit-normalized. Pre-training aligns paired question/path
encodings with a symmetric contrastive loss plus a binary match head;
fine-tuning contrasts the answer-verified best path of a pool against
the rest. Selection is a plain cosine argmax, so nothing depends on
how many candidates are offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import InstructionPath
from .corpus import score  # noqa: F401  bench/tracer.py wraps ragplan.encoder.score
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .serialize import floats_to_hex, hex_to_floats, read_versioned, write_versioned

ENCODER_KIND = "encoder-params"
PATH_SEPARATOR = " -> "


@dataclass
class EncoderParams:
    wq: np.ndarray  # (d, d) question projection
    wp: np.ndarray  # (d, d) path projection
    qpm_w: np.ndarray  # (2d + 1,) linear match head over [q ; p ; 1]
    tau: float
    embedder: EmbedderConfig

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        d = self.embedder.dimension
        if self.wq.shape != (d, d) or self.wp.shape != (d, d):
            raise ConfigError("projection shapes do not match the embedder dimension")
        if self.qpm_w.shape != (2 * d + 1,):
            raise ConfigError("match head must have 2d+1 entries")

    @property
    def dimension(self) -> int:
        return self.embedder.dimension

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.wq.ravel(), self.wp.ravel(), self.qpm_w])

    def with_vector(self, vector: np.ndarray) -> "EncoderParams":
        d = self.dimension
        size = 2 * d * d + 2 * d + 1
        if vector.size != size:
            raise ConfigError(f"encoder vector has {vector.size} entries, expected {size}")
        flat = np.array(vector, dtype=np.float64)
        return EncoderParams(
            wq=flat[: d * d].reshape(d, d),
            wp=flat[d * d : 2 * d * d].reshape(d, d),
            qpm_w=flat[2 * d * d :],
            tau=self.tau,
            embedder=self.embedder,
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.wq.copy(), self.wp.copy(), self.qpm_w.copy(), self.tau, self.embedder
        )


def init_encoder_params(
    embedder: EmbedderConfig, seed: int = 0, tau: float = 0.07, scale: float | None = None
) -> EncoderParams:
    """Identity projections by default, so an untrained selector ranks by
    base-embedding cosine; pass a scale for random gaussian projections."""
    d = embedder.dimension
    if scale is None:
        wq = np.eye(d)
        wp = np.eye(d)
    else:
        rng = np.random.default_rng(seed)
        wq = scale * rng.standard_normal((d, d))
        wp = scale * rng.standard_normal((d, d))
    return EncoderParams(
        wq=wq,
        wp=wp,
        qpm_w=np.zeros(2 * d + 1),
        tau=tau,
        embedder=embedder,
    )


@dataclass
class _Rows:
    """Texts of one side, embedded and projected as rows."""

    base: np.ndarray  # (n, d) float64 base embeddings
    unit: np.ndarray  # (n, d) unit-normalized projections; zero where the norm is 0
    norms: np.ndarray  # (n,) projection norms


def _project_rows(matrix: np.ndarray, texts: list[str], embedder: EmbedderConfig) -> _Rows:
    """Embed texts (questions or serialized paths, both ``transient`` as in
    ``embed_text``) and project every row through ``matrix`` at once. A row
    with a zero projection, as of a text that embeds invalid (a zero
    vector), stays zero and has norm 0."""
    base = np.array(
        [embed_text(text, embedder, transient=True).values for text in texts], dtype=np.float64
    )
    raw = base @ matrix.T
    norms = np.sqrt(np.vecdot(raw, raw))
    unit = np.divide(raw, norms[:, None], out=np.zeros_like(raw), where=norms[:, None] > 0.0)
    return _Rows(base, unit, norms)


def _project_backward(rows: _Rows, d_unit: np.ndarray) -> np.ndarray:
    """dL/d(projection matrix) from dL/d(unit rows): back through the
    normalization row by row, then one ``d_rawᵀ @ base``."""
    tangent = d_unit - np.vecdot(d_unit, rows.unit)[:, None] * rows.unit
    norms = rows.norms[:, None]
    d_raw = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0.0)
    return d_raw.T @ rows.base


def _encoding(rows: _Rows) -> EmbeddingVector:
    return EmbeddingVector(rows.unit[0].astype(np.float32), valid=bool(rows.norms[0] > 0.0))


def encode_question(params: EncoderParams, question: str) -> EmbeddingVector:
    return _encoding(_project_rows(params.wq, [question], params.embedder))


def encode_path(params: EncoderParams, path: InstructionPath) -> EmbeddingVector:
    return _encoding(_project_rows(params.wp, [path.serialized()], params.embedder))


def _info_nce(scores: np.ndarray, positives: np.ndarray, strict: bool) -> tuple[float, np.ndarray]:
    """InfoNCE of each score row against its positive column, averaged
    over rows; returns (loss, dL/d scores).

    The standard form keeps the positive in the log-sum-exp; the strict
    form leaves it out, as printed in the paper. A strict row with no
    other column has no negative and gives zero loss and zero gradient.
    """
    n, columns = scores.shape
    if strict and columns < 2:
        return 0.0, np.zeros_like(scores)
    rows = np.arange(n)
    kept = scores.copy()
    if strict:
        kept[rows, positives] = -np.inf
    top = kept.max(axis=1, keepdims=True)
    lse = np.log(np.exp(kept - top).sum(axis=1, keepdims=True)) + top
    deltas = np.exp(kept - lse) / n
    deltas[rows, positives] -= 1.0 / n
    return float((lse[:, 0] - scores[rows, positives]).sum() / n), deltas


@dataclass
class EncoderGrads:
    wq: np.ndarray
    wp: np.ndarray
    qpm_w: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.wq.ravel(), self.wp.ravel(), self.qpm_w])

    def __add__(self, other: "EncoderGrads") -> "EncoderGrads":
        return EncoderGrads(self.wq + other.wq, self.wp + other.wp, self.qpm_w + other.qpm_w)


def _contrastive_grads(
    params: EncoderParams, q: _Rows, p: _Rows, d_scores: np.ndarray
) -> EncoderGrads:
    """Gradients of a loss over the scores ``q.unit @ p.unit.T / tau``."""
    return EncoderGrads(
        _project_backward(q, (d_scores @ p.unit) / params.tau),
        _project_backward(p, (d_scores.T @ q.unit) / params.tau),
        np.zeros_like(params.qpm_w),
    )


def qpa_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Symmetric in-batch contrastive alignment of question/path pairs."""
    if not pairs:
        raise DataError("qpa loss over an empty batch")
    q = _project_rows(params.wq, [question for question, _ in pairs], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for _, path in pairs], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    diagonal = np.arange(len(pairs))
    loss_qp, deltas_qp = _info_nce(scores, diagonal, strict)
    loss_pq, deltas_pq = _info_nce(scores.T, diagonal, strict)
    loss = 0.5 * (loss_qp + loss_pq)
    return loss, _contrastive_grads(params, q, p, 0.5 * (deltas_qp + deltas_pq.T))


def make_qpm_batch(
    pairs: list[tuple[str, InstructionPath]]
) -> list[tuple[str, InstructionPath, int]]:
    """Matched pairs labeled 1 plus an in-batch derangement labeled 0."""
    triples = [(question, path, 1) for question, path in pairs]
    if len(pairs) >= 2:
        for i, (question, _) in enumerate(pairs):
            triples.append((question, pairs[(i + 1) % len(pairs)][1], 0))
    return triples


def qpm_loss_and_grads(
    params: EncoderParams, triples: list[tuple[str, InstructionPath, int]]
) -> tuple[float, EncoderGrads]:
    """Binary cross-entropy of the linear match head over projected pairs."""
    if not triples:
        raise DataError("qpm loss over an empty batch")
    d = params.dimension
    q = _project_rows(params.wq, [question for question, _, _ in triples], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for _, path, _ in triples], params.embedder)
    labels = np.array([label for _, _, label in triples], dtype=np.float64)
    count = labels.size
    w_q = params.qpm_w[:d]
    w_p = params.qpm_w[d : 2 * d]
    z = q.unit @ w_q + p.unit @ w_p + params.qpm_w[-1]
    prob = 1.0 / (1.0 + np.exp(-z))
    clipped = np.clip(prob, 1e-7, 1.0 - 1e-7)
    loss = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped)).sum()
    dz = (prob - labels) / count
    g_head = np.concatenate([dz @ q.unit, dz @ p.unit, [dz.sum()]])
    return float(loss / count), EncoderGrads(
        _project_backward(q, np.outer(dz, w_q)), _project_backward(p, np.outer(dz, w_p)), g_head
    )


def pt_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, float, EncoderGrads]:
    """Pre-training objective: alignment loss plus match loss."""
    align, g_align = qpa_loss_and_grads(params, pairs, strict)
    match, g_match = qpm_loss_and_grads(params, make_qpm_batch(pairs))
    return align, match, g_align + g_match


@dataclass
class PoolEntry:
    path: InstructionPath
    delta: float | None = None
    failed: bool = False
    answer: str = ""


@dataclass
class PathPool:
    entries: list[PoolEntry] = field(default_factory=list)
    best_index: int | None = None

    @classmethod
    def from_paths(cls, paths: list[InstructionPath]) -> "PathPool":
        return cls(entries=[PoolEntry(path=p) for p in paths])

    def paths(self) -> list[InstructionPath]:
        return [entry.path for entry in self.entries]


def ft_loss_and_grads(
    params: EncoderParams,
    question: str,
    pool: PathPool,
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Hard-negative contrastive loss against the pool's best path.

    With a single question anchor the path-anchored half of the
    symmetric loss is vacuously zero; it is kept in the average so the
    two halves weigh as documented.
    """
    if pool.best_index is None:
        raise DataError("ft loss needs a pool with best_index set")
    q = _project_rows(params.wq, [question], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for path in pool.paths()], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    loss, deltas = _info_nce(scores, np.array([pool.best_index]), strict)
    return 0.5 * loss, _contrastive_grads(params, q, p, 0.5 * deltas)


def candidate_similarities(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> np.ndarray:
    encoded_q = encode_question(params, question)
    return np.array(
        [cosine(encoded_q, encode_path(params, path)) for path in candidates]
    )


def select_path(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> InstructionPath:
    """Cosine argmax over candidates; ties go to the lowest index."""
    if not candidates:
        raise NotFoundError("select_path over an empty candidate list")
    sims = candidate_similarities(params, question, candidates)
    return candidates[int(np.argmax(sims))]


def save_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> None:
    write_versioned(
        destination,
        ENCODER_KIND,
        {
            "dimension": params.dimension,
            "tau": params.tau,
            "strict_qpa": strict_qpa,
            "embedder": params.embedder.to_json(),
            "data": {
                "wq": floats_to_hex(params.wq.ravel(), dtype="<f8"),
                "wp": floats_to_hex(params.wp.ravel(), dtype="<f8"),
                "qpm_w": floats_to_hex(params.qpm_w, dtype="<f8"),
            },
        },
    )


def load_encoder(source) -> tuple[EncoderParams, bool]:
    doc = read_versioned(source, ENCODER_KIND)
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        d = int(doc["dimension"])
        data = doc["data"]
        params = EncoderParams(
            wq=hex_to_floats(data["wq"], d * d, dtype="<f8").reshape(d, d),
            wp=hex_to_floats(data["wp"], d * d, dtype="<f8").reshape(d, d),
            qpm_w=hex_to_floats(data["qpm_w"], 2 * d + 1, dtype="<f8"),
            tau=float(doc["tau"]),
            embedder=embedder,
        )
        strict = bool(doc["strict_qpa"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        # A setting out of range in the file (embedder, tau, shapes) is bad data.
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
    if not all(np.isfinite(v).all() for v in (params.wq, params.wp, params.qpm_w, params.tau)):
        raise MalformedFileError(f"{source}: encoder file holds a non-finite value")
    return params, strict
