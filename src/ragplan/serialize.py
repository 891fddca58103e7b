"""Versioned JSON persistence helpers, and the reader that builds a
config dataclass from a JSON object.

Float payloads inside JSON, the policy weights, are stored as hex of
little-endian float64, so save/load round-trips are bit-exact across
platforms. No file stores an embedding: a graph file stores texts, whose
embeddings its load derives (see ``ragplan.graph.load_graph``).
Encoder weights are too large for hex: an encoder file is a versioned
header written here, next to a raw little-endian float64 payload that
holds only the block of each projection where it differs from the
identity, column by column as the weights sit in memory, then the match
head. The header records the blocks' index
sets, the value count and a sha256 over both (see
``ragplan.encoder.save_encoder``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError, MalformedFileError, VersionMismatchError

FORMAT_VERSION = "1"


def floats_to_hex(values: np.ndarray) -> str:
    return np.asarray(values, dtype="<f8").tobytes().hex()


def hex_to_floats(payload: str, expected_len: int | None = None) -> np.ndarray:
    try:
        raw = bytes.fromhex(payload)
    except ValueError as exc:
        raise MalformedFileError(f"invalid float payload: {exc}") from exc
    if len(raw) % 8 != 0:
        raise MalformedFileError("truncated float payload")
    values = np.frombuffer(raw, dtype="<f8").copy()
    if expected_len is not None and values.size != expected_len:
        raise MalformedFileError(
            f"float payload holds {values.size} values, expected {expected_len}"
        )
    return values


def write_versioned(path: str | Path, kind: str, body: dict) -> None:
    doc = {"format_version": FORMAT_VERSION, "kind": kind}
    doc.update(body)
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def read_versioned(path: str | Path, kind: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise MalformedFileError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError(f"{path} does not hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path} has format version {version!r}, this build reads version "
            f"{FORMAT_VERSION!r}"
        )
    if doc.get("kind") != kind:
        raise MalformedFileError(
            f"{path} holds a {doc.get('kind')!r} artifact, expected {kind!r}"
        )
    return doc


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_fields(cls, doc, base=None, prefix: str = "", fixed: tuple[str, ...] = ()):
    """Build the dataclass ``cls`` from the JSON object ``doc``.

    A field missing from ``doc`` keeps its value in ``base``, which
    defaults to ``cls()``, so defaults come from the dataclass fields. A
    value must have its field's type: an int counts as a float (and
    becomes one), a bool does not count as an int, and a list becomes a
    tuple. A dataclass field reads a nested object; the names in its
    ``fixed`` metadata are not read from that object. Keys that name no
    field, or a ``fixed`` field, raise ConfigError. ``prefix`` is the
    dotted path of ``doc`` in error messages.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config key {prefix[:-1]!r} must be an object" if prefix
                          else "config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in fixed}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError("unknown config key " + ", ".join(prefix + key for key in unknown))
    base = cls() if base is None else base
    hints = typing.get_type_hints(cls)
    values = {}
    for name, value in doc.items():
        hint, key = hints[name], prefix + name
        if dataclasses.is_dataclass(hint):
            values[name] = read_fields(hint, value, getattr(base, name), key + ".",
                                       fields[name].metadata.get("fixed", ()))
        else:
            values[name] = read_value(doc, name, hint, key)
    return dataclasses.replace(base, **values)


def read_value(doc: dict, name: str, hint, key: str | None = None):
    """``doc[name]``, which must have the type ``hint`` by the rule of
    ``read_fields``; a missing name raises KeyError and a value of another
    type ConfigError, naming it as ``key`` (default ``name``)."""
    value = doc[name]
    if not _has_type(hint, value):
        expected = f"{hint} as a list" if typing.get_origin(hint) is tuple else hint.__name__
        raise ConfigError(f"config key {key or name!r} must be {expected}, got {value!r}")
    # hint(value) turns an int read into a float field into a float
    return tuple(value) if isinstance(value, list) else hint(value)


def check_minimums(config, **minimums) -> None:
    """Raise ConfigError when a field of ``config`` is below its minimum or NaN."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if not value >= minimum:
            raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _has_type(hint, value) -> bool:
    if type(value) is hint:
        return True
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            return False
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            items = items[:1] * len(value)
        return len(items) == len(value) and all(map(_has_type, items, value))
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return type(value) is hint
