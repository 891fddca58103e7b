"""Deterministic text embeddings and cosine similarity.

Texts are embedded by feature-hashing word unigrams and character
n-grams into a fixed-dimension vector, then L2-normalizing. The scheme
needs no external model, is reproducible bit-for-bit across processes,
and gives higher cosine to texts sharing operators, arguments, or
surface vocabulary.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DataError

_WORD_RE = re.compile(r"[0-9a-z]+")


@dataclass(frozen=True)
class EmbedderConfig:
    """Configuration of the hashing embedder.

    The config is serialized into graph and encoder files so that saved
    artifacts are self-describing.
    """

    dimension: int = 256
    seed: int = 0
    ngram_min: int = 3
    ngram_max: int = 5

    def __post_init__(self) -> None:
        if self.dimension < 8:
            raise ConfigError(f"embedder dimension must be >= 8, got {self.dimension}")
        if self.ngram_min < 1 or self.ngram_min > self.ngram_max:
            raise ConfigError(
                f"invalid ngram range ({self.ngram_min}, {self.ngram_max})"
            )

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "seed": self.seed,
            "ngram_min": self.ngram_min,
            "ngram_max": self.ngram_max,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "EmbedderConfig":
        return cls(
            dimension=int(doc["dimension"]),
            seed=int(doc["seed"]),
            ngram_min=int(doc["ngram_min"]),
            ngram_max=int(doc["ngram_max"]),
        )


@dataclass(frozen=True)
class EmbeddingVector:
    """Unit-norm float32 vector; ``valid`` is False only for empty text."""

    values: np.ndarray
    valid: bool = True

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])


def _normalize_text(text: str) -> str:
    return " ".join(text.lower().split())


def _features(text: str, config: EmbedderConfig) -> list[str]:
    normalized = _normalize_text(text)
    feats = [f"w:{w}" for w in _WORD_RE.findall(normalized)]
    for n in range(config.ngram_min, config.ngram_max + 1):
        feats.extend(
            f"c{n}:{normalized[i:i + n]}" for i in range(len(normalized) - n + 1)
        )
    return feats


def _embed(text: str, config: EmbedderConfig) -> EmbeddingVector:
    """Each distinct feature is hashed once, to a bucket and a sign (signed
    hashing keeps collisions unbiased), and adds its signed count there.
    Every bucket is an exact integer sum of ±1, so the vector does not
    depend on the order of the additions."""
    counts = Counter(_features(text, config))
    if not counts:
        return EmbeddingVector(np.zeros(config.dimension, dtype=np.float32), valid=False)
    keyed = hashlib.blake2b(digest_size=8, key=config.seed.to_bytes(8, "little", signed=True))
    buckets, weights = [], []
    for feat, count in counts.items():
        digest = keyed.copy()
        digest.update(feat.encode("utf-8"))
        value = int.from_bytes(digest.digest(), "little")
        buckets.append(value % config.dimension)
        weights.append(count if value >> 63 else -count)
    accum = np.bincount(buckets, weights, minlength=config.dimension)
    norm = float(np.linalg.norm(accum))
    if norm == 0.0:
        return EmbeddingVector(accum.astype(np.float32), valid=False)
    return EmbeddingVector((accum / norm).astype(np.float32), valid=True)


# Texts embedded again and again (instructions, queries) share one large
# cache. Texts embedded for one use keep a small cache of their own:
# serialized candidate paths, which are many and, once the graph changes,
# never repeat, and registered questions, whose vectors the graph keeps.
# Its size is set from the serving loop on the demo bundle: over 5,000
# ops, 14,250 path embeds held 3,250 distinct paths, and 2,048 entries
# keep a hit ratio of 0.74 against 0.77 for an unbounded cache.
_embed_text_cached = lru_cache(maxsize=65536)(_embed)
_embed_transient_cached = lru_cache(maxsize=2048)(_embed)

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _EmbedCaches:
    """Both embedding caches, counted and cleared together as one
    ``lru_cache`` would be."""

    caches = (_embed_text_cached, _embed_transient_cached)

    def cache_info(self) -> "_CacheInfo":
        infos = [cache.cache_info() for cache in self.caches]
        return _CacheInfo(*(sum(column) for column in zip(*infos)))

    def cache_clear(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


_embed_cached = _EmbedCaches()


def embed_text(text: str, config: EmbedderConfig, *, transient: bool = False) -> EmbeddingVector:
    """Embed ``text`` deterministically; empty text yields an invalid zero
    vector. ``transient`` marks a text embedded for one use (a serialized
    candidate path or a registered question), cached apart."""
    return (_embed_transient_cached if transient else _embed_text_cached)(text, config)


def cosine(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine similarity in [-1, 1]; 0 whenever either vector is invalid.

    Inputs need not be unit norm (task centroids are plain means); the
    magnitudes are divided out here. Identical arrays compare as exactly
    1.0 so that threshold tests at delta = 1.0 behave.
    """
    if a.dimension != b.dimension:
        raise ConfigError(
            f"cosine of mismatched dimensions {a.dimension} and {b.dimension}"
        )
    if not a.valid or not b.valid:
        return 0.0
    if np.array_equal(a.values, b.values):
        return 1.0
    av = a.values.astype(np.float64)
    bv = b.values.astype(np.float64)
    denom = float(np.linalg.norm(av)) * float(np.linalg.norm(bv))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.dot(av, bv) / denom, -1.0, 1.0))


def block_rows(dimension: int) -> int:
    """Rows per block when float32 rows are upcast a block at a time:
    64k values, 512 KB of float64."""
    return max(1, 65536 // dimension)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of a float64 matrix, bit for bit."""
    return np.sqrt(np.vecdot(rows, rows))


def cosine_rows(
    query: EmbeddingVector,
    rows: np.ndarray,
    norms: np.ndarray,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """``cosine(query, row)`` for every row, bit for bit.

    ``rows`` hold float32 vectors, as float32 or upcast to float64;
    ``norms`` are the ``row_norms`` of their float64 values and ``valid``
    their validity flags (all valid when None). ``np.vecdot`` takes each
    row's dot product with the same BLAS dot kernel as ``np.dot``; a
    matrix product would sum in another order.
    """
    if rows.shape[1] != query.dimension:
        raise ConfigError(
            f"cosine of mismatched dimensions {query.dimension} and {rows.shape[1]}"
        )
    sims = np.zeros(rows.shape[0], dtype=np.float64)
    if not query.valid or not rows.shape[0]:
        return sims
    qv = query.values.astype(np.float64)
    step = rows.shape[0] if rows.dtype == np.float64 else block_rows(query.dimension)
    dots = np.concatenate([
        np.vecdot(rows[lo:lo + step].astype(np.float64, copy=False), qv)
        for lo in range(0, rows.shape[0], step)
    ])
    denom = float(np.linalg.norm(qv)) * norms
    np.divide(dots, denom, out=sims, where=denom != 0.0)
    np.clip(sims, -1.0, 1.0, out=sims)
    # An identical array divides to within a few ulps of 1.0; cosine()
    # returns exactly 1.0 for it, before any division.
    for i in np.flatnonzero((sims >= 1.0 - 1e-9) | (denom == 0.0)):
        if np.array_equal(rows[i], qv):
            sims[i] = 1.0
    if valid is not None:
        sims[~valid] = 0.0
    return sims


def task_centroid(questions: list[EmbeddingVector]) -> EmbeddingVector:
    """Arithmetic mean of the given vectors, not re-normalized."""
    if not questions:
        raise DataError("task_centroid of an empty question list")
    dim = questions[0].dimension
    for vec in questions:
        if vec.dimension != dim:
            raise ConfigError("task_centroid over mixed dimensions")
    mean = np.mean([q.values.astype(np.float64) for q in questions], axis=0)
    return EmbeddingVector(mean.astype(np.float32), valid=any(q.valid for q in questions))
