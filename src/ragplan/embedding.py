"""Deterministic text embeddings and cosine similarity.

Texts are embedded by feature-hashing word unigrams and character
n-grams into a fixed-dimension vector, then L2-normalizing. The scheme
needs no external model, is reproducible bit-for-bit across processes,
and gives higher cosine to texts sharing operators, arguments, or
surface vocabulary.

Each feature is hashed at most once per process: its code comes from a
table per seed, dimension and feature kind, filled on first sight and
cleared with the embedding caches. Count vectors and embeddings are
cached per text, and a serialized path is summed from the cached codes of
its pieces. An embedding is its text's integer counts scaled to unit
norm (``unit_rows``), so a dot product of two count vectors, exact in any
order, gives their cosine with no rounding before the division.
"""

from __future__ import annotations

import hashlib
import re
from collections import namedtuple
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .corpus import PATH_SEPARATOR
from .errors import ConfigError, DataError
from .serialize import read_value

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
        """The config ``to_json`` wrote: every field present, as a JSON int."""
        return cls(**{field.name: read_value(doc, field.name, int) for field in fields(cls)})


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


# A feature's code depends only on the feature string, the seed and the
# dimension, and the same words and n-grams come back text after text:
# the index-4k graph build embeds 2,350 texts with 91,965 features that
# are distinct within their text, only 6,933 of them distinct overall. So
# each feature is hashed once per process. A feature is a kind prefix
# ("w:" for a word, "c3:" for a 3-gram) and a string, and each (seed,
# dimension, prefix) keeps a table from string to code. The tables held
# 14,251 features after 1,000 index-4k ops and 25,109 after 4,000 (about
# 107 bytes each, 2.7 MB); once they hold this many together, the next
# miss clears them all.
_FEATURE_CODES_MAX = 65536
_feature_tables: dict[tuple[int, int, str], dict[str, int]] = {}


def _feature_codes(strings: list[str], prefix: str, config: EmbedderConfig) -> list[int]:
    """The code of each feature ``prefix + string``, hashing only the
    features that its table does not hold."""
    table = _feature_tables.setdefault((config.seed, config.dimension, prefix), {})
    try:
        return list(map(table.__getitem__, strings))
    except KeyError:
        pass
    if sum(map(len, _feature_tables.values())) >= _FEATURE_CODES_MAX:
        for full in _feature_tables.values():
            full.clear()
    keyed = hashlib.blake2b(digest_size=8, key=config.seed.to_bytes(8, "little", signed=True))
    dimension = config.dimension
    for string in set(strings).difference(table):
        digest = keyed.copy()
        digest.update((prefix + string).encode("utf-8"))
        value = int.from_bytes(digest.digest(), "little")
        table[string] = value % dimension + (0 if value >> 63 else dimension)
    return list(map(table.__getitem__, strings))


def _codes(words_of: str, window: str, stop: int, config: EmbedderConfig) -> np.ndarray:
    """The code of every feature occurrence: the words of ``words_of`` and
    the character n-grams of ``window`` that start before position
    ``stop``. A feature is hashed to a bucket and a sign (signed hashing
    keeps collisions unbiased); its code is the bucket, plus the dimension
    where the feature counts negative. Codes come from the feature tables,
    so only a feature seen for the first time is hashed. Codes are 16-bit
    where they fit, which halves the piece cache."""
    codes = _feature_codes(_WORD_RE.findall(words_of), "w:", config)
    for n in range(config.ngram_min, config.ngram_max + 1):
        grams = [window[i:i + n] for i in range(min(len(window) - n + 1, stop))]
        codes += _feature_codes(grams, f"c{n}:", config)
    return np.array(codes, dtype=np.uint16 if 2 * config.dimension <= 1 << 16 else np.int32)


@lru_cache(maxsize=16384)
def _piece_codes(piece: str, before: bool, after: bool, config: EmbedderConfig) -> np.ndarray:
    """``_codes`` of a piece of a text split at separators: its words, and
    the n-grams that start in it or in the separator before it
    (``before``), running on into the separator after it (``after``)."""
    window = PATH_SEPARATOR * before + piece + PATH_SEPARATOR * after
    codes = _codes(piece, window, len(PATH_SEPARATOR) * before + len(piece), config)
    codes.setflags(write=False)
    return codes


def _counts(text: str, config: EmbedderConfig) -> np.ndarray:
    """The integer count vector of ``text``, read-only: each feature adds
    its signed count to its bucket. Every bucket is an exact integer sum of
    ±1, so the vector does not depend on the order of the additions, and a
    text split at separators is the sum of its pieces' codes.

    That holds when no n-gram reaches across a whole separator from one
    piece into the next (``ngram_max`` at most one more than the
    separator's length): every n-gram then starts in exactly one piece or
    in the separator before it. Normalized text has no leading, trailing
    or double space, so no piece is empty.
    """
    normalized = _normalize_text(text)
    if PATH_SEPARATOR in normalized and config.ngram_max <= len(PATH_SEPARATOR) + 1:
        pieces = normalized.split(PATH_SEPARATOR)
        last = len(pieces) - 1
        codes = np.concatenate([
            _piece_codes(piece, i > 0, i < last, config) for i, piece in enumerate(pieces)
        ])
    else:
        codes = _codes(normalized, normalized, len(normalized), config)
    dimension = config.dimension
    counts = np.bincount(codes, minlength=2 * dimension)
    counts = (counts[:dimension] - counts[dimension:]).astype(np.int32)
    counts.setflags(write=False)
    return counts


def unit_rows(counts: np.ndarray) -> np.ndarray:
    """``float32(c / ‖c‖)`` of each count vector ``c`` along the last axis,
    the embedding of the text it counts; a zero vector stays zero.

    A sum of squared integers is exact in float64 in any order, so each
    norm is the one ``np.linalg.norm`` takes of the vector alone. A norm
    is 0 or at least 1, and a zero vector divides by 1 to itself."""
    counts = np.asarray(counts, dtype=np.float64)
    norms = np.sqrt(np.vecdot(counts, counts))[..., None]
    return (counts / np.maximum(norms, 1.0)).astype(np.float32)


def _embed(text: str, config: EmbedderConfig) -> EmbeddingVector:
    counts = _counts(text, config)
    return EmbeddingVector(unit_rows(counts), valid=bool(counts.any()))


# Instruction texts, which the graph scores again and again, share one
# large cache of counts. Serialized candidate paths, and the questions the
# encoder projects, keep a small cache of embeddings: paths are many and,
# once the graph changes, never repeat. Its size is set from the serving
# loop on the demo bundle: over 5,000 ops, 14,250 path embeds held 3,250
# distinct paths, and 2,048 entries keep a hit ratio of 0.74 against 0.77
# for an unbounded cache. A path's pieces, mostly instructions seen in
# many paths, have a third cache. Queries and the questions a write
# registers are counted afresh (``text_counts``) and kept in no cache: a
# query is mostly seen once, and the graph keeps the counts of the
# questions it registers. A loaded graph file's questions are counted
# through the instruction cache, as its instructions are.
_counts_cached = lru_cache(maxsize=65536)(_counts)
_embed_text_cached = lru_cache(maxsize=2048)(_embed)

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _EmbedCaches:
    """The count and embedding caches and the feature tables, cleared
    together as one ``lru_cache`` would be; ``cache_info`` counts texts,
    not pieces or features."""

    caches = (_counts_cached, _embed_text_cached)

    def cache_info(self) -> "_CacheInfo":
        infos = [cache.cache_info() for cache in self.caches]
        return _CacheInfo(*(sum(column) for column in zip(*infos)))

    def cache_clear(self) -> None:
        for cache in (*self.caches, _piece_codes):
            cache.cache_clear()
        _feature_tables.clear()


_embed_cached = _EmbedCaches()


def embed_counts(text: str, config: EmbedderConfig) -> np.ndarray:
    """The read-only int32 count vector of ``text``, whose ``unit_rows``
    is its embedding; all zeros for a text with no feature."""
    return _counts_cached(text, config)


def text_counts(text: str, config: EmbedderConfig) -> np.ndarray:
    """``embed_counts`` of a query or question text, counted afresh so
    that it stays out of the instruction count cache."""
    return _counts(text, config)


def embed_text(text: str, config: EmbedderConfig) -> EmbeddingVector:
    """Embed ``text`` deterministically; empty text yields an invalid zero
    vector."""
    return _embed_text_cached(text, config)


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
    if rows.dtype == np.float64:
        dots = np.vecdot(rows, qv)
    else:
        step = block_rows(query.dimension)
        dots = np.concatenate([
            np.vecdot(rows[lo:lo + step].astype(np.float64), qv)
            for lo in range(0, rows.shape[0], step)
        ])
    denom = float(np.linalg.norm(qv)) * norms
    np.divide(dots, denom, out=sims, where=denom != 0.0)
    np.minimum(sims, 1.0, out=sims)
    np.maximum(sims, -1.0, out=sims)
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
