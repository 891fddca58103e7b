"""The per-text embedding that ``ragplan.embedding._embed`` replaced for
texts split at path separators, kept as a test oracle: every feature of
the whole normalized text hashed and counted in one pass. A text summed
from its pieces' cached codes must give the same values and ``valid``
flag, bit for bit. ``codes_reference`` is ``ragplan.embedding._codes``
without the feature tables: every feature occurrence hashed on its own.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from ragplan.embedding import _WORD_RE, EmbedderConfig, _normalize_text


def window_features(words_of: str, window: str, stop: int, config: EmbedderConfig) -> list[str]:
    """The features ``_codes`` codes, repeats included: the words of
    ``words_of``, then by length the character n-grams of ``window`` that
    start before position ``stop``."""
    feats = [f"w:{w}" for w in _WORD_RE.findall(words_of)]
    for n in range(config.ngram_min, config.ngram_max + 1):
        feats.extend(f"c{n}:{window[i:i + n]}" for i in range(min(len(window) - n + 1, stop)))
    return feats


def features(text: str, config: EmbedderConfig) -> list[str]:
    """Every feature of the normalized text, repeats included: its words,
    then its character n-grams by length."""
    normalized = _normalize_text(text)
    return window_features(normalized, normalized, len(normalized), config)


def codes_reference(words_of: str, window: str, stop: int, config: EmbedderConfig) -> np.ndarray:
    key = config.seed.to_bytes(8, "little", signed=True)
    codes = []
    for feat in window_features(words_of, window, stop, config):
        digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8, key=key).digest()
        value = int.from_bytes(digest, "little")
        codes.append(value % config.dimension + (0 if value >> 63 else config.dimension))
    return np.array(codes, dtype=np.int64)


def embed_reference(text: str, config: EmbedderConfig) -> tuple[np.ndarray, bool]:
    counts = Counter(features(text, config))
    if not counts:
        return np.zeros(config.dimension, dtype=np.float32), False
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
        return accum.astype(np.float32), False
    return (accum / norm).astype(np.float32), True
