import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragplan import embedding
from ragplan.embedding import (
    EmbedderConfig,
    EmbeddingVector,
    _embed,
    cosine,
    embed_counts,
    embed_text,
    psi,
    unit_rows,
)
from ragplan.errors import ConfigError

from embed_reference import embed_reference, features
import scan_reference

CFG = EmbedderConfig()


def vec(values, valid=True):
    return EmbeddingVector(np.asarray(values, dtype=np.float32), valid=valid)


class TestEmbedText:
    def test_deterministic(self):
        a = embed_text("abc", CFG)
        b = embed_text("abc", CFG)
        assert np.array_equal(a.values, b.values)
        assert a.valid and b.valid

    def test_cross_process_regression_lock(self):
        # Frozen from a reference run; catches any drift in hashing or
        # normalization across interpreter/platform versions.
        v = embed_text("abc", CFG)
        nz = np.flatnonzero(v.values)
        assert nz.tolist() == [150, 179]
        assert v.values[nz].tolist() == pytest.approx([0.7071067690849304, -0.7071067690849304])

    def test_empty_text_invalid_zero_vector(self):
        v = embed_text("", CFG)
        assert not v.valid
        assert not v.values.any()

    def test_whitespace_only_invalid(self):
        assert not embed_text(" \t\n ", CFG).valid

    def test_unit_norm(self):
        for text in ["Search[Ed Wood]", "a", "two words", "Lookup[nationality]"]:
            v = embed_text(text, CFG)
            assert abs(float(np.linalg.norm(v.values)) - 1.0) < 1e-6

    def test_case_and_whitespace_folding(self):
        a = embed_text("Search[Ed Wood]", CFG)
        b = embed_text("  search[ed   wood]  ", CFG)
        assert np.array_equal(a.values, b.values)

    def test_same_operator_closer_than_cross_operator(self):
        # Expected ordering verified by computing all three pairwise
        # cosines with this embedder before freezing the defaults.
        ed = embed_text("Search[Ed Wood]", CFG)
        scott = embed_text("Search[Scott Derrickson]", CFG)
        lookup = embed_text("Lookup[nationality]", CFG)
        assert cosine(ed, scott) > cosine(ed, lookup)

    def test_dimension_from_config(self):
        small = EmbedderConfig(dimension=16)
        assert embed_text("abc", small).dimension == 16

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EmbedderConfig(dimension=4)
        with pytest.raises(ConfigError):
            EmbedderConfig(ngram_min=5, ngram_max=3)


def reference_embed(text, config):
    """The per-feature loop the counting kernel replaced: every feature,
    repeats included, hashed on its own and added as ±1 in order."""
    accum = np.zeros(config.dimension, dtype=np.float64)
    feats = features(text, config)
    if not feats:
        return accum.astype(np.float32), False
    key = config.seed.to_bytes(8, "little", signed=True)
    for feat in feats:
        digest = hashlib.blake2b(feat.encode("utf-8"), digest_size=8, key=key).digest()
        value = int.from_bytes(digest, "little")
        accum[value % config.dimension] += 1.0 if value & (1 << 63) else -1.0
    norm = float(np.linalg.norm(accum))
    if norm == 0.0:
        return accum.astype(np.float32), False
    return (accum / norm).astype(np.float32), True


def oracle_texts():
    rng = np.random.default_rng(11)
    alphabet = list("abcdefghij KLM 0123 []->.,;\t\n")
    texts = ["".join(rng.choice(alphabet, int(rng.integers(1, 120)))) for _ in range(40)]
    step = "Search[amber birch]"
    texts += [
        " -> ".join([step] * 6),  # a serialized path that repeats its steps
        "abc abc abc abcabc",
        "aaaaaaaaaaaaaaaa",
        "",
        " \t\n ",
        "Señor Ünïcödé ñandú 漢字テキスト ✓ 🙂 café",
        "ß ﬁ İ ǅ",  # case folding changes the length
    ]
    return texts


class TestCountingKernel:
    @pytest.mark.parametrize("dimension", [8, 16, 256, 1024])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_equals_the_per_feature_loop_bit_for_bit(self, dimension, seed):
        config = EmbedderConfig(dimension=dimension, seed=seed)
        expected = []
        for text in oracle_texts():
            values, valid = reference_embed(text, config)
            expected.append(values)
            for vector in (_embed(text, config), embed_text(text, config)):
                assert vector.valid == valid, text
                assert vector.values.dtype == np.float32
                assert vector.values.tobytes() == values.tobytes(), text
            counts = embed_counts(text, config)
            assert counts.dtype == np.int32 and counts.any() == valid
            assert unit_rows(counts).tobytes() == values.tobytes(), text
        # Row by row along the last axis.
        counts = np.array([embed_counts(text, config) for text in oracle_texts()])
        assert unit_rows(counts).tobytes() == np.array(expected).tobytes()

    def test_counts_and_embeddings_have_their_own_caches(self):
        # Embedding a text leaves the large count cache to the instruction
        # texts the graph stores.
        embedding._embed_cached.cache_clear()
        path = "Search[amber] -> Lookup[birch]"
        assert embed_text(path, CFG) is embed_text(path, CFG)
        counts = embed_counts("Search[amber]", CFG)
        assert embed_counts("Search[amber]", CFG) is counts
        with pytest.raises(ValueError):
            counts[0] = 1
        info = embedding._embed_cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
        assert embedding._embed_text_cached.cache_info()[2:] == (2048, 1)
        assert embedding._counts_cached.cache_info()[2:] == (65536, 1)
        embedding._embed_cached.cache_clear()
        assert embedding._embed_cached.cache_info().currsize == 0



# Pieces, separators (spaced, unspaced and repeated), whitespace runs, and
# letters whose lowercase depends on context (final sigma) or is longer
# than the letter (dotted capital I).
PATH_PARTS = [" -> ", "->", " ->", "-> ", "Search[Ed Wood]", "lookup[x]", "a", "b1",
              "Σ", "ΑΣ", "İ", "ß", " ", "  \t\n ", "[", "]", ">", "-"]
path_texts = st.lists(st.sampled_from(PATH_PARTS), max_size=24).map("".join)


class TestComposedEmbedding:
    """Texts with path separators are summed from cached piece codes."""

    @pytest.mark.parametrize("ngrams", [(1, 5), (2, 3), (3, 5), (3, 6)])
    @given(text=path_texts | st.text(max_size=60),
           dimension=st.sampled_from([8, 16, 256]), seed=st.integers(-3, 3))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_text_embedding_bit_for_bit(self, ngrams, text, dimension, seed):
        config = EmbedderConfig(dimension, seed, *ngrams)
        values, valid = embed_reference(text, config)
        vector = _embed(text, config)
        assert vector.valid == valid
        assert vector.values.dtype == np.float32
        assert vector.values.tobytes() == values.tobytes()

    @pytest.mark.parametrize("text", [
        " -> Search[a] -> ", "Search[a] ->  -> -> Lookup[b]", " ->  -> ", "->a->b",
        "ΑΣ -> ΣΑ -> Σ", "İstanbul -> İ", "a  ->\t\nb", "a -> b", "", " \t ",
    ])
    @pytest.mark.parametrize("ngrams", [(1, 5), (2, 3), (3, 5), (3, 6)])
    @pytest.mark.parametrize("dimension", [16, 40000])  # 16-bit and 32-bit codes
    def test_edge_cases_equal_the_per_text_embedding(self, text, ngrams, dimension):
        config = EmbedderConfig(dimension, 1, *ngrams)
        values, valid = embed_reference(text, config)
        vector = _embed(text, config)
        assert (vector.values.tobytes(), vector.valid) == (values.tobytes(), valid)

    def test_n_grams_longer_than_a_separator_and_a_letter_take_the_per_text_path(self):
        embedding._embed_cached.cache_clear()
        _embed("Search[a] -> Lookup[b]", EmbedderConfig(ngram_min=3, ngram_max=6))
        assert embedding._piece_codes.cache_info().currsize == 0
        _embed("Search[a] -> Lookup[b]", EmbedderConfig(ngram_min=3, ngram_max=5))
        assert embedding._piece_codes.cache_info().currsize == 2

    def test_piece_cache_is_bounded_cleared_with_the_others_and_not_counted(self):
        embedding._embed_cached.cache_clear()
        path = "Search[amber] -> Lookup[birch] -> Finish[cedar]"
        embed_text(path, CFG)
        embed_text("Search[amber] -> Finish[dune]", CFG)
        pieces = embedding._piece_codes.cache_info()
        assert pieces.maxsize == 16384
        assert (pieces.hits, pieces.currsize) == (1, 4)
        info = embedding._embed_cached.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        codes = embedding._piece_codes("amber", False, True, CFG)
        with pytest.raises(ValueError):
            codes[0] = 0
        embedding._embed_cached.cache_clear()
        assert embedding._piece_codes.cache_info().currsize == 0

def table_size():
    return sum(map(len, embedding._feature_tables.values()))


class TestFeatureTables:
    """Each feature is hashed once per process and its code kept in a table
    per seed, dimension and feature kind."""

    CONFIGS = [EmbedderConfig(dimension, seed, *ngrams)
               for dimension in (16, 40000)  # 16-bit and 32-bit codes
               for seed in (0, -1, 7)
               for ngrams in ((3, 5), (1, 3))]

    def test_alternating_configs_equal_the_per_text_embedding(self):
        # Every text under every config in turn, so each config reads codes
        # that the configs before it put in the tables.
        embedding._embed_cached.cache_clear()
        for text in oracle_texts() + ["Search[amber] -> Lookup[birch]"]:
            for config in self.CONFIGS:
                values, valid = embed_reference(text, config)
                vector = _embed(text, config)
                assert (vector.values.tobytes(), vector.valid) == (values.tobytes(), valid), (
                    text, config)
        assert table_size() > 0
        embedding._embed_cached.cache_clear()
        assert embedding._feature_tables == {}

    def test_a_full_table_is_cleared_and_the_results_hold(self, monkeypatch):
        embedding._embed_cached.cache_clear()
        monkeypatch.setattr(embedding, "_FEATURE_CODES_MAX", 40)
        sizes = []
        for text in oracle_texts():
            values, valid = embed_reference(text, CFG)
            vector = _embed(text, CFG)
            assert (vector.values.tobytes(), vector.valid) == (values.tobytes(), valid), text
            sizes.append(table_size())
        # A miss clears full tables before it adds the features of one text.
        assert max(sizes) > 40
        assert any(after < before for before, after in zip(sizes, sizes[1:]))
        embedding._embed_cached.cache_clear()

    def test_a_cached_text_adds_nothing_to_the_tables(self):
        embedding._embed_cached.cache_clear()
        embed_text("Search[amber birch]", CFG)
        embed_text("Search[amber] -> Lookup[birch]", CFG)
        embedding._feature_tables.clear()
        embed_text("Search[amber birch]", CFG)
        embed_text("Search[amber] -> Lookup[birch]", CFG)
        assert embedding._embed_cached.cache_info().hits == 2
        assert table_size() == 0
        embedding._embed_cached.cache_clear()


class TestCosine:
    def test_identity(self):
        v = embed_text("Search[Ed Wood]", CFG)
        assert cosine(v, v) == 1.0

    def test_antipode(self):
        v = vec([0.6, 0.8, 0.0])
        neg = vec([-0.6, -0.8, 0.0])
        assert cosine(v, neg) == pytest.approx(-1.0)

    def test_analytic_45_degrees(self):
        a = vec([1.0, 0.0, 0.0])
        b = vec([1.0 / np.sqrt(2), 1.0 / np.sqrt(2), 0.0])
        assert cosine(a, b) == pytest.approx(0.70710678, abs=1e-7)

    def test_invalid_vector_scores_zero(self):
        v = embed_text("abc", CFG)
        empty = embed_text("", CFG)
        assert cosine(v, empty) == 0.0
        assert cosine(empty, empty) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            cosine(vec([1.0, 0.0]), vec([1.0, 0.0, 0.0]))

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        va, vb = embed_text(a, CFG), embed_text(b, CFG)
        s = cosine(va, vb)
        assert -1.0 <= s <= 1.0
        assert s == cosine(vb, va)


class TestPsi:
    @pytest.mark.parametrize("dimension", [8, 256])
    def test_equals_the_scalar_psi_of_python_ints_bit_for_bit(self, dimension):
        # Every oracle text against every other, as one product over rows.
        config = EmbedderConfig(dimension=dimension)
        texts = oracle_texts()
        rows = np.array([embed_counts(text, config) for text in texts], dtype=np.float64)
        sqnorms = np.vecdot(rows, rows)
        for text, query in zip(texts, rows):
            expected = [scan_reference.psi(text, other, config) for other in texts]
            assert psi(rows @ query, query @ query, sqnorms).tolist() == expected, text

    def test_identical_counts_score_exactly_one_and_empty_counts_zero(self):
        texts = oracle_texts()
        rows = np.array([embed_counts(text, CFG) for text in texts], dtype=np.float64)
        sqnorms = np.vecdot(rows, rows)
        scores = psi(np.vecdot(rows, rows), sqnorms, sqnorms)
        assert scores.tolist() == [1.0 if row.any() else 0.0 for row in rows]
        assert scores.tolist().count(0.0) == 2  # "" and whitespace alone

    def test_equal_psi_over_other_counts_ties_exactly(self):
        # 30 / √(47·36) and 35 / √(47·49) are both 5 / √47.
        query = embed_counts("Lookup[amber birch]", CFG).astype(np.int64)
        rows = np.array([embed_counts(text, CFG) for text in ("Lookup[amber]", "Lookup[ember birch]")],
                        dtype=np.int64)
        assert (rows @ query).tolist() == [30, 35] and int(query @ query) == 47
        assert np.vecdot(rows, rows).tolist() == [36, 49]
        a, b = psi(rows @ query, query @ query, np.vecdot(rows, rows)).tolist()
        assert a == b == 5 / np.sqrt(47)
