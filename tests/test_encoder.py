import json

import numpy as np
import pytest

from ragplan.corpus import InstructionPath, MetricKind, Question
from ragplan.embedding import EmbedderConfig, cosine, embed_text
from ragplan.encoder import (
    _PIECE_VALUES,
    SIDES,
    EncoderParams,
    PathPool,
    _block_pieces,
    _moved_block,
    _project_rows,
    candidate_similarities,
    ft_loss_and_grads,
    init_encoder_params,
    load_encoder,
    make_qpm_batch,
    pt_loss_and_grads,
    qpa_loss_and_grads,
    qpm_loss_and_grads,
    save_encoder,
    select_path,
)
from ragplan.errors import ConfigError, DataError, MalformedFileError, NotFoundError
from ragplan.meta import evaluate_pool
from ragplan.optim import AdamState, adam_step
from encoder_faults import FAULTS
from encoder_reference import save_block_encoder
from meta_reference import dense_projection, encode_path, encode_question
from scalar_kernels import _normalize_backprop, _project

CFG = EmbedderConfig(dimension=16)


def identity_params(tau=1.0, embedder=CFG):
    d = embedder.dimension
    return EncoderParams(
        wq=np.eye(d), wp=np.eye(d), qpm_w=np.zeros(2 * d + 1), tau=tau, embedder=embedder
    )


def path_of(texts, qid="q1"):
    return InstructionPath(tuple(texts), "T1", qid, 1.0)


def sample_pairs(n, prefix="entity"):
    pairs = []
    names = ["amber fox", "birch owl", "cedar lynx", "dune crow", "ember wolf",
             "fjord seal", "grove hare", "heath mole", "iris toad", "jade crane",
             "kelp otter", "larch stork", "maple vole", "night swan", "oak finch",
             "pine heron"]
    for i in range(n):
        name = names[i % len(names)]
        question = f"What is the hue of {name}?"
        path = path_of([f"Search[{name}]", "Lookup[hue]"], qid=f"q{i}")
        pairs.append((question, path))
    return pairs


class FakeResult:
    def __init__(self, answer, ok=True, reward=None):
        self.answer = answer
        self.ok = ok
        self.reward = reward


class FakeBackend:
    """Answers with a canned string per path; optionally fails on some."""

    def __init__(self, answers, fail_on=()):
        self.answers = answers
        self.fail_on = set(fail_on)
        self.calls = 0

    def plan(self, question, path):
        self.calls += 1
        if path.instructions in self.fail_on:
            return FakeResult("", ok=False)
        return FakeResult(self.answers.get(path.instructions, ""))


def finite_difference(loss_fn, vector, h=1e-5):
    grad = np.zeros_like(vector)
    for i in range(vector.size):
        bumped = vector.copy()
        bumped[i] += h
        up = loss_fn(bumped)
        bumped[i] -= 2 * h
        down = loss_fn(bumped)
        grad[i] = (up - down) / (2 * h)
    return grad


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


class TestEncoding:
    def test_identical_questions_encode_identically(self):
        params = init_encoder_params(CFG, seed=1)
        a = encode_question(params, "What is the hue of amber fox?")
        b = encode_question(params, "What is the hue of amber fox?")
        assert np.array_equal(a.values, b.values)

    def test_unit_norm(self):
        params = init_encoder_params(CFG, seed=2)
        q = encode_question(params, "hue of amber fox")
        p = encode_path(params, path_of(["Search[amber fox]", "Lookup[hue]"]))
        assert abs(float(np.linalg.norm(q.values)) - 1.0) < 1e-6
        assert abs(float(np.linalg.norm(p.values)) - 1.0) < 1e-6

    def test_identity_projection_reproduces_base_embedding(self):
        params = identity_params()
        question = "What is the hue of amber fox?"
        assert np.allclose(
            encode_question(params, question).values,
            embed_text(question, CFG).values,
            atol=1e-7,
        )
        path = path_of(["Search[amber fox]", "Lookup[hue]"])
        assert np.allclose(
            encode_path(params, path).values,
            embed_text(path.serialized(), CFG).values,
            atol=1e-7,
        )

    def test_empty_question_encodes_invalid(self):
        params = init_encoder_params(CFG, seed=3)
        assert not encode_question(params, "").valid

    def test_tau_must_be_positive(self):
        with pytest.raises(Exception):
            EncoderParams(
                wq=np.eye(16), wp=np.eye(16), qpm_w=np.zeros(33), tau=0.0, embedder=CFG
            )


class TestQpaLoss:
    def test_single_pair_default_form_is_zero(self):
        params = identity_params()
        assert qpa_loss_and_grads(params, sample_pairs(1))[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_strict_form_has_no_negative_and_is_zero(self):
        params = init_encoder_params(CFG, seed=3, scale=0.4)
        loss, grads = qpa_loss_and_grads(params, sample_pairs(1), strict=True)
        assert loss == 0.0
        assert not grads.to_vector().any()

    def test_two_pair_batch_matches_softmax_cross_entropy(self):
        # Independent oracle: score matrix from the public encoders, then
        # the textbook symmetric InfoNCE formula in plain numpy.
        params = identity_params(tau=1.0)
        pairs = sample_pairs(2)
        qs = [encode_question(params, q).values.astype(np.float64) for q, _ in pairs]
        ps = [encode_path(params, p).values.astype(np.float64) for _, p in pairs]
        scores = np.array([[float(np.dot(q, p)) for p in ps] for q in qs])
        expected = 0.0
        for i in range(2):
            row = scores[i]
            expected += -np.log(np.exp(row[i]) / np.exp(row).sum()) / 2
            col = scores[:, i]
            expected += -np.log(np.exp(col[i]) / np.exp(col).sum()) / 2
        expected /= 2
        assert qpa_loss_and_grads(params, pairs)[0] == pytest.approx(expected, abs=1e-6)

    def test_symmetric_batch_halves_agree(self):
        # When question and path embeddings coincide the two anchored
        # halves are equal, so the average equals either half.
        params = identity_params(tau=1.0)
        texts = ["amber fox hue", "birch owl era"]
        pairs = [(t, path_of([t], qid=f"q{i}")) for i, t in enumerate(texts)]
        qs = [encode_question(params, q).values.astype(np.float64) for q, _ in pairs]
        ps = [encode_path(params, p).values.astype(np.float64) for _, p in pairs]
        assert np.allclose(qs, ps, atol=1e-7)
        scores = np.array([[float(np.dot(q, p)) for p in ps] for q in qs])
        half = float(
            np.mean([-scores[i, i] + np.log(np.exp(scores[i]).sum()) for i in range(2)])
        )
        assert qpa_loss_and_grads(params, pairs)[0] == pytest.approx(half, abs=1e-6)

    def test_loss_nonnegative_default(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            params = init_encoder_params(CFG, seed=seed)
            pairs = sample_pairs(int(rng.integers(2, 6)))
            assert qpa_loss_and_grads(params, pairs)[0] >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        small = EmbedderConfig(dimension=8)
        for trial in range(20):
            params = init_encoder_params(small, seed=trial, tau=0.5)
            pairs = [
                (f"question about {w}", path_of([f"Search[{w}]"], qid=f"q{i}"))
                for i, w in enumerate(
                    rng.choice(["amber", "birch", "cedar", "dune"], size=3, replace=False)
                )
            ]
            strict = trial % 2 == 0
            _, grads = qpa_loss_and_grads(params, pairs, strict=strict)

            def loss_of(vector):
                return qpa_loss_and_grads(params.with_vector(vector), pairs, strict=strict)[0]

            fd = finite_difference(loss_of, params.to_vector())
            assert relative_error(grads.to_vector(), fd) < 1e-4


class TestQpmLoss:
    def test_half_probability_gives_ln2(self):
        params = identity_params()  # zero head -> sigmoid(0) = 0.5
        triples = [(q, p, 1) for q, p in sample_pairs(2)]
        assert qpm_loss_and_grads(params, triples)[0] == pytest.approx(np.log(2.0), abs=1e-9)

    def test_confident_correct_predictions_vanish(self):
        params = identity_params()
        d = CFG.dimension
        pairs = sample_pairs(2)
        # point the head at the matched-pair direction with a large gain
        base = encode_question(params, pairs[0][0]).values.astype(np.float64)
        path_vec = encode_path(params, pairs[0][1]).values.astype(np.float64)
        params.qpm_w[:d] = 40.0 * base
        params.qpm_w[d : 2 * d] = 40.0 * path_vec
        params.qpm_w[-1] = -40.0 * (float(base @ base) + float(path_vec @ path_vec)) + 12.0
        triples = [(pairs[0][0], pairs[0][1], 1)]
        assert qpm_loss_and_grads(params, triples)[0] < 0.01

    def test_derangement_builds_mismatches(self):
        pairs = sample_pairs(3)
        triples = make_qpm_batch(pairs)
        positives = [t for t in triples if t[2] == 1]
        negatives = [t for t in triples if t[2] == 0]
        assert len(positives) == 3 and len(negatives) == 3
        for question, mismatched, _ in negatives:
            matched = next(p for q, p in pairs if q == question)
            assert mismatched.instructions != matched.instructions

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        small = EmbedderConfig(dimension=8)
        for trial in range(20):
            params = init_encoder_params(small, seed=100 + trial)
            params.qpm_w = 0.3 * rng.standard_normal(params.qpm_w.size)
            pairs = sample_pairs(3)
            triples = make_qpm_batch(pairs)
            _, grads = qpm_loss_and_grads(params, triples)

            def loss_of(vector):
                return qpm_loss_and_grads(params.with_vector(vector), triples)[0]

            fd = finite_difference(loss_of, params.to_vector())
            assert relative_error(grads.to_vector(), fd) < 1e-4


class TestPtStep:
    def test_total_loss_is_sum_of_components(self):
        params = init_encoder_params(CFG, seed=13)
        pairs = sample_pairs(4)
        align, match, _ = pt_loss_and_grads(params, pairs)
        assert align == pytest.approx(qpa_loss_and_grads(params, pairs)[0], abs=1e-9)
        triples = make_qpm_batch(pairs)
        assert match == pytest.approx(qpm_loss_and_grads(params, triples)[0], abs=1e-9)

    def test_zero_learning_rate_leaves_params_unchanged(self):
        params = init_encoder_params(CFG, seed=17)
        before = params.to_vector().copy()
        _, _, grads = pt_loss_and_grads(params, sample_pairs(4))
        updated = adam_step(before, grads.to_vector(), AdamState.zeros(before.size), 0.0)
        assert np.array_equal(updated, before)

    def test_training_separates_a_toy_corpus(self):
        pairs = sample_pairs(16)
        params = init_encoder_params(CFG, seed=19)
        opt = AdamState.zeros(params.to_vector().size)
        for _ in range(200):
            _, _, grads = pt_loss_and_grads(params, pairs)
            params = params.with_vector(
                adam_step(params.to_vector(), grads.to_vector(), opt, 0.01)
            )
        paths = [p for _, p in pairs]
        wins = 0
        for i, (question, _) in enumerate(pairs):
            sims = candidate_similarities(params, question, paths)
            if int(np.argmax(sims)) == i:
                wins += 1
        assert wins >= int(0.9 * len(pairs))


class TestEvaluatePool:
    def make_question(self):
        return Question("q1", "T1", "What is the hue of amber fox?", "russet")

    def test_single_entry_pool(self):
        pool = PathPool.from_paths([path_of(["Search[amber fox]", "Lookup[hue]"])])
        backend = FakeBackend({("Search[amber fox]", "Lookup[hue]"): "russet"})
        out = evaluate_pool(self.make_question(), pool, backend, MetricKind.TOKEN_F1)
        assert out.best_index == 0
        assert out.entries[0].delta == 1.0

    def test_constructed_oracle_pool(self):
        good = path_of(["Search[amber fox]", "Lookup[hue]"], qid="g")
        bad_a = path_of(["Search[birch owl]"], qid="a")
        bad_b = path_of(["Search[cedar lynx]"], qid="b")
        backend = FakeBackend(
            {
                good.instructions: "russet",
                bad_a.instructions: "wrong",
                bad_b.instructions: "also wrong",
            }
        )
        pool = PathPool.from_paths([bad_a, good, bad_b])
        out = evaluate_pool(self.make_question(), pool, backend, MetricKind.TOKEN_F1)
        assert out.best_index == 1

    def test_backend_failure_scores_zero_and_flags(self):
        failing = path_of(["Search[broken]"], qid="x")
        ok = path_of(["Search[amber fox]", "Lookup[hue]"], qid="g")
        backend = FakeBackend({ok.instructions: "russet"}, fail_on={failing.instructions})
        pool = PathPool.from_paths([failing, ok])
        out = evaluate_pool(self.make_question(), pool, backend, MetricKind.TOKEN_F1)
        assert out.entries[0].failed and out.entries[0].delta == 0.0
        assert out.best_index == 1

    def test_rescoring_is_deterministic(self):
        good = path_of(["Search[amber fox]", "Lookup[hue]"], qid="g")
        backend = FakeBackend({good.instructions: "russet"})
        pool = PathPool.from_paths([good])
        first = evaluate_pool(self.make_question(), pool, backend, MetricKind.TOKEN_F1)
        scores_first = [e.delta for e in first.entries]
        second = evaluate_pool(self.make_question(), first, backend, MetricKind.TOKEN_F1)
        assert [e.delta for e in second.entries] == scores_first

    def test_ties_pick_lowest_index(self):
        a = path_of(["Search[amber fox]"], qid="a")
        b = path_of(["Search[birch owl]"], qid="b")
        backend = FakeBackend({a.instructions: "russet", b.instructions: "russet"})
        pool = PathPool.from_paths([a, b])
        out = evaluate_pool(self.make_question(), pool, backend, MetricKind.TOKEN_F1)
        assert out.best_index == 0


class TestFtStep:
    def build_pool(self, n=3):
        names = ["amber fox", "birch owl", "cedar lynx", "dune crow"]
        paths = [path_of([f"Search[{names[i]}]", "Lookup[hue]"], qid=f"q{i}") for i in range(n)]
        pool = PathPool.from_paths(paths)
        pool.best_index = 0
        return pool

    def test_single_path_pool_default_loss_zero(self):
        params = identity_params()
        pool = self.build_pool(1)
        loss, _ = ft_loss_and_grads(params, "hue of amber fox?", pool)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_single_path_pool_strict_has_no_negative_and_is_zero(self):
        params = init_encoder_params(CFG, seed=5, scale=0.4)
        pool = self.build_pool(1)
        loss, grads = ft_loss_and_grads(params, "hue of amber fox?", pool, strict=True)
        assert loss == 0.0
        assert not grads.to_vector().any()

    def test_three_path_pool_matches_hand_formula(self):
        params = identity_params(tau=1.0)
        pool = self.build_pool(3)
        question = "What is the hue of amber fox?"
        q = encode_question(params, question).values.astype(np.float64)
        scores = np.array(
            [
                float(np.dot(q, encode_path(params, p).values.astype(np.float64)))
                for p in pool.paths()
            ]
        )
        expected = 0.5 * (-scores[0] + np.log(np.exp(scores).sum()))
        loss, _ = ft_loss_and_grads(params, question, pool)
        assert loss == pytest.approx(expected, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        small = EmbedderConfig(dimension=8)
        for trial in range(20):
            params = init_encoder_params(small, seed=300 + trial, tau=0.5)
            pool = self.build_pool(3)
            pool.best_index = trial % 3
            strict = trial % 2 == 0
            _, grads = ft_loss_and_grads(params, "hue of amber fox?", pool, strict=strict)

            def loss_of(vector):
                return ft_loss_and_grads(
                    params.with_vector(vector), "hue of amber fox?", pool, strict=strict
                )[0]

            fd = finite_difference(loss_of, params.to_vector())
            assert relative_error(grads.to_vector(), fd) < 1e-4

    def test_matches_the_per_path_reference_bit_for_bit(self):
        # The per-path loop ft_loss_and_grads ran before it shared the
        # batched projection, softmax and gradient helpers. Batching moves
        # the BLAS summation order, so the match is within 1e-12 relative.
        def reference(params, question, pool, strict):
            paths = pool.paths()
            q_base = embed_text(question, params.embedder)
            q_n, _, q_norm = _project(params.wq, q_base)
            p_base = [embed_text(p.serialized(), params.embedder) for p in paths]
            projected = [_project(params.wp, pb) for pb in p_base]
            p_mat = np.stack([pn for pn, _, _ in projected])
            scores = (p_mat @ q_n) / params.tau
            best = pool.best_index
            kept = np.arange(len(paths)) != best if strict else np.ones(len(paths), bool)
            masked = scores[kept]
            lse = float(np.log(np.exp(masked - masked.max()).sum()) + masked.max())
            soft = np.zeros(len(paths))
            soft[kept] = np.exp(masked - lse)
            d_scores = 0.5 * soft
            d_scores[best] -= 0.5
            d_q = (d_scores @ p_mat) / params.tau
            g_wq = np.outer(_normalize_backprop(d_q, q_n, q_norm), q_base.values.astype(float))
            g_wp = np.zeros_like(params.wp)
            for k, (pn, _, pr) in enumerate(projected):
                dv = _normalize_backprop(d_scores[k] * q_n / params.tau, pn, pr)
                g_wp += np.outer(dv, p_base[k].values.astype(float))
            return float(0.5 * (-scores[best] + lse)), g_wq, g_wp

        for trial in range(12):
            params = init_encoder_params(CFG, seed=400 + trial, tau=0.3, scale=0.4)
            pool = self.build_pool(2 + trial % 3)
            pool.best_index = trial % len(pool.entries)
            strict = trial % 2 == 1
            loss, grads = ft_loss_and_grads(params, "hue of dune crow?", pool, strict=strict)
            ref_loss, ref_wq, ref_wp = reference(params, "hue of dune crow?", pool, strict)
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
            assert relative_error(grads.wq, ref_wq) <= 1e-12
            assert relative_error(grads.wp, ref_wp) <= 1e-12
            assert not grads.qpm_w.any()

    def test_repeated_steps_separate_best_from_negatives(self):
        params = init_encoder_params(CFG, seed=23)
        pool = self.build_pool(3)
        question = "What is the hue of birch owl?"
        pool.best_index = 1
        opt = AdamState.zeros(params.to_vector().size)
        for _ in range(100):
            _, grads = ft_loss_and_grads(params, question, pool)
            params = params.with_vector(
                adam_step(params.to_vector(), grads.to_vector(), opt, 0.02)
            )
        q = encode_question(params, question)
        sims = [cosine(q, encode_path(params, p)) for p in pool.paths()]
        assert sims[1] > max(sims[0], sims[2])


class TestSelectPath:
    def test_single_candidate_returned_regardless_of_params(self):
        params = init_encoder_params(CFG, seed=29)
        only = path_of(["Search[amber fox]"])
        assert select_path(params, "anything", [only]) is only

    def test_empty_candidates_rejected(self):
        params = init_encoder_params(CFG, seed=31)
        with pytest.raises(NotFoundError):
            select_path(params, "anything", [])

    def test_argmax_invariant_under_positive_rescaling(self):
        params = identity_params()
        candidates = [
            path_of(["Search[amber fox]", "Lookup[hue]"], qid="a"),
            path_of(["Search[birch owl]", "Lookup[era]"], qid="b"),
        ]
        question = "What is the hue of amber fox?"
        sims = candidate_similarities(params, question, candidates)
        assert int(np.argmax(sims)) == int(np.argmax(2.5 * sims))
        assert select_path(params, question, candidates).question_id == "a"

    def test_matches_brute_force_cosine_max(self):
        params = init_encoder_params(CFG, seed=37)
        candidates = [
            path_of([f"Search[{name}]"], qid=str(i))
            for i, name in enumerate(["amber fox", "birch owl", "cedar lynx", "dune crow"])
        ]
        question = "Where does the cedar lynx roam?"
        chosen = select_path(params, question, candidates)
        encoded_q = encode_question(params, question)
        best = max(
            range(len(candidates)),
            key=lambda i: cosine(encoded_q, encode_path(params, candidates[i])),
        )
        assert chosen is candidates[best]

    def test_selection_independent_of_candidate_count(self):
        params = identity_params()
        full = [
            path_of(["Search[amber fox]", "Lookup[hue]"], qid="a"),
            path_of(["Search[birch owl]"], qid="b"),
            path_of(["Search[cedar lynx]"], qid="c"),
        ]
        question = "What is the hue of amber fox?"
        assert select_path(params, question, full).question_id == "a"
        assert select_path(params, question, full[:2]).question_id == "a"

    def test_selection_independent_of_candidate_order(self):
        params = init_encoder_params(CFG, seed=43, scale=0.3)
        candidates = [
            path_of([f"Search[{name}]"], qid=str(i))
            for i, name in enumerate(["amber fox", "birch owl", "cedar lynx", "dune crow"])
        ]
        question = "Where does the birch owl nest?"
        chosen = select_path(params, question, candidates)
        for shift in range(1, len(candidates)):
            rotated = candidates[shift:] + candidates[:shift]
            assert select_path(params, question, rotated) is chosen


class TestEncoderPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_encoder_params(CFG, seed=41, tau=0.09)
        dest = tmp_path / "encoder.json"
        save_encoder(params, dest, strict_qpa=True)
        loaded, strict = load_encoder(dest)
        assert strict is True
        assert loaded.tau == params.tau
        assert loaded.embedder == params.embedder
        assert np.array_equal(loaded.to_vector(), params.to_vector())

    def test_malformed_file_rejected(self, tmp_path):
        dest = tmp_path / "encoder.json"
        dest.write_text("[]", encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_encoder(dest)

    @pytest.mark.parametrize("field", ["wq", "wp", "qpm_w", "tau"])
    def test_non_finite_value_rejected(self, tmp_path, field):
        params = init_encoder_params(CFG, seed=41)
        if field == "tau":
            params.tau = float("nan")
        else:
            getattr(params, field).flat[3] = np.nan
        dest = tmp_path / "encoder.json"
        save_encoder(params, dest)
        with pytest.raises(MalformedFileError):
            load_encoder(dest)


class TestInvariants:
    def test_all_losses_finite_on_random_inputs(self):
        rng = np.random.default_rng(43)
        for seed in range(5):
            params = init_encoder_params(CFG, seed=seed, tau=0.07)
            pairs = sample_pairs(int(rng.integers(2, 6)))
            assert np.isfinite(qpa_loss_and_grads(params, pairs)[0])
            assert np.isfinite(qpm_loss_and_grads(params, make_qpm_batch(pairs))[0])
            pool = PathPool.from_paths([p for _, p in pairs])
            pool.best_index = 0
            loss, _ = ft_loss_and_grads(params, pairs[0][0], pool)
            assert np.isfinite(loss)
            assert loss >= 0.0

    def test_empty_batches_rejected(self):
        params = identity_params()
        with pytest.raises(DataError):
            qpa_loss_and_grads(params, [])
        with pytest.raises(DataError):
            qpm_loss_and_grads(params, [])


def moved_params(seed=44):
    """Identity projections moved on a block of rows 2–9 and columns 1–12 of
    ``wq`` and rows 0–15, columns 3 and 7 of ``wp``, with a nonzero head."""
    rng = np.random.default_rng(seed)
    params = identity_params()
    params.wq[2:10, 1:13] += rng.standard_normal((8, 12))
    params.wp[:, [3, 7]] = rng.standard_normal((16, 2))
    params.qpm_w = rng.standard_normal(params.qpm_w.size)
    return params


def round_trip(params, tmp_path):
    dest = tmp_path / "encoder.json"
    save_encoder(params, dest)
    loaded, _ = load_encoder(dest)
    assert loaded.to_vector().tobytes() == params.to_vector().tobytes()
    return json.loads(dest.read_text(encoding="utf-8"))


class TestEncoderPayload:
    def test_payload_holds_the_moved_blocks_then_the_head(self, tmp_path):
        params = moved_params()
        dest = tmp_path / "encoder.json"
        payload = save_encoder(params, dest)
        assert payload == tmp_path / "encoder.f64"
        wq_rows, wq_cols, wp_rows, wp_cols = range(2, 10), range(1, 13), range(16), [3, 7]
        blocks = [params.wq[np.ix_(wq_rows, wq_cols)], params.wp[np.ix_(wp_rows, wp_cols)]]
        expected = np.concatenate([b.T.ravel() for b in blocks] + [params.qpm_w])
        assert payload.read_bytes() == expected.astype("<f8").tobytes()
        header = json.loads(dest.read_text(encoding="utf-8"))
        assert header["layout"] == "identity-column-blocks"
        assert header["blocks"] == {
            "wq": {"rows": list(wq_rows), "cols": list(wq_cols)},
            "wp": {"rows": list(wp_rows), "cols": wp_cols},
        }
        assert header["payload"]["file"] == "encoder.f64"
        assert header["payload"]["values"] == expected.size

    def test_loaded_params_own_one_buffer(self, tmp_path):
        params = moved_params()
        dest = tmp_path / "encoder.json"
        save_encoder(params, dest)
        loaded, _ = load_encoder(dest)
        assert loaded.to_vector().tobytes() == params.to_vector().tobytes()
        assert np.shares_memory(loaded.wq, loaded.to_vector())
        assert np.shares_memory(loaded.qpm_w, loaded.to_vector())

    def test_identity_stores_empty_blocks(self, tmp_path):
        header = round_trip(identity_params(), tmp_path)
        assert all(header["blocks"][side] == {"rows": [], "cols": []} for side in ("wq", "wp"))
        assert header["payload"]["values"] == 2 * CFG.dimension + 1

    def test_gaussian_init_stores_full_blocks(self, tmp_path):
        header = round_trip(init_encoder_params(CFG, seed=44, scale=0.3), tmp_path)
        every = list(range(CFG.dimension))
        assert all(header["blocks"][side] == {"rows": every, "cols": every}
                   for side in ("wq", "wp"))

    def test_negative_zero_counts_as_moved(self, tmp_path):
        params = identity_params()
        params.wp[5, 9] = -0.0
        header = round_trip(params, tmp_path)
        assert header["blocks"]["wp"] == {"rows": [5], "cols": [9]}
        assert header["blocks"]["wq"] == {"rows": [], "cols": []}

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_damaged_payload_rejected(self, tmp_path, fault):
        dest = tmp_path / "encoder.json"
        save_encoder(moved_params(), dest)
        FAULTS[fault](dest)
        with pytest.raises(MalformedFileError):
            load_encoder(dest)

    def test_header_cannot_take_the_payload_name(self, tmp_path):
        with pytest.raises(ConfigError):
            save_encoder(identity_params(), tmp_path / "encoder.f64")


class TestFileFormat:
    """The file keeps each block column by column, as the params' buffer
    holds it: ``save_encoder`` writes what a writer working on the (d, d)
    weight views writes, and ``load_encoder`` reads that writer's files to
    the same weights."""

    @pytest.mark.parametrize("make", [
        identity_params, moved_params, lambda: init_encoder_params(CFG, seed=44, scale=0.3),
    ])
    def test_save_writes_the_column_order_reference_bytes(self, tmp_path, make):
        params = make()
        for name, save in (("ours", save_encoder), ("reference", save_block_encoder)):
            (tmp_path / name).mkdir()
            save(params, tmp_path / name / "encoder.json", strict_qpa=True)
        for name in ("encoder.json", "encoder.f64"):
            assert (tmp_path / "ours" / name).read_bytes() == (
                tmp_path / "reference" / name).read_bytes()
        loaded, strict = load_encoder(tmp_path / "reference" / "encoder.json")
        assert strict is True
        for side in ("wq", "wp", "qpm_w"):
            assert getattr(loaded, side).tobytes() == getattr(params, side).tobytes()

    @pytest.mark.parametrize("make", [
        moved_params,
        lambda: init_encoder_params(EmbedderConfig(dimension=256), seed=44, scale=0.3),
    ])
    def test_payload_walks_the_buffer_in_order(self, tmp_path, make):
        # Each piece is whole block columns at ascending buffer positions,
        # so the payload is the buffer read at those positions, untransposed.
        params = make()
        d = params.dimension
        payload = save_encoder(params, tmp_path / "encoder.json")
        blocks = [_moved_block(getattr(params, side)) for side in SIDES]
        pieces = list(_block_pieces(blocks, d))
        for piece in pieces:
            rows = blocks[piece[0] // (d * d)][0]
            assert piece.ndim == 1 and piece.size <= _PIECE_VALUES
            assert piece[0] % d == rows[0] and piece.size % rows.size == 0
        positions = np.concatenate(pieces)
        assert (np.diff(positions) > 0).all()
        flat = params.to_vector()
        expected = np.concatenate([flat[positions], params.qpm_w]).astype("<f8")
        assert payload.read_bytes() == expected.tobytes()

    def test_load_checks_the_graph_embedder_first(self, tmp_path):
        dest = tmp_path / "encoder.json"
        save_encoder(moved_params(), dest)
        assert load_encoder(dest, CFG)[0].to_vector().tobytes() == (
            moved_params().to_vector().tobytes())
        for other in (EmbedderConfig(dimension=32), EmbedderConfig(dimension=16, seed=1)):
            with pytest.raises(MalformedFileError, match="embedder"):
                load_encoder(dest, other)


def embedded_rows(texts, embedder):
    return np.array(
        [embed_text(text, embedder).values for text in texts], dtype=np.float64
    ).reshape(len(texts), embedder.dimension)


class TestGatheredProjection:
    """``EncoderParams.project`` multiplies only the columns a batch uses."""

    TEXTS = [question for question, _ in sample_pairs(6)] + [
        path.serialized() for _, path in sample_pairs(6)
    ]

    @pytest.mark.parametrize("dimension", [16, 1024])
    def test_matches_the_dense_product_on_gaussian_weights(self, dimension):
        embedder = EmbedderConfig(dimension=dimension)
        for seed in range(3):
            params = init_encoder_params(embedder, seed=seed, scale=0.3)
            rng = np.random.default_rng(seed)
            x = embedded_rows(self.TEXTS, embedder)
            x[2] = 0.0
            # Sparse rows as embedded, a dense batch that uses every column
            # (several gathers at d = 1024), and a sparse random one.
            batches = [x, x[:1], x[rng.permutation(len(x))[:3]],
                       rng.standard_normal((2, dimension)),
                       rng.standard_normal((4, dimension)) * (rng.random(dimension) < 0.2)]
            for side in ("wq", "wp"):
                for rows in batches:
                    dense = dense_projection(params, side, rows)
                    gap = np.linalg.norm(params.project(side, rows) - dense)
                    assert gap <= 1e-12 * np.linalg.norm(dense)

    def test_is_bit_identical_for_identity_weights(self):
        embedder = EmbedderConfig(dimension=1024)
        params = init_encoder_params(embedder)
        x = embedded_rows(self.TEXTS, embedder)
        for side in ("wq", "wp"):
            for rows in (x, x[:1], -x[3:5]):
                ours = params.project(side, rows)
                assert ours.tobytes() == dense_projection(params, side, rows).tobytes()
                assert ours.tobytes() == (rows + 0.0).tobytes()

    def test_unused_rows_and_batches_project_to_zero(self):
        params = init_encoder_params(CFG, seed=3, scale=0.3)
        x = embedded_rows(["hue of amber fox?", "", "era of birch owl?"], CFG)
        for side in ("wq", "wp"):
            ours = params.project(side, x)
            assert ours.shape == (3, CFG.dimension)
            assert np.linalg.norm(ours[1]) == 0.0
            for empty in (np.zeros((3, CFG.dimension)), embedded_rows(["", "?"], CFG)):
                ours = params.project(side, empty)
                assert ours.shape == empty.shape and np.linalg.norm(ours) == 0.0
        rows = _project_rows(params, "wp", ["", "?"])
        assert rows.unit.shape == (2, CFG.dimension)
        assert not rows.norms.any() and not rows.unit.any()


class TestParamsAsValues:
    """The fields are views of one buffer, yet the params keep behaving as
    values: assignment and element writes reach the buffer, and no vector
    handed out or taken in lets one params change another."""

    def test_assigning_a_field_writes_through(self):
        params = init_encoder_params(CFG, seed=45, scale=0.4)
        head = np.arange(params.qpm_w.size, dtype=np.float64)
        params.qpm_w = head
        params.wq = 2.0 * np.eye(CFG.dimension)
        vector = params.to_vector()
        assert np.array_equal(vector[-head.size :], head)
        assert np.array_equal(vector[: CFG.dimension**2], (2.0 * np.eye(CFG.dimension)).ravel())
        assert np.array_equal(params.with_vector(vector).qpm_w, head)

    def test_assigning_a_wrong_shape_is_config_error(self):
        params = identity_params()
        with pytest.raises(ConfigError):
            params.qpm_w = np.zeros(3)
        with pytest.raises(ConfigError):
            params.wp = np.eye(CFG.dimension + 1)

    def test_element_write_shows_in_the_saved_file(self, tmp_path):
        params = init_encoder_params(CFG, seed=46, scale=0.4)
        params.wq.flat[7] = 12.5
        params.qpm_w[-1] = -3.0
        dest = tmp_path / "encoder.json"
        save_encoder(params, dest)
        loaded, _ = load_encoder(dest)
        assert loaded.wq.flat[7] == 12.5
        assert loaded.qpm_w[-1] == -3.0

    def test_to_vector_is_read_only(self):
        params = init_encoder_params(CFG, seed=47, scale=0.4)
        before = params.to_vector().copy()
        with pytest.raises(ValueError):
            params.to_vector()[0] = 99.0
        assert np.array_equal(params.to_vector(), before)

    def test_with_vector_takes_a_writable_vector_over(self):
        params = init_encoder_params(CFG, seed=48, scale=0.4)
        before = params.to_vector().copy()
        vector = before.copy()
        taken = params.with_vector(vector)
        vector[0] = 99.0
        assert taken.wq[0, 0] == 99.0
        assert np.array_equal(params.to_vector(), before)

    def test_with_vector_copies_another_params_vector(self):
        params = init_encoder_params(CFG, seed=49, scale=0.4)
        before = params.to_vector().copy()
        twin = params.with_vector(params.to_vector())
        twin.wq[0, 0] = 99.0
        twin.qpm_w = np.ones(params.qpm_w.size)
        assert np.array_equal(params.to_vector(), before)
        copied = params.copy()
        copied.wp[1, 1] = -7.0
        assert np.array_equal(params.to_vector(), before)

    def test_grads_share_one_buffer(self):
        params = init_encoder_params(CFG, seed=50, scale=0.4)
        params.qpm_w = 0.3 * np.random.default_rng(50).standard_normal(params.qpm_w.size)
        _, _, grads = pt_loss_and_grads(params, sample_pairs(3))
        vector = grads.to_vector()
        assert vector is grads.to_vector()
        for part in (grads.wq, grads.wp, grads.qpm_w):
            assert np.shares_memory(part, vector)
