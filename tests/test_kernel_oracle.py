"""The batched learning kernels against their per-row reference forms.

Every loss and gradient of the encoder (QPA, QPM, pre-training, FT) and
the policy (warm-start BCE, REINFORCE, the forward pass) is compared with
the per-row code in ``scalar_kernels`` on seeded batches of 1 to 6 rows,
with duplicate texts, questions and paths that embed invalid, both
contrastive forms and episodes with forced steps. Batching changes the
BLAS summation order, so values agree within 1e-12 relative, not bit for
bit; a result that cancels to an exact zero in one form may keep a residue
of rounding size in the other, hence the 1e-15 absolute floor.
"""

import numpy as np
import pytest

from ragplan.corpus import InstructionPath
from ragplan.embedding import EmbedderConfig
from ragplan.encoder import (
    PathPool,
    ft_loss_and_grads,
    init_encoder_params,
    make_qpm_batch,
    pt_loss_and_grads,
    qpa_loss_and_grads,
    qpm_loss_and_grads,
)
from ragplan.optim import AdamState, adam_step
from ragplan.policy import (
    Episode,
    EpisodeStep,
    bce_loss_and_grad,
    init_policy_params,
    pg_loss_and_grad,
    policy_forward,
)
from scalar_kernels import (
    adam_reference,
    bce_reference,
    ft_reference,
    pg_reference,
    policy_forward_reference,
    pt_reference,
    qpa_reference,
    qpm_reference,
)

TOLERANCE = 1e-12
ZERO_FLOOR = 1e-15
SEEDS = range(4)
SIZES = range(1, 7)
# A strict batch of one has no negative; tests/test_encoder.py covers it.
FORMS = [(n, strict) for n in SIZES for strict in (False, True) if n > 1 or not strict]
EMBEDDER = EmbedderConfig(dimension=16)
# "" and "?" have no hashed features, so they embed as invalid zero vectors.
QUESTIONS = ["hue of amber fox?", "era of birch owl?", "hue of amber fox?", "",
             "where does cedar lynx roam"]
STEPS = ["Search[amber fox]", "Lookup[hue]", "Search[birch owl]", "?", "Check[era]"]


def assert_close(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(np.linalg.norm(actual), np.linalg.norm(expected))
    assert np.linalg.norm(actual - expected) <= TOLERANCE * scale + ZERO_FLOOR


def encoder_params(seed):
    params = init_encoder_params(EMBEDDER, seed=seed, tau=0.3, scale=0.4)
    params.qpm_w = 0.3 * np.random.default_rng(seed).standard_normal(params.qpm_w.size)
    return params


def random_path(rng, qid):
    length = int(rng.integers(1, 3))
    return InstructionPath(tuple(rng.choice(STEPS, size=length)), "T1", qid)


def random_pairs(n, seed):
    """n pairs drawn with replacement, so texts repeat; the last seed puts
    an invalid question first and an invalid path last."""
    rng = np.random.default_rng(1000 * n + seed)
    pairs = [(str(rng.choice(QUESTIONS)), random_path(rng, f"q{i}")) for i in range(n)]
    if seed == SEEDS[-1]:
        pairs[0] = ("", pairs[0][1])
        pairs[-1] = (pairs[-1][0], InstructionPath(("?",), "T1", "invalid"))
    return pairs


@pytest.mark.parametrize("n, strict", FORMS)
def test_qpa_matches_reference(n, strict):
    for seed in SEEDS:
        params = encoder_params(seed)
        pairs = random_pairs(n, seed)
        loss, grads = qpa_loss_and_grads(params, pairs, strict=strict)
        ref_loss, ref_wq, ref_wp = qpa_reference(params, pairs, strict)
        assert_close(loss, ref_loss)
        assert_close(grads.wq, ref_wq)
        assert_close(grads.wp, ref_wp)
        assert not grads.qpm_w.any()


@pytest.mark.parametrize("n", SIZES)
def test_qpm_matches_reference(n):
    for seed in SEEDS:
        params = encoder_params(seed)
        triples = make_qpm_batch(random_pairs(n, seed))
        loss, grads = qpm_loss_and_grads(params, triples)
        ref_loss, ref_wq, ref_wp, ref_head = qpm_reference(params, triples)
        assert_close(loss, ref_loss)
        assert_close(grads.wq, ref_wq)
        assert_close(grads.wp, ref_wp)
        assert_close(grads.qpm_w, ref_head)


@pytest.mark.parametrize("n", range(2, 7))
def test_pt_matches_reference(n):
    for seed in SEEDS:
        params = encoder_params(seed)
        pairs = random_pairs(n, seed)
        align, match, grads = pt_loss_and_grads(params, pairs, strict=seed % 2 == 1)
        ref_align, ref_match, *ref_grads = pt_reference(params, pairs, strict=seed % 2 == 1)
        assert_close(align, ref_align)
        assert_close(match, ref_match)
        for part, ref_part in zip((grads.wq, grads.wp, grads.qpm_w), ref_grads):
            assert_close(part, ref_part)


@pytest.mark.parametrize("n, strict", FORMS)
def test_ft_matches_reference(n, strict):
    for seed in SEEDS:
        params = encoder_params(seed)
        pairs = random_pairs(n, seed)
        pool = PathPool.from_paths([path for _, path in pairs])
        pool.best_index = seed % n
        question = pairs[-1][0]
        loss, grads = ft_loss_and_grads(params, question, pool, strict=strict)
        ref_loss, ref_wq, ref_wp = ft_reference(
            params, question, pool.paths(), pool.best_index, strict
        )
        assert_close(loss, ref_loss)
        assert_close(grads.wq, ref_wq)
        assert_close(grads.wp, ref_wp)
        assert not grads.qpm_w.any()


def random_states(rng, n):
    states = rng.uniform(-1.0, 1.0, size=(n, 3))
    if n >= 2:
        states[-1] = states[0]  # a repeated state
    return states


@pytest.mark.parametrize("n", SIZES)
def test_bce_and_forward_match_reference(n):
    for seed in SEEDS:
        rng = np.random.default_rng(2000 * n + seed)
        params = init_policy_params(seed=seed, scale=0.8)
        states = random_states(rng, n)
        labels = rng.integers(0, 2, size=n).astype(np.float64)
        loss, grad = bce_loss_and_grad(params, states, labels)
        ref_loss, ref_grad = bce_reference(params, states, labels)
        assert_close(loss, ref_loss)
        assert_close(grad, ref_grad)
        for state in states:
            assert_close(policy_forward(params, state), policy_forward_reference(params, state))


@pytest.mark.parametrize("n", SIZES)
def test_pg_matches_reference(n):
    for seed in SEEDS:
        rng = np.random.default_rng(3000 * n + seed)
        params = init_policy_params(seed=seed, scale=0.8)
        forced = rng.random(n) < 0.4
        if n >= 2:
            forced[int(rng.integers(n))] = True
        steps = [
            EpisodeStep(state, int(rng.integers(2)), 0.0, forced=bool(flag))
            for state, flag in zip(random_states(rng, n), forced)
        ]
        episode = Episode(steps=steps, reward=float(rng.uniform(0.0, 1.0)))
        baseline = float(rng.uniform(0.0, 0.5))
        loss, grad = pg_loss_and_grad(params, episode, 0.9, baseline)
        ref_loss, ref_grad = pg_reference(params, episode, 0.9, baseline)
        assert_close(loss, ref_loss)
        assert_close(grad, ref_grad)


def test_adam_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    size = 257
    ours, reference = AdamState.zeros(size), AdamState.zeros(size)
    params = ref_params = rng.standard_normal(size)
    for step in range(6):
        grad = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 3)
        params = adam_step(params, grad, ours, 0.01)
        ref_params = adam_reference(ref_params, grad, reference, 0.01)
        assert np.array_equal(params, ref_params)
        assert np.array_equal(ours.m, reference.m) and np.array_equal(ours.v, reference.v)
