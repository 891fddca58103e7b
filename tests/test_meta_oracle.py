"""The factored meta-loop against the dense one it replaced.

``ragplan.meta`` keeps every encoder update as factors and forms it
once: the inner step leaves the base plus factors, each task's rollout
projects its questions and pool paths in one product per side, and a
meta-batch's fine-tuning gradient is one stacked product per side. The
dense loop in ``meta_reference.py`` forms every gradient and adapted
encoder as it goes, and selects one row at a time. Only the rounding
order differs, so on the demo world the logs, policies and evaluation
records must be identical and the encoder weights agree within 1e-12.
"""

import numpy as np
import pytest

import meta_reference
from meta_reference import (
    candidate_similarities as single_row_similarities,
    ft_loss_and_grads as dense_ft,
    pt_loss_and_grads as dense_pt,
    qpa_loss_and_grads as dense_qpa,
    qpm_loss_and_grads as dense_qpm,
    reference_fewshot_adapt,
    reference_meta_train,
)
from ragplan.backend import BackendConfig, MockBackend
from ragplan.corpus import InstructionPath, MetricKind, split_by_hint
from ragplan.embedding import EmbedderConfig
from ragplan.encoder import (
    AdaptedEncoder,
    PathPool,
    PoolRows,
    ft_loss_and_grads,
    init_encoder_params,
    make_qpm_batch,
    pt_loss_and_grads,
    qpa_loss_and_grads,
    qpm_loss_and_grads,
)
from ragplan.meta import MetaConfig, fewshot_adapt, meta_test, meta_train, retrieve
from ragplan.policy import RlConfig
from ragplan.world import demo_spec, gen_world
from test_kernel_oracle import QUESTIONS, random_pairs

METRIC = MetricKind.TOKEN_F1
EMBEDDER = EmbedderConfig(dimension=1024)
RL = RlConfig(rule_hooks=("no-lookup-before-search",))
WEIGHT_TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def demo():
    world, corpus = gen_world(demo_spec(), seed=7)
    support, query = split_by_hint(corpus)
    return world, support, query, MockBackend(world, BackendConfig())


@pytest.fixture(scope="module")
def trained(demo):
    _, support, query, backend = demo
    config = MetaConfig(iterations=3, seed=7)
    kwargs = dict(delta=0.4, embedder=EMBEDDER, rl_config=RL, backend=backend, metric=METRIC)
    return (
        meta_train(support, query, config, **kwargs),
        reference_meta_train(support, query, config, **kwargs),
    )


def max_weight_gap(a, b):
    return float(np.max(np.abs(a.to_vector() - b.to_vector())))


def test_meta_train_matches_dense_reference(trained):
    (bundle, log), (ref_bundle, ref_log) = trained
    assert log and log == ref_log
    assert np.array_equal(bundle.policy.to_vector(), ref_bundle.policy.to_vector())
    assert max_weight_gap(bundle.encoder, ref_bundle.encoder) <= WEIGHT_TOLERANCE


@pytest.mark.parametrize("inner_steps", [1, 3])
def test_fewshot_adapt_matches_dense_reference(demo, trained, inner_steps):
    # Three inner steps move the match head away from zero, so the later
    # steps project through the factored encoder and back-project QPM too.
    # As `ragplan adapt` runs on the demo corpus: every seen task adapts
    # on its support questions and is tested on its query questions.
    _, support, query, backend = demo
    (bundle, _), _ = trained
    config = MetaConfig(seed=7, inner_lr=0.08, outer_lr=0.008, inner_steps=inner_steps)
    adapted, extended = fewshot_adapt(bundle, support, config, backend=backend, metric=METRIC)
    reference, _ = reference_fewshot_adapt(bundle, support, config, backend=backend, metric=METRIC)
    assert adapted.keys() == reference.keys() and adapted
    for task_id, task_bundle in adapted.items():
        ref = reference[task_id]
        assert np.array_equal(task_bundle.policy.to_vector(), ref.policy.to_vector())
        assert max_weight_gap(task_bundle.encoder, ref.encoder) <= WEIGHT_TOLERANCE
        assert task_bundle.graph is extended
    ours = meta_test(adapted, query, METRIC, backend)
    theirs = meta_test(reference, query, METRIC, backend)
    assert ours.records == theirs.records
    assert ours.per_task == theirs.per_task


EMBEDDER_16 = EmbedderConfig(dimension=16)


def small_params(seed, head_scale=0.0):
    params = init_encoder_params(EMBEDDER_16, seed=seed, tau=0.3, scale=0.4)
    params.qpm_w = head_scale * np.random.default_rng(seed).standard_normal(params.qpm_w.size)
    return params


@pytest.mark.parametrize("n", range(1, 7))
def test_each_factored_loss_densifies_to_the_dense_product(n, monkeypatch):
    # A single loss forms the same d_raw and base rows and multiplies them
    # with the same matmul, so it matches bit for bit; pt adds the two
    # losses' row gradients before one back-projection, so it moves the
    # rounding order only. This checks densification alone, so the dense
    # losses project through the program's own product.
    monkeypatch.setattr(
        meta_reference, "dense_projection", lambda params, side, x: params.project(side, x)
    )
    for seed in range(4):
        params = small_params(seed, head_scale=0.3)
        pairs = random_pairs(n, seed)
        strict = seed % 2 == 1 and n > 1
        for ours, dense in (
            (qpa_loss_and_grads(params, pairs, strict), dense_qpa(params, pairs, strict)),
            (qpm_loss_and_grads(params, make_qpm_batch(pairs)),
             dense_qpm(params, make_qpm_batch(pairs))),
        ):
            assert ours[0] == dense[0]
            assert np.array_equal(ours[1].to_vector(), dense[1].to_vector())
        pool = PathPool.from_paths([path for _, path in pairs])
        pool.best_index = seed % n
        loss, grads = ft_loss_and_grads(params, QUESTIONS[seed], pool, strict)
        ref_loss, ref_grads = dense_ft(params, QUESTIONS[seed], pool, strict)
        assert loss == ref_loss
        assert np.array_equal(grads.to_vector(), ref_grads.to_vector())
        align, match, grads = pt_loss_and_grads(params, pairs, strict)
        ref_align, ref_match, ref_grads = dense_pt(params, pairs, strict)
        assert align == pytest.approx(ref_align, rel=1e-13, abs=1e-15)
        assert match == pytest.approx(ref_match, rel=1e-13, abs=1e-15)
        scale = np.abs(ref_grads.to_vector()).max()
        assert np.abs(grads.to_vector() - ref_grads.to_vector()).max() <= 1e-13 * scale


def test_adapted_encoder_projects_as_its_dense_form():
    params = small_params(7, head_scale=0.3)
    pairs = random_pairs(5, 7)
    adapted = AdaptedEncoder(params)
    for step in range(3):
        adapted = adapted.descend(pt_loss_and_grads(adapted, pairs)[2], 0.1)
    dense = adapted.dense()
    assert np.array_equal(adapted.qpm_w, dense.qpm_w)
    pools = [[path for _, path in pairs[:3]], [path for _, path in pairs[2:]]]
    ours = PoolRows(adapted, QUESTIONS[:2], pools)
    formed = PoolRows(dense, QUESTIONS[:2], pools)
    for side in ("q", "p"):
        a, b = getattr(ours, side), getattr(formed, side)
        assert np.allclose(a.unit, b.unit, rtol=0.0, atol=1e-14)
        assert np.allclose(a.norms, b.norms, rtol=1e-14, atol=0.0)
    assert np.array_equal(params.to_vector(), small_params(7, head_scale=0.3).to_vector())


def test_pooled_selection_matches_the_single_row_path_on_the_demo(demo, trained):
    # Serving selects through PoolRows; the single-row path it replaced
    # projects each text alone. One row or many through the same W moves
    # only the rounding.
    _, support, query, _ = demo
    (bundle, _), _ = trained
    selections = 0
    for question in [*support.iter_questions(), *query.iter_questions()]:
        candidates, sims, selected = retrieve(bundle, question)
        if selected is None:
            continue
        reference = single_row_similarities(
            bundle.encoder, question.text, [c.path for c in candidates]
        )
        assert selected == int(np.argmax(reference))
        assert np.abs(sims - reference).max() <= 1e-6
        selections += 1
    assert selections > 50


def pair_cosines(rows, i):
    """A per-pair cosine loop: ``np.dot`` of question ``i``'s float64 unit
    row with each of its pool's; a zero projection has a zero unit row."""
    pool = range(rows.starts[i], rows.starts[i + 1])
    return np.array([np.dot(rows.q.unit[i], rows.p.unit[j]) for j in pool])


def test_pool_similarities_equal_a_per_pair_cosine_loop_bit_for_bit():
    invalid = InstructionPath(("?",), "T1", "invalid")  # embeds to zero: norm 0
    for seed in range(6):
        pairs = random_pairs(6, seed)
        questions = [question for question, _ in pairs[:3]]
        pools = [[path for _, path in pairs[i:i + 3]] + [invalid] for i in range(3)]
        for params in (small_params(seed), init_encoder_params(EMBEDDER_16)):
            rows = PoolRows(params, questions, pools)
            for i, pool in enumerate(pools):
                sims = rows.similarities(i, len(pool))
                assert np.array_equal(sims, pair_cosines(rows, i))
                assert sims[-1] == 0.0
    question = "hue of amber fox?"
    own_text = InstructionPath((question,), "T1", "q0")
    identity = init_encoder_params(EMBEDDER_16)
    sims = PoolRows(identity, [question], [[own_text, invalid]]).similarities(0, 2)
    # The two unit rows are equal, but their dot product may round a few
    # ulps to either side of 1.0: no identical-array rule sets it to 1.0.
    assert int(np.argmax(sims)) == 0 and sims[1] == 0.0
    assert sims[0] == pytest.approx(1.0, abs=1e-15)
