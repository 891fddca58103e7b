import json

import numpy as np
import pytest

from ragplan.backend import BackendConfig, MockBackend, PlanResult
from ragplan.corpus import MetricKind, TaskCorpus, split_by_hint
from ragplan.embedding import EmbedderConfig
from ragplan.errors import DataError
from ragplan.graph import build_graph, graph_stats, graphs_equal
from ragplan.meta import (
    MetaConfig,
    answer_question,
    evaluate_bundle,
    fewshot_adapt,
    init_bundle,
    meta_test,
    meta_train,
    plan_delta,
    summarize_records,
)
from ragplan.policy import RlConfig
from ragplan.world import SyntheticWorldSpec, gen_task_corpus, gen_world

EMBEDDER = EmbedderConfig(dimension=256)
METRIC = MetricKind.TOKEN_F1


@pytest.fixture(scope="module")
def small_setup():
    spec = SyntheticWorldSpec(
        entity_count=12,
        attribute_count=3,
        task_family_count=2,
        pair_support=2,
        value_support=2,
        compare_support=1,
        bridge_support=0,
        query_per_family=4,
        recombination_fraction=0.25,
    )
    world, corpus = gen_world(spec, seed=3)
    support, query = split_by_hint(corpus)
    backend = MockBackend(world, BackendConfig())
    rl = RlConfig(k=3, rule_hooks=("no-lookup-before-search",))
    return world, support, query, backend, rl


def small_config(**overrides):
    defaults = dict(
        iterations=3, seed=5, tasks_per_meta_batch=2, questions_per_batch=4
    )
    defaults.update(overrides)
    return MetaConfig(**defaults)


class TestMetaTrain:
    def test_zero_iterations_returns_initialization(self, small_setup):
        _, support, query, backend, rl = small_setup
        config = small_config(iterations=0)
        bundle, log = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        reference = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=config.seed)
        assert np.array_equal(bundle.policy.to_vector(), reference.policy.to_vector())
        assert np.array_equal(bundle.encoder.to_vector(), reference.encoder.to_vector())
        assert log == []

    def test_same_seed_reproduces_training_log(self, small_setup):
        _, support, query, backend, rl = small_setup
        config = small_config()
        bundle_a, log_a = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        bundle_b, log_b = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        assert log_a == log_b
        assert np.array_equal(bundle_a.policy.to_vector(), bundle_b.policy.to_vector())
        assert np.array_equal(bundle_a.encoder.to_vector(), bundle_b.encoder.to_vector())

    def test_training_moves_parameters(self, small_setup):
        _, support, query, backend, rl = small_setup
        config = small_config()
        bundle, log = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        reference = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=config.seed)
        assert not np.array_equal(bundle.policy.to_vector(), reference.policy.to_vector())
        assert log
        required = {"iteration", "task_id", "question_id", "selected_path", "answer",
                    "delta", "episode_len"}
        assert required <= set(log[0])

    def test_zero_learning_rates_leave_params_bit_identical(self, small_setup):
        _, support, query, backend, rl = small_setup
        config = small_config(inner_lr=0.0, outer_lr=0.0)
        bundle, _ = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        reference = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=config.seed)
        assert np.array_equal(bundle.policy.to_vector(), reference.policy.to_vector())
        assert np.array_equal(bundle.encoder.to_vector(), reference.encoder.to_vector())

    def test_graph_not_mutated_by_training(self, small_setup):
        _, support, query, backend, rl = small_setup
        config = small_config()
        bundle, _ = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        rebuilt = build_graph(support, 0.4, EMBEDDER)
        assert graphs_equal(bundle.graph, rebuilt)


class TestFewshotAdapt:
    def test_empty_new_support_returns_equal_graph_and_no_bundles(self, small_setup):
        _, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        adapted, extended = fewshot_adapt(
            bundle, TaskCorpus(), small_config(), backend=backend, metric=METRIC
        )
        assert adapted == {}
        assert graphs_equal(extended, bundle.graph)

    def test_adapted_bundles_are_isolated_per_task(self, small_setup):
        world, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        held_spec = SyntheticWorldSpec(
            entity_count=12, attribute_count=3, task_family_count=1,
            pair_support=2, value_support=2, compare_support=0, bridge_support=0,
            query_per_family=3, recombination_fraction=0.0,
        )
        held = gen_task_corpus(world, [world.attributes[2]], seed=11, spec=held_spec)
        h_support, _ = split_by_hint(held)
        second = gen_task_corpus(world, [world.attributes[1]], seed=12, spec=held_spec)
        both = TaskCorpus()
        for q in h_support.iter_questions():
            both.add(q)
        for q in split_by_hint(second)[0].iter_questions():
            both.add(q)
        adapted, extended = fewshot_adapt(
            bundle, both, small_config(), backend=backend, metric=METRIC
        )
        assert len(adapted) == 2
        tasks = sorted(adapted)
        a, b = adapted[tasks[0]], adapted[tasks[1]]
        assert not np.array_equal(a.policy.to_vector(), b.policy.to_vector())
        assert a.policy is not bundle.policy
        # base bundle untouched
        assert np.array_equal(
            bundle.policy.to_vector(),
            init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1).policy.to_vector(),
        )
        # extension grew the graph without touching the base graph
        assert graph_stats(extended).node_count >= graph_stats(bundle.graph).node_count
        assert graphs_equal(bundle.graph, build_graph(support, 0.4, EMBEDDER))

    def test_task_without_usable_questions_flagged_unadapted(self, small_setup):
        _, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        from ragplan.corpus import Question

        empty_task = TaskCorpus()
        empty_task.add(Question("qx", "T_new", "a question", "answer", paths=()))
        adapted, _ = fewshot_adapt(
            bundle, empty_task, small_config(), backend=backend, metric=METRIC
        )
        assert np.array_equal(adapted["T_new"].policy.to_vector(), bundle.policy.to_vector())


class TestPlanDelta:
    def test_failed_plan_scores_zero(self):
        result = PlanResult(answer="russet", ok=False, reward=1.0)
        assert plan_delta(result, MetricKind.REWARD_SCORE, "russet") == 0.0

    def test_backend_reward_wins_under_reward_metric_only(self):
        result = PlanResult(answer="russet", reward=0.25)
        assert plan_delta(result, MetricKind.REWARD_SCORE, "russet") == 0.25
        assert plan_delta(result, MetricKind.TOKEN_F1, "russet") == 1.0


class TestMetaTest:
    def test_single_question_gold_retrieval_scores_one(self, small_setup):
        world, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        # force an include-everything policy so the gold path is reachable
        bundle.policy.b2 = np.array([6.0, -6.0])
        question = next(support.iter_questions())
        single = TaskCorpus()
        single.add(question)
        report = meta_test({question.task_id: bundle}, single, METRIC, backend)
        assert report.per_task[question.task_id]["mean_delta"] == 1.0
        assert report.macro_average == 1.0

    def test_non_finite_policy_raises_instead_of_failing_quietly(self, small_setup):
        _, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        bundle.policy.w1[0, 0] = np.nan
        question = next(query.iter_questions())
        with pytest.raises(DataError, match="non-finite"):
            answer_question(bundle, question, backend, METRIC)

    def test_macro_average_is_mean_of_task_means(self):
        records = [
            {"task_id": "A", "question_id": "1", "delta": 1.0},
            {"task_id": "A", "question_id": "2", "delta": 0.0},
            {"task_id": "B", "question_id": "3", "delta": 1.0},
        ]
        report = summarize_records(records)
        assert report.per_task["A"]["mean_delta"] == 0.5
        assert report.per_task["B"]["mean_delta"] == 1.0
        assert report.macro_average == 0.75

    def test_report_totals_match_record_recount(self, small_setup):
        _, support, query, backend, rl = small_setup
        bundle = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=1)
        bundle.policy.b2 = np.array([6.0, -6.0])
        bundles = {task: bundle for task in query.task_ids()}
        report = meta_test(bundles, query, METRIC, backend)
        payload = [json.dumps(r, sort_keys=True) for r in report.records]
        reread = [json.loads(line) for line in payload]
        for task_id, summary in report.per_task.items():
            deltas = [r["delta"] for r in reread if r["task_id"] == task_id]
            assert summary["question_count"] == len(deltas)
            assert summary["mean_delta"] == pytest.approx(float(np.mean(deltas)))
        assert report.macro_average == pytest.approx(
            float(np.mean([s["mean_delta"] for s in report.per_task.values()]))
        )

    def test_missing_bundle_without_default_rejected(self, small_setup):
        _, support, query, backend, rl = small_setup
        with pytest.raises(DataError):
            meta_test({}, query, METRIC, backend)


class TestTrainingImprovesQueryScore:
    def test_two_hundred_iterations_beat_initialization_by_margin(self, small_setup):
        # Reference margin: the trained bundle must beat the untrained one
        # by at least 0.15 mean score on the query set.
        _, support, query, backend, rl = small_setup
        config = MetaConfig(
            iterations=25, seed=5, tasks_per_meta_batch=2, questions_per_batch=4
        )
        initial = init_bundle(build_graph(support, 0.4, EMBEDDER), rl, seed=config.seed)
        before = evaluate_bundle(initial, query, backend, METRIC).macro_average
        bundle, _ = meta_train(
            support, query, config, delta=0.4, embedder=EMBEDDER,
            rl_config=rl, backend=backend, metric=METRIC,
        )
        after = evaluate_bundle(bundle, query, backend, METRIC).macro_average
        assert after - before >= 0.15
