"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion. Heavy artifacts (the trained pipeline) are built once per
session and shared. Margins marked as reference values were established
by reference runs and then frozen.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ragplan.backend import BackendConfig, MockBackend
from ragplan.baseline import evaluate_verbatim
from ragplan.cli import main as cli_main
from ragplan.corpus import (
    InstructionPath,
    MetricKind,
    Question,
    TaskCorpus,
    corrupt_paths,
    split_by_hint,
)
from ragplan.embedding import EmbedderConfig, embed_counts
from ragplan.encoder import (
    EncoderParams,
    PathPool,
    ft_loss_and_grads,
    init_encoder_params,
    load_encoder,
    make_qpm_batch,
    qpa_loss_and_grads,
    qpm_loss_and_grads,
    save_encoder,
)
from ragplan.errors import VersionMismatchError
from ragplan.graph import (
    build_graph,
    graph_stats,
    graphs_equal,
    insert_path,
    knn_nearest,
    load_graph,
    save_graph,
)
from ragplan.meta import (
    MetaConfig,
    evaluate_bundle,
    fewshot_adapt,
    init_bundle,
    meta_test,
    meta_train,
)
from ragplan.optim import AdamState, ReturnBaseline, adam_step
from ragplan.policy import (
    Episode,
    EpisodeStep,
    PolicyParams,
    RlConfig,
    bce_loss_and_grad,
    episode_returns,
    init_policy_params,
    load_policy,
    pg_loss_and_grad,
    policy_forward,
    save_policy,
)
from ragplan.world import (
    SyntheticWorldSpec,
    build_world,
    demo_spec,
    gen_task_corpus,
    gen_world,
    is_recombination,
)

from encoder_reference import load_full_encoder, save_full_encoder

METRIC = MetricKind.TOKEN_F1
PIPELINE_EMBEDDER = EmbedderConfig(dimension=1024)
PIPELINE_RL = RlConfig(rule_hooks=("no-lookup-before-search",))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def random_corpus(seed: int, n_instructions: int = 60) -> TaskCorpus:
    rng = np.random.default_rng(seed)
    operators = ["Search", "Lookup", "Check", "Fetch"]
    words = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath",
             "iris", "jade", "kelp", "larch", "maple", "night", "oak", "pine",
             "quill", "reed", "slate", "thorn"]
    corpus = TaskCorpus()
    total, qi = 0, 0
    while total < n_instructions:
        texts = []
        for _ in range(int(rng.integers(2, 6))):
            op = operators[int(rng.integers(len(operators)))]
            arg = " ".join(
                words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(1, 3)))
            )
            texts.append(f"{op}[{arg}]")
        texts = [t for i, t in enumerate(texts) if i == 0 or t != texts[i - 1]]
        qi += 1
        qid = f"q{qi:04d}"
        task = f"T{qi % 6}"
        corpus.add(
            Question(qid, task, f"question {qi}", "answer",
                     paths=(InstructionPath(tuple(texts), task, qid, 1.0),))
        )
        total += len(texts)
    return corpus


@pytest.fixture(scope="session")
def demo():
    spec = SyntheticWorldSpec(recombination_fraction=0.3)
    world, corpus = gen_world(spec, seed=7)
    support, query = split_by_hint(corpus)
    backend = MockBackend(world, BackendConfig())
    return world, corpus, support, query, backend


@pytest.fixture(scope="session")
def trained(demo):
    _, _, support, query, backend = demo
    config = MetaConfig(iterations=40, seed=0)
    bundle, log = meta_train(
        support, query, config,
        delta=0.4, embedder=PIPELINE_EMBEDDER, rl_config=PIPELINE_RL,
        backend=backend, metric=METRIC,
    )
    return bundle, log


class TestCriterion01GraphInvariants:
    def test_invariants_and_construction_speed(self):
        embedder = EmbedderConfig()
        checked_paths = 0
        for seed in range(50):
            corpus = random_corpus(seed)
            graph_seeded = build_graph(corpus, 0.4, embedder)
            # replay every path through a fresh insert to capture node sequences
            replay = type(graph_seeded)(delta=0.4, embedder=embedder)
            for question in corpus.iter_questions():
                sequence = insert_path(replay, question.gold_path, question.text)
                checked_paths += 1
                for a, b in zip(sequence, sequence[1:]):
                    assert a != b, "adjacent instructions share a node"
                    assert (a, b) in replay.edges, "path leaves the stored edges"
                    assert question.task_id in replay.edges[(a, b)].tasks
        big = random_corpus(999, n_instructions=1000)
        started = time.perf_counter()
        graph = build_graph(big, 0.4, embedder)
        elapsed = time.perf_counter() - started
        ok = elapsed < 10.0 and not graph.is_empty()
        report(
            1,
            ok and checked_paths > 0,
            f"{checked_paths} paths over 50 corpora satisfy adjacency/edge invariants; "
            f"1000-instruction build took {elapsed:.2f}s (< 10s)",
        )


class TestCriterion02DeltaSweep:
    def test_node_count_trend_on_demo_corpus(self, demo):
        _, _, support, _, _ = demo
        started = time.perf_counter()
        counts = []
        for delta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            counts.append(graph_stats(build_graph(support, delta, PIPELINE_EMBEDDER)).node_count)
        elapsed = time.perf_counter() - started
        total = sum(len(q.gold_path.instructions) for q in support.iter_questions())
        distinct = len({t for q in support.iter_questions() for t in q.gold_path.instructions})
        ok = (
            counts == sorted(counts)
            and counts[0] <= 0.05 * total
            and counts[-1] == distinct
            and elapsed < 30.0
        )
        report(
            2,
            ok,
            f"node counts {counts} non-decreasing; delta=0 gives {counts[0]} <= 5% of "
            f"{total} instructions; delta=1 gives one node per distinct text "
            f"({distinct}); runtime {elapsed:.2f}s (< 30s)",
        )


class TestCriterion03KnnOracle:
    def test_exhaustive_scan_equivalence(self):
        embedder = EmbedderConfig()
        corpus = random_corpus(4242, n_instructions=1000)
        graph = build_graph(corpus, 0.4, embedder)
        rng = np.random.default_rng(17)
        operators = ["Search", "Lookup", "Check", "Fetch"]
        words = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath"]
        # Every stored (node, text) in that order, with its integer counts
        # and their squared norm: ψ from them is exact up to its square
        # root and division.
        rows = []
        for node_id, node in sorted(graph.nodes.items()):
            for stored_text in sorted(node.instructions):
                stored = embed_counts(stored_text, embedder).astype(np.int64)
                rows.append((node_id, stored_text, stored, int(stored @ stored)))
        mismatches = 0
        for _ in range(1000):
            text = (
                f"{operators[int(rng.integers(4))]}"
                f"[{words[int(rng.integers(8))]} {words[int(rng.integers(8))]}]"
            )
            query = embed_counts(text, embedder).astype(np.int64)
            sqnorm = int(query @ query)
            hit = knn_nearest(graph, text)
            best = None
            for node_id, stored_text, stored, stored_sqnorm in rows:
                product = sqnorm * stored_sqnorm
                sim = int(query @ stored) / math.sqrt(product) if product else 0.0
                if best is None or sim > best[0]:
                    best = (sim, node_id, stored_text)
            if (hit.node_id, hit.text) != (best[1], best[2]):
                mismatches += 1
        report(3, mismatches == 0, f"1000 queries, {mismatches} mismatches against brute force")


def _finite_difference(loss_fn, vector, h=1e-5):
    grad = np.zeros_like(vector)
    for i in range(vector.size):
        bumped = vector.copy()
        bumped[i] += h
        up = loss_fn(bumped)
        bumped[i] -= 2 * h
        grad[i] = (up - loss_fn(bumped)) / (2 * h)
    return grad


def _rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestCriterion04GradientChecks:
    def test_all_analytic_gradients(self):
        started = time.perf_counter()
        rng = np.random.default_rng(5)
        worst = 0.0
        small = EmbedderConfig(dimension=8)
        names = ["amber", "birch", "cedar", "dune", "ember"]

        for trial in range(20):  # policy BCE
            params = init_policy_params(seed=trial, scale=0.8)
            states = rng.uniform(-1, 1, size=(3, 3))
            labels = rng.integers(0, 2, size=3).astype(float)
            _, grad = bce_loss_and_grad(params, states, labels)
            fd = _finite_difference(
                lambda v: bce_loss_and_grad(PolicyParams.from_vector(v), states, labels)[0],
                params.to_vector(),
            )
            worst = max(worst, _rel_err(grad, fd))

        for trial in range(20):  # REINFORCE
            params = init_policy_params(seed=100 + trial, scale=0.8)
            steps = [
                EpisodeStep(rng.uniform(-1, 1, size=3), int(rng.integers(2)), 0.0)
                for _ in range(4)
            ]
            episode = Episode(steps=steps, reward=float(rng.uniform(0.2, 1.0)))
            _, grad = pg_loss_and_grad(params, episode, gamma=0.9)
            fd = _finite_difference(
                lambda v: pg_loss_and_grad(PolicyParams.from_vector(v), episode, 0.9)[0],
                params.to_vector(),
            )
            worst = max(worst, _rel_err(grad, fd))

        for trial in range(20):  # QPA, QPM, FT
            enc = init_encoder_params(small, seed=trial, tau=0.5, scale=0.4)
            enc.qpm_w = 0.3 * rng.standard_normal(enc.qpm_w.size)
            picked = rng.choice(names, size=3, replace=False)
            pairs = [
                (f"question about {w}", InstructionPath((f"Search[{w}]",), "T1", f"q{i}"))
                for i, w in enumerate(picked)
            ]
            strict = trial % 2 == 0
            _, grads = qpa_loss_and_grads(enc, pairs, strict=strict)
            fd = _finite_difference(
                lambda v: qpa_loss_and_grads(enc.with_vector(v), pairs, strict=strict)[0],
                enc.to_vector(),
            )
            worst = max(worst, _rel_err(grads.to_vector(), fd))

            triples = make_qpm_batch(pairs)
            _, grads = qpm_loss_and_grads(enc, triples)
            fd = _finite_difference(
                lambda v: qpm_loss_and_grads(enc.with_vector(v), triples)[0], enc.to_vector()
            )
            worst = max(worst, _rel_err(grads.to_vector(), fd))

            pool = PathPool.from_paths([p for _, p in pairs])
            pool.best_index = trial % 3
            _, grads = ft_loss_and_grads(enc, pairs[0][0], pool, strict=strict)
            fd = _finite_difference(
                lambda v: ft_loss_and_grads(
                    enc.with_vector(v), pairs[0][0], pool, strict=strict
                )[0],
                enc.to_vector(),
            )
            worst = max(worst, _rel_err(grads.to_vector(), fd))
        elapsed = time.perf_counter() - started
        report(
            4,
            worst < 1e-4 and elapsed < 5.0,
            f"worst relative error {worst:.2e} (< 1e-4) across BCE/REINFORCE/QPA/QPM/FT, "
            f"20 trials each, {elapsed:.2f}s (< 5s)",
        )


class TestCriterion05LossOracles:
    def test_hand_computed_values(self):
        cfg = EmbedderConfig(dimension=16)
        d = cfg.dimension
        params = EncoderParams(
            wq=np.eye(d), wp=np.eye(d), qpm_w=np.zeros(2 * d + 1), tau=1.0, embedder=cfg
        )
        pairs = [
            ("What is the hue of amber fox?",
             InstructionPath(("Search[amber fox]", "Lookup[hue]"), "T1", "qa")),
            ("What is the era of birch owl?",
             InstructionPath(("Search[birch owl]", "Lookup[era]"), "T1", "qb")),
        ]
        # Frozen from the independent textbook-formula oracle over the
        # encoded score matrix.
        qpa_value = qpa_loss_and_grads(params, pairs)[0]
        ok_qpa = abs(qpa_value - 0.6968067693089521) < 1e-6

        triples = [(q, p, 1) for q, p in pairs] + [
            (pairs[0][0], pairs[1][1], 0),
            (pairs[1][0], pairs[0][1], 0),
        ]
        qpm_value = qpm_loss_and_grads(params, triples)[0]
        ok_qpm = abs(qpm_value - math.log(2.0)) < 1e-9

        pool = PathPool.from_paths(
            [
                InstructionPath(("Search[amber fox]", "Lookup[hue]"), "T1", "qa"),
                InstructionPath(("Search[birch owl]", "Lookup[era]"), "T1", "qb"),
                InstructionPath(("Search[cedar lynx]", "Lookup[tone]"), "T1", "qc"),
            ]
        )
        pool.best_index = 0
        ft_value, _ = ft_loss_and_grads(params, "What is the hue of amber fox?", pool)
        ok_ft = abs(ft_value - 0.49095190536777733) < 1e-6
        report(
            5,
            ok_qpa and ok_qpm and ok_ft,
            f"qpa={qpa_value:.9f} qpm={qpm_value:.9f} ft={ft_value:.9f} "
            "all match hand-computed oracles to 1e-6",
        )


class TestCriterion06PolicyLearning:
    def test_two_branch_environment_ten_seeds(self):
        started = time.perf_counter()
        good = np.array([0.9, 0.8, 0.7])
        bad = np.array([0.2, 0.1, 0.0])
        config = RlConfig()
        final = []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            params = init_policy_params(seed=seed)
            opt = AdamState.zeros(params.to_vector().size)
            baseline = ReturnBaseline()
            for _ in range(500):
                steps = []
                p_good = policy_forward(params, good)[0]
                if rng.random() < p_good:
                    steps.append(EpisodeStep(good, 1, float(np.log(max(p_good, 1e-7)))))
                    reward = 1.0
                else:
                    steps.append(EpisodeStep(good, 0, float(np.log(max(1 - p_good, 1e-7)))))
                    p_bad = policy_forward(params, bad)[0]
                    action = 1 if rng.random() < p_bad else 0
                    steps.append(EpisodeStep(bad, action, 0.0))
                    reward = 0.0
                episode = Episode(steps, reward)
                _, grad = pg_loss_and_grad(params, episode, config.gamma, baseline.value())
                for value in episode_returns(episode, config.gamma):
                    baseline.update(float(value))
                params = PolicyParams.from_vector(
                    adam_step(params.to_vector(), grad, opt, 0.01)
                )
            final.append(policy_forward(params, good)[0])
        elapsed = time.perf_counter() - started
        ok = all(p > 0.95 for p in final) and elapsed < 60.0
        report(
            6,
            ok,
            f"greedy reward after 500 episodes > 0.95 on 10/10 seeds "
            f"(min p_include {min(final):.3f}), {elapsed:.1f}s (< 1 min)",
        )


class TestCriterion07Enlargeability:
    def test_trained_pipeline_beats_verbatim_ablation(self, demo, trained):
        _, _, support, query, backend = demo
        bundle, _ = trained
        started = time.perf_counter()
        rep = evaluate_bundle(bundle, query, backend, METRIC)
        recomb_ids = {
            q.question_id for q in query.iter_questions() if is_recombination(q)
        }
        ours_cov = float(np.mean(
            [r["delta"] for r in rep.records if r["question_id"] not in recomb_ids]
        ))
        ours_rec = float(np.mean(
            [r["delta"] for r in rep.records if r["question_id"] in recomb_ids]
        ))
        ablation = evaluate_verbatim(support, query, backend, METRIC, PIPELINE_EMBEDDER)
        ab_rec = float(np.mean(
            [r["delta"] for r in ablation if r["question_id"] in recomb_ids]
        ))
        elapsed = time.perf_counter() - started
        # Margins are design targets validated by the reference run
        # (cov 0.983, rec 0.933 vs ablation 0.600), then frozen.
        ok = ours_cov >= 0.9 and (ours_rec - ab_rec) >= 0.2 and elapsed < 300.0
        report(
            7,
            ok,
            f"in-coverage {ours_cov:.3f} >= 0.9; recombination {ours_rec:.3f} beats "
            f"ablation {ab_rec:.3f} by {ours_rec - ab_rec:+.3f} (>= 0.2); "
            f"eval {elapsed:.0f}s (< 5 min)",
        )


class TestCriterion08Transferability:
    def test_fewshot_adaptation_sign_test(self):
        world_spec = SyntheticWorldSpec(
            entity_count=24, attribute_count=7, task_family_count=5,
            hop_range=(1, 2), recombination_fraction=0.2,
        )
        world = build_world(world_spec, seed=7)
        train_corpus = gen_task_corpus(world, world.attributes[:5], seed=7, spec=world_spec)
        support, query = split_by_hint(train_corpus)
        backend = MockBackend(world, BackendConfig())
        # Early-stopped base: adaptation must supply the task competence.
        base_config = MetaConfig(iterations=6, seed=0)
        bundle, _ = meta_train(
            support, query, base_config,
            delta=0.4, embedder=PIPELINE_EMBEDDER, rl_config=PIPELINE_RL,
            backend=backend, metric=METRIC,
        )
        held_spec = SyntheticWorldSpec(
            entity_count=24, attribute_count=7, task_family_count=1,
            hop_range=(1, 2), recombination_fraction=0.3,
            value_support=2, pair_support=3, compare_support=1, bridge_support=1,
            query_per_family=12,
        )
        wins = 0
        gains = []
        for trial in range(20):
            held_attr = world.attributes[5 + (trial % 2)]
            held = gen_task_corpus(world, [held_attr], seed=500 + trial, spec=held_spec)
            h_support, h_query = split_by_hint(held)
            adapt_config = MetaConfig(
                iterations=1, seed=trial, inner_lr=0.08, outer_lr=0.008,
                inner_steps=3, questions_per_batch=10,
            )
            adapted, extended = fewshot_adapt(
                bundle, h_support, adapt_config, backend=backend, metric=METRIC
            )
            unadapted = bundle.copy()
            unadapted.graph = extended
            base_mean = evaluate_bundle(unadapted, h_query, backend, METRIC).macro_average
            adapted_mean = meta_test(adapted, h_query, METRIC, backend).macro_average
            gains.append(adapted_mean - base_mean)
            wins += adapted_mean > base_mean
        # exact binomial tail for the sign test
        p_value = sum(math.comb(20, k) for k in range(wins, 21)) / 2**20
        ok = wins >= 15 and p_value < 0.05
        report(
            8,
            ok,
            f"adapted beats unadapted in {wins}/20 trials "
            f"(mean gain {float(np.mean(gains)):+.3f}, sign test p={p_value:.2e} < 0.05)",
        )


class TestCriterion09NoiseRobustness:
    def test_degradation_trend_and_margin(self, demo, trained):
        _, _, support, query, backend = demo
        bundle, _ = trained
        ours, ablation = [], []
        for noise in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            noisy_support = corrupt_paths(support, noise, seed=91)
            noisy_graph = build_graph(noisy_support, 0.4, PIPELINE_EMBEDDER)
            noisy_bundle = bundle.copy()
            noisy_bundle.graph = noisy_graph
            ours.append(evaluate_bundle(noisy_bundle, query, backend, METRIC).macro_average)
            ab_records = evaluate_verbatim(
                noisy_support, query, backend, METRIC, PIPELINE_EMBEDDER
            )
            ablation.append(float(np.mean([r["delta"] for r in ab_records])))
        tolerance = 0.02
        monotone = all(ours[i + 1] <= ours[i] + tolerance for i in range(len(ours) - 1))
        strict_drop = ours[-1] < ours[0]
        our_degradation = ours[0] - ours[-1]
        ablation_degradation = ablation[0] - ablation[-1]
        ok = monotone and strict_drop and our_degradation < ablation_degradation
        report(
            9,
            ok,
            f"ours {[round(v, 3) for v in ours]} degrades monotonically-in-trend; "
            f"degradation {our_degradation:.3f} < ablation {ablation_degradation:.3f}",
        )


class TestCriterion10KSweep:
    def test_latency_and_effectiveness(self, demo, trained):
        _, _, _, query, backend = demo
        bundle, _ = trained
        latencies = {}
        deltas = {}
        for k in (1, 3, 5):
            swept = bundle.copy()
            swept.rl_config = replace(bundle.rl_config, k=k)
            started = time.perf_counter()
            rep = evaluate_bundle(swept, query, backend, METRIC)
            latencies[k] = time.perf_counter() - started
            deltas[k] = rep.macro_average
        ok = (
            latencies[1] <= latencies[3] <= latencies[5]
            and deltas[3] >= deltas[1]
        )
        report(
            10,
            ok,
            f"latency {latencies[1]:.2f}s <= {latencies[3]:.2f}s <= {latencies[5]:.2f}s "
            f"non-decreasing in K; delta K=3 {deltas[3]:.3f} >= K=1 {deltas[1]:.3f}",
        )


class TestCriterion11Determinism:
    def test_cmd_train_byte_identical(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 7,
                    "embedder": {"dimension": 256, "seed": 0, "ngram_min": 3, "ngram_max": 5},
                    "meta": {"iterations": 2, "tasks_per_meta_batch": 2,
                             "questions_per_batch": 4},
                }
            ),
            encoding="utf-8",
        )
        gen_dir = tmp_path / "gen"
        assert cli_main(["gen", "--demo", "--config", str(config_path),
                         "--out", str(gen_dir)]) == 0
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"train-{run}"
            assert cli_main([
                "train", "--corpus", str(gen_dir / "corpus.jsonl"),
                "--world", str(gen_dir / "world.json"),
                "--config", str(config_path), "--out", str(out),
            ]) == 0
            outputs.append((out / "train_log.jsonl").read_bytes())
        ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
        report(11, ok, f"two cmd_train runs produced byte-identical logs "
                       f"({len(outputs[0])} bytes)")


class TestCriterion12Persistence:
    def test_round_trips_and_version_errors(self, tmp_path):
        embedder = EmbedderConfig()
        graph = build_graph(random_corpus(3, n_instructions=40), 0.4, embedder)
        graph_path = tmp_path / "graph.json"
        save_graph(graph, graph_path)
        graph_ok = graphs_equal(graph, load_graph(graph_path))

        policy = init_policy_params(seed=9)
        policy_path = tmp_path / "policy.json"
        save_policy(policy, policy_path)
        policy_ok = np.array_equal(load_policy(policy_path).to_vector(), policy.to_vector())

        encoder = init_encoder_params(embedder, seed=9, scale=0.3)
        encoder_path = tmp_path / "encoder.json"
        save_encoder(encoder, encoder_path)
        loaded, _ = load_encoder(encoder_path)
        encoder_ok = np.array_equal(loaded.to_vector(), encoder.to_vector())

        version_errors = 0
        for path, loader in (
            (graph_path, load_graph),
            (policy_path, load_policy),
            (encoder_path, load_encoder),
        ):
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc["format_version"] = "0"
            path.write_text(json.dumps(doc), encoding="utf-8")
            try:
                loader(path)
            except VersionMismatchError:
                version_errors += 1
        ok = graph_ok and policy_ok and encoder_ok and version_errors == 3
        report(
            12,
            ok,
            "graph/policy/encoder files round-trip bit-exactly and version "
            "mismatches raise typed errors",
        )

    def test_trained_encoder_loads_alike_from_both_layouts(self, tmp_path, trained):
        # The identity-block layout against the full raw one it replaced.
        encoder = trained[0].encoder
        full_payload = save_full_encoder(encoder, tmp_path / "full.json")
        block_payload = save_encoder(encoder, tmp_path / "blocks.json")
        from_full, _ = load_full_encoder(tmp_path / "full.json")
        from_blocks, _ = load_encoder(tmp_path / "blocks.json")
        weights = encoder.to_vector().tobytes()
        ratio = block_payload.stat().st_size / full_payload.stat().st_size
        ok = from_full.to_vector().tobytes() == from_blocks.to_vector().tobytes() == weights
        report(12, ok and ratio < 0.65,
               f"the trained encoder loads bit-exactly from both layouts; the block "
               f"payload is {ratio:.1%} of the full one")
