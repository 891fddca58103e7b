import json

import numpy as np
import pytest

from ragplan.corpus import InstructionPath, Question, TaskCorpus
from ragplan.embedding import EmbedderConfig, embed_text
from ragplan.errors import ConfigError, DataError, MalformedFileError, NotFoundError
from ragplan.graph import InstructionGraph, build_graph, insert_path
from ragplan.optim import AdamState, ReturnBaseline, adam_step
from ragplan.policy import (
    Episode,
    EpisodeStep,
    PolicyParams,
    RlConfig,
    bce_loss_and_grad,
    build_state,
    episode_returns,
    init_policy_params,
    load_policy,
    make_warmstart_dataset,
    pg_loss_and_grad,
    policy_forward,
    save_policy,
    traverse,
)

from scan_reference import psi

CFG = EmbedderConfig()


def zero_params():
    return PolicyParams(
        w1=np.zeros((20, 3)), b1=np.zeros(20), w2=np.zeros((2, 20)), b2=np.zeros(2)
    )


def include_biased_params():
    params = zero_params()
    params.b2 = np.array([4.0, -4.0])
    return params


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


def alternated(texts):
    return [t for i, t in enumerate(texts) if i == 0 or t != texts[i - 1]]


def birthplace_graph():
    """Two stored birthplace paths sharing one lookup node, so a novel
    entity pairing exists as a walk through the junction."""
    graph = InstructionGraph(delta=0.4, embedder=CFG)
    insert_path(
        graph,
        InstructionPath(
            (
                "Search[Scott Derrickson]",
                "Lookup[birthplace]",
                "Search[Ed Wood]",
                "Lookup[birthplace]",
            ),
            "T1",
            "q1",
            1.0,
        ),
        question_text="Were Scott Derrickson and Ed Wood born in the same place?",
    )
    insert_path(
        graph,
        InstructionPath(
            (
                "Search[Greta Gerwig]",
                "Lookup[birthplace]",
                "Search[Christopher Nolan]",
                "Lookup[birthplace]",
            ),
            "T1",
            "q2",
            1.0,
        ),
        question_text="Were Greta Gerwig and Christopher Nolan born in the same place?",
    )
    return graph


class TestPolicyForward:
    def test_zero_params_are_symmetric(self):
        assert policy_forward(zero_params(), np.array([0.3, 0.2, 0.1])) == (0.5, 0.5)

    def test_distribution_for_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = init_policy_params(seed=int(rng.integers(1 << 30)), scale=1.5)
            state = rng.uniform(-1, 1, size=3)
            p_include, p_exclude = policy_forward(params, state)
            assert p_include >= 0 and p_exclude >= 0
            assert p_include + p_exclude == pytest.approx(1.0, abs=1e-9)

    def test_non_finite_params_rejected(self):
        params = zero_params()
        params.w1[0, 0] = np.nan
        with pytest.raises(DataError):
            policy_forward(params, np.zeros(3))

    def test_non_finite_state_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            policy_forward(init_policy_params(seed=1), np.array([0.1, np.inf, 0.2]))

    def test_regression_locked_probabilities(self):
        # Frozen from a reference run of init_policy_params(seed=42).
        params = init_policy_params(seed=42)
        state = np.array([0.5, -0.25, 0.75])
        p_include, _ = policy_forward(params, state)
        assert p_include == pytest.approx(0.4955076754136174, abs=1e-12)


class TestWarmstart:
    def test_bce_half_probability_is_ln2(self):
        loss, _ = bce_loss_and_grad(zero_params(), np.array([[0.1, 0.2, 0.3]]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_confident_correct_prediction_loss_vanishes(self):
        loss, _ = bce_loss_and_grad(
            include_biased_params(), np.array([[0.1, 0.2, 0.3]]), np.array([1.0])
        )
        assert loss < 0.05

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            params = init_policy_params(seed=int(rng.integers(1 << 30)), scale=0.8)
            states = rng.uniform(-1, 1, size=(3, 3))
            labels = rng.integers(0, 2, size=3).astype(float)
            _, grad = bce_loss_and_grad(params, states, labels)

            def loss_of(vector):
                return bce_loss_and_grad(PolicyParams.from_vector(vector), states, labels)[0]

            fd = finite_difference(loss_of, params.to_vector())
            assert relative_error(grad, fd) < 1e-4

    def test_training_separates_a_linear_toy_set(self):
        rng = np.random.default_rng(7)
        states = np.vstack(
            [rng.uniform(0.6, 1.0, size=(40, 3)), rng.uniform(-1.0, -0.6, size=(40, 3))]
        )
        labels = np.array([1.0] * 40 + [0.0] * 40)
        params = init_policy_params(seed=1)
        opt = AdamState.zeros(params.to_vector().size)
        losses = []
        for _ in range(100):
            loss, grad = bce_loss_and_grad(params, states, labels)
            params = PolicyParams.from_vector(adam_step(params.to_vector(), grad, opt, 0.05))
            losses.append(loss)
        assert loss < 0.1
        # best-so-far loss is non-increasing across 10-step windows
        window_minima = [min(losses[: 10 * (w + 1)]) for w in range(10)]
        assert window_minima == sorted(window_minima, reverse=True)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            bce_loss_and_grad(zero_params(), np.zeros((0, 3)), np.zeros(0))


class TestPolicyGradient:
    def make_episode(self, actions, reward, states=None):
        steps = []
        for i, action in enumerate(actions):
            state = states[i] if states is not None else np.array([0.1 * (i + 1), 0.0, 0.0])
            steps.append(EpisodeStep(state=state, action=action, log_prob=0.0))
        return Episode(steps=steps, reward=reward)

    def test_zero_reward_without_baseline_leaves_params_unchanged(self):
        params = init_policy_params(seed=5)
        episode = self.make_episode([1, 0], reward=0.0)
        config = RlConfig(use_baseline=False)
        _, grad = pg_loss_and_grad(params, episode, config.gamma)
        opt = AdamState.zeros(grad.size)
        updated = adam_step(params.to_vector(), grad, opt, 0.001)
        assert np.array_equal(updated, params.to_vector())

    @pytest.mark.parametrize("action", [0, 1])
    def test_single_step_episode_reduces_to_bce_gradient(self, action):
        # For T=1 and r=1 the REINFORCE gradient equals the warm-start
        # gradient with the action as the label, at unit weight.
        params = init_policy_params(seed=9)
        state = np.array([0.4, -0.2, 0.6])
        episode = self.make_episode([action], reward=1.0, states=[state])
        _, pg_grad = pg_loss_and_grad(params, episode, gamma=0.99)
        _, bce_grad = bce_loss_and_grad(params, state[None, :], np.array([float(action)]))
        assert np.allclose(pg_grad, bce_grad, atol=1e-12)

    def test_terminal_reward_discounted_backward(self):
        params = init_policy_params(seed=13)
        episode = self.make_episode([1, 1, 0], reward=1.0)
        gamma = 0.5
        loss, _ = pg_loss_and_grad(params, episode, gamma=gamma)
        expected = 0.0
        for t, step in enumerate(episode.steps):
            weight = gamma ** (len(episode.steps) - 1 - t)
            p = policy_forward(params, step.state)[0 if step.action == 1 else 1]
            expected += -weight * np.log(p)
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            params = init_policy_params(seed=int(rng.integers(1 << 30)), scale=0.8)
            states = rng.uniform(-1, 1, size=(4, 3))
            actions = rng.integers(0, 2, size=4).tolist()
            episode = self.make_episode(actions, reward=float(rng.uniform(0.2, 1.0)), states=states)
            _, grad = pg_loss_and_grad(params, episode, gamma=0.9)

            def loss_of(vector):
                return pg_loss_and_grad(PolicyParams.from_vector(vector), episode, gamma=0.9)[0]

            fd = finite_difference(loss_of, params.to_vector())
            assert relative_error(grad, fd) < 1e-4

    def test_forced_steps_carry_no_gradient(self):
        params = init_policy_params(seed=21)
        state = np.array([0.5, 0.5, 0.5])
        episode = Episode(
            steps=[EpisodeStep(state=state, action=0, log_prob=0.0, forced=True)], reward=1.0
        )
        _, grad = pg_loss_and_grad(params, episode, gamma=0.99)
        assert not grad.any()

    def test_two_branch_environment_learns_include_on_good_arm(self):
        # One arm always pays on include, the other never does; the
        # policy should learn to include the good arm's state.
        good = np.array([0.9, 0.8, 0.7])
        bad = np.array([0.2, 0.1, 0.0])
        config = RlConfig()
        rng = np.random.default_rng(123)
        params = init_policy_params(seed=3)
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
                if rng.random() < p_bad:
                    steps.append(EpisodeStep(bad, 1, float(np.log(max(p_bad, 1e-7)))))
                else:
                    steps.append(EpisodeStep(bad, 0, float(np.log(max(1 - p_bad, 1e-7)))))
                reward = 0.0
            episode = Episode(steps, reward)
            _, grad = pg_loss_and_grad(params, episode, config.gamma, baseline.value())
            for value in episode_returns(episode, config.gamma):
                baseline.update(float(value))
            params = PolicyParams.from_vector(
                adam_step(params.to_vector(), grad, opt, 0.01)
            )
        assert policy_forward(params, good)[0] > 0.95


class TestBuildState:
    def test_self_case_is_all_ones(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph,
            InstructionPath(("Search[alpha crane]", "Lookup[hue]"), "T1", "q1", 1.0),
            question_text="What is the hue of alpha crane?",
        )
        state = build_state(graph, "Lookup[hue]", 2, graph.edges[(1, 2)])
        assert state[0] == 1.0
        state_q = build_state(graph, "What is the hue of alpha crane?", 2, graph.edges[(1, 2)])
        assert state_q[1] == pytest.approx(1.0)
        assert state_q[2] == 1.0

    def test_missing_in_edge_zeroes_task_components(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph, InstructionPath(("Search[alpha crane]",), "T1", "q1", 1.0), "question q1"
        )
        state = build_state(graph, "Search[alpha crane]", 1, None)
        assert state[0] == 1.0
        assert state[1] == 0.0
        assert state[2] == 0.0

    def test_hand_computed_components(self):
        # Graph with 2 instructions in the visited node, an edge holding
        # 2 tasks of 2 questions each; components re-derived by hand: the
        # instruction and question components as the scalar ψ of counts,
        # the task component as the cosine with the task centroid.
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph,
            InstructionPath(("Search[amber fox]", "Lookup[era]"), "T1", "qa", 1.0),
            question_text="What is the era of amber fox?",
        )
        insert_path(
            graph,
            InstructionPath(("Search[amber fox]", "Lookup[era]"), "T1", "qb", 1.0),
            question_text="Tell me the era of amber fox.",
        )
        insert_path(
            graph,
            InstructionPath(("Search[amber fox]", "Lookup[tone]"), "T2", "qc", 1.0),
            question_text="What is the tone of amber fox?",
        )
        insert_path(
            graph,
            InstructionPath(("Search[amber fox]", "Lookup[tone]"), "T2", "qd", 1.0),
            question_text="Tell me the tone of amber fox.",
        )
        from ragplan.embedding import cosine, task_centroid

        query_text = "What is the era of amber fox?"
        query = embed_text(query_text, CFG)
        texts = {"qa": query_text, "qb": "Tell me the era of amber fox.",
                 "qc": "What is the tone of amber fox?", "qd": "Tell me the tone of amber fox."}
        edge = graph.edges[(1, 2)]
        node = graph.nodes[2]
        expected_c1 = max(psi(query_text, text, CFG) for text in node.instructions)
        best_task, best_sim, best_texts = None, -2.0, None
        for task_id in sorted(edge.tasks):
            questions = [texts[qid] for qid in sorted(edge.tasks[task_id])]
            sim = cosine(query, task_centroid([embed_text(text, CFG) for text in questions]))
            if sim > best_sim:
                best_task, best_sim, best_texts = task_id, sim, questions
        expected_c3 = max(psi(query_text, text, CFG) for text in best_texts)
        state = build_state(graph, query_text, 2, edge)
        assert state[0] == expected_c1
        assert state[1] == best_sim
        assert state[2] == expected_c3 == 1.0
        assert best_task == "T1"


class TestTraverse:
    def test_single_chain_yields_single_prefix(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph,
            InstructionPath(
                ("Search[alpha crane]", "Lookup[hue]", "Search[beta heron]"), "T1", "q1", 1.0
            ),
            question_text="What is the hue of alpha crane?",
        )
        config = RlConfig(k=1)
        candidates = traverse(
            graph, "What is the hue of alpha crane?", include_biased_params(), config
        )
        assert len(candidates) == 1
        chain = ("Search[alpha crane]", "Lookup[hue]", "Search[beta heron]")
        got = candidates[0].path.instructions
        assert got == chain[: len(got)]

    def test_recombined_walk_through_junction_node(self):
        # An always-include policy queried about a novel entity pairing
        # can emit the walk that alternates through the shared lookup
        # node, recombining both stored paths.
        graph = birthplace_graph()
        config = RlConfig(k=8, max_path_len=4)
        candidates = traverse(
            graph,
            "Were Scott Derrickson and Christopher Nolan born in the same place?",
            include_biased_params(),
            config,
        )
        sequences = {c.path.instructions for c in candidates}
        assert (
            "Search[Scott Derrickson]",
            "Lookup[birthplace]",
            "Search[Christopher Nolan]",
            "Lookup[birthplace]",
        ) in sequences

    def test_every_candidate_is_a_legal_walk(self):
        rng = np.random.default_rng(29)
        operators = ["Search", "Lookup"]
        for trial in range(6):
            graph = InstructionGraph(delta=0.4, embedder=CFG)
            for q in range(4):
                texts = alternated(
                    [
                        f"{operators[i % 2]}[{rng.choice(['amber', 'birch', 'cedar'])} {i}]"
                        for i in range(int(rng.integers(2, 5)))
                    ]
                )
                insert_path(
                    graph,
                    InstructionPath(tuple(texts), "T1", f"q{q}", 1.0),
                    question_text=f"question {q}",
                )
            assert len(graph.nodes) <= 12
            params = init_policy_params(seed=trial, scale=1.0)
            config = RlConfig(k=3, max_path_len=5)
            candidates = traverse(
                graph, "amber birch question", params, config, mode="sample",
                rng=np.random.default_rng(trial),
            )
            assert len(candidates) <= config.k
            for candidate in candidates:
                assert 1 <= len(candidate.path.instructions) <= config.max_path_len
                seq = candidate.node_sequence
                for a, b in zip(seq, seq[1:]):
                    assert (a, b) in graph.edges
                # the emitted instruction at each node is stored in that node
                for node_id, text in zip(seq, candidate.path.instructions):
                    assert text in graph.nodes[node_id].instructions

    def test_greedy_traverse_is_deterministic(self):
        graph = birthplace_graph()
        params = init_policy_params(seed=2)
        config = RlConfig(k=3)
        first = traverse(graph, "birthplace of Greta Gerwig?", params, config)
        second = traverse(graph, "birthplace of Greta Gerwig?", params, config)
        assert [c.path.instructions for c in first] == [c.path.instructions for c in second]

    def test_empty_graph_raises(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        with pytest.raises(NotFoundError):
            traverse(graph, "anything", zero_params(), RlConfig())

    def test_non_finite_params_rejected(self):
        params = init_policy_params(seed=2)
        params.b2[1] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            traverse(birthplace_graph(), "birthplace of Greta Gerwig?", params, RlConfig(k=3))

    def test_non_finite_state_rejected(self, monkeypatch):
        import ragplan.policy as policy

        monkeypatch.setattr(policy, "build_state", lambda *args: np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(DataError, match="non-finite"):
            traverse(birthplace_graph(), "birthplace of Greta Gerwig?",
                     init_policy_params(seed=2), RlConfig(k=3))

    def test_rule_hook_forces_exclusion(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph,
            InstructionPath(("Lookup[hue]", "Search[alpha crane]"), "T1", "q1", 1.0),
            question_text="hue question",
        )
        config = RlConfig(k=2, rule_hooks=("no-lookup-before-search",))
        candidates = traverse(graph, "What is the hue?", include_biased_params(), config)
        for candidate in candidates:
            assert candidate.path.instructions[0].startswith("Search")

    def test_unknown_rule_hook_rejected(self):
        with pytest.raises(ConfigError):
            RlConfig(rule_hooks=("no-such-rule",))

    def test_candidates_within_walk_enumeration(self):
        # Exhaustive enumeration of all graph walks up to the length cap;
        # every emitted candidate node sequence must be one of them.
        graph = birthplace_graph()
        max_len = 4
        walks = set()

        def grow(seq):
            if len(seq) >= 1:
                walks.add(tuple(seq))
            if len(seq) == max_len:
                return
            for (a, b) in graph.edges:
                if a == seq[-1]:
                    grow(seq + [b])

        for node_id in graph.nodes:
            grow([node_id])
        for seed in range(5):
            params = init_policy_params(seed=seed, scale=1.2)
            candidates = traverse(
                graph,
                "Were Scott Derrickson and Christopher Nolan born in the same place?",
                params,
                RlConfig(k=3, max_path_len=max_len),
                mode="sample",
                rng=np.random.default_rng(seed),
            )
            for candidate in candidates:
                assert candidate.node_sequence in walks


class TestWarmstartDataset:
    def build_corpus_and_graph(self):
        corpus = TaskCorpus()
        paths = {
            "q1": ("Search[alpha crane]", "Lookup[hue]"),
            "q2": ("Search[beta heron]", "Lookup[era]"),
        }
        for qid, texts in paths.items():
            corpus.add(
                Question(
                    qid,
                    "T1",
                    f"question about {texts[0]}",
                    "answer",
                    paths=(InstructionPath(texts, "T1", qid, 1.0),),
                )
            )
        graph = build_graph(corpus, delta=0.4, embedder=CFG)
        return corpus, graph

    def test_labels_match_membership_oracle(self):
        corpus, graph = self.build_corpus_and_graph()
        examples = make_warmstart_dataset(graph, corpus, samples_per_question=6, rng_seed=0)
        from ragplan.policy import _path_node_sequence

        by_question = {}
        for question in corpus.iter_questions():
            by_question[question.question_id] = set(
                _path_node_sequence(graph, question.gold_path)
            )
        assert examples
        for example in examples:
            expected = int(example.node_id in by_question[example.question_id])
            assert example.label == expected

    def test_full_coverage_path_yields_all_positive(self):
        corpus = TaskCorpus()
        texts = ("Search[alpha crane]", "Lookup[hue]")
        corpus.add(
            Question(
                "q1", "T1", "hue of alpha crane", "answer",
                paths=(InstructionPath(texts, "T1", "q1", 1.0),),
            )
        )
        graph = build_graph(corpus, delta=0.4, embedder=CFG)
        examples = make_warmstart_dataset(graph, corpus, samples_per_question=8, rng_seed=1)
        assert examples
        assert all(example.label == 1 for example in examples)

    def test_empty_support_yields_empty_dataset(self):
        _, graph = self.build_corpus_and_graph()
        assert make_warmstart_dataset(graph, TaskCorpus(), 8, 0) == []

    def test_deterministic_given_seed(self):
        corpus, graph = self.build_corpus_and_graph()
        a = make_warmstart_dataset(graph, corpus, 6, rng_seed=9)
        b = make_warmstart_dataset(graph, corpus, 6, rng_seed=9)
        assert [(e.node_id, e.label) for e in a] == [(e.node_id, e.label) for e in b]
        assert all(np.array_equal(x.state, y.state) for x, y in zip(a, b))


class TestPolicyPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        params = init_policy_params(seed=77)
        dest = tmp_path / "policy.json"
        save_policy(params, dest)
        loaded = load_policy(dest)
        assert np.array_equal(loaded.to_vector(), params.to_vector())

    def test_malformed_file_rejected(self, tmp_path):
        dest = tmp_path / "policy.json"
        dest.write_text("{not json", encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_policy(dest)

    @pytest.mark.parametrize("damage, needle", [
        (lambda payload: "zz" + payload[2:], "invalid float payload"),
        (lambda payload: payload[:-2], "truncated float payload"),
        (lambda payload: np.frombuffer(bytes.fromhex(payload), "<f8").astype("<f4").tobytes()
         .hex(), "holds 10 values, expected 20"),
    ], ids=["not-hex", "truncated", "float32"])
    def test_damaged_payload_rejected(self, tmp_path, damage, needle):
        # Payloads are float64 only: a float32 one holds half the values.
        dest = tmp_path / "policy.json"
        save_policy(init_policy_params(seed=77), dest)
        doc = json.loads(dest.read_text(encoding="utf-8"))
        doc["data"]["b1"] = damage(doc["data"]["b1"])
        dest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MalformedFileError, match=needle):
            load_policy(dest)

    @pytest.mark.parametrize("field", ["w1", "b1", "w2", "b2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_rejected(self, tmp_path, field, value):
        params = init_policy_params(seed=77)
        getattr(params, field).flat[1] = value
        dest = tmp_path / "policy.json"
        save_policy(params, dest)
        with pytest.raises(MalformedFileError):
            load_policy(dest)
