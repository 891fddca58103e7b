"""The compiled graph index against the scalar traversal it replaced, and
the lifetime and sharing rules of indexes and extended graphs.

The reference functions below are the traversal as written before the
index existed: every instruction and question similarity is one scalar
ψ of the query's and the stored text's counts (``scan_reference.psi``),
every centroid similarity one scalar ``cosine`` call, task centroids are
re-derived at every visit and edge lists are filtered from a full sort.
The index must give the same candidates, node sequences, actions and
forced flags, and the same states within 1e-12.
"""

import copy
import gc
import sys
import weakref
from collections import deque
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from ragplan import embedding
from ragplan.corpus import InstructionPath, Question, TaskCorpus, split_by_hint
from ragplan.embedding import (
    EmbedderConfig,
    cosine,
    embed_counts,
    embed_text,
    task_centroid,
)
from ragplan.graph import (
    GraphIndex,
    QueryScores,
    build_graph,
    extend_graph,
    graphs_equal,
    insert_path,
    load_graph,
    save_graph,
)
from ragplan.policy import (
    EXCLUDE,
    INCLUDE,
    PROB_FLOOR,
    RULE_HOOKS,
    Candidate,
    Episode,
    EpisodeStep,
    RlConfig,
    _path_node_sequence,
    build_state,
    init_policy_params,
    make_warmstart_dataset,
    policy_forward,
    traverse,
)
from ragplan.world import demo_spec, gen_world

from embed_reference import codes_reference
from scan_reference import psi

STATE_ATOL = 1e-12
OPERATORS = ["Search", "Lookup", "Check", "Fetch"]
WORDS = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath"]


# -- the scalar reference ------------------------------------------------------


def ref_out_edges(graph, node_id):
    return [edge for (src, _), edge in sorted(graph.edges.items()) if src == node_id]


def ref_in_edges(graph, node_id):
    return [edge for (_, dst), edge in sorted(graph.edges.items()) if dst == node_id]


def question_texts(graph):
    """The text of every stored question by (task id, question id), in
    registration order."""
    questions = graph._questions
    return dict(zip(questions["key"].tolist(), questions["text"].tolist()))


def ref_edge_task_centroids(graph, edge):
    """(task id, centroid of the questions' embeddings, question texts)
    of each task on ``edge``."""
    stored = question_texts(graph)
    out = []
    for task_id in sorted(edge.tasks):
        texts = [
            stored[(task_id, question_id)]
            for question_id in sorted(edge.tasks[task_id])
            if (task_id, question_id) in stored
        ]
        if texts:
            vectors = [embed_text(text, graph.embedder) for text in texts]
            out.append((task_id, task_centroid(vectors), texts))
    return out


def ref_build_state(graph, query_text, node_id, in_edge):
    node = graph.nodes[node_id]
    query = embed_text(query_text, graph.embedder)
    instruction_sim = max(
        (psi(query_text, text, graph.embedder) for text in node.instructions), default=0.0
    )
    task_sim = 0.0
    question_sim = 0.0
    if in_edge is not None:
        best_task = None
        for task_id, centroid, texts in ref_edge_task_centroids(graph, in_edge):
            sim = cosine(query, centroid)
            if best_task is None or sim > task_sim:
                best_task = (task_id, texts)
                task_sim = sim
        if best_task is not None:
            question_sim = max(psi(query_text, text, graph.embedder) for text in best_task[1])
    return np.array([instruction_sim, task_sim, question_sim], dtype=np.float64)


def ref_start_nodes(graph, query_text, k):
    scored = []
    for node_id, node in sorted(graph.nodes.items()):
        for text in sorted(node.instructions):
            sim = psi(query_text, text, graph.embedder)
            scored.append((-sim, node_id, text))
    scored.sort()
    starts = []
    for _, node_id, _ in scored:
        if node_id not in starts:
            starts.append(node_id)
        if len(starts) == k:
            break
    return starts


def ref_edge_score(graph, edge, query_text):
    query = embed_text(query_text, graph.embedder)
    scores = [cosine(query, c) for _, c, _ in ref_edge_task_centroids(graph, edge)]
    return max(scores, default=0.0)


def ref_node_affinity(graph, node_id, query_text):
    node = graph.nodes[node_id]
    return max(psi(query_text, text, graph.embedder) for text in node.instructions)


def ref_best_instruction(graph, node_id, query_text):
    node = graph.nodes[node_id]
    return min(
        node.instructions, key=lambda text: (-psi(query_text, text, graph.embedder), text)
    )


def ref_path_node_sequence(graph, path):
    text_to_node = {}
    for node_id, node in sorted(graph.nodes.items()):
        for text in node.instructions:
            text_to_node.setdefault(text, []).append(node_id)
    sequence = []
    previous = None
    for text in path.instructions:
        homes = text_to_node.get(text)
        if not homes:
            return None
        chosen = next((h for h in homes if h != previous), homes[0])
        sequence.append(chosen)
        previous = chosen
    return sequence


def ref_traverse(graph, query_text, params, config, mode="greedy", rng=None):
    hooks = [RULE_HOOKS[name] for name in config.rule_hooks]
    budget = {"left": config.max_nodes_visited}

    def start_walks(start):
        path_texts, node_stack, step_stack = [], [], []
        edges_on_branch = set()

        def snapshot():
            return Candidate(
                path=InstructionPath(tuple(path_texts), "", "", 0.0),
                episode=Episode(steps=list(step_stack)),
                node_sequence=tuple(node_stack),
            )

        def visit(node_id, in_edge):
            if budget["left"] <= 0:
                return
            budget["left"] -= 1
            state = ref_build_state(graph, query_text, node_id, in_edge)
            best_text = ref_best_instruction(graph, node_id, query_text)
            forced = any(not hook(best_text, path_texts) for hook in hooks)
            if forced:
                action, log_prob = EXCLUDE, 0.0
            else:
                p_include, p_exclude = policy_forward(params, state)
                if mode == "greedy":
                    action = INCLUDE if p_include >= p_exclude else EXCLUDE
                else:
                    action = INCLUDE if rng.random() < p_include else EXCLUDE
                log_prob = float(
                    np.log(max(p_include if action == INCLUDE else p_exclude, PROB_FLOOR))
                )
            step_stack.append(
                EpisodeStep(state=state, action=action, log_prob=log_prob, forced=forced)
            )
            if action == EXCLUDE:
                if path_texts:
                    yield snapshot()
                step_stack.pop()
                return
            path_texts.append(best_text)
            node_stack.append(node_id)
            neighbors = [
                edge
                for edge in ref_out_edges(graph, node_id)
                if (edge.from_node, edge.to_node) not in edges_on_branch
            ]
            neighbors.sort(
                key=lambda edge: (
                    -ref_node_affinity(graph, edge.to_node, query_text),
                    -ref_edge_score(graph, edge, query_text),
                    edge.to_node,
                )
            )
            if len(path_texts) >= config.max_path_len or not neighbors:
                yield snapshot()
            else:
                yielded = False
                for edge in neighbors:
                    if budget["left"] <= 0:
                        break
                    key = (edge.from_node, edge.to_node)
                    edges_on_branch.add(key)
                    for candidate in visit(edge.to_node, edge):
                        yielded = True
                        yield candidate
                    edges_on_branch.discard(key)
                if not yielded:
                    yield snapshot()
            path_texts.pop()
            node_stack.pop()
            step_stack.pop()

        yield from visit(start, None)

    candidates, seen = [], set()
    active = deque(start_walks(s) for s in ref_start_nodes(graph, query_text, config.k))
    while active and len(candidates) < config.k and budget["left"] >= 0:
        walker = active.popleft()
        try:
            candidate = next(walker)
        except StopIteration:
            continue
        active.append(walker)
        if candidate.path.instructions in seen:
            continue
        seen.add(candidate.path.instructions)
        candidates.append(candidate)
    return candidates


# -- inputs ------------------------------------------------------------------


def random_corpus(seed, prefix="q"):
    """A small corpus built to produce exact ties: upper-case twins embed
    like their lower-case text, repeated steps put one text in two nodes,
    some questions share ids across paths and some have empty text."""
    rng = np.random.default_rng(seed)
    corpus = TaskCorpus()
    for qi in range(int(rng.integers(4, 12))):
        task = f"T{int(rng.integers(3))}"
        qid = f"{prefix}{qi}"
        paths = []
        for _ in range(int(rng.integers(1, 3))):
            texts = []
            for _ in range(int(rng.integers(1, 6))):
                words = " ".join(rng.choice(WORDS, size=int(rng.integers(1, 3))))
                text = f"{OPERATORS[int(rng.integers(len(OPERATORS)))]}[{words}]"
                texts.append(text.upper() if rng.random() < 0.15 else text)
            if rng.random() < 0.25:
                texts.append(texts[-1])
            paths.append(InstructionPath(tuple(texts), task, qid, 1.0))
        text = "" if rng.random() < 0.1 else f"question {qi} on {' '.join(rng.choice(WORDS, 2))}"
        corpus.add(Question(qid, task, text, "answer", paths=tuple(paths)))
    return corpus


def random_graph(seed):
    rng = np.random.default_rng([seed, 1])
    embedder = EmbedderConfig(dimension=int(rng.choice([16, 64, 256])))
    return build_graph(random_corpus(seed), float(rng.choice([0.3, 0.5, 0.8, 1.0])), embedder)


def queries_for(graph, seed):
    rng = np.random.default_rng([seed, 2])
    texts = sorted({t for node in graph.nodes.values() for t in node.instructions})
    return [
        texts[int(rng.integers(len(texts)))],  # exactly a stored instruction
        f"question {int(rng.integers(12))} on {' '.join(rng.choice(WORDS, 2))}",
        " ".join(rng.choice(WORDS, 3)),
        "",  # has no feature: all-zero counts
    ]


def policies(seed):
    biased = init_policy_params(seed=seed, scale=0.5)
    biased.b2 = np.array([3.0, -3.0])
    return [
        (init_policy_params(seed=seed, scale=2.0),
         RlConfig(k=3, max_path_len=6, max_nodes_visited=64)),
        (biased, RlConfig(k=5, rule_hooks=("no-lookup-before-search",))),
    ]


def demo_graph():
    _, corpus = gen_world(demo_spec(), seed=7)
    support, query = split_by_hint(corpus)
    return build_graph(support, 0.4, EmbedderConfig(dimension=1024)), query


def assert_same_candidates(new, old):
    assert [c.path.instructions for c in new] == [c.path.instructions for c in old]
    assert [c.node_sequence for c in new] == [c.node_sequence for c in old]
    for a, b in zip(new, old):
        assert [(s.action, s.forced) for s in a.episode.steps] == [
            (s.action, s.forced) for s in b.episode.steps
        ]
        np.testing.assert_allclose(
            np.array([s.state for s in a.episode.steps]),
            np.array([s.state for s in b.episode.steps]),
            rtol=0.0,
            atol=STATE_ATOL,
        )


def assert_traversals_match(graph, query_text, params, config, seed):
    for mode in ("greedy", "sample"):
        new = traverse(graph, query_text, params, config, mode=mode,
                       rng=np.random.default_rng(seed))
        old = ref_traverse(graph, query_text, params, config, mode=mode,
                           rng=np.random.default_rng(seed))
        assert_same_candidates(new, old)


# -- oracle tests --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(50))
def test_traversal_matches_scalar_reference(seed):
    graph = random_graph(seed)
    for query_text in queries_for(graph, seed):
        for params, config in policies(seed):
            assert_traversals_match(graph, query_text, params, config, seed)


def test_traversal_matches_scalar_reference_on_demo_world():
    graph, query = demo_graph()
    questions = sorted(query.iter_questions(), key=lambda q: q.question_id)[::4]
    for i, question in enumerate(questions):
        for params, config in policies(i):
            assert_traversals_match(graph, question.text, params, config, i)


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_every_state_matches_scalar_reference(seed):
    graph = random_graph(seed)
    for query_text in queries_for(graph, seed):
        for node_id in graph.nodes:
            for in_edge in [None] + ref_in_edges(graph, node_id):
                np.testing.assert_allclose(
                    build_state(graph, query_text, node_id, in_edge),
                    ref_build_state(graph, query_text, node_id, in_edge),
                    rtol=0.0,
                    atol=STATE_ATOL,
                )


@pytest.mark.parametrize("seed", range(0, 50, 7))
def test_adjacency_and_text_lookup_match_scalar_reference(seed):
    graph = random_graph(seed)
    for node_id in list(graph.nodes) + [max(graph.nodes) + 1]:
        assert graph.out_edges(node_id) == ref_out_edges(graph, node_id)
        assert graph.in_edges(node_id) == ref_in_edges(graph, node_id)
    for question in random_corpus(seed).iter_questions():
        for path in question.paths:
            assert _path_node_sequence(graph, path) == ref_path_node_sequence(graph, path)


def centroids_of_edge(index, pos):
    """The centroid values of an edge's slots."""
    rows = index.centroid_rows[index.centroid_ptr[pos]:index.centroid_ptr[pos + 1]]
    return index.centroids["values"][rows]


def test_centroid_rows_are_task_centroids_bit_for_bit():
    graph, _ = demo_graph()
    index = graph.index()
    for pos, edge in enumerate(index.edges):
        rows = centroids_of_edge(index, pos)
        expected = [c.values.astype(np.float64) for _, c, _ in ref_edge_task_centroids(graph, edge)]
        assert len(rows) == len(expected)
        for row, value in zip(rows, expected):
            assert np.array_equal(row, value)


def float_bytes(value):
    return np.float64(value).tobytes()


def assert_best_questions_are_exact(graph, queries):
    """``QueryScores._best_question`` of every centroid slot, for every
    query text, against the largest scalar ψ of the query with the slot's
    question texts, bit for bit. Returns the question row count of every
    slot and the number of (query, slot) pairs that score exactly 1.0."""
    index = graph.index()
    slots = []
    for pos, edge in enumerate(index.edges):
        start, stop = index.centroid_ptr[pos], index.centroid_ptr[pos + 1]
        reference = ref_edge_task_centroids(graph, edge)
        assert [task_id for task_id, _, _ in reference] == list(index.centroid_tasks[start:stop])
        for slot, (_, _, texts) in zip(range(start, stop), reference):
            rows = index.question_rows[index.question_ptr[slot]:index.question_ptr[slot + 1]]
            assert index.questions["text"][rows].tolist() == texts
            slots.append((rows, texts))
    exact = 0
    for query_text in queries:
        scores = QueryScores(index, query_text)
        for rows, texts in slots:
            got = scores._best_question(rows)
            assert type(got) is float
            want = max(psi(query_text, text, graph.embedder) for text in texts)
            assert float_bytes(got) == float_bytes(want)
            exact += got == 1.0
    return [len(rows) for rows, _ in slots], exact


def oracle_queries(graph, texts):
    """Query texts: the given texts, every third stored question's own
    text (which scores exactly 1.0 unless it has no feature), and a text
    with no feature, whose all-zero counts score 0 against every
    question."""
    return [*texts, *graph._questions["text"][::3].tolist(), "?!"]


@pytest.mark.parametrize("seed", range(20))
def test_best_question_is_the_exact_psi_maximum_bit_for_bit(seed):
    graph = random_graph(seed)
    sizes, exact = assert_best_questions_are_exact(
        graph, oracle_queries(graph, queries_for(graph, seed))
    )
    assert 1 in sizes and exact


def test_best_question_scores_a_question_without_features_zero():
    # A question whose text has no feature has all-zero counts and no
    # entry; it scores 0 against every query, a query without features
    # included, even in a slot of several rows.
    graph = random_graph(3)
    index = graph.index()
    for i, edge in enumerate(index.edges[::2]):
        insert_path(graph, InstructionPath(edge_texts(index, edge), "T_blank", f"b{i}", 1.0),
                    question_text="?!")
        insert_path(graph, InstructionPath(edge_texts(index, edge), "T_blank", f"c{i}", 1.0),
                    question_text="amber birch question")
    blank = graph._questions["sqnorm"] == 0
    assert blank.any()
    assert (graph._questions["start"] == graph._questions["end"])[blank].all()
    assert any("T_blank" in edge.tasks for edge in graph.edges.values())
    sizes, exact = assert_best_questions_are_exact(
        graph, oracle_queries(graph, ["amber birch grove", ""])
    )
    assert max(sizes) > 1 and exact


def test_best_question_bit_for_bit_across_benchmark_writes():
    # An index-4k-style graph at a few hundred instructions, patched after
    # each write, queried with the benchmark's read texts and the written
    # questions.
    inputs = bench_inputs()
    graph = build_graph(inputs.random_corpus(1, 400), 0.4, EmbedderConfig(dimension=256))
    graph.index()
    reads = inputs.index_queries(1)
    sizes = []
    for batch in islice(inputs.index_write_batches(1, 60), 4):
        graph = extend_graph(graph, batch)
        read_patched(graph)
        texts = [next(reads)[0] for _ in range(3)] + [""]
        sizes += assert_best_questions_are_exact(graph, oracle_queries(graph, texts))[0]
    assert 1 in sizes and max(sizes) >= 3


@pytest.mark.parametrize("dimension", [256, 1024])
def test_a_stored_text_as_the_query_scores_exactly_one(dimension):
    # Query an instruction's text verbatim: its node's affinity is 1.0.
    # Query a question's text verbatim: the question similarity of a
    # state reached through an edge of that question's task alone is 1.0.
    inputs = bench_inputs()
    graph = build_graph(inputs.random_corpus(1, 1000), 0.4, EmbedderConfig(dimension=dimension))
    index = graph.index()
    for text in sorted(index.text_nodes)[:300]:
        scores = QueryScores(index, text)
        for node_id in index.text_nodes[text]:
            assert scores.affinity(node_id) == 1.0, text
    only_task = {}
    for edge in index.edges:
        if len(edge.tasks) == 1:
            only_task.setdefault(next(iter(edge.tasks)), []).append(edge)
    checked = 0
    for (task_id, question_id), text in islice(question_texts(graph).items(), 300):
        edges = [e for e in only_task.get(task_id, []) if question_id in e.tasks[task_id]]
        scores = QueryScores(index, text)
        for edge in edges:
            assert scores.state(edge.to_node, edge)[2] == 1.0, text
        checked += len(edges)
    assert checked >= 100


def test_warmstart_states_match_scalar_reference():
    graph, _ = demo_graph()
    _, corpus = gen_world(demo_spec(), seed=7)
    support, _ = split_by_hint(corpus)
    for example in make_warmstart_dataset(graph, support, samples_per_question=6, rng_seed=3):
        question = next(q for q in support.questions(example.task_id)
                        if q.question_id == example.question_id)
        in_edges = [None] + ref_in_edges(graph, example.node_id)
        assert any(
            np.allclose(example.state, ref_build_state(graph, question.text, example.node_id, e),
                        rtol=0.0, atol=STATE_ATOL)
            for e in in_edges
        )


# -- staleness and lifetime ------------------------------------------------------


def test_insert_marks_the_index_stale():
    graph = random_graph(3)
    stale = graph.index()
    assert graph.index() is stale
    insert_path(
        graph,
        InstructionPath(("Search[violet quartz]", "Lookup[violet quartz]"), "T9", "z1", 1.0),
        "question z1",
    )
    fresh = graph.index()
    assert fresh is not stale
    assert "Search[violet quartz]" in fresh.text_nodes
    assert_traversals_match(graph, "violet quartz", *policies(3)[1], seed=3)


def freed_without_collector(name, namespace, *refs):
    """Delete ``namespace[name]`` with the cyclic collector off and report
    whether every weak reference died by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        del namespace[name]
        return all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_graph_and_its_index_are_freed():
    # Traversal must leave no reference cycle behind: a cycle would keep
    # the graph and its index alive until the cyclic collector runs.
    local = {"graph": random_graph(5)}
    traverse(local["graph"], "amber birch", init_policy_params(seed=1), RlConfig(k=3))
    refs = weakref.ref(local["graph"]), weakref.ref(local["graph"].index())
    assert freed_without_collector("graph", local, *refs)
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_extended_graph_does_not_keep_its_parent_alive():
    local = {"parent": random_graph(6)}
    local["parent"].index()
    child = extend_graph(local["parent"], random_corpus(106))
    parent_ref = weakref.ref(local["parent"])
    assert freed_without_collector("parent", local, parent_ref)
    assert traverse(child, "amber birch", init_policy_params(seed=1), RlConfig(k=3))


# -- copy-on-write extension -------------------------------------------------------


def deepcopy_extend(graph, corpus):
    """The deep-copy extension the shared copy replaced."""
    extended = copy.deepcopy(graph)
    for question in corpus.iter_questions():
        for path in question.paths:
            if path.success_metric >= 1.0:
                insert_path(extended, path, question_text=question.text)
    return extended


def assert_scan_rows_match(graph):
    """Every scan row holds the counts of its instruction."""
    scan = graph._scan
    assert scan.count == graph.instruction_count()
    for row, node_id, text, squared in zip(
        scan["counts"], scan["nodes"], scan["texts"], scan["sqnorms"]
    ):
        assert text in graph.nodes[node_id].instructions
        counts = embed_counts(text, graph.embedder)
        assert np.array_equal(row, counts)
        assert squared == int(counts.astype(np.int64) @ counts)


def assert_question_rows_match(graph):
    """Every question row holds the counts of its stored text: an entry
    for each nonzero count, and their squared norm."""
    questions, entries = graph._questions, graph._entries
    keys = questions["key"].tolist()
    assert len(set(keys)) == len(keys) == questions.count
    for start, end, sqnorm, text in zip(
        questions["start"].tolist(), questions["end"].tolist(), questions["sqnorm"].tolist(),
        questions["text"].tolist(),
    ):
        expected = embed_counts(text, graph.embedder)
        counts = np.zeros(graph.embedder.dimension, dtype=np.int32)
        counts[entries["position"][start:end]] = entries["count"][start:end]
        assert counts.tobytes() == expected.tobytes()
        assert end - start == np.count_nonzero(expected)
        assert sqnorm == int(expected.astype(np.int64) @ expected)


def stored_rows(graph):
    """The graph's scan rows by (node, text) and its questions by key, as
    bytes: what a graph holds, whatever order it appended the rows in."""
    scan, questions, entries = graph._scan, graph._questions, graph._entries
    instructions = {
        (node, text): (counts.tobytes(), float_bytes(squared))
        for node, text, counts, squared in zip(
            scan["nodes"].tolist(), scan["texts"].tolist(), scan["counts"], scan["sqnorms"]
        )
    }
    stored = {
        key: (text, sqnorm, entries["position"][start:end].tobytes(),
              entries["count"][start:end].tobytes())
        for key, text, sqnorm, start, end in zip(
            questions["key"].tolist(), questions["text"].tolist(), questions["sqnorm"].tolist(),
            questions["start"].tolist(), questions["end"].tolist(),
        )
    }
    return instructions, stored


def assert_loads_as_built(graph, path):
    """Save ``graph`` to ``path`` and load it: the loaded graph saves the
    same bytes and holds the same scan rows and questions, bit for bit,
    each the one its text gives. Returns the loaded graph."""
    save_graph(graph, path)
    loaded = load_graph(path)
    again = path.with_name("again.json")
    save_graph(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    assert stored_rows(loaded) == stored_rows(graph)
    assert_scan_rows_match(loaded)
    assert_question_rows_match(loaded)
    return loaded


def assert_extension_matches_deepcopy(parent, batches):
    snapshot = copy.deepcopy(parent)
    child = extend_graph(parent, batches[0])
    expected_child = deepcopy_extend(snapshot, batches[0])
    assert graphs_equal(child, expected_child)
    # A grandchild and a second child share objects with both of them.
    grandchild = extend_graph(child, batches[1])
    sibling = extend_graph(parent, batches[1])
    assert graphs_equal(grandchild, deepcopy_extend(expected_child, batches[1]))
    assert graphs_equal(sibling, deepcopy_extend(snapshot, batches[1]))
    assert graphs_equal(child, expected_child)
    assert graphs_equal(parent, snapshot)
    # Writes to the parent after the copies stay out of them.
    for question in batches[1].iter_questions():
        for path in question.paths:
            insert_path(parent, path, question_text=question.text)
    assert graphs_equal(child, expected_child)
    assert graphs_equal(sibling, deepcopy_extend(snapshot, batches[1]))
    for graph in (parent, child, grandchild, sibling):
        assert_scan_rows_match(graph)
        assert_question_rows_match(graph)
        assert_traversals_match(graph, "amber birch grove", *policies(0)[1], seed=0)


@pytest.mark.parametrize("seed", range(50))
def test_extend_matches_deepcopy_extension(seed):
    parent = random_graph(seed)
    parent.index()
    assert_extension_matches_deepcopy(
        parent, [random_corpus(seed + 1000, "q"), random_corpus(seed + 2000, "w")]
    )


def test_extend_of_a_loaded_graph_matches_deepcopy_extension(tmp_path):
    save_graph(random_graph(11), tmp_path / "graph.json")
    loaded = load_graph(tmp_path / "graph.json")
    assert_traversals_match(loaded, "amber birch", *policies(11)[0], seed=11)
    assert_extension_matches_deepcopy(loaded, [random_corpus(1011), random_corpus(2011, "w")])


def test_demo_graph_loads_as_built(tmp_path):
    graph, query = demo_graph()
    assert_loads_as_built(graph, tmp_path / "graph.json")
    assert_loads_as_built(extend_graph(graph, query), tmp_path / "extended.json")


def test_extend_matches_deepcopy_extension_on_demo_world():
    graph, query = demo_graph()
    batches = [TaskCorpus(), TaskCorpus()]
    for i, question in enumerate(sorted(query.iter_questions(), key=lambda q: q.question_id)):
        batches[i % 2].add(question)
    assert_extension_matches_deepcopy(graph, batches)


# -- patched indexes ---------------------------------------------------------------
#
# A read after a write patches the index of an earlier state (the base)
# instead of compiling from scratch. After every write the patched index
# must equal a fresh ``GraphIndex`` in every array, text list and edge
# order, bit for bit.


def centroid_columns(index):
    """Every column of the centroid store, in slot order."""
    return {name: index.centroids[name][index.centroid_rows]
            for name in index.centroids._store.columns}


def assert_same_index(patched, fresh):
    # A fresh index numbers its centroid rows in slot order, and a patched
    # one keeps each pair's row, so the rows compare in slot order.
    assert fresh.centroid_rows.tolist() == list(range(fresh.centroids.count))
    assert sorted(patched.centroid_rows.tolist()) == list(range(patched.centroids.count))
    spare = {"text_nodes", "centroid_rows"}
    fields = set(vars(fresh)) - spare
    assert set(vars(patched)) - spare == fields
    for name in sorted(fields):
        got, want = getattr(patched, name), getattr(fresh, name)
        if name == "centroids":
            got, want = centroid_columns(patched), centroid_columns(fresh)
            assert got.keys() == want.keys()
            for column in want:
                assert got[column].dtype == want[column].dtype, column
                assert got[column].tobytes() == want[column].tobytes(), column
        elif isinstance(want, np.ndarray):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            if want.dtype == object:
                assert got.tolist() == want.tolist(), name
            else:
                assert got.tobytes() == want.tobytes(), name
        elif name == "edges":
            # The graph's own edge objects, in the same order.
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), name
        elif name in ("questions", "entries"):
            # The graph's own question stores.
            assert got is want, name
        else:
            assert got == want, name


def read_patched(graph):
    """Read ``graph``, which must hold a base, and check the patched index."""
    assert graph._base is not None and graph._compiled is None
    patched = graph.index()
    assert graph._base is None and not graph._written
    assert_same_index(patched, GraphIndex(graph))
    return patched


def extension_batches(seed, count):
    # Repeated id prefixes make later batches reuse (task, question id)
    # keys an earlier batch registered or listed.
    return [random_corpus(seed * 100 + i, "w" if i % 3 == 2 else "q") for i in range(count)]


@pytest.mark.parametrize("seed", range(50))
def test_patched_index_equals_fresh_index_after_every_extension(seed):
    graph = random_graph(seed)
    graph.index()
    for batch in extension_batches(seed, 4):
        graph = extend_graph(graph, batch)
        read_patched(graph)
    assert_traversals_match(graph, "amber birch grove", *policies(seed)[0], seed=seed)


def bench_inputs():
    """The benchmark's input generators (``bench/inputs.py``)."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import inputs
    finally:
        sys.path.remove(bench)
    return inputs


def test_patched_index_equals_fresh_index_over_benchmark_writes(tmp_path):
    # The index-4k benchmark's seed-1 graph and write batches, with the
    # graph loaded from its file as the benchmark serves it.
    inputs = bench_inputs()
    graph = assert_loads_as_built(
        build_graph(inputs.random_corpus(1, 4000), 0.4, EmbedderConfig(dimension=256)),
        tmp_path / "graph.json",
    )
    graph.index()
    for i, batch in enumerate(islice(inputs.index_write_batches(1, 60), 25)):
        graph = extend_graph(graph, batch)
        read_patched(graph)
        if i == 3:
            assert_loads_as_built(graph, tmp_path / "written.json")


def test_graph_built_through_the_feature_tables_equals_one_hashed_per_feature(
    tmp_path, monkeypatch
):
    # The index-4k benchmark's corpus and writes at a few hundred
    # instructions, embedded once with every feature occurrence hashed on
    # its own and once through the feature tables.
    inputs = bench_inputs()
    saved = []
    for codes in (codes_reference, embedding._codes):
        monkeypatch.setattr(embedding, "_codes", codes)
        embedding._embed_cached.cache_clear()
        graph = build_graph(inputs.random_corpus(1, 300), 0.4, EmbedderConfig(dimension=256))
        for batch in islice(inputs.index_write_batches(1, 60), 3):
            graph = extend_graph(graph, batch)
        path = tmp_path / f"graph{len(saved)}.json"
        save_graph(graph, path)
        saved.append((path.read_bytes(), stored_rows(graph)))
        assert bool(embedding._feature_tables) == (codes is not codes_reference)
    embedding._embed_cached.cache_clear()
    assert saved[0] == saved[1]


def test_only_the_first_copy_of_an_indexed_graph_gets_a_base():
    parent = random_graph(7)
    first_index = parent.index()
    first = extend_graph(parent, random_corpus(701))
    second = extend_graph(parent, random_corpus(702, "w"))
    assert first._base is first_index and parent._compiled is None
    assert second._base is None
    assert_same_index(second.index(), GraphIndex(second))
    read_patched(first)
    # Read in the other order: a later copy of a re-read parent.
    parent.index()
    third = extend_graph(parent, random_corpus(703))
    fourth = extend_graph(parent, random_corpus(704, "w"))
    assert_same_index(fourth.index(), GraphIndex(fourth))
    read_patched(third)


def test_a_copy_of_a_graph_not_yet_read_gets_no_base():
    parent = random_graph(8)
    parent.index()
    child = extend_graph(parent, random_corpus(801))
    grandchild = extend_graph(child, random_corpus(802, "w"))
    assert grandchild._base is None and child._base is not None
    read_patched(child)
    assert_same_index(grandchild.index(), GraphIndex(grandchild))
    assert_traversals_match(grandchild, "cobalt dune", *policies(8)[1], seed=8)


def test_in_place_insert_patches_the_index():
    graph = random_graph(9)
    graph.index()
    for question in random_corpus(901, "w").iter_questions():
        for path in question.paths:
            insert_path(graph, path, question_text=question.text)
            read_patched(graph)
    assert_traversals_match(graph, "ember fjord", *policies(9)[0], seed=9)


def edge_texts(index, edge):
    """A text of each end of ``edge``, so a path over them follows it."""
    return tuple(
        index.texts[index.node_rows[index.node_ptr[index.node_pos[node_id]]]]
        for node_id in (edge.from_node, edge.to_node)
    )


def test_a_new_pair_before_every_other_slot_takes_the_next_row():
    # A new task on the first edge puts a slot before all the others: its
    # centroid takes the store's next row, and every other slot keeps its
    # base row in the same store.
    graph, _ = demo_graph()
    index = graph.index()
    base_rows, base_tasks = index.centroid_rows.copy(), index.centroid_tasks.copy()
    store, count = index.centroids._store, index.centroids.count
    first = index.edges[0]
    insert_path(graph, InstructionPath(edge_texts(index, first), "T_new", "n1", 1.0),
                question_text="a new task")
    patched = read_patched(graph)
    slot = patched.centroid_tasks[:patched.centroid_ptr[1]].tolist().index("T_new")
    assert patched.centroid_rows[slot] == count
    others = np.delete(np.arange(len(patched.centroid_rows)), slot)
    assert patched.centroid_rows[others].tolist() == base_rows.tolist()
    assert patched.centroid_tasks[others].tolist() == base_tasks.tolist()
    assert patched.centroids._store is store


def test_a_write_of_more_new_pairs_than_spare_rows_grows_the_store():
    graph, _ = demo_graph()
    index = graph.index()
    store = index.centroids._store
    spare = len(store.columns["values"]) - index.centroids.count
    paths = [InstructionPath(edge_texts(index, edge), f"T_new{i}", "n1", 1.0)
             for i, edge in enumerate(index.edges[:spare + 1])]
    assert len(paths) == spare + 1
    graph = extend_graph(graph, corpus_of_paths(*paths))
    patched = read_patched(graph)
    assert patched.centroids._store is not store
    assert patched.centroids.count == index.centroids.count + spare + 1


# -- centroid sums -----------------------------------------------------------------
#
# A patch continues a centroid's float64 sum with its new questions only
# when their ids all sort after the centroid's last id, as ``np.mean``
# then adds them last; otherwise it sums the centroid again.


@pytest.fixture
def centroid_sums(monkeypatch):
    """Counts the fresh centroids that continued a base sum and those
    summed from their first question."""
    counts = {"continued": 0, "summed": 0}
    original = GraphIndex._fill_centroids

    def counted(index, dst, ptr, rows, added, *rest):
        continued = int(np.count_nonzero(added < np.diff(ptr)))
        counts["continued"] += continued
        counts["summed"] += len(added) - continued
        return original(index, dst, ptr, rows, added, *rest)

    monkeypatch.setattr(GraphIndex, "_fill_centroids", counted)
    return counts


EDGE_A = ("Search[amber birch]", "Lookup[cobalt dune]")
EDGE_B = ("Check[ember fjord]", "Fetch[grove heath]")


def corpus_of_paths(*paths):
    corpus = TaskCorpus()
    for path in paths:
        corpus.add(Question(path.question_id, path.task_id, f"question {path.question_id}",
                            "answer", paths=(path,)))
    return corpus


def patch_counted(graph, batch, counts):
    """Extend ``graph`` with ``batch``, read it, and return the counts of
    the patch alone, checked against a fresh index."""
    graph.index()
    counts.update(continued=0, summed=0)
    graph = extend_graph(graph, batch)
    patched = graph.index()
    seen = dict(counts)
    assert_same_index(patched, GraphIndex(graph))
    for pos, edge in enumerate(patched.edges):
        rows = centroids_of_edge(patched, pos)
        expected = [c.values for _, c, _ in ref_edge_task_centroids(graph, edge)]
        assert np.array_equal(rows, np.array(expected))
    return graph, seen


@pytest.mark.parametrize("first, later, continued", [
    ("w0999-1", "w1000-1", True),
    ("w999-1", "w1000-1", False),  # "w1000-1" sorts before "w999-1"
    ("w1", "q1", False),
])
def test_a_question_continues_the_sum_only_when_its_id_sorts_last(
    centroid_sums, first, later, continued
):
    graph = build_graph(corpus_of_paths(InstructionPath(EDGE_A, "T1", first, 1.0)), 0.4,
                        EmbedderConfig(dimension=64))
    assert len(graph.edges) == 1
    batch = corpus_of_paths(InstructionPath(EDGE_A, "T1", later, 1.0))
    graph, seen = patch_counted(graph, batch, centroid_sums)
    assert seen == {"continued": int(continued), "summed": int(not continued)}
    assert sorted(next(iter(graph.edges.values())).tasks["T1"]) == sorted([first, later])


def test_a_new_task_on_an_edge_is_summed(centroid_sums):
    graph = build_graph(corpus_of_paths(InstructionPath(EDGE_A, "T1", "q1", 1.0)), 0.4,
                        EmbedderConfig(dimension=64))
    batch = corpus_of_paths(InstructionPath(EDGE_A, "T2", "q2", 1.0))
    graph, seen = patch_counted(graph, batch, centroid_sums)
    assert seen == {"continued": 0, "summed": 1}
    assert sorted(next(iter(graph.edges.values())).tasks) == ["T1", "T2"]


def test_one_patch_continues_some_sums_and_sums_others_again(centroid_sums):
    paths = [InstructionPath(texts, task, qid, 1.0)
             for texts in (EDGE_A, EDGE_B) for task, qid in (("T1", "w5"), ("T2", "w5"))]
    graph = build_graph(corpus_of_paths(*paths), 0.4, EmbedderConfig(dimension=64))
    assert len(graph.edges) == 2
    batch = corpus_of_paths(
        InstructionPath(EDGE_A, "T1", "w6", 1.0),  # continues
        InstructionPath(EDGE_A, "T2", "w10", 1.0),  # sorts before "w5"
        InstructionPath(EDGE_B, "T2", "w7", 1.0),  # continues
        InstructionPath(EDGE_B, "T3", "w8", 1.0),  # a new task
    )
    _, seen = patch_counted(graph, batch, centroid_sums)
    assert seen == {"continued": 2, "summed": 2}


def test_continued_sums_over_many_writes(centroid_sums):
    # Ids that sort in write order keep continuing the same sums.
    graph = build_graph(random_corpus(31, "a"), 0.5, EmbedderConfig(dimension=64))
    continued = 0
    for i in range(6):
        batch = random_corpus(3100 + i, f"b{i}-")
        graph, seen = patch_counted(graph, batch, centroid_sums)
        continued += seen["continued"]
    assert continued > 0


# -- the row stores ----------------------------------------------------------------


def columns_of(handle):
    """Every column a store handle reads, as lists."""
    return {name: handle[name].tolist() for name in handle._store.columns}


def capacity_of(handle):
    return len(next(iter(handle._store.columns.values())))


@pytest.mark.parametrize("store", ["_scan", "_questions"])
def test_sibling_copies_each_see_only_their_own_rows(store):
    # A serving loop extends the same graph again and again. The first
    # child appends to the shared store in place, and each later one to a
    # copy of the parent's rows. The last child writes more rows than the
    # parent's arrays hold, so its copy is also outgrown within the write.
    parent = random_graph(12)
    parent.index()
    snapshot = copy.deepcopy(parent)
    before = parent._questions["key"].tolist()
    rows, capacity = columns_of(getattr(parent, store)), capacity_of(getattr(parent, store))
    batches = [random_corpus(1200 + i, f"s{i}-") for i in range(3)] + [TaskCorpus()]
    for j in range(16):
        for question in random_corpus(1300 + j, f"b{j}-").iter_questions():
            batches[-1].add(question)
    children = [extend_graph(parent, batch) for batch in batches]
    for child, batch in zip(children, batches):
        written = [(q.task_id, q.question_id) for q in batch.iter_questions()]
        stored = question_texts(child)
        assert list(stored) == before + written
        for question in batch.iter_questions():
            assert stored[(question.task_id, question.question_id)] == question.text
        assert graphs_equal(child, deepcopy_extend(snapshot, batch))
        assert_scan_rows_match(child)
        assert_question_rows_match(child)
        assert_same_index(child.index(), GraphIndex(child))
    assert graphs_equal(parent, snapshot)
    assert columns_of(getattr(parent, store)) == rows
    stores = [getattr(child, store)._store for child in children]
    assert stores[0] is getattr(parent, store)._store
    assert len({id(shared) for shared in stores}) == len(children)
    assert getattr(children[-1], store).count > capacity


def test_dense_question_rows_are_the_embeddings_of_their_texts():
    # Centroid sums add the rows ``dense`` rebuilds from the counts: each
    # must be its question text's float32 embedding, gathered alone or
    # with every other row.
    graph, query = demo_graph()
    graph = extend_graph(graph, query)
    index = graph.index()
    rows = np.arange(graph._questions.count)
    gathered = index.dense(rows)
    for row, text in zip(rows, graph._questions["text"].tolist()):
        expected = embed_text(text, graph.embedder).values.astype(np.float64).tobytes()
        assert gathered[row].tobytes() == expected
        assert index.dense(rows[row:row + 1])[0].tobytes() == expected


def test_question_store_keeps_at_most_400_bytes_per_question():
    inputs = bench_inputs()
    graph = build_graph(inputs.random_corpus(2, 4000), 0.4, EmbedderConfig(dimension=256))
    for batch in islice(inputs.index_write_batches(2, 60), 30):
        graph = extend_graph(graph, batch)
    # Array storage of both question stores, spare capacity included.
    stored = sum(array.nbytes for handle in (graph._questions, graph._entries)
                 for array in handle._store.columns.values())
    assert graph._questions.count > 1500
    assert stored <= 400 * graph._questions.count
