import json
import re
import math

import numpy as np
import pytest

from ragplan.corpus import InstructionPath, Question, TaskCorpus
from ragplan.embedding import EmbedderConfig, embed_text
from ragplan.errors import MalformedFileError, NotFoundError, VersionMismatchError
from ragplan.graph import (
    InstructionGraph,
    build_graph,
    extend_graph,
    graph_stats,
    graphs_equal,
    insert_path,
    knn_nearest,
    load_graph,
    save_graph,
)

CFG = EmbedderConfig()

P11 = InstructionPath(
    ("Search[Scott Derrickson]", "Lookup[nationality]", "Search[Ed Wood]", "Lookup[nationality]"),
    "T1",
    "q1",
    1.0,
)


def path(texts, task="T1", qid="q1", success=1.0):
    return InstructionPath(tuple(texts), task, qid, success)


def corpus_from_paths(paths, texts_by_qid=None):
    corpus = TaskCorpus()
    for p in paths:
        text = (texts_by_qid or {}).get(p.question_id, f"question {p.question_id}")
        corpus.add(Question(p.question_id, p.task_id, text, "answer", paths=(p,)))
    return corpus


def random_instruction_texts(rng, count):
    operators = ["Search", "Lookup", "Check", "Fetch"]
    words = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath"]
    texts = []
    for _ in range(count):
        op = operators[int(rng.integers(len(operators)))]
        arg = " ".join(
            words[int(rng.integers(len(words)))] for _ in range(int(rng.integers(1, 4)))
        )
        texts.append(f"{op}[{arg}]")
    return texts


class TestKnnNearest:
    def test_self_match_without_exclusion(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, "question q1")
        hit = knn_nearest(graph, "Search[Ed Wood]")
        assert hit.text == "Search[Ed Wood]"
        assert hit.psi == 1.0

    def test_running_example_exclusion(self):
        # With only the first two instructions stored, matching the third
        # while excluding the previous node must land on the first node's
        # search instruction.
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(
            graph, path(["Search[Scott Derrickson]", "Lookup[nationality]"]), "question q1"
        )
        hit = knn_nearest(graph, "Search[Ed Wood]", excluded=2)
        assert hit.node_id == 1
        assert hit.text == "Search[Scott Derrickson]"
        assert hit.psi < graph.delta

    def test_empty_graph_raises(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        with pytest.raises(NotFoundError):
            knn_nearest(graph, "Search[x]")

    def test_exclusion_can_empty_the_graph(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, path(["Search[x]"]), "question q1")
        with pytest.raises(NotFoundError):
            knn_nearest(graph, "Search[x]", excluded=1)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(17)
        graph = InstructionGraph(delta=0.5, embedder=CFG)
        for i, text in enumerate(random_instruction_texts(rng, 10)):
            insert_path(graph, path([text], qid=f"q{i}"), f"question q{i}")
        for query_text in random_instruction_texts(rng, 25):
            query = embed_text(query_text, CFG)
            hit = knn_nearest(graph, query_text)
            best = None
            for node_id, node in sorted(graph.nodes.items()):
                for text in sorted(node.instructions):
                    sim = float(
                        np.dot(
                            query.values.astype(np.float64),
                            embed_text(text, CFG).values.astype(np.float64),
                        )
                    )
                    if best is None or sim > best[0] + 1e-12:
                        best = (sim, node_id, text)
            assert (hit.node_id, hit.text) == (best[1], best[2])


class TestInsertPath:
    def test_running_example_cycle(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        sequence = insert_path(graph, P11, "question q1")
        assert sequence == [1, 2, 3, 2]
        assert len(graph.nodes) == 3
        assert list(graph.nodes[2].instructions) == ["Lookup[nationality]"]
        assert set(graph.edges) == {(1, 2), (2, 3), (3, 2)}

    def test_counters_track_ids_and_edges(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, "question q1")
        assert graph.ic == 1 + max(graph.nodes)
        assert graph.tc == 1 + len(graph.edges)
        with pytest.raises(AttributeError):
            graph.tc = 1  # derived from the edges, not kept
        assert graph.copy().tc == graph.tc

    def test_reinsert_same_path_is_structurally_idempotent(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, "question q1")
        nodes_before = {nid: list(node.instructions) for nid, node in graph.nodes.items()}
        insert_path(graph, P11, "question q1")
        assert {nid: list(node.instructions) for nid, node in graph.nodes.items()} == nodes_before
        # duplicate texts keep one entry with merged provenance
        sources = graph.nodes[1].instructions["Search[Scott Derrickson]"]
        assert len(sources) == 2

    def test_second_task_joins_existing_edge(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, "question q1")
        insert_path(
            graph,
            path(["Search[Scott Derrickson]", "Lookup[nationality]"], task="T2", qid="q2"),
            "question q2",
        )
        assert set(graph.edges[(1, 2)].tasks) == {"T1", "T2"}

    def test_first_instruction_adds_no_edge(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, path(["Search[alpha crane]"]), "question q1")
        insert_path(graph, path(["Search[beta crane]"], qid="q2"), "question q2")
        assert graph.edges == {}

    def test_adjacent_instructions_in_different_nodes(self):
        rng = np.random.default_rng(5)
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        for i in range(12):
            texts = random_instruction_texts(rng, int(rng.integers(2, 6)))
            texts = [t for j, t in enumerate(texts) if j == 0 or t != texts[j - 1]]
            sequence = insert_path(graph, path(texts, qid=f"q{i}"), f"question q{i}")
            for a, b in zip(sequence, sequence[1:]):
                assert a != b

    def test_replay_follows_existing_edges_with_task(self):
        rng = np.random.default_rng(6)
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        for i in range(10):
            texts = random_instruction_texts(rng, 4)
            texts = [t for j, t in enumerate(texts) if j == 0 or t != texts[j - 1]]
            p = path(texts, task=f"T{i % 3}", qid=f"q{i}")
            sequence = insert_path(graph, p, f"question q{i}")
            for a, b in zip(sequence, sequence[1:]):
                assert (a, b) in graph.edges
                assert p.task_id in graph.edges[(a, b)].tasks


class TestBuildGraph:
    def test_empty_support(self):
        graph = build_graph(TaskCorpus(), delta=0.4, embedder=CFG)
        assert graph.is_empty()
        stats = graph_stats(graph)
        assert (stats.node_count, stats.edge_count, stats.instruction_count) == (0, 0, 0)

    def test_only_correct_paths_inserted(self):
        corpus = corpus_from_paths(
            [path(["Search[a]"], qid="q1"), path(["Search[b]"], qid="q2", success=0.2)]
        )
        graph = build_graph(corpus, delta=0.4, embedder=CFG)
        assert graph.instruction_count() == 1

    def test_node_count_nondecreasing_in_delta(self):
        rng = np.random.default_rng(23)
        paths = []
        for i in range(20):
            texts = random_instruction_texts(rng, int(rng.integers(2, 5)))
            texts = [t for j, t in enumerate(texts) if j == 0 or t != texts[j - 1]]
            paths.append(path(texts, task=f"T{i % 4}", qid=f"q{i}"))
        corpus = corpus_from_paths(paths)
        counts = [
            graph_stats(build_graph(corpus, delta=d, embedder=CFG)).node_count
            for d in (0.0, 0.5, 1.0)
        ]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_delta_one_isolates_distinct_texts_into_chains(self):
        # All-unique texts: every instruction gets its own node and the
        # graph is a disjoint union of path chains.
        paths = [
            path(["Search[alpha crane]", "Lookup[first hue]", "Search[beta crane]"], qid="q1"),
            path(["Search[gamma crane]", "Lookup[second hue]"], qid="q2"),
        ]
        graph = build_graph(corpus_from_paths(paths), delta=1.0, embedder=CFG)
        total = sum(len(p.instructions) for p in paths)
        assert graph_stats(graph).node_count == total
        out_degree = {}
        in_degree = {}
        for src, dst in graph.edges:
            out_degree[src] = out_degree.get(src, 0) + 1
            in_degree[dst] = in_degree.get(dst, 0) + 1
        assert all(v == 1 for v in out_degree.values())
        assert all(v == 1 for v in in_degree.values())

    def test_delta_one_still_merges_identical_texts(self):
        graph = build_graph(corpus_from_paths([P11]), delta=1.0, embedder=CFG)
        assert graph_stats(graph).node_count == 3


class TestExtendGraph:
    def test_extend_with_empty_corpus_is_noop(self):
        base = build_graph(corpus_from_paths([P11]), delta=0.4, embedder=CFG)
        extended = extend_graph(base, TaskCorpus())
        assert graphs_equal(base, extended)

    def test_extension_does_not_mutate_original(self):
        base = build_graph(corpus_from_paths([P11]), delta=0.4, embedder=CFG)
        before = graph_stats(base)
        extend_graph(
            base, corpus_from_paths([path(["Search[Greta Gerwig]", "Lookup[era]"], qid="q9")])
        )
        assert graph_stats(base) == before

    def test_monotone_growth(self):
        rng = np.random.default_rng(31)
        paths_a = [path(random_instruction_texts(rng, 3), qid=f"a{i}") for i in range(5)]
        paths_b = [path(random_instruction_texts(rng, 3), qid=f"b{i}") for i in range(5)]
        base = build_graph(corpus_from_paths(paths_a), delta=0.4, embedder=CFG)
        extended = extend_graph(base, corpus_from_paths(paths_b))
        assert graph_stats(extended).node_count >= graph_stats(base).node_count

    def test_extend_equals_build_of_union_in_order(self):
        rng = np.random.default_rng(37)
        paths_a = [path(random_instruction_texts(rng, 3), task="T1", qid=f"a{i}") for i in range(4)]
        paths_b = [path(random_instruction_texts(rng, 3), task="T2", qid=f"b{i}") for i in range(4)]
        base = build_graph(corpus_from_paths(paths_a), delta=0.4, embedder=CFG)
        extended = extend_graph(base, corpus_from_paths(paths_b))
        union = build_graph(corpus_from_paths(paths_a + paths_b), delta=0.4, embedder=CFG)
        assert graphs_equal(extended, union)


class TestPersistence:
    def build_sample(self):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, question_text="Were they of the same nationality?")
        insert_path(
            graph,
            path(["Search[Scott Derrickson]", "Lookup[nationality]"], task="T2", qid="q2"),
            question_text="Which nation?",
        )
        return graph

    def test_round_trip_deep_equal(self, tmp_path):
        graph = self.build_sample()
        dest = tmp_path / "graph.json"
        save_graph(graph, dest)
        assert graphs_equal(graph, load_graph(dest))

    def test_truncated_file_rejected(self, tmp_path):
        graph = self.build_sample()
        dest = tmp_path / "graph.json"
        save_graph(graph, dest)
        dest.write_text(dest.read_text(encoding="utf-8")[:100], encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_graph(dest)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        graph = self.build_sample()
        dest = tmp_path / "graph.json"
        save_graph(graph, dest)
        doc = json.loads(dest.read_text(encoding="utf-8"))
        doc["format_version"] = "0"
        dest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(VersionMismatchError) as err:
            load_graph(dest)
        assert "'0'" in str(err.value) and "'1'" in str(err.value)

    def saved_doc(self, tmp_path):
        dest = tmp_path / "graph.json"
        save_graph(self.build_sample(), dest)
        return dest, json.loads(dest.read_text(encoding="utf-8"))

    def assert_rejected(self, dest, doc, needle):
        dest.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MalformedFileError, match=needle):
            load_graph(dest)

    def test_edge_to_missing_node_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"][0]["to"] = 99
        self.assert_rejected(dest, doc, "missing node")

    def test_duplicate_node_id_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["nodes"][1]["node_id"] = doc["nodes"][0]["node_id"]
        self.assert_rejected(dest, doc, "appears twice")

    def test_duplicate_instruction_text_rejected(self, tmp_path):
        # A node keeps one entry per text, so a second one would add a
        # scan row that no entry backs.
        dest, doc = self.saved_doc(tmp_path)
        entries = doc["nodes"][0]["instructions"]
        entries.append(dict(entries[0]))
        self.assert_rejected(dest, doc, "twice")

    def test_edge_without_tasks_rejected(self, tmp_path):
        # Traversal scores every edge by its task centroids.
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"][0]["tasks"] = {}
        self.assert_rejected(dest, doc, "lists no task")

    def test_edge_tasks_not_an_object_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"][0]["tasks"] = ["T1"]
        self.assert_rejected(dest, doc, "malformed graph document")

    def test_task_without_questions_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"][0]["tasks"]["T1"] = []
        self.assert_rejected(dest, doc, "task T1 with no question")

    def test_edge_question_not_stored_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["questions"] = [q for q in doc["questions"] if q["question_id"] != "q2"]
        self.assert_rejected(dest, doc, "question T2/q2, which is not stored")

    def test_repeated_edge_question_rejected(self, tmp_path):
        # Loaded as a set, the ids would save back without the repeat.
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"][0]["tasks"]["T1"] *= 2
        self.assert_rejected(dest, doc, "edge 1->2 lists question T1/q1 twice")

    def test_repeated_edge_rejected(self, tmp_path):
        # Keyed by (from, to), the later entry would replace the earlier,
        # and tc, which counts distinct edges, would still match.
        dest, doc = self.saved_doc(tmp_path)
        doc["edges"].append({"from": 1, "to": 2, "tasks": {"T2": ["q2"]}})
        self.assert_rejected(dest, doc, "edge 1->2 appears twice")

    def test_ic_not_above_node_ids_rejected(self, tmp_path):
        # With ic 1, extend_graph would reuse node 1 and silently replace
        # its instructions.
        dest, doc = self.saved_doc(tmp_path)
        doc["ic"] = 1
        self.assert_rejected(dest, doc, "ic 1")

    def test_tc_not_edge_count_plus_one_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        doc["tc"] = len(doc["edges"]) + 2
        self.assert_rejected(dest, doc, "tc")

    def test_duplicate_question_rejected(self, tmp_path):
        # The question store is append-only, so a second entry for one
        # (task, question id) could not replace the first.
        dest, doc = self.saved_doc(tmp_path)
        doc["questions"].append(dict(doc["questions"][0]))
        self.assert_rejected(dest, doc, "question T1/q1 appears twice")

    def test_old_layout_rejected_with_the_resave_step(self, tmp_path):
        # A file that stores embeddings, as files did before the layout.
        dest, doc = self.saved_doc(tmp_path)
        self.assert_rejected(
            dest, old_layout(doc),
            re.escape("graph file has layout None, this build reads 'texts'; re-save it by "
                      "running build-graph, train or adapt again"),
        )

    @pytest.mark.parametrize("layout", ["", "texts-and-embeddings", 1])
    def test_other_layout_rejected(self, tmp_path, layout):
        dest, doc = self.saved_doc(tmp_path)
        doc["layout"] = layout
        self.assert_rejected(dest, doc, re.escape(f"graph file has layout {layout!r}"))

    @pytest.mark.parametrize("text", [None, 5, ["Which nation?"], {"text": "Which nation?"}],
                             ids=["null", "number", "list", "object"])
    def test_question_text_that_is_not_a_string_rejected(self, tmp_path, text):
        dest, doc = self.saved_doc(tmp_path)
        doc["questions"][1]["text"] = text
        self.assert_rejected(dest, doc, "malformed graph document: config key 'text' must be str")

    def test_question_without_text_rejected(self, tmp_path):
        dest, doc = self.saved_doc(tmp_path)
        del doc["questions"][1]["text"]
        self.assert_rejected(dest, doc, "malformed graph document: 'text'")

    def test_instruction_text_without_features_rejected(self, tmp_path):
        # insert_path refuses such a text, and a load would keep a row
        # that no query can match.
        dest, doc = self.saved_doc(tmp_path)
        doc["nodes"][1]["instructions"][0]["text"] = "?!"
        self.assert_rejected(dest, doc, re.escape("node 2 '?!' embeds to an invalid vector"))

    def test_question_embeddings_are_their_texts(self, tmp_path):
        # The file stores no embedding; each loaded question's is its
        # text's, so a question whose text has no feature loads invalid.
        dest, doc = self.saved_doc(tmp_path)
        doc["questions"][0]["text"] = "?"
        dest.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_graph(dest).question_embeddings
        for entry in doc["questions"]:
            vector = loaded[entry["task_id"], entry["question_id"]]
            expected = embed_text(entry["text"], CFG)
            assert vector.values.tobytes() == expected.values.tobytes()
            assert vector.valid == expected.valid
        assert not loaded["T1", "q1"].valid and loaded["T2", "q2"].valid

    @pytest.mark.parametrize("field, value", [
        ("delta", 1.5),
        ("embedder", {"dimension": 4, "seed": 0, "ngram_min": 3, "ngram_max": 5}),
        ("embedder", {"dimension": 256, "seed": 0, "ngram_min": 9, "ngram_max": 5}),
    ])
    def test_setting_out_of_range_is_malformed(self, tmp_path, field, value):
        # The settings are data of the file, not configuration of the run.
        dest, doc = self.saved_doc(tmp_path)
        doc[field] = value
        self.assert_rejected(dest, doc, "malformed graph document")

    def test_node_without_instructions_rejected(self, tmp_path):
        # Traversal ranks every node by its best instruction.
        dest, doc = self.saved_doc(tmp_path)
        doc["nodes"][0]["instructions"] = []
        self.assert_rejected(dest, doc, "no instructions")

    @pytest.mark.parametrize("sources", [
        ["abc"], [[1, 2]], [["T1", "q1", "zero"]], "xyz", [], [["T1", "q1", True]],
    ])
    def test_malformed_sources_rejected(self, tmp_path, sources):
        # Each would otherwise load, and a string would be split into
        # characters, so the file saved back would differ.
        dest, doc = self.saved_doc(tmp_path)
        entry = doc["nodes"][0]["instructions"][0]
        entry["sources"] = sources
        name = f"node {doc['nodes'][0]['node_id']} {entry['text']!r}"
        self.assert_rejected(dest, doc, re.escape(f"{name} has sources other than"))


def _swap_first_node_texts(doc):
    entries = doc["nodes"][0]["instructions"]
    entries[0], entries[1] = entries[1], entries[0]


def _drop_second_question_of_first_edge(doc):
    tasks = doc["edges"][0]["tasks"]
    tasks["T1"] = tasks["T1"][:1]


def _move_first_source(doc):
    doc["nodes"][0]["instructions"][0]["sources"][0][2] += 1


def _reword_second_question(doc):
    doc["questions"][1]["text"] = "Where did he come from?"


def _upper_case_second_question(doc):
    # The same embedding: texts are lower-cased before they are hashed.
    doc["questions"][1]["text"] = doc["questions"][1]["text"].upper()


class TestGraphsEqual:
    """``graphs_equal`` against a graph loaded from its saved file with one
    thing changed."""

    def saved_doc(self, tmp_path):
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, question_text="Were they of the same nationality?")
        insert_path(
            graph,
            path(["Search[Scott Derrickson]", "Lookup[nationality]"], qid="q3"),
            question_text="Which nation?",
        )
        insert_path(
            graph,
            path(["Search[Scott Derrickson film]", "Lookup[nationality of Ed Wood]"],
                 task="T2", qid="q2"),
            question_text="Where was he from?",
        )
        dest = tmp_path / "graph.json"
        save_graph(graph, dest)
        doc = json.loads(dest.read_text(encoding="utf-8"))
        # Node 1 holds two texts, and edge 1->2 two questions of T1.
        assert len(doc["nodes"][0]["instructions"]) == 2
        assert doc["edges"][0]["tasks"]["T1"] == ["q1", "q3"]
        return graph, dest, doc

    def test_unchanged_file_loads_equal(self, tmp_path):
        graph, dest, _ = self.saved_doc(tmp_path)
        assert graphs_equal(graph, load_graph(dest))
        assert graphs_equal(load_graph(dest), graph)

    @pytest.mark.parametrize("change", [
        lambda doc: doc.update(delta=0.5),
        lambda doc: doc.update(ic=doc["ic"] + 1),
        _swap_first_node_texts,
        _move_first_source,
        _drop_second_question_of_first_edge,
        _reword_second_question,
        _upper_case_second_question,
    ], ids=[
        "delta", "ic", "text-order", "source", "edge-questions", "question-text",
        "question-text-case",
    ])
    def test_one_change_makes_graphs_differ(self, tmp_path, change):
        graph, dest, doc = self.saved_doc(tmp_path)
        change(doc)
        dest.write_text(json.dumps(doc), encoding="utf-8")
        changed = load_graph(dest)
        assert not graphs_equal(graph, changed)
        assert not graphs_equal(changed, graph)


def old_layout(doc):
    """``doc`` as a file saved before the graph ``layout``: with each
    instruction's and question's float32 embedding as hex, and each
    question's validity flag in place of its text."""
    del doc["layout"]
    embedder = EmbedderConfig(**doc["embedder"])
    for node in doc["nodes"]:
        for entry in node["instructions"]:
            entry["embedding"] = embed_text(entry["text"], embedder).values.tobytes().hex()
    for entry in doc["questions"]:
        vector = embed_text(entry.pop("text"), embedder)
        entry.update(embedding=vector.values.tobytes().hex(), valid=vector.valid)
    return doc


class TestGraphStats:
    def test_empty(self):
        stats = graph_stats(InstructionGraph(delta=0.4, embedder=CFG))
        assert stats == graph_stats(InstructionGraph(delta=0.4, embedder=CFG))
        assert stats.node_count == 0
        assert stats.edge_count == 0
        assert stats.instruction_count == 0
        assert stats.task_count == 0
        assert stats.mean_node_size == 0.0

    def test_running_example_counts(self):
        # Two paths through three shared nodes: five distinct stored
        # instructions over three nodes and three edges.
        graph = InstructionGraph(delta=0.4, embedder=CFG)
        insert_path(graph, P11, "question q1")
        insert_path(
            graph,
            path(["Lookup[nationality of origin]", "Search[Ed Wood Jr.]"], qid="q3"),
            "question q3",
        )
        stats = graph_stats(graph)
        assert stats.node_count == 3
        assert stats.edge_count == 3
        assert stats.instruction_count == 5
        assert stats.mean_node_size == pytest.approx(5 / 3)

    def test_stats_match_recount_over_serialized_file(self, tmp_path):
        rng = np.random.default_rng(41)
        paths = [
            path(random_instruction_texts(rng, 3), task=f"T{i % 2}", qid=f"q{i}")
            for i in range(8)
        ]
        corpus = corpus_from_paths(paths)
        graph = build_graph(corpus, delta=0.4, embedder=CFG)
        dest = tmp_path / "graph.json"
        save_graph(graph, dest)
        doc = json.loads(dest.read_text(encoding="utf-8"))
        stats = graph_stats(graph)
        assert stats.node_count == len(doc["nodes"])
        assert stats.edge_count == len(doc["edges"])
        assert stats.instruction_count == sum(len(n["instructions"]) for n in doc["nodes"])
        tasks = {t for e in doc["edges"] for t in e["tasks"]}
        tasks.update(q["task_id"] for q in doc["questions"])
        assert stats.task_count == len(tasks)
        assert stats.mean_node_size == pytest.approx(
            stats.instruction_count / stats.node_count
        )

    def test_merge_soundness_against_threshold(self):
        # every multi-instruction node was formed by a merge at psi >= delta
        rng = np.random.default_rng(53)
        paths = [path(random_instruction_texts(rng, 4), qid=f"q{i}") for i in range(10)]
        graph = build_graph(corpus_from_paths(paths), delta=0.45, embedder=CFG)
        for node in graph.nodes.values():
            entries = [embed_text(t, CFG).values.astype(np.float64) for t in node.instructions]
            for i, entry in enumerate(entries[1:], 1):
                best = max(float(np.dot(entry, other)) for other in entries[:i] + entries[i + 1:])
                assert best >= graph.delta - 1e-9
