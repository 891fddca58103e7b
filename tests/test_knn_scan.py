"""The block-scored nearest-instruction scan against the per-instruction
scan it replaced (``scan_reference``): every graph built or extended with
blocks must equal the one the reference builds, at every embedder
dimension and merge threshold, and near-ties must reach the exact scan.

Graphs this small are scanned without blocks by default, so these tests
lower the size from which blocks are used to zero.
"""

import itertools

import numpy as np
import pytest

import ragplan.graph as graph_module
from ragplan.corpus import InstructionPath, Question, TaskCorpus
from ragplan.embedding import EmbedderConfig, embed_text
from ragplan.errors import NotFoundError
from ragplan.graph import (
    InstructionGraph,
    _BlockScan,
    build_graph,
    extend_graph,
    graphs_equal,
    insert_path,
    knn_nearest,
)
from scan_reference import knn_nearest_reference, reference_scan

DEFAULT_SMALL_VALUES = graph_module._SMALL_VALUES
OPERATORS = ["Search", "Lookup", "Check", "Fetch"]
WORDS = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath",
         "iris", "jade", "kelp", "larch", "maple", "night", "oak", "pine",
         "quill", "reed", "slate", "thorn"]


def random_corpus(seed, n_instructions, prefix="q"):
    """Paths of two to five steps over six tasks, each step an operator on
    one or two of twenty words, as in the index benchmark's corpus."""
    rng = np.random.default_rng([seed, n_instructions])
    corpus, total = TaskCorpus(), 0
    for qi in itertools.count(1):
        if total >= n_instructions:
            return corpus
        texts = [
            f"{OPERATORS[int(rng.integers(4))]}"
            f"[{' '.join(rng.choice(WORDS, size=int(rng.integers(1, 3))))}]"
            for _ in range(int(rng.integers(2, 6)))
        ]
        qid, task = f"{prefix}{qi:04d}", f"T{qi % 6}"
        corpus.add(Question(qid, task, f"question {qid}", "answer",
                            paths=(InstructionPath(tuple(texts), task, qid, 1.0),)))
        total += len(texts)


@pytest.fixture(autouse=True)
def blocks_at_every_size(monkeypatch):
    monkeypatch.setattr(graph_module, "_SMALL_VALUES", 0)


@pytest.fixture
def exact_scans(monkeypatch):
    """Counts the calls answered by the exact scan over every row."""
    counts = {"returned": 0}
    original = graph_module._scan_all

    def counted(*args):
        rows = original(*args)
        counts["returned"] += 1
        return rows

    monkeypatch.setattr(graph_module, "_scan_all", counted)
    return counts


@pytest.mark.parametrize("dimension", [8, 16, 64, 256])
@pytest.mark.parametrize("delta", [0.0, 0.4, 0.9, 1.0])
def test_build_and_extensions_match_the_reference_scan(dimension, delta):
    embedder = EmbedderConfig(dimension=dimension)
    for seed in (1, 2):
        corpus = random_corpus(seed, 160)
        graph = build_graph(corpus, delta, embedder)
        with reference_scan():
            reference = build_graph(corpus, delta, embedder)
        assert graphs_equal(graph, reference)
        for batch in range(3):
            write = random_corpus(seed * 10 + batch, 40, prefix=f"w{batch}-")
            graph = extend_graph(graph, write)
            with reference_scan():
                reference = extend_graph(reference, write)
            assert graphs_equal(graph, reference)


def test_near_ties_fall_back_to_the_exact_scan(exact_scans):
    # At d = 8 distinct instructions now and then score within the rounding
    # bound of each other (3 of 2,584 calls here); such calls must be
    # answered by the exact scan.
    embedder = EmbedderConfig(dimension=8)
    for seed, delta in itertools.product((1, 2, 3, 4), (0.0, 0.4, 0.9, 1.0)):
        corpus = random_corpus(seed, 160)
        graph = build_graph(corpus, delta, embedder)
        with reference_scan():
            assert graphs_equal(graph, build_graph(corpus, delta, embedder))
    assert exact_scans["returned"] > 0


def test_block_product_scores_the_write_once(monkeypatch):
    starts = []
    original = _BlockScan._start
    monkeypatch.setattr(_BlockScan, "_start",
                        lambda scan, graph: starts.append(1) or original(scan, graph))
    graph = build_graph(random_corpus(1, 400), 0.4, EmbedderConfig(dimension=64))
    starts.clear()
    extend_graph(graph, random_corpus(5, 60, prefix="w"))
    assert len(starts) == 1


def test_each_instruction_is_embedded_once_per_write(monkeypatch):
    # Blocks embed instructions ahead of their insertion; insert_path takes
    # those embeddings, so the write embeds what the per-instruction scan
    # embedded, in the same order.
    graph = build_graph(random_corpus(1, 400), 0.4, EmbedderConfig(dimension=64))
    write = random_corpus(5, 60, prefix="w")
    calls = []

    def counted(text, config, **kwargs):
        if not kwargs.get("transient"):
            calls.append(text)
        return embed_text(text, config, **kwargs)

    monkeypatch.setattr(graph_module, "embed_text", counted)
    extend_graph(graph, write)
    assert calls == [text for question in write.iter_questions()
                     for path in question.paths for text in path.instructions]


def graph_with_twin_rows():
    """"Search[x]" is stored in node 1 and, excluded from there, in node 2."""
    graph = InstructionGraph(delta=0.4, embedder=EmbedderConfig(dimension=64))
    insert_path(graph, InstructionPath(("Search[x]", "Search[x]"), "T1", "q1", 1.0), "question q1")
    assert sorted(graph.nodes) == [1, 2]
    return graph


def test_identical_rows_resolve_to_the_lowest_node_on_the_block_path(exact_scans):
    graph = graph_with_twin_rows()
    query = embed_text("Search[x]", graph.embedder)
    scan = _BlockScan(["Search[x]"])
    assert list(scan.nearest(graph, query, None)) == [0, 1]
    hit = knn_nearest(graph, query, _scan=_BlockScan(["Search[x]"]))
    assert (hit.node_id, hit.text, hit.psi) == (1, "Search[x]", 1.0)
    assert exact_scans["returned"] == 0
    assert knn_nearest(graph, query, excluded=1, _scan=_BlockScan(["Search[x]"])).node_id == 2


def test_a_different_row_within_the_rounding_bound_takes_the_exact_scan(exact_scans):
    # Rounding can move a block score by up to the bound; here the block's
    # score of the runner-up is set a hair from the best one's, either side.
    graph = InstructionGraph(delta=0.0, embedder=EmbedderConfig(dimension=64))
    insert_path(graph, InstructionPath(("Search[amber]", "Lookup[birch]"), "T1", "q1", 1.0),
                "question q1")
    query = embed_text("Search[amber]", graph.embedder)
    for nudge in (-1e-15, 1e-15):
        scan = _BlockScan(["Search[amber]"])
        assert list(scan.nearest(graph, query, None)) == [0]
        scan.served = 0
        scan.scores[0, 1] = scan.scores[0, 0] + nudge
        assert scan.nearest(graph, query, None) is None
    hit = knn_nearest(graph, query, _scan=scan)
    assert hit == knn_nearest_reference(graph, query)
    assert exact_scans["returned"] == 1


def test_a_non_finite_row_takes_the_exact_scan():
    graph = InstructionGraph(delta=0.0, embedder=EmbedderConfig(dimension=64))
    insert_path(graph, InstructionPath(("Search[amber]", "Lookup[birch]"), "T1", "q1", 1.0),
                "question q1")
    # No graph holds such a row (``load_graph`` rejects one): write it in
    # place, with the norm an append would have stored.
    graph._scan["values"][1, 3] = np.nan
    graph._scan["norms"][1] = np.nan
    query = embed_text("Search[amber]", graph.embedder)
    for excluded in (None, 1, 2):
        assert _BlockScan(["Search[amber]"]).nearest(graph, query, excluded) is None


def test_excluding_every_row_raises():
    graph = InstructionGraph(delta=0.4, embedder=EmbedderConfig(dimension=64))
    insert_path(graph, InstructionPath(("Search[x]",), "T1", "q1", 1.0), "question q1")
    query = embed_text("Search[y]", graph.embedder)
    assert _BlockScan(["Search[y]"]).nearest(graph, query, 1) is None
    with pytest.raises(NotFoundError):
        knn_nearest(graph, query, excluded=1, _scan=_BlockScan(["Search[y]"]))


def test_invalid_query_takes_the_exact_scan(exact_scans):
    graph = graph_with_twin_rows()
    insert_path(graph, InstructionPath(("Lookup[y]",), "T1", "q2", 1.0), "question q2")
    exact_scans["returned"] = 0
    query = embed_text("", graph.embedder)
    assert not query.valid
    assert _BlockScan([""]).nearest(graph, query, None) is None
    hit = knn_nearest(graph, query, excluded=1, _scan=_BlockScan([""]))
    assert hit == knn_nearest_reference(graph, query, excluded=1)
    assert exact_scans["returned"] == 1


def test_a_query_outside_the_block_takes_the_exact_scan(exact_scans):
    graph = graph_with_twin_rows()
    query = embed_text("Lookup[y]", graph.embedder)
    hit = knn_nearest(graph, query, _scan=_BlockScan(["Search[z]"]))
    assert hit == knn_nearest_reference(graph, query)
    assert exact_scans["returned"] == 1


def test_a_block_spanning_a_buffer_regrowth(monkeypatch):
    starts = []
    original = _BlockScan._start
    monkeypatch.setattr(_BlockScan, "_start",
                        lambda scan, graph: starts.append(1) or original(scan, graph))
    embedder = EmbedderConfig(dimension=64)
    words = [f"{a} {b}" for a, b in itertools.product(WORDS, WORDS) if a != b]
    graph = build_graph(corpus_of(words[:60]), 1.0, embedder)
    store = graph._scan._store
    assert graph._scan.count == 60 and len(store.columns["values"]) == 64
    write = corpus_of(words[60:72], prefix="w")
    starts.clear()
    extended = extend_graph(graph, write)
    assert len(starts) == 1
    assert extended._scan.count == 72 and extended._scan._store is not store
    with reference_scan():
        assert graphs_equal(extended, extend_graph(graph, write))


def corpus_of(args, prefix="q"):
    corpus = TaskCorpus()
    for i, arg in enumerate(args):
        qid = f"{prefix}{i}"
        corpus.add(Question(qid, "T1", f"question {qid}", "answer",
                            paths=(InstructionPath((f"Search[{arg}]",), "T1", qid, 1.0),)))
    return corpus


def test_small_graphs_keep_the_exact_scan(monkeypatch, exact_scans):
    monkeypatch.setattr(graph_module, "_SMALL_VALUES", DEFAULT_SMALL_VALUES)
    monkeypatch.setattr(_BlockScan, "_start", lambda scan, graph: pytest.fail("a block started"))
    embedder = EmbedderConfig(dimension=64)
    corpus = random_corpus(1, 160)
    graph = build_graph(corpus, 0.4, embedder)
    assert graph._scan.count * 64 < graph_module._SMALL_VALUES
    with reference_scan():
        assert graphs_equal(graph, build_graph(corpus, 0.4, embedder))
    assert exact_scans["returned"] > 0
