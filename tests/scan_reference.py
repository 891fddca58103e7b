"""A scalar reference for the graph's similarity of two texts, ψ of their
counts, with Python-int dot products and the same ψ expression: the
similarity ``knn_nearest`` ranks stored instructions by, and the one
``QueryScores`` scores a query's instructions, questions and task
centroids (summed question counts) by. Tests build graphs with
``knn_nearest_reference`` in place of ``knn_nearest`` and compare them
with the library's.
"""

import math
from contextlib import contextmanager
from functools import lru_cache

import ragplan.graph as graph_module
from ragplan.embedding import embed_counts
from ragplan.errors import NotFoundError
from ragplan.graph import KnnHit


@lru_cache(maxsize=None)
def sparse_counts(text, embedder):
    """The nonzero counts of ``text`` by bucket, as Python ints."""
    counts = embed_counts(text, embedder).tolist()
    return {i: c for i, c in enumerate(counts) if c}


def summed_counts(texts, embedder):
    """The counts of several texts added bucket by bucket, as Python ints:
    a task centroid's counts, summed from its questions' texts."""
    total = {}
    for text in texts:
        for i, c in sparse_counts(text, embedder).items():
            total[i] = total.get(i, 0) + c
    return total


def psi_of_counts(a, b):
    """ψ = (c·c′) / √(‖c‖²·‖c′‖²) of two counts by bucket, 0 when either
    is all zeros."""
    dot = sum(c * b.get(i, 0) for i, c in a.items())
    product = sum(c * c for c in a.values()) * sum(c * c for c in b.values())
    return dot / math.sqrt(product) if product else 0.0


def psi(text, other, embedder):
    """``psi_of_counts`` of the counts of two texts: a query against an
    instruction or a question, or an instruction against another."""
    return psi_of_counts(sparse_counts(text, embedder), sparse_counts(other, embedder))


def knn_nearest_reference(graph, text, excluded=None, **_):
    scored = [
        (psi(text, stored, graph.embedder), node_id, stored)
        for node_id, node in graph.nodes.items() if node_id != excluded
        for stored in node.instructions
    ]
    if not scored:
        raise NotFoundError("no stored instruction outside the excluded node")
    top = max(score for score, _, _ in scored)
    node_id, stored = min((node_id, stored) for score, node_id, stored in scored if score == top)
    return KnnHit(node_id=node_id, text=stored, psi=top)


@contextmanager
def reference_scan():
    """Within the block, every insert matches with the reference scan."""
    original = graph_module.knn_nearest
    graph_module.knn_nearest = knn_nearest_reference
    try:
        yield
    finally:
        graph_module.knn_nearest = original
