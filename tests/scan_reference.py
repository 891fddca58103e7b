"""A scalar reference for ``knn_nearest``: every stored (node, text) scored
on its own, with Python-int dot products of the texts' counts and the same
ψ expression. Tests build graphs with it in place of ``knn_nearest`` and
compare them with the library's.
"""

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

import ragplan.graph as graph_module
from ragplan.embedding import EmbeddingVector, embed_counts, embed_text
from ragplan.errors import NotFoundError
from ragplan.graph import KnnHit


def instruction_vector(text, embedder):
    """The row ``QueryScores`` scores a stored instruction by: its counts."""
    return EmbeddingVector(embed_counts(text, embedder).astype(np.float64))


@lru_cache(maxsize=None)
def sparse_counts(text, embedder):
    """The nonzero counts of ``text`` by bucket, as Python ints, and their
    squared norm."""
    counts = embed_counts(text, embedder).tolist()
    entries = {i: c for i, c in enumerate(counts) if c}
    return entries, sum(c * c for c in entries.values())


def psi(text, other, embedder):
    """ψ = (c·c′) / √(‖c‖²·‖c′‖²), 0 when either text has no feature."""
    a, a_squared = sparse_counts(text, embedder)
    b, b_squared = sparse_counts(other, embedder)
    dot = sum(c * b.get(i, 0) for i, c in a.items())
    product = a_squared * b_squared
    return dot / math.sqrt(product) if product else 0.0


def closeness(text, other, embedder):
    """The dot product of the two texts' float32 embeddings, summed
    exactly and rounded once."""
    x = embed_text(text, embedder).values.tolist()
    y = embed_text(other, embedder).values.tolist()
    return math.fsum(a * b for a, b in zip(x, y))


def knn_nearest_reference(graph, text, excluded=None, **_):
    scored = [
        (psi(text, stored, graph.embedder), node_id, stored)
        for node_id, node in graph.nodes.items() if node_id != excluded
        for stored in node.instructions
    ]
    if not scored:
        raise NotFoundError("no stored instruction outside the excluded node")
    top = max(score for score, _, _ in scored)
    tied = [(node_id, stored) for score, node_id, stored in scored if score == top]
    close = {stored: closeness(text, stored, graph.embedder) for _, stored in tied}
    nearest = max(close.values())
    node_id, stored = min(entry for entry in tied if close[entry[1]] == nearest)
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
