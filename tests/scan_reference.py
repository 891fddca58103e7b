"""The per-instruction nearest-row scan as ragplan ran it before writes
were scored in blocks: one matrix-vector product over every stored row
for each inserted instruction. Tests build graphs with it in place of
``knn_nearest`` and compare them with the library's.
"""

from contextlib import contextmanager

import numpy as np

import ragplan.graph as graph_module
from ragplan.embedding import cosine, embed_text
from ragplan.errors import ConfigError, NotFoundError
from ragplan.graph import KnnHit


def knn_nearest_reference(graph, query, excluded=None, **_):
    if query.dimension != graph.embedder.dimension:
        raise ConfigError("query dimension does not match the graph embedder")
    node_ids, texts = graph._scan["nodes"], graph._scan["texts"]
    if node_ids.size == 0:
        raise NotFoundError("graph holds no instructions")
    if query.valid:
        sims = graph._scan["values"] @ query.values.astype(np.float64)
    else:
        sims = np.zeros(node_ids.size, dtype=np.float64)
    if excluded is not None:
        sims[node_ids == excluded] = -np.inf
    best_sim = float(sims.max())
    if best_sim == -np.inf:
        raise NotFoundError("graph holds no instructions outside the excluded node")
    candidates = np.flatnonzero(sims == best_sim)
    best = min(candidates, key=lambda i: (node_ids[i], texts[i]))
    node_id = int(node_ids[best])
    text = texts[best]
    psi = cosine(query, embed_text(text, graph.embedder))
    return KnnHit(node_id=node_id, text=text, psi=psi)


@contextmanager
def reference_scan():
    """Within the block, every insert matches with the reference scan."""
    original = graph_module.knn_nearest
    graph_module.knn_nearest = knn_nearest_reference
    try:
        yield
    finally:
        graph_module.knn_nearest = original
