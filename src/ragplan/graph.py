"""The instruction graph: nodes of similar instructions, edges of tasks.

Successful instruction paths are inserted one instruction at a time.
Each instruction is matched against every stored instruction except
those in the previously visited node; a match at or above the merge
threshold joins the matched node, anything below it opens a new node.
Edges record which tasks (and questions) traversed each node pair.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import InstructionPath, TaskCorpus
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text, task_centroid
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .serialize import floats_to_hex, hex_to_floats, read_versioned, write_versioned

GRAPH_KIND = "instruction-graph"


@dataclass
class Instruction:
    """A stored instruction: duplicate texts share one entry with merged provenance."""

    text: str
    embedding: EmbeddingVector
    sources: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass
class NodeSet:
    node_id: int
    instructions: dict[str, Instruction] = field(default_factory=dict)

    def add(self, text: str, embedding: EmbeddingVector, source: tuple[str, str, int]) -> None:
        entry = self.instructions.get(text)
        if entry is None:
            self.instructions[text] = Instruction(text, embedding, [source])
        else:
            entry.sources.append(source)

    def texts(self) -> list[str]:
        return list(self.instructions)


@dataclass
class EdgeSet:
    from_node: int
    to_node: int
    tasks: dict[str, set[str]] = field(default_factory=dict)

    def add_task(self, task_id: str, question_id: str) -> None:
        self.tasks.setdefault(task_id, set()).add(question_id)


@dataclass(frozen=True)
class KnnHit:
    node_id: int
    text: str
    psi: float


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    instruction_count: int
    task_count: int
    mean_node_size: float


class InstructionGraph:
    """Mutable during construction, then treated as immutable by readers."""

    def __init__(self, delta: float, embedder: EmbedderConfig):
        if not 0.0 <= delta <= 1.0:
            raise ConfigError(f"merge threshold must be in [0, 1], got {delta}")
        self.delta = delta
        self.embedder = embedder
        self.nodes: dict[int, NodeSet] = {}
        self.edges: dict[tuple[int, int], EdgeSet] = {}
        # Next node / edge ids to assign, as in the construction counters.
        self.ic = 1
        self.tc = 1
        # Question embeddings keyed by (task_id, question_id); these back
        # the task-centroid and question components of traversal states.
        self.question_embeddings: dict[tuple[str, str], EmbeddingVector] = {}
        # Flat scan index over every stored instruction text, backed by a
        # capacity-doubling buffer so construction stays near-linear.
        self._index_buffer = np.zeros((64, embedder.dimension), dtype=np.float64)
        self._index_size = 0
        self._index_nodes: list[int] = []
        self._index_texts: list[str] = []

    # -- indexing ---------------------------------------------------------

    def _index_add(self, node_id: int, text: str, embedding: EmbeddingVector) -> None:
        if self._index_size == self._index_buffer.shape[0]:
            grown = np.zeros(
                (2 * self._index_buffer.shape[0], self._index_buffer.shape[1]),
                dtype=np.float64,
            )
            grown[: self._index_size] = self._index_buffer
            self._index_buffer = grown
        self._index_buffer[self._index_size] = embedding.values.astype(np.float64)
        self._index_size += 1
        self._index_nodes.append(node_id)
        self._index_texts.append(text)

    @property
    def _index_vectors(self) -> np.ndarray:
        return self._index_buffer[: self._index_size]

    def instruction_count(self) -> int:
        return sum(len(node.instructions) for node in self.nodes.values())

    def is_empty(self) -> bool:
        return not self.nodes

    def out_edges(self, node_id: int) -> list[EdgeSet]:
        return [edge for (src, _), edge in sorted(self.edges.items()) if src == node_id]

    def in_edges(self, node_id: int) -> list[EdgeSet]:
        return [edge for (_, dst), edge in sorted(self.edges.items()) if dst == node_id]

    def register_question(self, task_id: str, question_id: str, text: str) -> None:
        key = (task_id, question_id)
        if key not in self.question_embeddings:
            self.question_embeddings[key] = embed_text(text, self.embedder)

    def copy(self) -> "InstructionGraph":
        return copy.deepcopy(self)


def knn_nearest(
    graph: InstructionGraph, query: EmbeddingVector, excluded: int | None = None
) -> KnnHit:
    """Most similar stored instruction outside the excluded node.

    Ties break by lowest node id, then lexicographic instruction text.
    Raises NotFoundError when nothing remains after exclusion.
    """
    if query.dimension != graph.embedder.dimension:
        raise ConfigError("query dimension does not match the graph embedder")
    node_ids = np.asarray(graph._index_nodes)
    if node_ids.size == 0:
        raise NotFoundError("graph holds no instructions")
    mask = np.ones(node_ids.size, dtype=bool)
    if excluded is not None:
        mask = node_ids != excluded
    if not mask.any():
        raise NotFoundError("graph holds no instructions outside the excluded node")
    if query.valid:
        sims = graph._index_vectors @ query.values.astype(np.float64)
    else:
        sims = np.zeros(node_ids.size, dtype=np.float64)
    sims = np.where(mask, sims, -np.inf)
    best_sim = float(sims.max())
    candidates = np.flatnonzero(sims == best_sim)
    best = min(candidates, key=lambda i: (graph._index_nodes[i], graph._index_texts[i]))
    node_id = graph._index_nodes[best]
    text = graph._index_texts[best]
    # Re-derive the similarity exactly; identical texts must compare as 1.0
    # so threshold decisions at delta = 1.0 stay meaningful.
    psi = cosine(query, graph.nodes[node_id].instructions[text].embedding)
    return KnnHit(node_id=node_id, text=text, psi=psi)


def insert_path(
    graph: InstructionGraph, path: InstructionPath, question_text: str | None = None
) -> list[int]:
    """Insert one instruction path; returns the node id visited per instruction.

    The first instruction of a path matches with no exclusion and adds no
    edge. Later instructions exclude the previous node, merge when the
    match similarity reaches the threshold, and connect the previous node
    to the current one, recording the path's task and question.
    """
    if question_text is not None:
        graph.register_question(path.task_id, path.question_id, question_text)
    previous: int | None = None
    node_sequence: list[int] = []
    for position, text in enumerate(path.instructions):
        embedding = embed_text(text, graph.embedder)
        if not embedding.valid:
            raise DataError(f"instruction {text!r} embeds to an invalid vector")
        source = (path.task_id, path.question_id, position)
        try:
            hit = knn_nearest(graph, embedding, excluded=previous)
        except NotFoundError:
            hit = None
        if hit is None or hit.psi < graph.delta:
            node_id = graph.ic
            graph.ic += 1
            graph.nodes[node_id] = NodeSet(node_id)
        else:
            node_id = hit.node_id
        node = graph.nodes[node_id]
        is_new_text = text not in node.instructions
        node.add(text, embedding, source)
        if is_new_text:
            graph._index_add(node_id, text, embedding)
        if previous is not None:
            key = (previous, node_id)
            edge = graph.edges.get(key)
            if edge is None:
                edge = EdgeSet(previous, node_id)
                graph.edges[key] = edge
                graph.tc += 1
            edge.add_task(path.task_id, path.question_id)
        previous = node_id
        node_sequence.append(node_id)
    return node_sequence


def build_graph(
    support: TaskCorpus,
    delta: float,
    embedder: EmbedderConfig,
    min_success: float = 1.0,
) -> InstructionGraph:
    """Construct a graph from every correct path in the support corpus.

    Questions are processed in canonical (task id, question id) order so
    construction is deterministic.
    """
    graph = InstructionGraph(delta=delta, embedder=embedder)
    _insert_corpus(graph, support, min_success)
    return graph


def extend_graph(
    graph: InstructionGraph, new_support: TaskCorpus, min_success: float = 1.0
) -> InstructionGraph:
    """Copy-extend: the original graph is left untouched."""
    extended = graph.copy()
    _insert_corpus(extended, new_support, min_success)
    return extended


def _insert_corpus(graph: InstructionGraph, corpus: TaskCorpus, min_success: float) -> None:
    for question in corpus.iter_questions():
        for path in question.paths:
            if path.success_metric >= min_success:
                insert_path(graph, path, question_text=question.text)


def graph_stats(graph: InstructionGraph) -> GraphStats:
    node_count = len(graph.nodes)
    instruction_count = graph.instruction_count()
    tasks = {task for edge in graph.edges.values() for task in edge.tasks}
    # Tasks seen only on single-node paths still count.
    tasks.update(task for task, _ in graph.question_embeddings)
    return GraphStats(
        node_count=node_count,
        edge_count=len(graph.edges),
        instruction_count=instruction_count,
        task_count=len(tasks),
        mean_node_size=(instruction_count / node_count) if node_count else 0.0,
    )


def edge_task_centroids(
    graph: InstructionGraph, edge: EdgeSet
) -> list[tuple[str, EmbeddingVector, list[EmbeddingVector]]]:
    """Per task on the edge: (task_id, centroid, question embeddings).

    Tasks whose questions were never registered with the graph are skipped.
    """
    out = []
    for task_id in sorted(edge.tasks):
        vectors = [
            graph.question_embeddings[(task_id, question_id)]
            for question_id in sorted(edge.tasks[task_id])
            if (task_id, question_id) in graph.question_embeddings
        ]
        if vectors:
            out.append((task_id, task_centroid(vectors), vectors))
    return out


def save_graph(graph: InstructionGraph, destination: str | Path) -> None:
    body = {
        "delta": graph.delta,
        "embedder": graph.embedder.to_json(),
        "ic": graph.ic,
        "tc": graph.tc,
        "nodes": [
            {
                "node_id": node.node_id,
                "instructions": [
                    {
                        "text": entry.text,
                        "embedding": floats_to_hex(entry.embedding.values),
                        "sources": [list(s) for s in entry.sources],
                    }
                    for entry in node.instructions.values()
                ],
            }
            for _, node in sorted(graph.nodes.items())
        ],
        "edges": [
            {
                "from": edge.from_node,
                "to": edge.to_node,
                "tasks": {task: sorted(qids) for task, qids in sorted(edge.tasks.items())},
            }
            for _, edge in sorted(graph.edges.items())
        ],
        "questions": [
            {
                "task_id": task_id,
                "question_id": question_id,
                "embedding": floats_to_hex(vector.values),
                "valid": vector.valid,
            }
            for (task_id, question_id), vector in sorted(graph.question_embeddings.items())
        ],
    }
    write_versioned(destination, GRAPH_KIND, body)


def load_graph(source: str | Path) -> InstructionGraph:
    doc = read_versioned(source, GRAPH_KIND)
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        graph = InstructionGraph(delta=float(doc["delta"]), embedder=embedder)
        graph.ic = int(doc["ic"])
        graph.tc = int(doc["tc"])
        for node_doc in doc["nodes"]:
            node = NodeSet(int(node_doc["node_id"]))
            if node.node_id in graph.nodes:
                raise MalformedFileError(f"{source}: node {node.node_id} appears twice")
            for entry in node_doc["instructions"]:
                values = hex_to_floats(entry["embedding"], embedder.dimension)
                embedding = EmbeddingVector(values, valid=True)
                node.instructions[entry["text"]] = Instruction(
                    entry["text"],
                    embedding,
                    [tuple(s) for s in entry["sources"]],
                )
                graph._index_add(node.node_id, entry["text"], embedding)
            graph.nodes[node.node_id] = node
        for edge_doc in doc["edges"]:
            edge = EdgeSet(int(edge_doc["from"]), int(edge_doc["to"]))
            if edge.from_node not in graph.nodes or edge.to_node not in graph.nodes:
                raise MalformedFileError(
                    f"{source}: edge {edge.from_node}->{edge.to_node} names a missing node"
                )
            for task_id, question_ids in edge_doc["tasks"].items():
                edge.tasks[task_id] = set(question_ids)
            graph.edges[(edge.from_node, edge.to_node)] = edge
        for q_doc in doc.get("questions", []):
            values = hex_to_floats(q_doc["embedding"], embedder.dimension)
            graph.question_embeddings[(q_doc["task_id"], q_doc["question_id"])] = (
                EmbeddingVector(values, valid=bool(q_doc["valid"]))
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{source}: malformed graph document: {exc}") from exc
    if graph.nodes and graph.ic <= max(graph.nodes):
        raise MalformedFileError(f"{source}: ic {graph.ic} is not above every node id")
    if graph.tc != len(graph.edges) + 1:
        raise MalformedFileError(
            f"{source}: tc {graph.tc} does not match {len(graph.edges)} edges"
        )
    return graph


def graphs_equal(a: InstructionGraph, b: InstructionGraph) -> bool:
    """Deep structural equality, embeddings compared bit-exactly."""
    if (a.delta, a.embedder, a.ic, a.tc) != (b.delta, b.embedder, b.ic, b.tc):
        return False
    if set(a.nodes) != set(b.nodes) or set(a.edges) != set(b.edges):
        return False
    for node_id, node in a.nodes.items():
        other = b.nodes[node_id]
        if list(node.instructions) != list(other.instructions):
            return False
        for text, entry in node.instructions.items():
            twin = other.instructions[text]
            if entry.sources != twin.sources:
                return False
            if not np.array_equal(entry.embedding.values, twin.embedding.values):
                return False
    for key, edge in a.edges.items():
        if edge.tasks != b.edges[key].tasks:
            return False
    if set(a.question_embeddings) != set(b.question_embeddings):
        return False
    for key, vector in a.question_embeddings.items():
        twin = b.question_embeddings[key]
        if vector.valid != twin.valid or not np.array_equal(vector.values, twin.values):
            return False
    return True
