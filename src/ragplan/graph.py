"""The instruction graph: nodes of similar instructions, edges of tasks.

Successful instruction paths are inserted one instruction at a time.
Each instruction is matched against every stored instruction except
those in the previously visited node; a match at or above the merge
threshold joins the matched node, anything below it opens a new node.
Edges record which tasks (and questions) traversed each node pair.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import InstructionPath, TaskCorpus
from .embedding import (
    EmbedderConfig,
    EmbeddingVector,
    block_rows,
    cosine_rows,
    embed_counts,
    row_norms,
    text_counts,
    unit_rows,
)
from .embedding import cosine  # noqa: F401  bench/tracer.py wraps ragplan.graph.cosine
from .embedding import embed_text  # noqa: F401  bench/tracer.py wraps ragplan.graph.embed_text
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .serialize import read_value, read_versioned, write_versioned

GRAPH_KIND = "instruction-graph"
# A graph file holds texts, sources and structure, and no embedding: each
# is a function of its text and the embedder, so a load derives it.
GRAPH_LAYOUT = "texts"


@dataclass
class NodeSet:
    """A node's instructions: each text, in insertion order, maps to the
    (task id, question id, position) sources of the path steps that
    stored it, so duplicate texts share one entry. The text's embedding is
    kept only in the graph's scan rows. A tuple of sources is never
    changed (a new source replaces it), so graph copies share them."""

    node_id: int
    instructions: dict[str, tuple[tuple[str, str, int], ...]] = field(default_factory=dict)


@dataclass
class EdgeSet:
    from_node: int
    to_node: int
    tasks: dict[str, set[str]] = field(default_factory=dict)

    def add_task(self, task_id: str, question_id: str) -> bool:
        """Record a question of a task; returns whether it was new here."""
        questions = self.tasks.setdefault(task_id, set())
        if question_id in questions:
            return False
        questions.add(question_id)
        return True


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


class _Store:
    """The column arrays of an append-only row store, the number of rows
    written to them, and the row of each key when there is a ``key``
    column; shared by the handles that read the store."""

    def __init__(self, columns: dict[str, np.ndarray], filled: int):
        self.columns, self.filled = columns, filled
        keys = columns["key"][:filled].tolist() if "key" in columns else []
        self.rows = dict(zip(keys, range(filled)))


class _Rows(dict):
    """One graph's handle on an append-only store of rows: named column
    arrays that graph copies share, of which the graph reads the first
    ``count`` rows. The handle maps each column name to a view of those
    rows, made on its first read: most handles are only appended to.

    Rows below any handle's count never change, and rows past those
    written (``filled``) are never read, so they are left unwritten. A
    handle appends in place while its count equals ``filled`` and the
    arrays have room. Otherwise it appends to new arrays holding a copy
    of its first ``count`` rows, with room for a quarter more rows than
    they then hold and at least 64 (doubling would leave up to half the
    rows unused). So sibling copies never see each other's rows: the first
    to append extends the shared arrays, and each later one forks.
    ``append`` returns the handle after the write and leaves this one as
    it was. (A ``GraphIndex`` owns its centroid store alone, and rewrites
    rows of it in place; see there.)
    """

    __slots__ = ("_store", "count")

    def __init__(self, store: _Store, count: int):
        self._store, self.count = store, count

    def __missing__(self, name: str) -> np.ndarray:
        view = self[name] = self._store.columns[name][:self.count]
        return view

    @classmethod
    def of(cls, **columns) -> "_Rows":
        """An empty store of the given columns, each a dtype, or a
        (dtype, width) pair for rows of values."""
        arrays = {}
        for name, spec in columns.items():
            dtype, *width = spec if isinstance(spec, tuple) else (spec,)
            arrays[name] = np.empty((0, *width), dtype=dtype)
        return cls(_Store(arrays, 0), 0)

    def find(self, key) -> int | None:
        """The row holding ``key`` among the first ``count`` rows, if any."""
        row = self._store.rows.get(key, self.count)
        return row if row < self.count else None

    def extend(self, extra: int) -> "_Rows":
        """The handle on these rows followed by ``extra`` rows that the
        caller then writes through it."""
        store, count = self._store, self.count
        end = count + extra
        if count != store.filled or end > len(next(iter(store.columns.values()))):
            size = max(64, end + end // 4)
            columns = {}
            for name, array in store.columns.items():
                columns[name] = np.empty((size, *array.shape[1:]), dtype=array.dtype)
                columns[name][:count] = array[:count]
            store = _Store(columns, count)
        store.filled = end
        return _Rows(store, end)

    def append(self, **values) -> "_Rows":
        """The handle on these rows followed by ``values``, which gives
        the new rows of every column."""
        grown = self.extend(len(next(iter(values.values()))))
        store, count, end = grown._store, self.count, grown.count
        for name, column in store.columns.items():
            column[count:end] = values[name]
        if "key" in values:
            store.rows.update(zip(values["key"], range(count, end)))
        return grown


class InstructionGraph:
    """Mutable during construction, then treated as immutable by readers."""

    def __init__(self, delta: float, embedder: EmbedderConfig):
        if not 0.0 <= delta <= 1.0:
            raise ConfigError(f"merge threshold must be in [0, 1], got {delta}")
        self.delta = delta
        self.embedder = embedder
        self.nodes: dict[int, NodeSet] = {}
        self.edges: dict[tuple[int, int], EdgeSet] = {}
        # Next node id to assign, as in the construction counter.
        self.ic = 1
        # Append-only row stores that graph copies share (see ``_Rows``).
        # Questions of (task_id, question_id) back the task-centroid and
        # question components of traversal states, and every (task,
        # question id) an edge lists has one. A question keeps its text,
        # the one its key was first registered with, and that text's
        # integer counts. A hashed text fills few buckets, so the counts
        # are kept as the positions that are not zero and their counts, as
        # entry rows from its ``start`` to its ``end``, with their squared
        # norm, which is 0 for a text with no feature.
        dimension = embedder.dimension
        self._questions = _Rows.of(
            start=np.int64, end=np.int64, sqnorm=np.int64, key=object, text=object
        )
        self._entries = _Rows.of(position=np.min_scalar_type(dimension - 1), count=np.int32)
        # Scan rows: the integer counts of every stored (node, text), as
        # float64, in insertion order, with the node id, the text and the
        # counts' squared norm. They are the only copy of an instruction's
        # embedding, which is ``unit_rows`` of its counts.
        self._scan = _Rows.of(
            counts=(np.float64, dimension), nodes=np.int64, texts=object, sqnorms=np.float64
        )
        # Read-only arrays for traversal, compiled on the first read after
        # the graph last changed; None while stale. A stale graph may hold
        # the index of an earlier state, its base, which no other graph
        # holds, with the question ids each (edge key, task id) pair gained
        # since: the next read patches the base instead of compiling from
        # scratch.
        self._compiled: GraphIndex | None = None
        self._base: GraphIndex | None = None
        self._written: dict[tuple[tuple[int, int], str], list[str]] = {}
        # Nodes and edges this graph shares with copies made by or of it;
        # the first write to one copies it (see ``copy``).
        self._shared_nodes: set[int] = set()
        self._shared_edges: set[tuple[int, int]] = set()

    # -- indexing ---------------------------------------------------------

    def _index_add(self, node_ids: list[int], texts: list[str], counts: np.ndarray) -> None:
        """Append scan rows: the ``counts`` of ``texts`` in ``node_ids``."""
        counts = np.asarray(counts, dtype=np.float64)
        self._scan = self._scan.append(
            counts=counts, nodes=node_ids, texts=texts, sqnorms=np.vecdot(counts, counts)
        )

    @property
    def tc(self) -> int:
        """Next edge id: edges are never removed, so the edge count plus one."""
        return len(self.edges) + 1

    def _register(self, questions: list[tuple[tuple[str, str], str]]) -> None:
        """Register the first text of each key in ``questions`` that the
        graph does not hold yet, in order, with one append."""
        new: dict[tuple[str, str], str] = {}
        for key, text in questions:
            if self._questions.find(key) is None:
                new.setdefault(key, text)
        if new:
            self._add_questions(list(new), list(new.values()))

    def _add_questions(
        self, keys: list[tuple[str, str]], texts: list[str], count=text_counts
    ) -> None:
        """Append questions: one row per key, holding its text and the
        counts ``count`` gives of it. ``load_graph`` counts through the
        instruction count cache, so that loading a file again recounts none."""
        counts = np.array([count(text, self.embedder) for text in texts], dtype=np.int64)
        counts = counts.reshape(len(keys), self.embedder.dimension)
        kept = np.flatnonzero(counts)
        of_row, positions = np.divmod(kept, self.embedder.dimension)
        sizes = np.bincount(of_row, minlength=len(keys))
        ends = self._entries.count + np.cumsum(sizes)
        self._entries = self._entries.append(position=positions, count=counts.ravel()[kept])
        self._questions = self._questions.append(
            start=ends - sizes, end=ends, sqnorm=np.vecdot(counts, counts),
            key=np.fromiter(keys, dtype=object, count=len(keys)), text=texts,
        )

    def instruction_count(self) -> int:
        return sum(len(node.instructions) for node in self.nodes.values())

    def is_empty(self) -> bool:
        return not self.nodes

    def index(self) -> "GraphIndex":
        """The read-only traversal index of the graph as it is now."""
        if self._compiled is None:
            self._compiled = GraphIndex(self, self._base, self._written)
            self._base, self._written = None, {}
        return self._compiled

    def _stale(self) -> None:
        """Called before every write: the index becomes the base that the
        next read patches."""
        if self._compiled is not None:
            self._base, self._compiled = self._compiled, None

    def _wrote(self, key: tuple[int, int], task_id: str, question_id: str) -> None:
        """Called after a question id is added to an edge's ids for a task."""
        if self._base is not None:
            self._written.setdefault((key, task_id), []).append(question_id)

    def out_edges(self, node_id: int) -> list[EdgeSet]:
        """Edges leaving ``node_id``, in (from, to) order."""
        return self.index().out_edges(node_id)

    def in_edges(self, node_id: int) -> list[EdgeSet]:
        """Edges entering ``node_id``, in (from, to) order."""
        return self.index().in_edges(node_id)

    def copy(self) -> "InstructionGraph":
        """A copy that shares nodes, edges, sources, scan rows and
        questions with this graph.

        Source tuples are immutable, and scan rows and questions
        append-only. A shared node or edge is copied by whichever graph
        writes to it first, so neither graph ever sees the other's writes.
        The copy holds no reference to this graph.

        A copy is made to be extended and read in this graph's place, so
        this graph's compiled index moves to the copy as its base, and a
        later read of this graph compiles its index again. A copy of a
        graph without a compiled index (a second copy, or a copy of a copy
        not yet read) gets no base and compiles its index from scratch.
        """
        # The copy starts as this graph's fields, row store handles included,
        # and then gets containers of its own.
        twin = copy.copy(self)
        twin.nodes, twin.edges = dict(self.nodes), dict(self.edges)
        twin._base, twin._compiled, twin._written = self._compiled, None, {}
        self._compiled = None
        for graph in (self, twin):
            graph._shared_nodes = set(self.nodes)
            graph._shared_edges = set(self.edges)
        return twin

    def _writable_node(self, node_id: int) -> NodeSet:
        node = self.nodes[node_id]
        if node_id in self._shared_nodes:
            self._shared_nodes.discard(node_id)
            node = NodeSet(node_id, dict(node.instructions))
            self.nodes[node_id] = node
        return node

    def _writable_edge(self, key: tuple[int, int]) -> EdgeSet:
        edge = self.edges[key]
        if key in self._shared_edges:
            self._shared_edges.discard(key)
            edge = EdgeSet(
                edge.from_node,
                edge.to_node,
                {task: set(questions) for task, questions in edge.tasks.items()},
            )
            self.edges[key] = edge
        return edge


class GraphIndex:
    """Arrays compiled from one state of an ``InstructionGraph`` for traversal.

    * Instructions: the float64 counts, their squared norms and the
      texts of the graph's scan rows (``instructions``,
      ``instruction_sqnorms``, ``texts``), read from its scan store;
      ``node_rows`` lists row ids grouped by node in node-id order and by
      text within a node, delimited by ``node_ptr``.
    * Questions: the handles on the graph's question rows (``questions``)
      and their entry rows of counts (``entries``).
    * Centroids: a store of one row per (edge, task) pair (``centroids``):
      its float32 ``values``, equal to ``task_centroid`` over the task's
      questions in id order, the ``norms`` of their float64 values, the
      float64 ``sums`` they divide and the ``valid`` flags. Traversal
      reads them by slot, one per pair in edge order and by task within
      an edge: ``centroid_ptr`` delimits an edge's slots, and each slot
      has its pair's row (``centroid_rows``), its task
      (``centroid_tasks``) and its question rows (``question_ptr`` /
      ``question_rows``).
    * Adjacency: edges in (from, to) order with their ``sources`` and
      ``targets``, CSR by source node (``out_ptr``) and by target node
      (``in_order``, ``in_ptr``).

    An index is compiled from scratch or patched from a base, the index of
    an earlier state of the same graph or of the graph it was copied from.
    A graph only grows: node ids, instruction rows and questions are only
    appended. So a patch keeps every part of the base that the writes
    since left alone and recomputes only the centroids of the (edge, task)
    pairs written, mostly by adding the new questions to the base's sums.
    A pair keeps its centroid row for its whole life: a patch rewrites
    the row of a pair written in place, appends a row for a new pair and
    rebuilds only the slot arrays, so no row ever moves. In slot order
    the patched index equals the index compiled from scratch bit for
    bit, and a compile numbers the rows in slot order.

    It reads the graph's row stores up to the counts of the state it
    indexes, which later appends never change (see ``_Rows``). The only
    rows it adds are the centroids, stored as float32 because
    ``task_centroid`` rounds them to float32 anyway, and their sums. The
    index holds no reference to its graph.
    """

    def __init__(
        self,
        graph: InstructionGraph,
        base: "GraphIndex | None" = None,
        written: dict[tuple[tuple[int, int], str], list[str]] | None = None,
    ):
        """The index of ``graph``: compiled from scratch, or patched from
        ``base``, where ``written`` maps every (edge key, task id) pair
        whose question ids changed since the base's state, new edges
        included, to the ids added. The patch takes over the base's lists,
        dicts and centroid store, and extends and rewrites them in place: a
        base serves one patch."""
        touched: dict[tuple[int, int], dict[str, list[str]]] = {}
        if base is None:
            base = GraphIndex._empty(graph.embedder)
            for key, edge in graph.edges.items():
                touched[key] = dict.fromkeys(edge.tasks, [])
        else:
            for (key, task_id), question_ids in written.items():
                touched.setdefault(key, {})[task_id] = question_ids
        self.embedder = base.embedder
        self.questions, self.entries = graph._questions, graph._entries
        self._add_rows(graph, base)
        order = self._add_edges(graph, base, touched)
        self._add_centroids(graph, base, touched, order)

    @classmethod
    def _empty(cls, embedder: EmbedderConfig) -> "GraphIndex":
        """The index of a graph holding nothing: the base of a full compile."""
        empty = cls.__new__(cls)
        empty.embedder, dimension = embedder, embedder.dimension
        empty.texts, empty.node_ids = np.zeros(0, dtype=object), []
        empty.node_pos, empty.edge_pos = {}, {}
        empty.sources = empty.targets = np.zeros(0, dtype=np.int64)
        empty.node_rows = empty.question_rows = empty.centroid_rows = np.zeros(0, dtype=np.intp)
        empty.node_ptr = empty.centroid_ptr = empty.question_ptr = np.zeros(1, dtype=np.intp)
        empty.centroid_tasks = np.zeros(0, dtype=object)
        empty.centroids = _Rows.of(
            values=(np.float32, dimension), sums=(np.float64, dimension), norms=np.float64,
            valid=bool,
        )
        return empty

    def _add_rows(self, graph: InstructionGraph, base: "GraphIndex") -> None:
        """Instruction rows and nodes: the base's, then the new ones."""
        scan, start, known = graph._scan, len(base.texts), len(base.node_ids)
        self.texts = scan["texts"]
        self.instructions = scan["counts"]
        self.instruction_sqnorms = scan["sqnorms"]
        # New node ids are above every earlier one, so new nodes sort last.
        self.node_ids = base.node_ids
        self.node_ids.extend(sorted(islice(graph.nodes, known, None)))
        self.node_pos = base.node_pos
        self.node_pos.update((self.node_ids[pos], pos) for pos in range(known, len(self.node_ids)))
        node_of = {
            row: self.node_pos[node_id]
            for row, node_id in enumerate(scan["nodes"][start:].tolist(), start)
        }
        rows = sorted(node_of, key=lambda row: (node_of[row], self.texts[row]))
        # A new row goes before the first row of its node with a later
        # text; rows of new nodes go last.
        at = []
        for row in rows:
            pos = node_of[row]
            if pos < known:
                lo, hi = base.node_ptr[pos], base.node_ptr[pos + 1]
                segment = base.node_rows[lo:hi]
                at.append(lo + bisect_left(segment, self.texts[row], key=self.texts.__getitem__))
            else:
                at.append(len(base.node_rows))
        self.node_rows = np.insert(base.node_rows, at, rows)
        counts = np.bincount(
            np.array([node_of[row] for row in rows], dtype=np.intp), minlength=len(self.node_ids)
        )
        counts[:known] += np.diff(base.node_ptr)
        self.node_ptr = np.concatenate([[0], np.cumsum(counts)])

    def _add_edges(
        self, graph: InstructionGraph, base: "GraphIndex", touched: dict
    ) -> np.ndarray:
        """Edges and adjacency; returns each edge's position among the
        base's edges followed by the new ones."""
        new_keys = sorted(key for key in touched if key not in base.edge_pos)
        sources = np.concatenate([base.sources, np.array([k[0] for k in new_keys], dtype=np.int64)])
        targets = np.concatenate([base.targets, np.array([k[1] for k in new_keys], dtype=np.int64)])
        order = np.lexsort((targets, sources))
        self.sources, self.targets = sources[order], targets[order]
        keys = list(zip(self.sources.tolist(), self.targets.tolist()))
        self.edges = [graph.edges[key] for key in keys]
        self.edge_pos = {key: pos for pos, key in enumerate(keys)}
        bounds = self.node_ids + [np.iinfo(np.int64).max]
        self.out_ptr = np.searchsorted(self.sources, bounds)
        self.in_order = np.lexsort((self.sources, self.targets))
        self.in_ptr = np.searchsorted(self.targets[self.in_order], bounds)
        return order

    def _add_centroids(
        self, graph: InstructionGraph, base: "GraphIndex", touched: dict, order: np.ndarray
    ) -> None:
        """Centroid slots: an untouched edge keeps its base slots, a touched
        edge keeps the base slots of its untouched tasks and gets fresh
        slots for the others. ``src`` gives each slot among the base's
        slots followed by the fresh ones.

        A fresh slot writes its pair's row: the base row of a pair the base
        has, else a row appended to the store. It continues the sum in that
        row when every new question id sorts after the row's last id: its
        question rows are the base's followed by the new ones, and its sum
        adds the new questions to the base's, in id order, as ``np.mean``
        would add them. Any other fresh slot is summed from its first
        question.
        """
        questions = self.questions
        old_count = len(base.centroid_tasks)
        counts = np.zeros(len(order), dtype=np.intp)
        starts = np.zeros(len(order), dtype=np.intp)
        old = order < len(base.sources)
        counts[old] = np.diff(base.centroid_ptr)[order[old]]
        starts[old] = base.centroid_ptr[order[old]]
        fresh_tasks, dst, segments, fresh_sizes, added, patched = [], [], [], [], [], {}
        for key in sorted(touched):
            edge, pos, was = graph.edges[key], self.edge_pos[key], base.edge_pos.get(key)
            kept = {} if was is None else {
                base.centroid_tasks[c]: c
                for c in range(base.centroid_ptr[was], base.centroid_ptr[was + 1])
            }
            slots = []
            for task_id in sorted(edge.tasks):
                c = kept.get(task_id)
                if task_id not in touched[key]:
                    slots.append(c)
                    continue
                slots.append(old_count + len(fresh_tasks))
                fresh_tasks.append(task_id)
                # -1 marks a new pair, which gets a row below.
                dst.append(-1 if c is None else base.centroid_rows[c])
                new_ids = sorted(touched[key][task_id])
                prior = np.zeros(0, dtype=np.intp)
                if c is not None:
                    lo, hi = base.question_ptr[c], base.question_ptr[c + 1]
                    if new_ids[0] > questions["key"][base.question_rows[hi - 1]][1]:
                        prior = base.question_rows[lo:hi]
                if not len(prior):
                    new_ids = sorted(edge.tasks[task_id])
                segments += [
                    prior,
                    np.array([questions.find((task_id, q)) for q in new_ids], dtype=np.intp),
                ]
                fresh_sizes.append(len(prior) + len(new_ids))
                added.append(len(new_ids))
            patched[pos] = slots
            counts[pos] = len(slots)
        self.centroid_ptr = np.concatenate([[0], np.cumsum(counts)])
        src = np.repeat(starts - self.centroid_ptr[:-1], counts) + np.arange(self.centroid_ptr[-1])
        for pos, slots in patched.items():
            src[self.centroid_ptr[pos]:self.centroid_ptr[pos + 1]] = slots
        self.centroid_tasks = np.concatenate(
            [base.centroid_tasks, np.array(fresh_tasks, dtype=object)]
        )[src]
        dst = np.array(dst, dtype=np.intp)
        new = np.flatnonzero(dst < 0)
        self.centroids = base.centroids.extend(len(new))
        dst[new] = np.arange(base.centroids.count, self.centroids.count)
        self.centroid_rows = np.concatenate([base.centroid_rows, dst])[src]

        # Question rows of every slot, gathered from the base's and the fresh lists.
        fresh_rows = np.concatenate([np.zeros(0, dtype=np.intp), *segments])
        fresh_sizes = np.array(fresh_sizes, dtype=np.intp)
        fresh_ptr = np.concatenate([[0], np.cumsum(fresh_sizes)])
        sizes = np.concatenate([np.diff(base.question_ptr), fresh_sizes])[src]
        firsts = np.concatenate([base.question_ptr[:-1], len(base.question_rows) + fresh_ptr[:-1]])
        self.question_ptr = np.concatenate([[0], np.cumsum(sizes)])
        gather = np.repeat(firsts[src] - self.question_ptr[:-1], sizes)
        self.question_rows = np.concatenate([base.question_rows, fresh_rows])[
            gather + np.arange(self.question_ptr[-1])
        ]
        if len(dst):
            self.centroids["valid"][dst] = np.logical_or.reduceat(
                questions["sqnorm"][fresh_rows] > 0, fresh_ptr[:-1]
            )
        self._fill_centroids(dst, fresh_ptr, fresh_rows, np.array(added, dtype=np.intp))

    def _fill_centroids(
        self, dst: np.ndarray, ptr: np.ndarray, rows: np.ndarray, added: np.ndarray
    ) -> None:
        """Write ``task_centroid`` of each group ``rows[ptr[i]:ptr[i + 1]]``
        of question rows to centroid row ``dst[i]``, bit for bit, with the
        norm of its float64 values and the float64 sum it divides.

        As in ``task_centroid``'s ``np.mean``, each float64 sum adds the
        questions in order and is divided by the count before rounding to
        float32. Only the last ``added[i]`` questions of a group are added:
        to the sum row ``dst[i]`` holds, that of the others, where the
        group has fewer questions than that, else to the first question.
        Sums are taken for a block of centroids at a time, adding the j-th
        questions of the block in one step, so no temporary grows with the
        graph.
        """
        centroids = self.centroids
        counts = np.diff(ptr)
        dimension = self.embedder.dimension
        step = block_rows(dimension)
        for lo in range(0, len(counts), step):
            at = dst[lo:lo + step]
            sizes = counts[lo:lo + step]
            # Each group's next question to add, as a position in ``rows``.
            ends = ptr[lo + 1:lo + step + 1]
            firsts = ends - added[lo:lo + step]
            continues = added[lo:lo + step] < sizes
            sums = np.empty((len(sizes), dimension), dtype=np.float64)
            sums[continues] = centroids["sums"][at[continues]]
            sums[~continues] = self.dense(rows[firsts[~continues]])
            firsts[~continues] += 1
            for j in range(int((ends - firsts).max())):
                deeper = np.flatnonzero(firsts + j < ends)
                sums[deeper] += self.dense(rows[firsts[deeper] + j])
            centroids["sums"][at] = sums
            sums /= sizes[:, None]
            block = sums.astype(np.float32)
            centroids["values"][at] = block
            centroids["norms"][at] = row_norms(block.astype(np.float64))

    def dense(self, rows: np.ndarray) -> np.ndarray:
        """The float32 embeddings of the given question rows, ``unit_rows``
        of their counts scattered with one write, as float64: the values
        the centroid sums add."""
        entries, sizes = self.gather(rows)
        out = np.zeros((len(rows), self.embedder.dimension), dtype=np.float64)
        out[np.repeat(np.arange(len(rows)), sizes), self.entries["position"][entries]] = (
            self.entries["count"][entries]
        )
        return unit_rows(out).astype(np.float64)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The entry rows of the given question rows, row after row, and
        how many each row has."""
        starts = self.questions["start"][rows]
        sizes = self.questions["end"][rows] - starts
        ends = np.cumsum(sizes)
        total = int(ends[-1]) if len(ends) else 0
        return np.repeat(starts - (ends - sizes), sizes) + np.arange(total), sizes

    @cached_property
    def text_nodes(self) -> dict[str, list[int]]:
        """Node ids holding each instruction text, ascending."""
        out: dict[str, list[int]] = {}
        for pos, node_id in enumerate(self.node_ids):
            for row in self.node_rows[self.node_ptr[pos]:self.node_ptr[pos + 1]]:
                out.setdefault(self.texts[row], []).append(node_id)
        return out

    def out_edges(self, node_id: int) -> list[EdgeSet]:
        pos = self.node_pos.get(node_id)
        if pos is None:
            return []
        return self.edges[self.out_ptr[pos]:self.out_ptr[pos + 1]]

    def in_edges(self, node_id: int) -> list[EdgeSet]:
        pos = self.node_pos.get(node_id)
        if pos is None:
            return []
        return [self.edges[e] for e in self.in_order[self.in_ptr[pos]:self.in_ptr[pos + 1]]]


def _psi(dots, sqnorm, sqnorms) -> np.ndarray:
    """ψ (see ``knn_nearest``) from the dot products of counts ``c`` with
    rows ``c′``, ‖c‖² and each ‖c′‖². All-zero counts have dot products 0,
    and any other square root of a positive integer is at least 1."""
    return dots / np.maximum(np.sqrt(sqnorm * sqnorms), 1.0)


class QueryScores:
    """The similarities of one query text to the rows of one index: ψ of
    its counts (see ``knn_nearest``) with every instruction row and, on
    demand, with the question rows of one centroid; the cosine of its
    float32 embedding with every task centroid, by ``cosine_rows``; and
    the per-node and per-edge maxima traversal reads."""

    def __init__(self, index: GraphIndex, query_text: str):
        self.index = index
        # Integer counts and squared norm, for the question rows' products.
        self._counts = text_counts(query_text, index.embedder).astype(np.int64)
        self._sqnorm = int(self._counts @ self._counts)
        values = self._counts.astype(np.float64)
        # Best question ψ by centroid slot, and state rows by (node,
        # in-edge), as traversal meets an edge or a state again and again.
        self._question_sims: dict[int, float] = {}
        self._states: dict[tuple, np.ndarray] = {}
        by_row = _psi(index.instructions @ values, self._sqnorm, index.instruction_sqnorms)
        centroids = index.centroids
        # Centroid cosines in slot order.
        self.centroids = cosine_rows(
            EmbeddingVector(unit_rows(values), valid=self._sqnorm > 0),
            centroids["values"], centroids["norms"], centroids["valid"],
        )[index.centroid_rows]
        # Instruction ψ in node_rows order; every node has a row.
        self.by_node_row = by_row[index.node_rows]
        self.node_affinity = (
            np.maximum.reduceat(self.by_node_row, index.node_ptr[:-1])
            if len(self.by_node_row) else np.zeros(0)
        )
        # Every edge has a centroid slot.
        self.edge_scores = (
            np.maximum.reduceat(self.centroids, index.centroid_ptr[:-1])
            if len(index.edges) else np.zeros(0)
        )

    def affinity(self, node_id: int) -> float:
        """Best instruction ψ at a node."""
        return float(self.node_affinity[self.index.node_pos[node_id]])

    def edge_score(self, edge: EdgeSet) -> float:
        """Best task-centroid cosine on an edge."""
        return float(self.edge_scores[self.index.edge_pos[(edge.from_node, edge.to_node)]])

    def best_text(self, node_id: int) -> str:
        """The node's most similar instruction; ties go to the first text."""
        index = self.index
        pos = index.node_pos[node_id]
        start = index.node_ptr[pos]
        best = start + int(np.argmax(self.by_node_row[start:index.node_ptr[pos + 1]]))
        return index.texts[index.node_rows[best]]

    def best_task(self, edge: EdgeSet) -> tuple[float, float]:
        """(task similarity, question similarity) of the edge's first task
        whose centroid is most similar, and of that task's best question."""
        index = self.index
        pos = index.edge_pos[(edge.from_node, edge.to_node)]
        start, stop = index.centroid_ptr[pos], index.centroid_ptr[pos + 1]
        best = start + int(np.argmax(self.centroids[start:stop]))
        question_sim = self._question_sims.get(best)
        if question_sim is None:
            rows = index.question_rows[index.question_ptr[best]:index.question_ptr[best + 1]]
            question_sim = self._question_sims[best] = self._best_question(rows)
        return float(self.centroids[best]), question_sim

    def _best_question(self, rows: np.ndarray) -> float:
        """The largest ψ of the query with the given question rows. Their
        dot products are sums of integer products over the rows' entries,
        exact in any order."""
        questions, store = self.index.questions, self.index.entries
        positions, counts = store["position"], store["count"]
        if len(rows) == 1:
            # The common case of a visited centroid: its entries are one
            # slice, scored on numpy scalars.
            row = rows[0]
            entries = slice(questions["start"][row], questions["end"][row])
            dot = self._counts[positions[entries]] @ counts[entries]
            return float(_psi(dot, self._sqnorm, questions["sqnorm"][row]))
        entries, sizes = self.index.gather(rows)
        products = self._counts[positions[entries]] * counts[entries]
        # ``reduceat`` gives a row without entries the next row's first
        # product (a trailing one, the appended 0); such a row is zeroed.
        dots = np.add.reduceat(np.append(products, 0), np.cumsum(sizes) - sizes)
        dots[sizes == 0] = 0
        return float(_psi(dots, self._sqnorm, questions["sqnorm"][rows]).max())

    def state(self, node_id: int, in_edge: EdgeSet | None) -> np.ndarray:
        """The read-only policy state row of a node reached through
        ``in_edge``: its affinity, then ``best_task`` of the edge, or zeros
        without one."""
        key = (node_id, None if in_edge is None else (in_edge.from_node, in_edge.to_node))
        row = self._states.get(key)
        if row is None:
            task_sim, question_sim = (0.0, 0.0) if in_edge is None else self.best_task(in_edge)
            row = np.array([self.affinity(node_id), task_sim, question_sim], dtype=np.float64)
            row.setflags(write=False)
            self._states[key] = row
        return row


def knn_nearest(
    graph: InstructionGraph,
    text: str,
    excluded: int | None = None,
    _scan: _BlockScan | None = None,
) -> KnnHit:
    """Most similar stored instruction to ``text`` outside the excluded node.

    Similarity is ψ = (c·c′) / √(‖c‖²·‖c′‖²) over the integer counts ``c``
    of ``text`` and ``c′`` of a stored text, 0 where either is all zeros.
    Every dot product and squared norm of counts is an integer, exact in
    float64 in any summation order below 2⁵³, so ψ rounds only at the
    square root and the division: identical counts give exactly 1.0, and
    equal rows tie exactly. Rows of equal ψ but other counts, such as
    30 / √(47·36) and 35 / √(47·49), rank by the dot product of their
    float32 embeddings (``unit_rows`` of their counts) with the query's,
    summed exactly and rounded once, as a scan of those embeddings
    (acceptance criterion 03's brute force) ranks them. That holds on
    exact ψ ties only: rows whose ψ differ by less than float32 rounding
    (about 1e-8) rank by ψ, which a float32 scan may order the other way.
    Remaining ties break by lowest node id, then lexicographic instruction
    text. Raises NotFoundError when nothing remains after exclusion.

    During a write, ``_scan`` supplies the dot products from a product
    over a block of the write's instructions, which only saves time.
    """
    counts = embed_counts(text, graph.embedder)
    dots = None if _scan is None else _scan.dots(graph, counts)
    scan = graph._scan
    if scan.count == 0:
        raise NotFoundError("graph holds no instructions")
    values = counts.astype(np.float64)
    if dots is None:
        dots = scan["counts"] @ values
    psi = _psi(dots, values @ values, scan["sqnorms"])
    node_ids, texts = scan["nodes"], scan["texts"]
    if excluded is not None:
        psi[node_ids == excluded] = -np.inf
    top = float(psi.max())
    if top == -np.inf:
        raise NotFoundError("graph holds no instructions outside the excluded node")
    tied = np.flatnonzero(psi == top)
    if len({texts[i] for i in tied}) > 1:
        # Each product of two float32 values is exact in float64.
        rows = unit_rows(scan["counts"][tied]).astype(np.float64)
        products = rows * unit_rows(counts).astype(np.float64)
        closeness = np.array([math.fsum(row) for row in products.tolist()])
        tied = tied[closeness == closeness.max()]
    best = min(tied, key=lambda i: (node_ids[i], texts[i]))
    return KnnHit(node_id=int(node_ids[best]), text=texts[best], psi=top)


# Bytes of a block's product (queries by rows scored): the block's product
# never makes a larger temporary, however large the graph.
_SCAN_BLOCK_BYTES = 1 << 21

# A graph with fewer stored values than this (512 KB) is scanned with one
# matrix-vector product per inserted instruction, which then costs less
# than a block's product; a write that leaves the graph below it makes no
# ``_BlockScan``. Both give the same exact dot products, so this only
# chooses the faster.
_SMALL_VALUES = 1 << 16


class _BlockScan:
    """Count dot products for the instructions of one write, one matrix
    product per block of them.

    A block holds the distinct counts of the write's next instructions and
    multiplies them with the rows stored when it starts. A call of
    ``knn_nearest`` for one of them takes its row of that product and adds
    one small product over the rows stored since. A block holds at most as
    many queries as keep its product within ``_SCAN_BLOCK_BYTES`` and as
    there are rows it scores, and it ends at the first instruction it does
    not hold or once the rows stored since outnumber its queries. The dot
    products are exact, so they equal those of one product over every row.
    """

    def __init__(self, texts: list[str]):
        self.texts = texts  # every instruction the write inserts, in order
        self.served = 0  # calls served, so the position in ``texts``
        self.keys: dict[bytes, int] = {}  # query counts -> row of ``products``
        self.size = 0  # rows stored when the block started
        self.products = np.zeros((0, 0))

    @classmethod
    def of_write(cls, graph: InstructionGraph, texts: list[str]) -> "_BlockScan | None":
        """The scan of a write inserting ``texts``; None when the graph
        stays below ``_SMALL_VALUES`` stored values through the write."""
        if (graph._scan.count + len(texts)) * graph.embedder.dimension < _SMALL_VALUES:
            return None
        return cls(texts)

    def _start(self, graph: InstructionGraph) -> None:
        self.size = rows = graph._scan.count
        limit = max(1, min(rows, _SCAN_BLOCK_BYTES // (8 * max(rows, 1))))
        block: dict[bytes, np.ndarray] = {}
        for text in islice(self.texts, self.served, None):
            if len(block) == limit:
                break
            counts = embed_counts(text, graph.embedder)
            block.setdefault(counts.tobytes(), counts)
        self.keys = {key: row for row, key in enumerate(block)}
        queries = np.array(list(block.values()), dtype=np.float64)
        queries = queries.reshape(len(block), graph.embedder.dimension)
        self.products = queries @ graph._scan["counts"].T

    def dots(self, graph: InstructionGraph, counts: np.ndarray) -> np.ndarray | None:
        """The dot products of ``counts`` with every stored row, when they
        are the counts of the write's next instruction; None otherwise."""
        scan = graph._scan
        key = counts.tobytes()
        if key not in self.keys or scan.count - self.size > len(self.keys):
            self._start(graph)
        self.served += 1
        row = self.keys.get(key)
        if row is None:
            return None
        return np.concatenate([self.products[row], scan["counts"][self.size:] @ counts])


def insert_path(
    graph: InstructionGraph,
    path: InstructionPath,
    question_text: str,
    _scan: _BlockScan | None = None,
) -> list[int]:
    """Insert one instruction path; returns the node id visited per instruction.

    The path's question is registered with ``question_text`` unless the
    graph already holds it. The first instruction of a path matches with
    no exclusion and adds no edge. Later instructions exclude the previous
    node, merge when the match similarity reaches the threshold, and
    connect the previous node to the current one, recording the path's
    task and question. The write's instructions are scored in blocks (see
    ``knn_nearest``): by ``_scan`` when the path is part of a larger write
    whose next instructions it holds, else by a scan of this path alone,
    unless the graph is too small for blocks (``_BlockScan.of_write``).
    """
    graph._stale()
    graph._register([((path.task_id, path.question_id), question_text)])
    if _scan is None:
        _scan = _BlockScan.of_write(graph, list(path.instructions))
    previous: int | None = None
    node_sequence: list[int] = []
    for position, text in enumerate(path.instructions):
        counts = embed_counts(text, graph.embedder)
        if not counts.any():
            raise DataError(f"instruction {text!r} embeds to an invalid vector")
        source = (path.task_id, path.question_id, position)
        try:
            hit = knn_nearest(graph, text, excluded=previous, _scan=_scan)
        except NotFoundError:
            hit = None
        if hit is None or hit.psi < graph.delta:
            node_id = graph.ic
            graph.ic += 1
            graph.nodes[node_id] = NodeSet(node_id)
        else:
            node_id = hit.node_id
        node = graph._writable_node(node_id)
        sources = node.instructions.get(text)
        node.instructions[text] = (sources or ()) + (source,)
        if sources is None:
            graph._index_add([node_id], [text], counts[None])
        if previous is not None:
            key = (previous, node_id)
            if key in graph.edges:
                edge = graph._writable_edge(key)
            else:
                edge = EdgeSet(previous, node_id)
                graph.edges[key] = edge
            if edge.add_task(path.task_id, path.question_id):
                graph._wrote(key, path.task_id, path.question_id)
        previous = node_id
        node_sequence.append(node_id)
    return node_sequence


def build_graph(support: TaskCorpus, delta: float, embedder: EmbedderConfig) -> InstructionGraph:
    """Construct a graph from every correct path in the support corpus.

    Questions are processed in canonical (task id, question id) order so
    construction is deterministic.
    """
    graph = InstructionGraph(delta=delta, embedder=embedder)
    _insert_corpus(graph, support)
    return graph


def extend_graph(graph: InstructionGraph, new_support: TaskCorpus) -> InstructionGraph:
    """Copy-extend: the original graph is left untouched.

    The extended graph shares every node and edge it does not change, and
    every stored row, with the original (see ``InstructionGraph.copy``).
    """
    extended = graph.copy()
    _insert_corpus(extended, new_support)
    return extended


def _insert_corpus(graph: InstructionGraph, corpus: TaskCorpus) -> None:
    writes = [
        (path, question.text)
        for question in corpus.iter_questions()
        for path in question.paths
        if path.is_correct
    ]
    graph._register([((path.task_id, path.question_id), text) for path, text in writes])
    scan = _BlockScan.of_write(graph, [text for path, _ in writes for text in path.instructions])
    for path, question_text in writes:
        insert_path(graph, path, question_text=question_text, _scan=scan)


def graph_stats(graph: InstructionGraph) -> GraphStats:
    node_count = len(graph.nodes)
    instruction_count = graph.instruction_count()
    # Every task an edge lists, or one seen only on single-node paths, has a question.
    tasks = {task for task, _ in graph._questions["key"].tolist()}
    return GraphStats(
        node_count=node_count,
        edge_count=len(graph.edges),
        instruction_count=instruction_count,
        task_count=len(tasks),
        mean_node_size=(instruction_count / node_count) if node_count else 0.0,
    )


def _graph_body(graph: InstructionGraph) -> dict:
    """The document ``save_graph`` writes, without its header: texts,
    sources and structure, and no embedding."""
    questions = graph._questions
    return {
        "layout": GRAPH_LAYOUT,
        "delta": graph.delta,
        "embedder": graph.embedder.to_json(),
        "ic": graph.ic,
        "tc": graph.tc,
        "nodes": [
            {
                "node_id": node_id,
                "instructions": [
                    {"text": text, "sources": [list(s) for s in sources]}
                    for text, sources in node.instructions.items()
                ],
            }
            for node_id, node in sorted(graph.nodes.items())
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
            {"task_id": task_id, "question_id": question_id, "text": text}
            for (task_id, question_id), text in sorted(
                zip(questions["key"].tolist(), questions["text"].tolist())
            )
        ],
    }


def save_graph(graph: InstructionGraph, destination: str | Path) -> None:
    write_versioned(destination, GRAPH_KIND, _graph_body(graph))


def graphs_equal(a: InstructionGraph, b: InstructionGraph) -> bool:
    """Whether ``save_graph`` would write the same document for both: deep
    structural equality, texts included."""
    return _graph_body(a) == _graph_body(b)


def load_graph(source: str | Path) -> InstructionGraph:
    """The graph ``save_graph`` wrote to ``source``, with the counts of
    each instruction and each question derived from its text under the
    file's embedder. A file of another layout, or with any
    inconsistency, raises ``MalformedFileError``."""
    doc = read_versioned(source, GRAPH_KIND)
    if doc.get("layout") != GRAPH_LAYOUT:
        raise MalformedFileError(
            f"{source}: graph file has layout {doc.get('layout')!r}, this build reads "
            f"{GRAPH_LAYOUT!r}; re-save it by running build-graph, train or adapt again "
            "with this build"
        )
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        graph = InstructionGraph(delta=read_value(doc, "delta", float), embedder=embedder)
        graph.ic = read_value(doc, "ic", int)
        tc = read_value(doc, "tc", int)
        node_ids, texts = [], []
        for node_doc in doc["nodes"]:
            node = NodeSet(read_value(node_doc, "node_id", int))
            if node.node_id in graph.nodes:
                raise MalformedFileError(f"{source}: node {node.node_id} appears twice")
            if not node_doc["instructions"]:
                raise MalformedFileError(f"{source}: node {node.node_id} has no instructions")
            for entry in node_doc["instructions"]:
                text = read_value(entry, "text", str)
                if text in node.instructions:
                    raise MalformedFileError(f"{source}: node {node.node_id} lists {text!r} twice")
                node.instructions[text] = _read_sources(
                    entry["sources"], f"{source}: node {node.node_id} {text!r}"
                )
                node_ids.append(node.node_id)
                texts.append(text)
            graph.nodes[node.node_id] = node
        counts = np.array([embed_counts(text, embedder) for text in texts], dtype=np.float64)
        counts = counts.reshape(len(texts), embedder.dimension)
        featureless = ~counts.any(axis=1)
        if featureless.any():
            # ``insert_path`` stores no such text: no query could match it.
            i = int(np.argmax(featureless))
            raise MalformedFileError(
                f"{source}: node {node_ids[i]} {texts[i]!r} embeds to an invalid vector"
            )
        graph._index_add(node_ids, texts, counts)
        keys, questions = [], []
        for q_doc in doc.get("questions", []):
            keys.append((read_value(q_doc, "task_id", str), read_value(q_doc, "question_id", str)))
            questions.append(read_value(q_doc, "text", str))
        if len(set(keys)) < len(keys):
            task_id, question_id = next(key for key in keys if keys.count(key) > 1)
            raise MalformedFileError(f"{source}: question {task_id}/{question_id} appears twice")
        graph._add_questions(keys, questions, embed_counts)
        for edge_doc in doc["edges"]:
            edge = EdgeSet(read_value(edge_doc, "from", int), read_value(edge_doc, "to", int))
            name = f"{source}: edge {edge.from_node}->{edge.to_node}"
            if edge.from_node not in graph.nodes or edge.to_node not in graph.nodes:
                raise MalformedFileError(f"{name} names a missing node")
            if (edge.from_node, edge.to_node) in graph.edges:
                raise MalformedFileError(f"{name} appears twice")
            if not edge_doc["tasks"]:
                raise MalformedFileError(f"{name} lists no task")
            for task_id, question_ids in edge_doc["tasks"].items():
                if not question_ids:
                    raise MalformedFileError(f"{name} lists task {task_id} with no question")
                edge.tasks[task_id] = set(question_ids)
                if len(edge.tasks[task_id]) < len(question_ids):
                    repeated = next(q for q in question_ids if question_ids.count(q) > 1)
                    raise MalformedFileError(f"{name} lists question {task_id}/{repeated} twice")
                for question_id in question_ids:
                    if graph._questions.find((task_id, question_id)) is None:
                        raise MalformedFileError(
                            f"{name} lists question {task_id}/{question_id}, which is not stored"
                        )
            graph.edges[(edge.from_node, edge.to_node)] = edge
    except (AttributeError, ConfigError, KeyError, TypeError, ValueError) as exc:
        # A setting out of range in the file (delta, embedder) is bad data.
        raise MalformedFileError(f"{source}: malformed graph document: {exc}") from exc
    if graph.nodes and graph.ic <= max(graph.nodes):
        raise MalformedFileError(f"{source}: ic {graph.ic} is not above every node id")
    if tc != graph.tc:
        raise MalformedFileError(f"{source}: tc {tc} does not match {len(graph.edges)} edges")
    return graph


def _read_sources(sources, name: str) -> tuple[tuple[str, str, int], ...]:
    """An instruction's sources as its file entry lists them: one or more
    [task id, question id, position] lists; ``name`` names the entry."""
    if type(sources) is list and sources and all(
        type(s) is list and len(s) == 3
        and type(s[0]) is str and type(s[1]) is str and type(s[2]) is int
        for s in sources
    ):
        return tuple(map(tuple, sources))
    raise MalformedFileError(
        f"{name} has sources other than [task id, question id, position] lists"
    )
