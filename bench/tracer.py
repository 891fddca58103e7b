"""Spans and counters recorded from outside the program.

The tracer replaces public functions of the ``ragplan`` modules with
timing wrappers under the name each caller looks up (``ragplan.meta.traverse``
for the meta loop, ``ragplan.policy.cosine`` for traversal, and so on),
and restores the originals on ``uninstall``. Nothing under ``src/`` is
edited.

Every wrapped call updates per-name aggregates: call count, inclusive
time (outermost call only, so recursion and nested aliases do not count
twice) and self time (duration minus the time of wrapped calls made
inside it). Calls of coarse functions are also kept as span records
(name, start, end, parent); hot leaf functions such as ``cosine``, which
run tens of thousands of times per read, are aggregated only, so the
span list stays small. Spans live in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, hot). A hot function is aggregated
# without a span record.
TARGETS = [
    ("ragplan.policy", "cosine", "embedding.cosine", True),
    ("ragplan.encoder", "cosine", "embedding.cosine", True),
    ("ragplan.graph", "cosine", "embedding.cosine", True),
    ("ragplan.policy", "embed_text", "embedding.embed", True),
    ("ragplan.encoder", "embed_text", "embedding.embed", True),
    ("ragplan.graph", "embed_text", "embedding.embed", True),
    ("ragplan.graph", "build_graph", "graph.build", False),
    ("ragplan.meta", "build_graph", "graph.build", False),
    ("ragplan.cli", "build_graph", "graph.build", False),
    ("ragplan.graph", "knn_nearest", "graph.knn", True),
    ("ragplan.graph", "extend_graph", "graph.extend", False),
    ("ragplan.meta", "extend_graph", "graph.extend", False),
    ("ragplan.graph.InstructionGraph", "out_edges", "graph.out_edges", True),
    ("ragplan.graph", "load_graph", "graph.load", False),
    ("ragplan.cli", "load_graph", "graph.load", False),
    ("ragplan.policy", "traverse", "policy.traverse", False),
    ("ragplan.meta", "traverse", "policy.traverse", False),
    ("ragplan.policy", "build_state", "policy.build_state", True),
    ("ragplan.meta", "make_warmstart_dataset", "policy.warmstart", False),
    ("ragplan.meta", "bce_loss_and_grad", "policy.bce_grad", False),
    ("ragplan.meta", "pg_loss_and_grad", "policy.pg_grad", False),
    ("ragplan.meta", "candidate_similarities", "encoder.select", False),
    ("ragplan.encoder", "select_path", "encoder.select", False),
    ("ragplan.meta", "pt_loss_and_grads", "encoder.pt_grad", False),
    ("ragplan.meta", "ft_loss_and_grads", "encoder.ft_grad", False),
    ("ragplan.encoder", "save_encoder", "encoder.save", False),
    ("ragplan.cli", "save_encoder", "encoder.save", False),
    ("ragplan.encoder", "load_encoder", "encoder.load", False),
    ("ragplan.cli", "load_encoder", "encoder.load", False),
    ("ragplan.meta", "adam_step", "optim.adam", False),
    ("ragplan.meta", "score", "corpus.score", True),
    ("ragplan.encoder", "score", "corpus.score", True),
    ("ragplan.meta", "meta_train", "meta.train", False),
    ("ragplan.cli", "meta_train", "meta.train", False),
    ("ragplan.meta", "fewshot_adapt", "meta.adapt", False),
    ("ragplan.cli", "fewshot_adapt", "meta.adapt", False),
    ("ragplan.meta", "answer_question", "meta.answer", False),
    ("ragplan.cli", "meta_test", "meta.eval", False),
    ("ragplan.world", "gen_world", "world.gen", False),
    ("ragplan.world", "build_world", "world.gen", False),
    ("ragplan.world", "gen_task_corpus", "world.gen", False),
    ("ragplan.cli", "main", "cli.main", False),
    ("ragplan.cli", "sha256_file", "cli.hash", False),
]

# A call of the key made while the value's span is open is also counted
# under "key@value": build_state calls inside traverse are visited nodes,
# traverse calls inside meta-training or adaptation are rollouts.
CONTEXTS = {
    "policy.build_state": ("policy.traverse",),
    "policy.traverse": ("meta.train", "meta.adapt"),
}

# Functions whose result length is counted: candidates per traversal.
RESULT_COUNTS = {"policy.traverse": "policy.candidates"}


def _resolve(dotted: str):
    obj = __import__(dotted.partition(".")[0])
    for part in dotted.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


class Stats:
    """Aggregates of one name: calls, inclusive and self nanoseconds."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stats: dict[str, dict[str, Stats]] = defaultdict(lambda: defaultdict(Stats))
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = "prep"
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # Open frames: [name, span_id or None, child_ns].
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._op = -1
        # Filled in by the measured loop: embedding-cache (hits, misses)
        # before and after the traced pass, its read count, the traced
        # pass's op time over the untraced baseline's minus 1, and the
        # untraced replay of the traced ops.
        self.loop_cache: tuple = (None, None)
        self.loop_reads = 0
        self.overhead_frac = 0.0
        self.replay: list = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; a missing one is noted, not fatal."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner_name, attr, name, hot in TARGETS:
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                self._note_missing(f"{owner_name}.{attr}")
                continue
            original = owner.__dict__.get(attr)
            if original is None:
                self._note_missing(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, hot))
            self._patches.append((owner, attr, original))
        self._wrap_backend_factory()

    def _wrap_backend_factory(self) -> None:
        """Make ``ragplan.cli`` hand out proxied backends while installed."""
        import ragplan.cli as cli

        original = cli.__dict__["make_backend"]
        tracer = self

        @functools.wraps(original)
        def make_backend(*args, **kwargs):
            return BackendProxy(original(*args, **kwargs), tracer)

        cli.make_backend = make_backend
        self._patches.append((cli, "make_backend", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _note_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool):
        tracer = self
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, record=not hot):
                result = fn(*args, **kwargs)
            if counted:
                tracer.count(counted, len(result))
            return result

        return wrapper

    def span(self, name: str, record: bool = True) -> "_Span":
        return _Span(self, name, record)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self.phase][name] += amount

    def start_op(self, index: int) -> None:
        self._op = index

    def _enter(self, name: str, record: bool) -> list:
        span_id = None
        if record:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, 0]
        self._stack.append(frame)
        self._open[name] += 1
        for context in CONTEXTS.get(name, ()):
            if self._open[context]:
                self.counters[self.phase][f"{name}@{context}"] += 1
        return frame

    def _exit(self, frame: list, start: int, end: int) -> None:
        self._stack.pop()
        name, span_id, child_ns = frame
        duration = end - start
        self._open[name] -= 1
        stats = self.stats[self.phase][name]
        stats.calls += 1
        stats.self_ns += duration - child_ns
        if self._open[name] == 0:
            stats.total_ns += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            parent = next(
                (f[1] for f in reversed(self._stack) if f[1] is not None), None
            )
            self.spans.append((span_id, name, start, end, parent, self.phase, self._op))

    # -- reporting -------------------------------------------------------

    def get(self, phase: str, name: str) -> Stats:
        return self.stats[phase].get(name, Stats())

    def merged(self, name: str) -> Stats:
        out = Stats()
        for phase in self.stats:
            stats = self.stats[phase].get(name)
            if stats is not None:
                out.calls += stats.calls
                out.total_ns += stats.total_ns
                out.self_ns += stats.self_ns
        return out

    def counter(self, name: str, phase: str | None = None) -> int:
        phases = [phase] if phase else list(self.counters)
        return sum(self.counters[p].get(name, 0) for p in phases)

    def write(self, path: Path, summary: dict) -> None:
        """Write the span records and the aggregates once, as one JSON file."""
        doc = {
            "summary": summary,
            "missing_targets": self.missing,
            "aggregates": {
                phase: {
                    name: {"calls": s.calls, "total_s": s.total_ns / 1e9, "self_s": s.self_ns / 1e9}
                    for name, s in sorted(names.items())
                }
                for phase, names in self.stats.items()
            },
            "counters": {phase: dict(c) for phase, c in self.counters.items()},
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "phase", "op"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "record", "frame", "start")

    def __init__(self, tracer: Tracer, name: str, record: bool) -> None:
        self.tracer = tracer
        self.name = name
        self.record = record

    def __enter__(self) -> "_Span":
        self.frame = self.tracer._enter(self.name, self.record)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.tracer._exit(self.frame, self.start, end)


class BackendProxy:
    """Stands in for a planner backend and times each ``plan`` call."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def plan(self, question, path):
        with self._tracer.span("backend.plan"):
            result = self._inner.plan(question, path)
        if not result.ok:
            self._tracer.count("backend.failed_calls")
        return result

    def __getattr__(self, name):
        return getattr(self._inner, name)
