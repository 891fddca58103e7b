"""The two benchmark workloads, driven through ragplan's public API.

Every workload has the same shape:

* build: make the artifacts the workload serves from (a trained bundle,
  a graph) and write them to disk;
* setup: bring a process up from those artifacts;
* a closed loop with one client: read ops, with a write op every few
  reads, until the run's seconds are spent and at least ``digest_ops``
  ops have run;
* checks on every output, made outside the timed ops.

Between timed steps, and inside long ones, the run also times the
reference kernel of ``speedref``, and every time a run reports is scaled
by the reference passes near it (see ``speedref`` for why).

Op ``i`` of a run does the same work in every run with the same seed.
The output digest covers ops ``[0, digest_ops)`` and is the same whether
or not the run is traced.

``ragplan`` functions are always called through their module
(``rp_meta.answer_question``), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import ragplan.backend as rp_backend
import ragplan.cli as rp_cli
import ragplan.corpus as rp_corpus
import ragplan.embedding as rp_embedding
import ragplan.encoder as rp_encoder
import ragplan.graph as rp_graph
import ragplan.meta as rp_meta
import ragplan.policy as rp_policy
import ragplan.world as rp_world

import inputs
from speedref import SpeedRef
from tracer import BackendProxy, Tracer

ROOT = Path(__file__).resolve().parent.parent
METRIC = rp_corpus.MetricKind.TOKEN_F1
DEMO_RL = rp_policy.RlConfig(k=3, rule_hooks=("no-lookup-before-search",))
INDEX_EMBEDDER = rp_embedding.EmbedderConfig(dimension=256)
DELTA = 0.4
RESULT_FIELDS = ("question_id", "selected_path", "answer", "delta", "candidates")

now = time.perf_counter


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    digest_records: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    @property
    def digest(self) -> str:
        text = "\n".join(json.dumps(r, sort_keys=True) for r in self.digest_records)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Op:
    index: int
    kind: str  # "read" | "write"
    start: float
    seconds: float
    output: dict


class OpStream:
    """Op ``i`` of a run: a write every ``write_every`` ops, reads otherwise.

    Inputs are drawn from the seeded generators in op order and cached,
    so any op can be replayed.
    """

    def __init__(self, reads, writes, write_every: int) -> None:
        self._sources = {"read": reads, "write": writes}
        self._made: dict[str, list] = {"read": [], "write": []}
        self.write_every = write_every

    def spec(self, index: int):
        writes_through = (index + 1) // self.write_every
        if index % self.write_every == self.write_every - 1:
            kind, position = "write", writes_through - 1
        else:
            kind, position = "read", index - writes_through
        made = self._made[kind]
        while len(made) <= position:
            made.append(next(self._sources[kind]))
        return kind, made[position]


@contextlib.contextmanager
def traced(tracer: Tracer | None):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def closed_loop(stream: OpStream, do_op, summarize, start: int, speed: SpeedRef, *,
                count: int | None = None, seconds: float = 0.0, min_ops: int = 0,
                tracer: Tracer | None = None):
    """Run ops back to back from ``start``; returns (ops, busy seconds).

    With ``count`` the loop runs exactly that many ops; otherwise it runs
    until ``seconds`` of wall time have passed and at least ``min_ops`` ops
    are done. Only ``do_op`` is timed, and busy seconds are the sum of op
    times: making inputs, keeping what the checks need (``summarize``) and
    the reference passes after each op are the harness's work, not the
    program's.
    """
    ops: list[Op] = []
    began = now()
    index = start
    speed.sample()
    while True:
        done = index - start
        if count is not None:
            if done >= count:
                break
        elif done >= min_ops and now() - began >= seconds:
            break
        kind, payload = stream.spec(index)
        if tracer is not None:
            tracer.start_op(index)
            with tracer.span(f"op.{kind}"):
                t0 = now()
                output = do_op(kind, payload)
                elapsed = now() - t0
        else:
            t0 = now()
            output = do_op(kind, payload)
            elapsed = now() - t0
        ops.append(Op(index, kind, t0, elapsed, summarize(kind, payload, output)))
        speed.after_op(elapsed)
        index += 1
    return ops, sum(op.seconds for op in ops)


def run_passes(stream, do_op, summarize, reset, seconds, digest_ops, tracer, speed):
    """The measured loop of one run; returns its ops.

    Untraced: one timed pass from op 0. Traced: ops ``[N, 2N)`` untraced
    as the overhead baseline, then ops ``[0, N)`` traced, then ops
    ``[0, N)`` untraced again (kept in ``tracer.replay``), whose outputs
    must equal the traced ones.
    """
    if tracer is None:
        reset()
        ops, _ = closed_loop(stream, do_op, summarize, 0, speed, seconds=seconds,
                             min_ops=digest_ops)
        return ops
    reset()
    baseline, baseline_busy = closed_loop(stream, do_op, summarize, digest_ops, speed,
                                          count=digest_ops)
    for index in range(digest_ops):
        stream.spec(index)  # make the inputs before the wrappers go in
    reset()
    tracer.phase = "loop"
    cache_before = embed_cache_info()
    with traced(tracer):
        ops, busy = closed_loop(stream, do_op, summarize, 0, speed, count=digest_ops,
                                tracer=tracer)
    tracer.loop_cache = (cache_before, embed_cache_info())
    tracer.loop_reads = sum(op.kind == "read" for op in ops)
    tracer.overhead_frac = busy / baseline_busy - 1.0
    reset()
    tracer.replay, _ = closed_loop(stream, do_op, summarize, 0, speed, count=digest_ops)
    return ops + baseline


def clear_embed_cache() -> None:
    """Empty the embedding cache, so a repeated build starts as cold as the
    first one in a fresh process."""
    clear = getattr(getattr(rp_embedding, "_embed_cached", None), "cache_clear", None)
    if clear is not None:
        clear()


def embed_cache_info():
    """(hits, misses) of the embedding cache, or None if it has no cache_info."""
    info = getattr(getattr(rp_embedding, "_embed_cached", None), "cache_info", None)
    if info is None:
        return None
    current = info()
    return current.hits, current.misses


# -- shared measurements ---------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) by nearest rank: p90, or with fewer than 100
    samples the highest percentile that still leaves ten samples above the
    value. With 20 samples or fewer no percentile above the median does,
    and the value is the median itself. Higher percentiles of one run are a
    handful of host stalls on a shared machine and do not repeat from run
    to run."""
    n = len(values)
    if n <= 20:
        return 50.0, statistics.median(values)
    pct = min(90.0, 100.0 * (1.0 - 10.0 / n))
    rank = math.ceil(pct / 100.0 * n) - 1
    return pct, sorted(values)[rank]


def repeat_median(fn, times: int, speed: SpeedRef):
    """Run ``fn`` ``times`` times between bursts of reference passes, with
    passes sampled during each run; returns (median seconds at the
    reference speed, last result, measured seconds)."""
    spans, result = [], None
    speed.sample()
    for _ in range(times):
        with speed.sampling():
            t0 = now()
            result = fn()
            spans.append((t0, now() - t0))
        speed.sample()
    return (statistics.median(speed.scaled(*span) for span in spans), result,
            [seconds for _, seconds in spans])


def loop_metrics(ops: list[Op], speed: SpeedRef,
                 f1_values: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of the loop, at the reference speed, and its shape:
    how the tail was taken, the measured medians and the mean answer score.

    ``f1_values`` are the scores of the reads among ops ``[0, digest_ops)``,
    so answer quality does not depend on how many ops a run fits in.
    """
    scaled = [speed.scaled(op.start, op.seconds) for op in ops]
    reads = [s * 1e3 for s, op in zip(scaled, ops) if op.kind == "read"]
    writes = [s * 1e3 for s, op in zip(scaled, ops) if op.kind == "write"]
    pct, tail_value = tail(reads)
    metrics = {
        "ops_per_s": len(ops) / sum(scaled),
        "read_p50_ms": statistics.median(reads),
        "read_tail_ms": tail_value,
        "write_p50_ms": statistics.median(writes),
    }
    measured = {kind: statistics.median(op.seconds * 1e3 for op in ops if op.kind == kind)
                for kind in ("read", "write")}
    return metrics, {"tail_percentile": pct, "reads": len(reads), "writes": len(writes),
                     "measured_p50_ms": measured, "answer_f1": statistics.fmean(f1_values)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_mb(paths) -> float:
    return sum(Path(p).stat().st_size for p in paths) / 1e6


def stats_dict(graph) -> dict:
    stats = rp_graph.graph_stats(graph)
    return {"nodes": stats.node_count, "edges": stats.edge_count,
            "instructions": stats.instruction_count, "tasks": stats.task_count}


def check_graph(out: Outcome, graph, corpus, label: str) -> dict:
    """Graph statistics must agree with the corpus the graph was built from."""
    stats = stats_dict(graph)
    paths = [p for q in corpus.iter_questions() for p in q.paths if p.success_metric >= 1.0]
    occurrences = sum(len(p.instructions) for p in paths)
    distinct = len({t for p in paths for t in p.instructions})
    transitions = sum(len(p.instructions) - 1 for p in paths)
    tasks = len({p.task_id for p in paths})
    out.check(distinct <= stats["instructions"] <= occurrences,
              f"{label}: {stats['instructions']} instructions for {distinct} distinct "
              f"of {occurrences}")
    out.check(1 <= stats["nodes"] <= stats["instructions"],
              f"{label}: {stats['nodes']} nodes for {stats['instructions']} instructions")
    out.check(stats["edges"] <= transitions,
              f"{label}: {stats['edges']} edges for {transitions} transitions")
    out.check(stats["tasks"] == tasks, f"{label}: {stats['tasks']} tasks, corpus has {tasks}")
    return stats


def extension_summary(before, after, batch) -> dict:
    added = sum(len(p.instructions) for q in batch.iter_questions() for p in q.paths
                if p.success_metric >= 1.0)
    return {"before": stats_dict(before), "after": stats_dict(after), "added": added}


def check_extension(out: Outcome, summary: dict, label: str) -> None:
    old, new = summary["before"], summary["after"]
    out.check(old["instructions"] <= new["instructions"] <= old["instructions"] + summary["added"],
              f"{label}: instructions {old['instructions']} -> {new['instructions']} "
              f"after adding {summary['added']}")
    out.check(new["nodes"] >= old["nodes"] and new["edges"] >= old["edges"],
              f"{label}: the extended graph lost nodes or edges")


def check_score(out: Outcome, value: float, label: str) -> None:
    out.check(0.0 <= value <= 1.0, f"{label}: F1 {value} outside [0, 1]")


def is_node_walk(graph, nodes, instructions) -> bool:
    """Whether a traversal's visited nodes are stored nodes linked by stored
    edges, each holding its step of the path. Reads ``nodes`` and ``edges``
    directly, so the tracer's wrappers never see a check."""
    return (
        len(nodes) == len(instructions) > 0
        and all(n in graph.nodes and t in graph.nodes[n].instructions
                for n, t in zip(nodes, instructions))
        and all(edge in graph.edges for edge in zip(nodes, nodes[1:]))
    )


def digest_records(ops: list[Op], digest_ops: int) -> list:
    first = {op.index: op for op in ops if op.index < digest_ops}
    return [[i, first[i].kind, first[i].output["digest"]] for i in sorted(first)]


def finish(out: Outcome, ops: list[Op], speed: SpeedRef, digest_ops: int,
           tracer: Tracer | None, f1_values: list[float]) -> None:
    """Digest, replay comparison and loop metrics, shared by all workloads."""
    out.digest_records += digest_records(ops, digest_ops)
    if tracer is not None:
        out.check(digest_records(tracer.replay, digest_ops) == digest_records(ops, digest_ops),
                  "traced and untraced ops gave different outputs")
    out.attempted = len(ops)
    metrics, shape = loop_metrics(ops, speed, f1_values)
    out.metrics.update(metrics)
    out.details.update(loop=shape, speed=speed.summary())


def bring_up(bundle_dir: Path):
    """Bring a serving process up from a saved bundle: the demo world the
    planner answers from, then the graph, policy and encoder files.
    Returns (bundle, backend)."""
    world, _ = rp_world.gen_world(inputs.DEMO_WORLD_SPEC, inputs.DEMO_WORLD_SEED)
    graph = rp_graph.load_graph(bundle_dir / "graph.json")
    policy = rp_policy.load_policy(bundle_dir / "policy.json")
    encoder, _ = rp_encoder.load_encoder(bundle_dir / "encoder.json")
    bundle = rp_meta.AgentBundle(policy=policy, encoder=encoder, graph=graph, rl_config=DEMO_RL)
    return bundle, rp_backend.MockBackend(world, rp_backend.BackendConfig())


# -- serve-demo -------------------------------------------------------------


def serve_demo(seed: int, seconds: float, workdir: Path, tracer: Tracer | None = None, *,
               iterations: int = 8, builds: int = 2, setup_reps: int = 9, digest_ops: int = 200,
               write_every: int = 20, write_batch: int = 4) -> Outcome:
    """Train a bundle with ``ragplan train``, then answer fresh questions with it.

    The build runs ``ragplan train`` through ``ragplan.cli.main`` on the
    demo world, ``builds`` times into fresh directories and each time with
    an empty embedding cache, as in a fresh process; training is
    deterministic, so the bundles must be byte-identical. Setup brings a
    server up from the bundle, as ``ragplan eval`` does before it answers.
    A write ingests a few newly solved questions with ``extend_graph``,
    which copies the graph; reads keep using the trained bundle's graph.
    """
    out, speed = Outcome(), SpeedRef()
    if tracer is not None:
        builds = setup_reps = 1
    data = workdir / "data"
    data.mkdir(parents=True)
    world_file, corpus_file, config_file = (
        data / "world.json", data / "corpus.jsonl", data / "config.json")

    # The inputs of `ragplan train`, made by the harness and not timed.
    world, corpus = rp_world.gen_world(inputs.DEMO_WORLD_SPEC, inputs.DEMO_WORLD_SEED)
    rp_world.save_world(world, world_file)
    rp_corpus.save_corpus_jsonl(corpus, corpus_file)
    config = json.loads((ROOT / "configs" / "demo.json").read_text(encoding="utf-8"))
    config["seed"] = inputs.DEMO_WORLD_SEED
    config["meta"]["iterations"] = iterations
    config_file.write_text(json.dumps(config, indent=2), encoding="utf-8")

    train_dirs: list[Path] = []

    def build():
        clear_embed_cache()
        train_dirs.append(workdir / f"train-{len(train_dirs)}")
        return run_cli(["train", "--corpus", str(corpus_file), "--out", str(train_dirs[-1]),
                        "--world", str(world_file), "--config", str(config_file)])

    codes = []
    with traced(tracer):
        build_s, _, build_runs = repeat_median(lambda: codes.append(build()), builds, speed)
        bundle_dir = train_dirs[-1] / "bundle"
        setup_s, (served, backend), setup_runs = repeat_median(
            lambda: bring_up(bundle_dir), setup_reps, speed)
    out.check(codes == [0] * builds, f"ragplan train exited {codes}")
    bundles = [{p.name: file_hash(p) for p in (d / "bundle").iterdir()} for d in train_dirs]
    out.check(all(b == bundles[0] for b in bundles), "ragplan train wrote different bundles")
    log_lines = (train_dirs[-1] / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
    for line in log_lines:
        check_score(out, json.loads(line)["delta"], "train log")
    support, _ = rp_corpus.split_by_hint(corpus)
    out.details["built_graph"] = check_graph(out, served.graph, support, "train")
    train_files = [p for p in train_dirs[-1].rglob("*") if p.is_file()]

    stream = OpStream(inputs.fresh_questions(backend.world, seed),
                      inputs.fresh_support_batches(backend.world, seed, write_batch), write_every)
    traced_backend = BackendProxy(backend, tracer) if tracer is not None else None

    def do_op(kind, payload):
        if kind == "write":
            return rp_graph.extend_graph(served.graph, payload)
        planner = traced_backend if tracer is not None and tracer.installed else backend
        return rp_meta.answer_question(served, payload, planner, METRIC)

    def summarize(kind, payload, output):
        if kind == "write":
            summary = extension_summary(served.graph, output, payload)
            return dict(summary, digest=summary["after"])
        return dict(output, digest=[output[k] for k in RESULT_FIELDS + ("failed",)])

    ops = run_passes(stream, do_op, summarize, lambda: None, seconds, digest_ops, tracer, speed)

    f1_values = []
    for op in ops:
        if op.kind == "write":
            check_extension(out, op.output, f"op {op.index}")
            continue
        record = op.output
        check_score(out, record["delta"], f"op {op.index}")
        out.failed += bool(record["failed"])
        if op.index >= digest_ops:
            continue
        f1_values.append(record["delta"])
        if record["failed"]:
            continue
        # Replay the traversal and require the selected path among its candidates.
        question = stream.spec(op.index)[1]
        candidates = rp_policy.traverse(
            served.graph, question.text, served.policy, served.rl_config, mode="greedy",
            task_id=question.task_id, question_id=question.question_id,
        )
        out.check(record["selected_path"] in {c.path.serialized() for c in candidates},
                  f"op {op.index}: selected path is not a candidate")
    out.digest_records.append(["train_log", hashlib.sha256("\n".join(log_lines).encode()).hexdigest()])
    finish(out, ops, speed, digest_ops, tracer, f1_values)
    out.metrics.update(setup_s=setup_s, build_s=build_s, artifact_mb=file_mb(train_files))
    out.details.update(build_runs_s=build_runs, setup_runs_s=setup_runs,
                       served_graph=stats_dict(served.graph),
                       encoder_params=int(served.encoder.to_vector().size),
                       graph_bytes=(bundle_dir / "graph.json").stat().st_size,
                       encoder_bytes=(bundle_dir / "encoder.json").stat().st_size)
    return out


# -- index-4k ---------------------------------------------------------------


def index_4k(seed: int, seconds: float, workdir: Path, tracer: Tracer | None = None, *,
             n_instructions: int = 4000, build_reps: int = 5, setup_reps: int = 9,
             digest_ops: int = 9, write_every: int = 3,
             write_instructions: int = 60) -> Outcome:
    """Reads over a 4k-instruction graph; every few reads one extend, whose
    graph the later reads use."""
    out, speed = Outcome(), SpeedRef()
    if tracer is not None:
        build_reps = setup_reps = 1
    workdir.mkdir(parents=True)
    graph_file = workdir / "graph.json"
    corpus = inputs.random_corpus(seed, n_instructions)

    def build():
        clear_embed_cache()
        graph = rp_graph.build_graph(corpus, DELTA, INDEX_EMBEDDER)
        rp_graph.save_graph(graph, graph_file)
        return graph

    with traced(tracer):
        build_s, built, build_runs = repeat_median(build, build_reps, speed)
        setup_s, loaded, setup_runs = repeat_median(
            lambda: rp_graph.load_graph(graph_file), setup_reps, speed)
    out.details["built_graph"] = check_graph(out, built, corpus, "build")
    out.check(rp_graph.graphs_equal(built, loaded), "loaded graph differs from the built one")

    params = rp_policy.init_policy_params(scale=2.0)
    rl_config = rp_policy.RlConfig(k=3)
    encoder = rp_encoder.init_encoder_params(INDEX_EMBEDDER)
    stream = OpStream(inputs.index_queries(seed),
                      inputs.index_write_batches(seed, write_instructions), write_every)
    state = {}

    def reset():
        state["graph"] = loaded

    def do_op(kind, payload):
        graph = state["graph"]
        if kind == "write":
            state["graph"] = rp_graph.extend_graph(graph, payload)
            return graph
        text, _ = payload
        candidates = rp_policy.traverse(graph, text, params, rl_config, mode="greedy")
        paths = [c.path for c in candidates]
        return candidates, (rp_encoder.select_path(encoder, text, paths) if paths else None)

    def summarize(kind, payload, output):
        if kind == "write":
            summary = extension_summary(output, state["graph"], payload)
            return dict(summary, digest=summary["after"])
        # A read leaves state["graph"] as it found it: the graph it walked.
        candidates, chosen = output
        serialized = [c.path.serialized() for c in candidates]
        return {
            "chosen_is_candidate": chosen is not None and chosen.serialized() in serialized,
            "all_walks": all(is_node_walk(state["graph"], c.node_sequence, c.path.instructions)
                             for c in candidates),
            "f1": rp_corpus.score(METRIC, chosen.serialized(), payload[1].serialized())
            if chosen is not None else 0.0,
            "failed": chosen is None,
            "digest": [serialized, chosen.serialized() if chosen is not None else ""],
        }

    ops = run_passes(stream, do_op, summarize, reset, seconds, digest_ops, tracer, speed)

    f1_values = []
    for op in ops:
        if op.kind == "write":
            check_extension(out, op.output, f"op {op.index}")
            continue
        if op.index < digest_ops:
            f1_values.append(op.output["f1"])
        check_score(out, op.output["f1"], f"op {op.index}")
        out.failed += op.output["failed"]
        out.check(op.output["failed"] or op.output["chosen_is_candidate"],
                  f"op {op.index}: selected path is not a candidate")
        out.check(op.output["all_walks"],
                  f"op {op.index}: a candidate is not a walk along its visited nodes")
    finish(out, ops, speed, digest_ops, tracer, f1_values)
    out.metrics.update(setup_s=setup_s, build_s=build_s, artifact_mb=file_mb([graph_file]))
    out.details.update(build_runs_s=build_runs, setup_runs_s=setup_runs,
                       served_graph=stats_dict(state["graph"]),
                       encoder_params=int(encoder.to_vector().size),
                       graph_bytes=graph_file.stat().st_size, encoder_bytes=0)
    return out


def run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return rp_cli.main(argv)


def file_hash(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


WORKLOADS = {
    "serve-demo": serve_demo,
    "index-4k": index_4k,
}
