"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload serve-demo --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead. The line before it holds the run's
details (output digest, sample counts, per-layer times that only some
workloads exercise). The digest and, for traced runs, the spans are also
written under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import os

# One process, one client and one BLAS thread: set before numpy loads.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Per-layer metrics in the final line of a traced run. "read" values are
# loop totals divided by the read ops of the traced pass; "run" values
# cover the whole traced run (build, setup and the traced pass).
PER_READ_CALLS = {
    "embedding.embed_calls": "embedding.embed",
    "embedding.cosine_calls": "embedding.cosine",
    "graph.out_edges_calls": "graph.out_edges",
    "policy.traverse_calls": "policy.traverse",
    "backend.plan_calls": "backend.plan",
    "corpus.score_calls": "corpus.score",
}
PER_READ_TIMES = {
    "embedding.cosine_s": "embedding.cosine",
    "graph.out_edges_s": "graph.out_edges",
    "policy.traverse_s": "policy.traverse",
    "policy.build_state_s": "policy.build_state",
    "encoder.select_s": "encoder.select",
}
PER_RUN_TIMES = {
    "graph.build_s": "graph.build",
    "graph.knn_s": "graph.knn",
    "graph.extend_s": "graph.extend",
    "graph.load_s": "graph.load",
}
PER_RUN_CALLS = {
    "graph.knn_calls": "graph.knn",
    "optim.adam_calls": "optim.adam",
}
# Layers some workloads never enter: their times go to the details line,
# since a time that is zero on every run of a workload is no measurement.
PARTIAL_TIMES = {
    "policy.warmstart_s": "policy.warmstart",
    "policy.bce_grad_s": "policy.bce_grad",
    "policy.pg_grad_s": "policy.pg_grad",
    "encoder.pt_grad_s": "encoder.pt_grad",
    "encoder.ft_grad_s": "encoder.ft_grad",
    "encoder.save_s": "encoder.save",
    "encoder.load_s": "encoder.load",
    "optim.adam_s": "optim.adam",
    "backend.plan_s": "backend.plan",
    "corpus.score_s": "corpus.score",
    "world.gen_s": "world.gen",
    "cli.hash_s": "cli.hash",
}
SELF_TIMES = {
    "meta.self_s": ("meta.train", "meta.adapt", "meta.answer", "meta.eval"),
    "cli.self_s": ("cli.main",),
}


def layer_metrics(tracer, outcome) -> tuple[dict, dict]:
    """(per-layer metrics for the final line, times reported in the details)."""
    reads = max(1, tracer.loop_reads)
    loop = lambda name: tracer.get("loop", name)  # noqa: E731
    metrics = {}
    for metric, name in PER_READ_CALLS.items():
        metrics[metric] = loop(name).calls / reads
    for metric, name in PER_READ_TIMES.items():
        metrics[metric] = loop(name).total_ns / 1e9 / reads
    for metric, name in PER_RUN_TIMES.items():
        metrics[metric] = tracer.merged(name).total_ns / 1e9
    for metric, name in PER_RUN_CALLS.items():
        metrics[metric] = tracer.merged(name).calls
    traversals = loop("policy.traverse").calls
    visited = tracer.counter("policy.build_state@policy.traverse", "loop")
    metrics["policy.nodes_visited"] = visited / traversals if traversals else 0.0
    metrics["policy.candidates_per_visit"] = (
        tracer.counter("policy.candidates", "loop") / visited if visited else 0.0)
    metrics["backend.failed_calls"] = tracer.counter("backend.failed_calls", "loop") / reads
    before, after = tracer.loop_cache
    if before is not None and after is not None:
        hits, misses = after[0] - before[0], after[1] - before[1]
        metrics["embedding.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    else:
        metrics["embedding.cache_hit_ratio"] = 0.0
    metrics["meta.rollouts"] = (tracer.counter("policy.traverse@meta.train")
                                + tracer.counter("policy.traverse@meta.adapt"))
    details = outcome.details
    metrics["graph.bytes"] = details["graph_bytes"]
    metrics["graph.nodes"] = details["served_graph"]["nodes"]
    metrics["graph.edges"] = details["served_graph"]["edges"]
    metrics["graph.instructions"] = details["served_graph"]["instructions"]
    metrics["encoder.params"] = details["encoder_params"]
    metrics["encoder.bytes"] = details["encoder_bytes"]
    metrics["trace_overhead_frac"] = tracer.overhead_frac
    partial = {metric: tracer.merged(name).total_ns / 1e9 for metric, name in PARTIAL_TIMES.items()}
    for metric, names in SELF_TIMES.items():
        partial[metric] = sum(tracer.merged(name).self_ns for name in names) / 1e9
    return metrics, partial


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ragplan" / "__init__.py").is_file():
        print(f"error: no ragplan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracer import Tracer

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = WORK / f"{label}-pid{os.getpid()}"
    try:
        outcome = run(args.seed, args.seconds, scratch, tracer)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    details = dict(outcome.details, workload=args.workload, seed=args.seed,
                   digest=outcome.digest, problems=outcome.problems)
    if tracer is None:
        metrics = dict(outcome.metrics, peak_rss_mb=workloads.peak_rss_mb())
    else:
        metrics, details["partial_layer_times_s"] = layer_metrics(tracer, outcome)
        details["missing_targets"] = tracer.missing
    WORK.mkdir(exist_ok=True)
    (WORK / f"{label}.digest.json").write_text(
        json.dumps({"digest": outcome.digest, "records": outcome.digest_records}), encoding="utf-8")
    if tracer is not None:
        tracer.write(WORK / f"{label}.spans.json", details)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details, default=str))
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = units["per_layer" if tracer is not None else "end_to_end"]
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
