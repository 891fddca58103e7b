"""Operator command line: generate, build, train, adapt, evaluate, inspect.

Every command resolves its settings from defaults, then an optional JSON
config file, then flags (flags win), validates inputs up front, and
writes its outputs plus a manifest under the run's output directory.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 backend
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .backend import build_prompt, make_backend
from .corpus import (
    InstructionPath,
    MetricKind,
    Question,
    TaskCorpus,
    load_corpus_jsonl,
    save_corpus_jsonl,
    split_by_hint,
    split_support_query,
)
from .config import RunConfig
from .encoder import load_encoder, save_encoder
from .errors import BackendError, ConfigError, DataError, MalformedFileError, RagplanError
from .graph import build_graph, graph_stats, load_graph, save_graph
from .meta import (
    AgentBundle,
    evaluate_bundle,
    fewshot_adapt,
    meta_test,
    meta_train,
    retrieve,
)
from .policy import RlConfig, load_policy, save_policy
from .serialize import read_fields, sha256_file
from .world import SyntheticWorldSpec, demo_spec, gen_world, load_world, save_world

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4


def _require_file(path: str | Path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{kind} file {path} does not exist")
    return path


def _read_json(path: str | Path, kind: str):
    path = _require_file(path, kind)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def load_run_config(args: argparse.Namespace) -> RunConfig:
    """The config file's settings over the dataclass defaults, then the flags."""
    config = read_fields(RunConfig, _read_json(args.config, "config")) if args.config else None
    flags = {"seed": args.seed, "delta": args.delta, "k": args.k, "metric": args.metric,
             "strict_qpa": args.strict_paper_qpa or None}
    backend = {"kind": args.backend, "noise": args.noise}
    flags = {name: value for name, value in flags.items() if value is not None}
    flags["backend"] = {name: value for name, value in backend.items() if value is not None}
    return read_fields(RunConfig, flags, base=config)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: RunConfig, inputs: dict,
                    outputs: list) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config.to_json(),
        "inputs": {name: sha256_file(path) for name, path in inputs.items()},
        "input_paths": {name: str(path) for name, path in inputs.items()},
        "outputs": sorted(str(p) for p in outputs),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _split_corpus(corpus: TaskCorpus, config: RunConfig) -> tuple[TaskCorpus, TaskCorpus]:
    hinted = any(q.split_hint for q in corpus.iter_questions())
    if hinted:
        return split_by_hint(corpus)
    return split_support_query(corpus, config.split_ratio, config.seed)


def _save_bundle(bundle: AgentBundle, out: Path, config: RunConfig) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "graph.json", out / "policy.json", out / "encoder.json", out / "bundle.json"]
    save_graph(bundle.graph, paths[0])
    save_policy(bundle.policy, paths[1])
    paths.append(save_encoder(bundle.encoder, paths[2], strict_qpa=config.strict_qpa))
    (out / "bundle.json").write_text(
        json.dumps({"k": bundle.rl_config.k, "rule_hooks": list(bundle.rl_config.rule_hooks)},
                   sort_keys=True),
        encoding="utf-8",
    )
    return paths


def _bundle_files(directory: str | Path, prefix: str,
                  names: tuple[str, ...] = ("graph", "policy", "encoder", "bundle")
                  ) -> dict[str, Path]:
    """The manifest inputs of a bundle directory, keyed ``<prefix>_<name>``."""
    return {f"{prefix}_{name}": Path(directory) / f"{name}.json" for name in names}


def _load_bundle(directory: str | Path, config: RunConfig) -> AgentBundle:
    """The bundle in ``directory``, run under ``config.rl``, whose rule hooks
    must be the ones in ``bundle.json``; ``k`` is the run's choice."""
    files = _bundle_files(directory, "bundle")
    for path in files.values():
        _require_file(path, "bundle")
    graph_path, policy_path, encoder_path, bundle_path = files.values()
    try:
        trained = json.loads(bundle_path.read_text(encoding="utf-8"))
        if not isinstance(trained, dict) or sorted(trained) != ["k", "rule_hooks"]:
            raise ConfigError("expected an object with an int k and a list of rule hooks")
        hooks = read_fields(RlConfig, trained).rule_hooks
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"{bundle_path}: malformed bundle file: {exc}") from exc
    if hooks != config.rl.rule_hooks:
        raise ConfigError(f"the run config's rl.rule_hooks {list(config.rl.rule_hooks)} differ "
                          f"from {list(hooks)}, the bundle's ({bundle_path})")
    graph = load_graph(graph_path)
    policy = load_policy(policy_path)
    encoder, _ = load_encoder(encoder_path)
    return AgentBundle(policy=policy, encoder=encoder, graph=graph, rl_config=config.rl)


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    if args.demo:
        spec = demo_spec()
    else:
        spec = SyntheticWorldSpec.from_json(_read_json(args.spec, "world spec"))
    out = _out_dir(args)
    world, corpus = gen_world(spec, config.seed)
    world_path = out / "world.json"
    corpus_path = out / "corpus.jsonl"
    save_world(world, world_path)
    save_corpus_jsonl(corpus, corpus_path)
    inputs = {} if args.demo else {"spec": args.spec}
    _write_manifest(out, "gen", config, inputs, [world_path, corpus_path])
    print(f"world: {world_path} ({len(world.entities)} entities)")
    print(f"corpus: {corpus_path} ({corpus.question_count()} questions, "
          f"{len(corpus.task_ids())} tasks)")
    return EXIT_OK


def cmd_build_graph(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    corpus_path = _require_file(args.corpus, "corpus")
    corpus = load_corpus_jsonl(corpus_path)
    if args.support_only:
        corpus, _ = _split_corpus(corpus, config)
    out = _out_dir(args)
    graph = build_graph(corpus, config.delta, config.embedder)
    graph_path = out / "graph.json"
    save_graph(graph, graph_path)
    stats = graph_stats(graph)
    _write_manifest(out, "build-graph", config, {"corpus": corpus_path}, [graph_path])
    print(f"nodes={stats.node_count} edges={stats.edge_count} "
          f"instructions={stats.instruction_count} tasks={stats.task_count} "
          f"mean_node_size={stats.mean_node_size:.2f}")
    print(f"graph: {graph_path}")
    return EXIT_OK


def _make_backend_for(config: RunConfig, world_path: str | None):
    world = None
    if config.backend.kind == "mock":
        if not world_path:
            raise ConfigError("mock backend needs --world")
        world = load_world(_require_file(world_path, "world"))
    return make_backend(config.backend, world)


def cmd_train(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    corpus_path = _require_file(args.corpus, "corpus")
    corpus = load_corpus_jsonl(corpus_path)
    support, query = _split_corpus(corpus, config)
    if support.is_empty():
        raise DataError("training support set is empty")
    backend = _make_backend_for(config, args.world)
    out = _out_dir(args)
    bundle, log = meta_train(
        support,
        query,
        config.meta,
        delta=config.delta,
        embedder=config.embedder,
        rl_config=config.rl,
        backend=backend,
        metric=MetricKind(config.metric),
    )
    bundle_paths = _save_bundle(bundle, out / "bundle", config)
    log_path = out / "train_log.jsonl"
    _write_jsonl(log_path, log)
    inputs = {"corpus": corpus_path}
    if args.world:
        inputs["world"] = args.world
    _write_manifest(out, "train", config, inputs, bundle_paths + [log_path])
    mean_delta = float(np.mean([r["delta"] for r in log])) if log else 0.0
    print(f"trained {len(log)} outer-loop rollouts, mean reward {mean_delta:.3f}")
    print(f"bundle: {out / 'bundle'}")
    return EXIT_OK


def cmd_adapt(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    support_path = _require_file(args.support, "support corpus")
    new_support = load_corpus_jsonl(support_path)
    if any(q.split_hint for q in new_support.iter_questions()):
        new_support, _ = split_by_hint(new_support)
    bundle = _load_bundle(args.bundle, config)
    backend = _make_backend_for(config, args.world)
    out = _out_dir(args)
    adapted, extended = fewshot_adapt(
        bundle,
        new_support,
        config.meta,
        backend=backend,
        metric=MetricKind(config.metric),
    )
    outputs = []
    graph_path = out / "graph.json"
    save_graph(extended, graph_path)
    outputs.append(graph_path)
    for task_id, task_bundle in sorted(adapted.items()):
        task_dir = out / "tasks" / task_id
        task_dir.mkdir(parents=True, exist_ok=True)
        policy_path = task_dir / "policy.json"
        encoder_path = task_dir / "encoder.json"
        save_policy(task_bundle.policy, policy_path)
        payload_path = save_encoder(task_bundle.encoder, encoder_path, strict_qpa=config.strict_qpa)
        outputs.extend([policy_path, encoder_path, payload_path])
    inputs = {"support": support_path, **_bundle_files(args.bundle, "bundle")}
    if args.world:
        inputs["world"] = args.world
    _write_manifest(out, "adapt", config, inputs, outputs)
    print(f"adapted {len(adapted)} tasks; extended graph: {graph_path}")
    return EXIT_OK


class _TraceKeeper:
    """Passes ``plan`` calls to a backend and keeps each result's execution
    trace, so ``eval --traces`` writes the traces of the plans it scored.
    Each answered question is planned exactly once, in record order."""

    def __init__(self, backend):
        self.backend = backend
        self.traces: list[dict] = []

    def plan(self, question: Question, path: InstructionPath):
        result = self.backend.plan(question, path)
        self.traces.append(
            {
                "question_id": question.question_id,
                "task_id": question.task_id,
                "steps": [dataclasses.asdict(step) for step in result.trace],
            }
        )
        return result


def cmd_eval(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    query_path = _require_file(args.query, "query corpus")
    query = load_corpus_jsonl(query_path)
    if any(q.split_hint for q in query.iter_questions()):
        _, query = split_by_hint(query)
    base = _load_bundle(args.bundle, config)
    backend = _make_backend_for(config, args.world)
    inputs = {"query": query_path, **_bundle_files(args.bundle, "bundle")}
    bundles: dict[str, AgentBundle] = {}
    if args.adapted:
        adapted_dir = Path(args.adapted)
        inputs["adapted_graph"] = _require_file(adapted_dir / "graph.json", "adapted graph")
        graph = load_graph(inputs["adapted_graph"])
        tasks_dir = adapted_dir / "tasks"
        if tasks_dir.exists():
            for task_dir in sorted(tasks_dir.iterdir()):
                files = _bundle_files(task_dir, f"task_{task_dir.name}", ("policy", "encoder"))
                inputs.update(files)
                policy_path, encoder_path = files.values()
                policy = load_policy(policy_path)
                encoder, _ = load_encoder(encoder_path)
                bundles[task_dir.name] = AgentBundle(
                    policy=policy, encoder=encoder, graph=graph, rl_config=base.rl_config
                )
        base = AgentBundle(
            policy=base.policy, encoder=base.encoder, graph=graph, rl_config=base.rl_config
        )
    out = _out_dir(args)
    if args.traces:
        backend = _TraceKeeper(backend)
    report = meta_test(bundles, query, MetricKind(config.metric), backend,
                       default_bundle=base)
    results_path = out / "results.jsonl"
    _write_jsonl(results_path, report.records)
    outputs_extra = []
    if args.traces:
        traces_path = out / "traces.jsonl"
        _write_jsonl(traces_path, backend.traces)
        outputs_extra.append(traces_path)
    summary = {
        "macro_average": report.macro_average,
        "per_task": report.per_task,
    }
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8")
    if args.world:
        inputs["world"] = args.world
    _write_manifest(out, "eval", config, inputs,
                    [results_path, summary_path] + outputs_extra)
    print(f"{'task':<24} {'mean':>6} {'n':>4} {'fail':>4}")
    for task_id, entry in report.per_task.items():
        print(f"{task_id:<24} {entry['mean_delta']:>6.3f} "
              f"{entry['question_count']:>4} {entry['failures']:>4}")
    print(f"{'macro':<24} {report.macro_average:>6.3f}")
    print(f"results: {results_path}")
    return EXIT_OK


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    bundle = _load_bundle(args.bundle, config)
    candidates, sims, selected = retrieve(
        bundle, Question(question_id="", task_id="", text=args.question, answer="")
    )
    if selected is None:
        print("no candidate paths found")
        return EXIT_OK
    for index, (candidate, sim) in enumerate(zip(candidates, sims)):
        marker = "*" if index == selected else " "
        print(f"{marker} [{index}] sim={sim:+.4f}  {candidate.path.serialized()}")
    prompt = build_prompt(args.question, candidates[selected].path, config.backend.template_id)
    print("\n--- prompt ---")
    print(prompt)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    corpus_path = _require_file(args.corpus, "corpus")
    corpus = load_corpus_jsonl(corpus_path)
    support, query = _split_corpus(corpus, config)
    parse = int if args.parameter == "k" else float
    try:
        values = [parse(value) for value in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{args.parameter} values must be {parse.__name__}s: {exc}") from exc
    out = _out_dir(args)
    inputs = {"corpus": corpus_path}
    rows = []
    if args.parameter == "delta":
        for value in values:
            stats = graph_stats(build_graph(support, value, config.embedder))
            rows.append({"delta": value, "nodes": stats.node_count,
                         "edges": stats.edge_count,
                         "instructions": stats.instruction_count})
        print(f"{'delta':>6} {'nodes':>6} {'edges':>6}")
        for row in rows:
            print(f"{row['delta']:>6.2f} {row['nodes']:>6} {row['edges']:>6}")
    else:
        if not args.bundle:
            raise ConfigError("k sweep needs --bundle")
        backend = _make_backend_for(config, args.world)
        base = _load_bundle(args.bundle, config)
        inputs.update(_bundle_files(args.bundle, "bundle"))
        if args.world:
            inputs["world"] = args.world
        for k in values:
            swept = base.copy()
            swept.rl_config = dataclasses.replace(base.rl_config, k=k)
            started = time.perf_counter()
            report = evaluate_bundle(swept, query, backend, MetricKind(config.metric))
            elapsed = time.perf_counter() - started
            rows.append({"k": k, "mean_delta": report.macro_average,
                         "latency_s": elapsed})
        print(f"{'K':>3} {'delta':>7} {'latency':>9}")
        for row in rows:
            print(f"{row['k']:>3} {row['mean_delta']:>7.3f} {row['latency_s']:>8.2f}s")
    sweep_path = out / "sweep.json"
    sweep_path.write_text(
        json.dumps({"parameter": args.parameter, "rows": rows}, indent=2, sort_keys=True),
        encoding="utf-8",
    )
    _write_manifest(out, "sweep", config, inputs, [sweep_path])
    print(f"sweep: {sweep_path}")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, out_required: bool = True) -> None:
    parser.add_argument("--config", help="JSON run config; flags override it")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--backend", choices=["mock", "http"], default=None)
    parser.add_argument("--noise", type=float, default=None)
    parser.add_argument("--metric", choices=[m.value for m in MetricKind], default=None)
    parser.add_argument("--strict-paper-qpa", action="store_true")
    if out_required:
        parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragplan",
        description="Instruction-graph retrieval planning: build, train, adapt, evaluate.",
    )
    parser.add_argument("--version", action="version", version=f"ragplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a synthetic world and task corpus")
    p.add_argument("--spec", help="world spec JSON file")
    p.add_argument("--demo", action="store_true", help="use the shipped demo spec")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-graph", help="construct an instruction graph from a corpus")
    p.add_argument("corpus", help="corpus JSONL")
    p.add_argument("--support-only", action="store_true",
                   help="build from the support split instead of the whole corpus")
    _add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="meta-train the traversal policy and path selector")
    p.add_argument("--corpus", required=True, help="corpus JSONL (split into support/query)")
    p.add_argument("--world", help="world JSON (required for the mock backend)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("adapt", help="few-shot adapt a trained bundle to new tasks")
    p.add_argument("--bundle", required=True, help="trained bundle directory")
    p.add_argument("--support", required=True, help="new support corpus JSONL")
    p.add_argument("--world", help="world JSON (required for the mock backend)")
    _add_common(p)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", help="evaluate bundles over a query corpus")
    p.add_argument("--bundle", required=True, help="base bundle directory")
    p.add_argument("--adapted", help="adapt output directory with per-task bundles")
    p.add_argument("--query", required=True, help="query corpus JSONL")
    p.add_argument("--world", help="world JSON (required for the mock backend)")
    p.add_argument("--traces", action="store_true",
                   help="also write per-question execution traces as JSONL")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("retrieve", help="one-shot retrieval for a single question")
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("question", help="the question text")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("sweep", help="sweep delta or K and report the trend")
    p.add_argument("--corpus", required=True, help="corpus JSONL")
    p.add_argument("--parameter", choices=["delta", "k"], required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--bundle", help="bundle directory (needed for K sweeps)")
    p.add_argument("--world", help="world JSON (needed for K sweeps with the mock backend)")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except RagplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
