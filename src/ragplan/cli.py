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
from .backend import BackendConfig, make_backend
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
from .embedding import EmbedderConfig
from .encoder import load_encoder, save_encoder
from .errors import BackendError, ConfigError, DataError, RagplanError
from .graph import build_graph, graph_stats, load_graph, save_graph
from .meta import (
    AgentBundle,
    MetaConfig,
    evaluate_bundle,
    fewshot_adapt,
    meta_test,
    meta_train,
    retrieve,
)
from .policy import RlConfig, load_policy, save_policy
from .serialize import sha256_file
from .world import SyntheticWorldSpec, demo_spec, gen_world, load_world, save_world
from .backend import build_prompt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4


def _default_config() -> dict:
    return {
        "seed": 0,
        "delta": 0.4,
        "k": 3,
        "metric": "token_f1",
        "split_ratio": 0.6,
        "strict_qpa": False,
        "embedder": dataclasses.asdict(EmbedderConfig()),
        "rl": {
            "learning_rate": 0.001,
            "gamma": 0.99,
            "max_path_len": 16,
            "max_nodes_visited": 256,
            "rule_hooks": ["no-lookup-before-search"],
            "use_baseline": True,
            "baseline_window": 64,
        },
        "meta": {
            "inner_lr": 0.01,
            "outer_lr": 0.001,
            "inner_steps": 1,
            "questions_per_batch": 8,
            "tasks_per_meta_batch": 4,
            "iterations": 40,
            "pool_extra_negatives": 2,
        },
        "backend": {
            "kind": "mock",
            "template_id": "synthetic",
            "noise": 0.0,
            "endpoint": "",
            "model": "",
            "auth_env": "RAGPLAN_API_KEY",
            "timeout": 30.0,
            "max_retries": 2,
            "temperature": 0.0,
        },
    }


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", list: "a list of strings"}


def _check_type(name: str, value, default) -> None:
    """Reject a config value whose JSON type differs from its default's;
    an integer is a number, a boolean is not."""
    if isinstance(default, (bool, str)):
        ok = type(value) is type(default)
    elif isinstance(default, int):
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, list) and all(isinstance(item, str) for item in value)
    if not ok:
        raise ConfigError(
            f"config key {name!r} must be {_TYPE_NAMES[type(default)]}, got {value!r}"
        )


def load_run_config(args: argparse.Namespace) -> dict:
    config = _default_config()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            overrides = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in overrides.items():
            if key not in config:
                raise ConfigError(f"unknown config key {key!r}")
            if isinstance(config[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key!r} must be an object")
                unknown = sorted(set(value) - set(config[key]))
                if unknown:
                    names = ", ".join(f"{key}.{name}" for name in unknown)
                    raise ConfigError(f"unknown config key {names}")
                for name, item in value.items():
                    _check_type(f"{key}.{name}", item, config[key][name])
                config[key].update(value)
            else:
                _check_type(key, value, config[key])
                config[key] = value
    for flag in ("seed", "delta", "k", "metric"):
        value = getattr(args, flag, None)
        if value is not None:
            config[flag] = value
    if getattr(args, "backend", None):
        config["backend"]["kind"] = args.backend
    if getattr(args, "noise", None) is not None:
        config["backend"]["noise"] = args.noise
    if getattr(args, "strict_paper_qpa", False):
        config["strict_qpa"] = True
    if not 0.0 <= float(config["delta"]) <= 1.0:
        raise ConfigError(f"delta must be in [0, 1], got {config['delta']}")
    if int(config["k"]) < 1:
        raise ConfigError(f"K must be >= 1, got {config['k']}")
    if config["metric"] not in {m.value for m in MetricKind}:
        raise ConfigError(f"unknown metric {config['metric']!r}")
    return config


def _embedder(config: dict) -> EmbedderConfig:
    return EmbedderConfig(**config["embedder"])


def _rl_config(config: dict) -> RlConfig:
    rl = dict(config["rl"])
    rl["rule_hooks"] = tuple(rl.get("rule_hooks", ()))
    return RlConfig(k=int(config["k"]), **rl)


def _meta_config(config: dict) -> MetaConfig:
    meta = dict(config["meta"])
    meta["seed"] = int(config["seed"])
    meta["strict_qpa"] = bool(config.get("strict_qpa", False))
    return MetaConfig(**meta)


def _backend_config(config: dict) -> BackendConfig:
    return BackendConfig(**config["backend"])


def _require_file(path: str | Path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{kind} file {path} does not exist")
    return path


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, inputs: dict, outputs: list) -> None:
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": config,
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


def _split_corpus(corpus: TaskCorpus, config: dict) -> tuple[TaskCorpus, TaskCorpus]:
    hinted = any(q.split_hint for q in corpus.iter_questions())
    if hinted:
        return split_by_hint(corpus)
    return split_support_query(corpus, float(config["split_ratio"]), int(config["seed"]))


def _save_bundle(bundle: AgentBundle, out: Path, config: dict) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "graph.json", out / "policy.json", out / "encoder.json", out / "bundle.json"]
    save_graph(bundle.graph, paths[0])
    save_policy(bundle.policy, paths[1])
    save_encoder(bundle.encoder, paths[2], strict_qpa=bool(config.get("strict_qpa", False)))
    (out / "bundle.json").write_text(
        json.dumps({"k": bundle.rl_config.k, "rule_hooks": list(bundle.rl_config.rule_hooks)},
                   sort_keys=True),
        encoding="utf-8",
    )
    return paths


def _load_bundle(directory: str | Path, config: dict) -> AgentBundle:
    directory = Path(directory)
    for name in ("graph.json", "policy.json", "encoder.json"):
        _require_file(directory / name, "bundle")
    graph = load_graph(directory / "graph.json")
    policy = load_policy(directory / "policy.json")
    encoder, _ = load_encoder(directory / "encoder.json")
    return AgentBundle(policy=policy, encoder=encoder, graph=graph, rl_config=_rl_config(config))


def cmd_gen(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    if args.demo:
        spec = demo_spec()
    else:
        spec_path = _require_file(args.spec, "world spec")
        spec = SyntheticWorldSpec.from_json(json.loads(spec_path.read_text(encoding="utf-8")))
    out = _out_dir(args)
    world, corpus = gen_world(spec, int(config["seed"]))
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
    graph = build_graph(corpus, float(config["delta"]), _embedder(config))
    graph_path = out / "graph.json"
    save_graph(graph, graph_path)
    stats = graph_stats(graph)
    _write_manifest(out, "build-graph", config, {"corpus": corpus_path}, [graph_path])
    print(f"nodes={stats.node_count} edges={stats.edge_count} "
          f"instructions={stats.instruction_count} tasks={stats.task_count} "
          f"mean_node_size={stats.mean_node_size:.2f}")
    print(f"graph: {graph_path}")
    return EXIT_OK


def _make_backend_for(config: dict, world_path: str | None):
    backend_config = _backend_config(config)
    world = None
    if backend_config.kind == "mock":
        if not world_path:
            raise ConfigError("mock backend needs --world")
        world = load_world(_require_file(world_path, "world"))
    return make_backend(backend_config, world)


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
        _meta_config(config),
        delta=float(config["delta"]),
        embedder=_embedder(config),
        rl_config=_rl_config(config),
        backend=backend,
        metric=MetricKind(config["metric"]),
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
        _meta_config(config),
        backend=backend,
        metric=MetricKind(config["metric"]),
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
        save_encoder(task_bundle.encoder, encoder_path,
                     strict_qpa=bool(config.get("strict_qpa", False)))
        outputs.extend([policy_path, encoder_path])
    inputs = {"support": support_path, "bundle_graph": Path(args.bundle) / "graph.json"}
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
    bundles: dict[str, AgentBundle] = {}
    if args.adapted:
        adapted_dir = Path(args.adapted)
        graph = load_graph(_require_file(adapted_dir / "graph.json", "adapted graph"))
        tasks_dir = adapted_dir / "tasks"
        if tasks_dir.exists():
            for task_dir in sorted(tasks_dir.iterdir()):
                policy = load_policy(task_dir / "policy.json")
                encoder, _ = load_encoder(task_dir / "encoder.json")
                bundles[task_dir.name] = AgentBundle(
                    policy=policy, encoder=encoder, graph=graph, rl_config=base.rl_config
                )
        base = AgentBundle(
            policy=base.policy, encoder=base.encoder, graph=graph, rl_config=base.rl_config
        )
    out = _out_dir(args)
    if args.traces:
        backend = _TraceKeeper(backend)
    report = meta_test(bundles, query, MetricKind(config["metric"]), backend,
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
    inputs = {"query": query_path}
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
    prompt = build_prompt(
        args.question, candidates[selected].path, config["backend"]["template_id"]
    )
    print("\n--- prompt ---")
    print(prompt)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_run_config(args)
    corpus_path = _require_file(args.corpus, "corpus")
    corpus = load_corpus_jsonl(corpus_path)
    support, query = _split_corpus(corpus, config)
    out = _out_dir(args)
    values = [float(v) for v in args.values.split(",")]
    rows = []
    if args.parameter == "delta":
        for value in values:
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"delta value {value} outside [0, 1]")
            stats = graph_stats(build_graph(support, value, _embedder(config)))
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
        for value in values:
            k = int(value)
            if k < 1:
                raise ConfigError(f"K value {k} must be >= 1")
            swept = base.copy()
            swept.rl_config = dataclasses.replace(base.rl_config, k=k)
            started = time.perf_counter()
            report = evaluate_bundle(swept, query, backend,
                                     MetricKind(config["metric"]))
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
    _write_manifest(out, "sweep", config, {"corpus": corpus_path}, [sweep_path])
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
