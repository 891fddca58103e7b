import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from ragplan.backend import MockBackend
from ragplan.cli import build_parser, load_run_config, main
from ragplan.corpus import InstructionPath, load_corpus_jsonl, split_by_hint
from ragplan.graph import load_graph, save_graph
from ragplan.world import SyntheticWorldSpec, load_world

from encoder_faults import FAULTS

DEMO_CONFIG = {
    "seed": 7,
    "delta": 0.4,
    "k": 3,
    "embedder": {"dimension": 256, "seed": 0, "ngram_min": 3, "ngram_max": 5},
    "meta": {"iterations": 2, "tasks_per_meta_batch": 2, "questions_per_batch": 4},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(DEMO_CONFIG), encoding="utf-8")
    gen_dir = root / "gen"
    code = main(["gen", "--demo", "--config", str(config_path), "--out", str(gen_dir)])
    assert code == 0
    return root, config_path, gen_dir


def test_gen_outputs_world_corpus_manifest(workspace):
    _, _, gen_dir = workspace
    assert (gen_dir / "world.json").exists()
    assert (gen_dir / "corpus.jsonl").exists()
    manifest = json.loads((gen_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "gen"
    assert manifest["config"]["seed"] == 7


def test_build_graph_prints_stats_and_writes_graph(workspace, capsys):
    root, config_path, gen_dir = workspace
    out = root / "graph"
    code = main([
        "build-graph", str(gen_dir / "corpus.jsonl"), "--support-only",
        "--config", str(config_path), "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "nodes=" in captured
    assert (out / "graph.json").exists()


# The SHA-256 of the demo graph file (configs/demo.json), frozen when
# question embeddings moved into a sparse store: neither the file format
# nor any value written may change.
DEMO_GRAPH_SHA256 = "b00c01458066328c193f241859d55da0019673f0b6b7ba1a8e25c03a9d504b56"


def test_demo_graph_file_is_unchanged_and_round_trips(tmp_path):
    config = str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    assert main(["gen", "--demo", "--config", config, "--out", str(tmp_path / "gen")]) == 0
    assert main([
        "build-graph", str(tmp_path / "gen" / "corpus.jsonl"), "--support-only",
        "--config", config, "--out", str(tmp_path / "graph"),
    ]) == 0
    written = (tmp_path / "graph" / "graph.json").read_bytes()
    assert hashlib.sha256(written).hexdigest() == DEMO_GRAPH_SHA256
    save_graph(load_graph(tmp_path / "graph" / "graph.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == written


def test_build_graph_empty_corpus_exits_zero(workspace, capsys):
    root, config_path, _ = workspace
    empty = root / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = root / "graph-empty"
    code = main(["build-graph", str(empty), "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert "nodes=0" in capsys.readouterr().out


def test_missing_config_file_is_config_error(workspace):
    root, _, gen_dir = workspace
    code = main([
        "build-graph", str(gen_dir / "corpus.jsonl"),
        "--config", str(root / "nope.json"), "--out", str(root / "x"),
    ])
    assert code == 2


def test_missing_corpus_is_config_error(workspace):
    root, config_path, _ = workspace
    code = main([
        "build-graph", str(root / "missing.jsonl"),
        "--config", str(config_path), "--out", str(root / "y"),
    ])
    assert code == 2


def test_invalid_delta_flag_is_config_error(workspace):
    root, config_path, gen_dir = workspace
    code = main([
        "build-graph", str(gen_dir / "corpus.jsonl"), "--delta", "1.5",
        "--config", str(config_path), "--out", str(root / "z"),
    ])
    assert code == 2


def test_mock_train_without_world_is_config_error(workspace):
    root, config_path, gen_dir = workspace
    code = main([
        "train", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--config", str(config_path), "--out", str(root / "t"),
    ])
    assert code == 2


def run_with_config(root, gen_dir, name, config):
    config_path = root / f"{name}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return main([
        "build-graph", str(gen_dir / "corpus.jsonl"),
        "--config", str(config_path), "--out", str(root / name),
    ])


def test_unknown_top_level_config_key_is_config_error(workspace, capsys):
    root, _, gen_dir = workspace
    assert run_with_config(root, gen_dir, "top-typo", dict(DEMO_CONFIG, delt=0.5)) == 2
    assert "delt" in capsys.readouterr().err


def test_unknown_nested_config_key_is_config_error(workspace, capsys):
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, rl={"learning_rte": 0.01})
    assert run_with_config(root, gen_dir, "nested-typo", config) == 2
    assert "rl.learning_rte" in capsys.readouterr().err


@pytest.mark.parametrize("config", [dict(DEMO_CONFIG, rl=5), [DEMO_CONFIG]])
def test_non_object_config_is_config_error(workspace, config):
    root, _, gen_dir = workspace
    assert run_with_config(root, gen_dir, "not-an-object", config) == 2


def test_meta_first_order_is_config_error(workspace, capsys):
    # Only first-order meta-gradients exist, so the option is gone.
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, meta=dict(DEMO_CONFIG["meta"], first_order=True))
    assert run_with_config(root, gen_dir, "first-order", config) == 2
    assert "meta.first_order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, key",
    [
        ({"k": "three"}, "'k'"),
        ({"rl": {"gamma": "high"}}, "rl.gamma"),
        ({"embedder": {"dimension": "big"}}, "embedder.dimension"),
        ({"metric": "bleu"}, "bleu"),
    ],
)
def test_wrongly_typed_config_value_is_config_error(workspace, capsys, override, key):
    root, _, gen_dir = workspace
    assert run_with_config(root, gen_dir, "typed", dict(DEMO_CONFIG, **override)) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("meta", "questions_per_batch", -1),
        ("meta", "questions_per_batch", 0),
        ("meta", "tasks_per_meta_batch", 0),
        ("meta", "iterations", -3),
        ("meta", "pool_extra_negatives", -1),
        ("meta", "inner_steps", 0),
        ("meta", "inner_lr", -0.01),
        ("meta", "outer_lr", -0.001),
        ("rl", "max_path_len", 0),
        ("rl", "max_nodes_visited", 0),
        ("rl", "baseline_window", 0),
    ],
)
def test_out_of_range_config_value_is_config_error(workspace, capsys, section, key, value):
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, **{section: dict(DEMO_CONFIG.get(section, {}), **{key: value})})
    assert run_with_config(root, gen_dir, "range", config) == 2
    assert f"{key} must be >= " in capsys.readouterr().err


def test_removed_rl_learning_rate_is_config_error(workspace, capsys):
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, rl={"learning_rate": 0.001})
    assert run_with_config(root, gen_dir, "learning-rate", config) == 2
    assert "rl.learning_rate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    ["{not json", "[1]", '{"entity_count": "x"}', '{"hop_range": [1, "2"]}'],
)
def test_bad_world_spec_is_config_error(tmp_path, capsys, text):
    spec = tmp_path / "spec.json"
    spec.write_text(text, encoding="utf-8")
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "gen")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_world_spec_defaults_missing_keys_and_infeasible_spec_is_data_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"entity_count": 30}), encoding="utf-8")
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "gen")]) == 0
    world = load_world(tmp_path / "gen" / "world.json")
    assert world.spec == SyntheticWorldSpec(entity_count=30)
    spec.write_text(json.dumps({"task_family_count": 9}), encoding="utf-8")
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "gen-bad")]) == 3


def test_manifest_config_round_trips_as_config(workspace):
    root, config_path, gen_dir = workspace
    corpus = str(gen_dir / "corpus.jsonl")
    first = ["build-graph", corpus, "--config", str(config_path), "--k", "2",
             "--noise", "0.25", "--strict-paper-qpa", "--out", str(root / "round-1")]
    assert main(first) == 0
    config = json.loads((root / "round-1" / "manifest.json").read_text(encoding="utf-8"))["config"]
    replay = root / "round-trip.json"
    replay.write_text(json.dumps(config), encoding="utf-8")
    second = ["build-graph", corpus, "--config", str(replay), "--out", str(root / "round-2")]
    assert main(second) == 0
    again = json.loads((root / "round-2" / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert again == config
    parser = build_parser()
    assert load_run_config(parser.parse_args(second)) == load_run_config(parser.parse_args(first))


@pytest.fixture(scope="module")
def trained(workspace):
    root, config_path, gen_dir = workspace
    out = root / "train"
    code = main([
        "train", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(out),
    ])
    assert code == 0
    return out


def test_train_writes_bundle_and_log(trained):
    assert (trained / "bundle" / "graph.json").exists()
    assert (trained / "bundle" / "policy.json").exists()
    assert (trained / "bundle" / "encoder.json").exists()
    log = (trained / "train_log.jsonl").read_text(encoding="utf-8").splitlines()
    assert log
    record = json.loads(log[0])
    assert {"task_id", "question_id", "delta", "iteration"} <= set(record)


def test_train_reruns_byte_identical(workspace, trained):
    root, config_path, gen_dir = workspace
    again = root / "train-again"
    code = main([
        "train", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(again),
    ])
    assert code == 0
    first = (trained / "train_log.jsonl").read_bytes()
    second = (again / "train_log.jsonl").read_bytes()
    assert first == second


def test_eval_writes_results_and_summary(workspace, trained, capsys):
    root, config_path, gen_dir = workspace
    out = root / "eval"
    code = main([
        "eval", "--bundle", str(trained / "bundle"),
        "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(out),
    ])
    assert code == 0
    assert (out / "results.jsonl").exists()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert "macro_average" in summary
    assert "macro" in capsys.readouterr().out


def test_adapt_then_eval_with_adapted_bundles(workspace, trained):
    root, config_path, gen_dir = workspace
    adapt_out = root / "adapt"
    code = main([
        "adapt", "--bundle", str(trained / "bundle"),
        "--support", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(adapt_out),
    ])
    assert code == 0
    assert (adapt_out / "graph.json").exists()
    task_dirs = list((adapt_out / "tasks").iterdir())
    assert task_dirs
    eval_out = root / "eval-adapted"
    code = main([
        "eval", "--bundle", str(trained / "bundle"), "--adapted", str(adapt_out),
        "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(eval_out),
    ])
    assert code == 0


def test_strict_adapt_on_a_single_question_exits_zero(workspace, trained):
    # One support question leaves the strict contrastive form without a
    # negative; that anchor contributes zero loss instead of failing.
    root, config_path, gen_dir = workspace
    lines = (gen_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    support = root / "one-question.jsonl"
    support.write_text(
        next(line for line in lines if json.loads(line)["split_hint"] == "support") + "\n",
        encoding="utf-8",
    )
    out = root / "adapt-strict"
    code = main([
        "adapt", "--bundle", str(trained / "bundle"), "--support", str(support),
        "--world", str(gen_dir / "world.json"), "--config", str(config_path),
        "--strict-paper-qpa", "--out", str(out),
    ])
    assert code == 0
    assert len(list((out / "tasks").iterdir())) == 1


def test_retrieve_prints_candidates_and_prompt(workspace, trained, capsys):
    root, config_path, gen_dir = workspace
    import shutil

    import numpy as np

    from ragplan.policy import PolicyParams, save_policy

    # an include-everything policy guarantees at least one candidate
    bundle_dir = root / "retrieve-bundle"
    if not bundle_dir.exists():
        shutil.copytree(trained / "bundle", bundle_dir)
        save_policy(
            PolicyParams(
                w1=np.zeros((20, 3)), b1=np.zeros(20),
                w2=np.zeros((2, 20)), b2=np.array([6.0, -6.0]),
            ),
            bundle_dir / "policy.json",
        )
    corpus_line = (gen_dir / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]
    question = json.loads(corpus_line)["question_text"]
    code = main([
        "retrieve", "--bundle", str(bundle_dir), question,
        "--config", str(config_path), "--k", "1",
    ])
    assert code == 0
    single = [l for l in capsys.readouterr().out.splitlines() if "sim=" in l]
    # K=1 prints at most one candidate, and any candidate is the selected one
    assert len(single) <= 1
    assert all(l.startswith("*") for l in single)

    code = main([
        "retrieve", "--bundle", str(bundle_dir), question,
        "--config", str(config_path), "--k", "3",
    ])
    assert code == 0
    output = capsys.readouterr().out
    lines = [l for l in output.splitlines() if "sim=" in l]
    assert 1 <= len(lines) <= 3
    assert sum(1 for l in lines if l.startswith("*")) == 1
    assert "Here is the provided action sequence:" in output


def test_retrieve_on_a_graph_listing_an_unstored_question_is_data_error(
    workspace, trained, capsys
):
    import shutil

    root, config_path, gen_dir = workspace
    bundle_dir = root / "unstored-question-bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    graph_file = bundle_dir / "graph.json"
    doc = json.loads(graph_file.read_text(encoding="utf-8"))
    task_id, question_ids = next(iter(doc["edges"][0]["tasks"].items()))
    doc["questions"] = [
        q for q in doc["questions"]
        if (q["task_id"], q["question_id"]) != (task_id, question_ids[0])
    ]
    graph_file.write_text(json.dumps(doc), encoding="utf-8")
    code = main([
        "retrieve", "--bundle", str(bundle_dir), "Which is older?",
        "--config", str(config_path),
    ])
    assert code == 3
    assert "not stored" in capsys.readouterr().err


def nan_instruction(doc):
    entry = doc["nodes"][0]["instructions"][0]
    entry["embedding"] = "0000c07f" + entry["embedding"][8:]  # a float32 NaN


@pytest.mark.parametrize("member, change", [
    ("graph", lambda doc: doc.update(delta=1.5)),
    ("graph", lambda doc: doc["embedder"].update(dimension=4)),
    ("graph", nan_instruction),
    ("encoder", lambda doc: doc["embedder"].update(ngram_min=9)),
    ("bundle", lambda doc: doc.update(rule_hooks=["no-such-hook"])),
], ids=["graph-delta", "graph-dimension", "graph-nan", "encoder-ngram-min", "bundle-hook"])
def test_bundle_file_with_a_bad_value_is_data_error(
    workspace, trained, tmp_path, capsys, member, change
):
    # A bad setting in a saved file is bad data (exit 3), not a bad run
    # configuration (exit 2).
    import shutil

    root, config_path, _ = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    member_file = bundle_dir / f"{member}.json"
    doc = json.loads(member_file.read_text(encoding="utf-8"))
    change(doc)
    member_file.write_text(json.dumps(doc), encoding="utf-8")
    code = main([
        "retrieve", "--bundle", str(bundle_dir), "Which is older?",
        "--config", str(config_path),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(member_file) in err


@pytest.mark.parametrize("text", [
    "[]", '{"k": 3}', '{"k": "3", "rule_hooks": []}', '{"k": true, "rule_hooks": []}',
    '{"k": 3, "rule_hooks": "no-lookup-before-search"}', '{"k": 3, "rule_hooks": [], "x": 1}',
    "{",
])
def test_bundle_json_that_is_not_an_int_k_and_a_hook_list_is_data_error(
    workspace, trained, tmp_path, capsys, text
):
    import shutil

    _, config_path, _ = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    (bundle_dir / "bundle.json").write_text(text, encoding="utf-8")
    code = main([
        "retrieve", "--bundle", str(bundle_dir), "Which is older?", "--config", str(config_path),
    ])
    assert code == 3
    assert str(bundle_dir / "bundle.json") in capsys.readouterr().err


def test_a_bundle_runs_only_under_the_rule_hooks_it_was_trained_with(tmp_path, capsys):
    # configs/demo.json turns the opt-in rule hook on, and the demo bundle
    # scores lower without it, so a run config that leaves it out is a
    # configuration error. K stays a choice of the run.
    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json")
                        .read_text(encoding="utf-8"))
    config["meta"]["iterations"] = 1
    with_hooks, without_hooks = tmp_path / "demo.json", tmp_path / "no-hooks.json"
    with_hooks.write_text(json.dumps(config), encoding="utf-8")
    del config["rl"]["rule_hooks"]
    without_hooks.write_text(json.dumps(config), encoding="utf-8")
    gen, bundle = tmp_path / "gen", tmp_path / "train" / "bundle"
    assert main(["gen", "--demo", "--config", str(with_hooks), "--out", str(gen)]) == 0
    assert main(["train", "--corpus", str(gen / "corpus.jsonl"), "--world", str(gen / "world.json"),
                 "--config", str(with_hooks), "--out", str(tmp_path / "train")]) == 0
    run = ["eval", "--bundle", str(bundle), "--query", str(gen / "corpus.jsonl"),
           "--world", str(gen / "world.json")]
    capsys.readouterr()
    assert main([*run, "--config", str(without_hooks), "--out", str(tmp_path / "e0")]) == 2
    err = capsys.readouterr().err
    assert "[]" in err and "['no-lookup-before-search']" in err
    assert main([*run, "--config", str(with_hooks), "--out", str(tmp_path / "e1")]) == 0
    assert main(["retrieve", "--bundle", str(bundle), "Which is older?",
                 "--config", str(with_hooks), "--k", "5"]) == 0


def test_a_bundle_trained_without_rule_hooks_refuses_a_config_with_them(workspace, trained):
    root, _, _ = workspace
    config_path = root / "hooked.json"
    config_path.write_text(json.dumps(
        dict(DEMO_CONFIG, rl={"rule_hooks": ["no-lookup-before-search"]})), encoding="utf-8")
    code = main([
        "retrieve", "--bundle", str(trained / "bundle"), "Which is older?",
        "--config", str(config_path),
    ])
    assert code == 2


def test_eval_traces_written_when_requested(workspace, trained):
    root, config_path, gen_dir = workspace
    out = root / "eval-traces"
    code = main([
        "eval", "--bundle", str(trained / "bundle"),
        "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--traces",
        "--config", str(config_path), "--out", str(out),
    ])
    assert code == 0
    traces_path = out / "traces.jsonl"
    assert traces_path.exists()
    lines = traces_path.read_text(encoding="utf-8").splitlines()
    for line in lines:
        record = json.loads(line)
        assert {"question_id", "task_id", "steps"} <= set(record)
        for step in record["steps"]:
            assert {"instruction", "operator", "argument", "observation", "ok"} <= set(step)


def test_eval_traces_come_from_the_scored_plans(workspace, trained, monkeypatch):
    root, config_path, gen_dir = workspace
    calls = []
    original_plan = MockBackend.plan

    def counted_plan(self, question, path):
        calls.append(question.question_id)
        return original_plan(self, question, path)

    monkeypatch.setattr(MockBackend, "plan", counted_plan)
    counts = {}
    for flags in ([], ["--traces"]):
        calls.clear()
        out = root / f"eval-plans{len(flags)}"
        assert main([
            "eval", "--bundle", str(trained / "bundle"),
            "--query", str(gen_dir / "corpus.jsonl"),
            "--world", str(gen_dir / "world.json"),
            "--config", str(config_path), "--out", str(out), *flags,
        ]) == 0
        counts[len(flags)] = len(calls)
    assert counts[0] == counts[1] > 0
    # The traces equal those of planning each selected path once more.
    monkeypatch.setattr(MockBackend, "plan", original_plan)
    backend = MockBackend(load_world(gen_dir / "world.json"))
    _, query = split_by_hint(load_corpus_jsonl(gen_dir / "corpus.jsonl"))
    questions = {q.question_id: q for q in query.iter_questions()}
    expected = []
    for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        assert "trace" not in record and "steps" not in record
        if not record["selected_path"]:
            continue
        question = questions[record["question_id"]]
        path = InstructionPath(tuple(record["selected_path"].split(" -> ")),
                               question.task_id, question.question_id, 0.0)
        steps = [dataclasses.asdict(step) for step in backend.plan(question, path).trace]
        expected.append(json.dumps({"question_id": question.question_id,
                                    "task_id": question.task_id, "steps": steps},
                                   sort_keys=True) + "\n")
    assert (out / "traces.jsonl").read_text(encoding="utf-8") == "".join(expected)


def test_sweep_delta_node_counts_nondecreasing(workspace, capsys):
    root, config_path, gen_dir = workspace
    out = root / "sweep"
    code = main([
        "sweep", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--parameter", "delta", "--values", "0,0.2,0.4,0.6,0.8,1.0",
        "--config", str(config_path), "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    counts = [row["nodes"] for row in doc["rows"]]
    assert counts == sorted(counts)


def test_sweep_k_requires_bundle(workspace):
    root, config_path, gen_dir = workspace
    code = main([
        "sweep", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--parameter", "k", "--values", "1,3",
        "--config", str(config_path), "--out", str(root / "sweep-k"),
    ])
    assert code == 2


@pytest.mark.parametrize(
    "parameter, values", [("delta", "0,abc"), ("delta", "0,1.5"), ("k", "1.5"), ("k", "0")]
)
def test_bad_sweep_values_are_config_errors(workspace, trained, parameter, values):
    root, config_path, gen_dir = workspace
    code = main([
        "sweep", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--parameter", parameter, "--values", values,
        "--bundle", str(trained / "bundle"), "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(root / "sweep-bad"),
    ])
    assert code == 2


def test_manifests_hash_every_file_read(workspace, trained):
    root, config_path, gen_dir = workspace
    bundle, corpus, world = trained / "bundle", gen_dir / "corpus.jsonl", gen_dir / "world.json"
    common = ["--world", str(world), "--config", str(config_path)]
    adapt_out, eval_out, sweep_out = root / "m-adapt", root / "m-eval", root / "m-sweep"
    assert main(["adapt", "--bundle", str(bundle), "--support", str(corpus), *common,
                 "--out", str(adapt_out)]) == 0
    assert main(["eval", "--bundle", str(bundle), "--adapted", str(adapt_out),
                 "--query", str(corpus), *common, "--out", str(eval_out)]) == 0
    assert main(["sweep", "--corpus", str(corpus), "--parameter", "k", "--values", "1",
                 "--bundle", str(bundle), *common, "--out", str(sweep_out)]) == 0
    bundle_files = {bundle / f"{name}.json" for name in ("graph", "policy", "encoder", "bundle")}
    task_files = set((adapt_out / "tasks").rglob("*.json"))
    assert task_files
    expected = {
        adapt_out: bundle_files | {corpus, world},
        eval_out: bundle_files | task_files | {adapt_out / "graph.json", corpus, world},
        sweep_out: bundle_files | {corpus, world},
    }
    from ragplan.serialize import sha256_file

    for out, files in expected.items():
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert {Path(p) for p in manifest["input_paths"].values()} == files
        for name, path in manifest["input_paths"].items():
            assert manifest["inputs"][name] == sha256_file(path)


def test_commands_do_not_mutate_inputs(workspace, trained):
    root, config_path, gen_dir = workspace
    from ragplan.serialize import sha256_file

    before = {p.name: sha256_file(p) for p in gen_dir.iterdir() if p.suffix != ""}
    out = root / "immut"
    main([
        "eval", "--bundle", str(trained / "bundle"),
        "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(out),
    ])
    after = {p.name: sha256_file(p) for p in gen_dir.iterdir() if p.suffix != ""}
    assert before == after


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_eval_on_a_damaged_encoder_payload_is_data_error(
    workspace, trained, tmp_path, capsys, fault
):
    import shutil

    root, config_path, gen_dir = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    FAULTS[fault](bundle_dir / "encoder.json")
    code = main([
        "eval", "--bundle", str(bundle_dir), "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"), "--config", str(config_path),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("data error")


def test_train_and_adapt_list_the_encoder_payloads(workspace, trained):
    root, config_path, gen_dir = workspace
    out = root / "adapt-outputs"
    assert main([
        "adapt", "--bundle", str(trained / "bundle"), "--support", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"), "--config", str(config_path), "--out", str(out),
    ]) == 0
    for run, payloads in ((trained, [trained / "bundle" / "encoder.f64"]),
                          (out, sorted((out / "tasks").glob("*/encoder.f64")))):
        assert payloads and all(p.exists() for p in payloads)
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        assert {str(p) for p in payloads} <= set(manifest["outputs"])


def test_train_reruns_write_every_bundle_member_byte_identical(workspace, trained):
    root, config_path, gen_dir = workspace
    again = root / "train-members"
    assert main([
        "train", "--corpus", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"),
        "--config", str(config_path), "--out", str(again),
    ]) == 0
    first = {p.name: p.read_bytes() for p in (trained / "bundle").iterdir()}
    second = {p.name: p.read_bytes() for p in (again / "bundle").iterdir()}
    assert sorted(first) == sorted(
        ["bundle.json", "encoder.f64", "encoder.json", "graph.json", "policy.json"]
    )
    assert first == second
