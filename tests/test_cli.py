import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ragplan.backend import MockBackend
from ragplan.cli import build_parser, load_run_config, main
from ragplan.corpus import InstructionPath, load_corpus_jsonl, split_by_hint
from ragplan.embedding import EmbedderConfig, embed_text
from ragplan.encoder import init_encoder_params, load_encoder, save_encoder
from ragplan.graph import build_graph, load_graph, save_graph
from ragplan.world import SyntheticWorldSpec, load_world

from encoder_faults import FAULTS
from encoder_reference import save_block_encoder
from test_backend import _StubHandler, stub_server  # noqa: F401 (a fixture)
from test_graph import old_layout

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


# The SHA-256 of the demo graph file (configs/demo.json), frozen when the
# file stopped storing embeddings (layout "texts"): neither the file
# format nor any value written may change.
DEMO_GRAPH_SHA256 = "56559cf2b3b597a7e84f76245d0e47de4a32a410f5ff15da10109afd547cc995"


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


# The SHA-256 of the README demo's train log and evaluation records
# (configs/demo.json, 40 iterations). A rounding change that flips a
# rollout's or an evaluated question's selection changes them.
DEMO_TRAIN_LOG_SHA256 = "d580cc8311be4850a9b64d4e3d87ae27fc693ed1eecbd795779643d613b13b31"
DEMO_EVAL_RESULTS_SHA256 = "4dd66e0a57a3822339689b6e557d6e78fc8a36b1d9c60a16c6efad6751784c23"


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    """README steps 1, 3 and 4 on configs/demo.json: gen, train and eval."""
    root = tmp_path_factory.mktemp("demo")
    config = str(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    corpus, world = str(root / "gen" / "corpus.jsonl"), str(root / "gen" / "world.json")
    assert main(["gen", "--demo", "--config", config, "--out", str(root / "gen")]) == 0
    assert main([
        "train", "--corpus", corpus, "--world", world, "--config", config,
        "--out", str(root / "train"),
    ]) == 0
    assert main([
        "eval", "--bundle", str(root / "train" / "bundle"), "--query", corpus,
        "--world", world, "--config", config, "--out", str(root / "eval"),
    ]) == 0
    return root


def test_demo_train_log_and_eval_results_are_unchanged(demo_run):
    for path, expected in (
        (demo_run / "train" / "train_log.jsonl", DEMO_TRAIN_LOG_SHA256),
        (demo_run / "eval" / "results.jsonl", DEMO_EVAL_RESULTS_SHA256),
    ):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, path.name


def test_trained_demo_encoder_projects_saves_and_loads_as_the_references(demo_run, tmp_path):
    # The gathered projection against the dense product over every column,
    # and the file format against a writer that works on the weight views.
    bundle = demo_run / "train" / "bundle"
    encoder, _ = load_encoder(bundle / "encoder.json")
    questions = list(load_corpus_jsonl(demo_run / "gen" / "corpus.jsonl").iter_questions())
    texts = {
        "wq": [q.text for q in questions],
        "wp": [q.gold_path.serialized() for q in questions if q.gold_path is not None],
    }
    for side, side_texts in texts.items():
        x = np.array([embed_text(t, encoder.embedder).values
                      for t in side_texts], dtype=np.float64)
        for rows in (x[:1], x[:3], x):
            dense = rows @ getattr(encoder, side).T
            gap = np.linalg.norm(encoder.project(side, rows) - dense)
            assert gap <= 1e-12 * np.linalg.norm(dense)
    (tmp_path / "reference").mkdir()
    save_block_encoder(encoder, tmp_path / "reference" / "encoder.json")
    for name in ("encoder.json", "encoder.f64"):
        assert (tmp_path / "reference" / name).read_bytes() == (bundle / name).read_bytes()
    loaded, _ = load_encoder(tmp_path / "reference" / "encoder.json")
    for side in ("wq", "wp", "qpm_w"):
        assert getattr(loaded, side).tobytes() == getattr(encoder, side).tobytes()


def test_build_graph_empty_corpus_exits_zero(workspace, capsys):
    root, config_path, _ = workspace
    empty = root / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    out = root / "graph-empty"
    code = main(["build-graph", str(empty), "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert "nodes=0" in capsys.readouterr().out


GOOD_RECORD = {
    "task_id": "T1", "question_id": "q1", "question_text": "Which hue?", "answer": "amber",
    "paths": [{"instructions": ["Search[amber]", "Lookup[hue]"], "success_metric": 1.0}],
}


@pytest.mark.parametrize("record", [
    [1, 2],
    dict(GOOD_RECORD, paths=[{"instructions": [1], "success_metric": 1.0}]),
    dict(GOOD_RECORD, paths=[{"instructions": ["Search[amber]"], "success_metric": "high"}]),
    dict(GOOD_RECORD, question_text=7),
], ids=["list-record", "int-instruction", "str-metric", "int-question-text"])
def test_corpus_line_of_the_wrong_type_is_data_error(workspace, capsys, record):
    # Each field must have the type save_corpus_jsonl writes; a bad line
    # exits 3 and names the file and the line, not a traceback.
    root, config_path, _ = workspace
    corpus = root / "typed.jsonl"
    corpus.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n",
                      encoding="utf-8")
    code = main(["build-graph", str(corpus), "--config", str(config_path),
                 "--out", str(root / "typed")])
    assert code == 3
    assert f"{corpus}:2: malformed record" in capsys.readouterr().err


def test_corpus_line_repeating_a_question_key_is_data_error(workspace, capsys):
    # A graph keeps one text per (task id, question id): a second line
    # with the same key would be dropped silently, so it exits 3 and
    # names the file and both lines.
    root, config_path, _ = workspace
    corpus = root / "repeated.jsonl"
    other = dict(GOOD_RECORD, question_id="q2")
    repeated = dict(GOOD_RECORD, question_text="Which other hue?")
    corpus.write_text("".join(json.dumps(r) + "\n" for r in (GOOD_RECORD, other, repeated)),
                      encoding="utf-8")
    code = main(["build-graph", str(corpus), "--config", str(config_path),
                 "--out", str(root / "repeated")])
    assert code == 3
    assert f"{corpus}:3: question T1/q1 repeats line 1" in capsys.readouterr().err
    assert not (root / "repeated" / "graph.json").exists()


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
        ("backend", "max_retries", -1),
    ],
)
def test_out_of_range_config_value_is_config_error(workspace, capsys, section, key, value):
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, **{section: dict(DEMO_CONFIG.get(section, {}), **{key: value})})
    assert run_with_config(root, gen_dir, "range", config) == 2
    assert f"{key} must be >= " in capsys.readouterr().err


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
def test_backend_timeout_that_is_not_positive_is_config_error(workspace, capsys, timeout):
    root, _, gen_dir = workspace
    config = dict(DEMO_CONFIG, backend={"kind": "http", "timeout": timeout})
    assert run_with_config(root, gen_dir, "timeout", config) == 2
    assert "timeout must be > 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("key", ["rejected", None])
def test_eval_over_http_without_a_valid_key_is_backend_error(
    workspace, trained, stub_server, monkeypatch, capsys, key  # noqa: F811
):
    # A credential fault fails every call alike, so the command stops with
    # exit 4 at the first plan instead of scoring every question as failed.
    root, _, gen_dir = workspace
    _, url = stub_server
    if key is None:
        monkeypatch.delenv("RAGPLAN_API_KEY", raising=False)
    else:
        monkeypatch.setenv("RAGPLAN_API_KEY", key)
    _StubHandler.script = [(401, {"error": "bad key"})] * 3
    config_path = root / "http.json"
    config_path.write_text(json.dumps(
        dict(DEMO_CONFIG, backend={"endpoint": url, "model": "m", "max_retries": 2})
    ), encoding="utf-8")
    out = root / f"eval-http-{key}"
    code = main([
        "eval", "--bundle", str(trained / "bundle"),
        "--query", str(gen_dir / "corpus.jsonl"),
        "--config", str(config_path), "--backend", "http", "--out", str(out),
    ])
    assert code == 4
    assert "backend error" in capsys.readouterr().err
    assert len(_StubHandler.requests_seen) == (0 if key is None else 1)
    assert not (out / "results.jsonl").exists()


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


def test_retrieve_on_an_old_layout_graph_names_the_resave_step(
    workspace, trained, tmp_path, capsys
):
    # A bundle graph saved with embeddings, before the graph layout, is
    # refused with the steps that rewrite it.
    import shutil

    _, config_path, _ = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    graph_file = bundle_dir / "graph.json"
    graph_file.write_text(
        json.dumps(old_layout(json.loads(graph_file.read_text(encoding="utf-8")))),
        encoding="utf-8",
    )
    assert main([
        "retrieve", "--bundle", str(bundle_dir), "Which is older?", "--config", str(config_path),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(graph_file) in err
    assert "layout None" in err and "re-save it by running build-graph, train or adapt" in err


def as_string(doc, key):
    doc[key] = str(doc[key])


def numbered_question(doc):
    # The same number in the question list and on every edge that lists it.
    question = doc["questions"][0]
    old, question["question_id"] = question["question_id"], 7
    for edge in doc["edges"]:
        ids = edge["tasks"].get(question["task_id"], [])
        if old in ids:
            ids[ids.index(old)] = 7


# The first four values are out of range, and the fifth leaves a question
# without the text its embedding is derived from. Each one after them has
# the wrong JSON type and would otherwise load, most by converting to a valid
# value (the string "256" to 256, 5.9 to 5, true to 1), so only a type
# check rejects it.
BAD_VALUES = {
    "graph-delta": ("graph", lambda doc: doc.update(delta=1.5)),
    "graph-dimension": ("graph", lambda doc: doc["embedder"].update(dimension=4)),
    "encoder-ngram-min": ("encoder", lambda doc: doc["embedder"].update(ngram_min=9)),
    "bundle-hook": ("bundle", lambda doc: doc.update(rule_hooks=["no-such-hook"])),
    "graph-question-text-missing": ("graph", lambda doc: doc["questions"][0].pop("text")),
    "graph-seed-fraction": ("graph", lambda doc: doc["embedder"].update(seed=0.5)),
    "graph-seed-bool": ("graph", lambda doc: doc["embedder"].update(seed=True)),
    "graph-dimension-string": ("graph", lambda doc: as_string(doc["embedder"], "dimension")),
    "graph-ngram-max-fraction": ("graph", lambda doc: doc["embedder"].update(ngram_max=5.9)),
    "graph-delta-string": ("graph", lambda doc: as_string(doc, "delta")),
    "graph-delta-bool": ("graph", lambda doc: doc.update(delta=True)),
    "graph-ic-fraction": ("graph", lambda doc: doc.update(ic=doc["ic"] + 0.5)),
    "graph-tc-string": ("graph", lambda doc: as_string(doc, "tc")),
    "graph-node-id-string": ("graph", lambda doc: as_string(doc["nodes"][0], "node_id")),
    "graph-edge-from-string": ("graph", lambda doc: as_string(doc["edges"][0], "from")),
    "graph-question-text-number": ("graph", lambda doc: doc["questions"][0].update(text=5)),
    "graph-instruction-text-number": (
        "graph", lambda doc: doc["nodes"][0]["instructions"][0].update(text=5)
    ),
    "graph-question-id-number": ("graph", numbered_question),
    "encoder-seed-fraction": ("encoder", lambda doc: doc["embedder"].update(seed=0.5)),
    "encoder-ngram-min-bool": ("encoder", lambda doc: doc["embedder"].update(ngram_min=True)),
    "encoder-dimension-string": ("encoder", lambda doc: as_string(doc, "dimension")),
    "encoder-dimension-float": ("encoder", lambda doc: doc.update(dimension=256.0)),
    "encoder-tau-string": ("encoder", lambda doc: as_string(doc, "tau")),
    "encoder-tau-bool": ("encoder", lambda doc: doc.update(tau=True)),
    "encoder-values-float": (
        "encoder", lambda doc: doc["payload"].update(values=float(doc["payload"]["values"]))
    ),
}


@pytest.mark.parametrize("member, change", BAD_VALUES.values(), ids=BAD_VALUES)
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


def test_eval_on_a_row_major_encoder_names_the_resave_step(workspace, trained, tmp_path, capsys):
    # An encoder saved under the earlier ``identity-blocks`` layout, whose
    # blocks run row by row, is refused with the step that rewrites it.
    import shutil

    root, config_path, gen_dir = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    FAULTS["row-major-layout"](bundle_dir / "encoder.json")
    assert main([
        "eval", "--bundle", str(bundle_dir), "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"), "--config", str(config_path),
        "--out", str(tmp_path / "eval"),
    ]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and "'identity-blocks'" in err
    assert "re-save it by running train or adapt again" in err


def _change_embedder(header, change):
    """Make the encoder ``header`` disagree with its graph's embedder.
    ``seed`` keeps the payload, whose sha256 does not cover the embedder;
    ``dimension`` saves an identity encoder at 2048, whose 4,097-value
    payload would make ``load_encoder`` allocate 2 × 2048² weights."""
    doc = json.loads(header.read_text(encoding="utf-8"))
    if change == "seed":
        doc["embedder"]["seed"] = 1
        header.write_text(json.dumps(doc), encoding="utf-8")
    else:
        embedder = EmbedderConfig(**{**doc["embedder"], "dimension": 2048})
        save_encoder(init_encoder_params(embedder), header)


@pytest.mark.parametrize("change", ["seed", "dimension"])
@pytest.mark.parametrize("target", ["bundle", "adapted-task"])
def test_eval_on_an_encoder_of_another_embedder_is_data_error(
    workspace, trained, tmp_path, capsys, target, change
):
    import shutil

    root, config_path, gen_dir = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    common = ["--world", str(gen_dir / "world.json"), "--config", str(config_path)]
    command = ["eval", "--bundle", str(bundle_dir), "--query", str(gen_dir / "corpus.jsonl"),
               *common, "--out", str(tmp_path / "eval")]
    if target == "bundle":
        header = bundle_dir / "encoder.json"
    else:
        adapted = tmp_path / "adapt"
        assert main(["adapt", "--bundle", str(bundle_dir), "--support",
                     str(gen_dir / "corpus.jsonl"), *common, "--out", str(adapted)]) == 0
        header = sorted((adapted / "tasks").glob("*/encoder.json"))[0]
        command += ["--adapted", str(adapted)]
    _change_embedder(header, change)
    assert main(command) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(header) in err and "embedder" in err


@pytest.mark.parametrize("change", [{"seed": 1}, {"dimension": 512}])
def test_eval_of_an_adapted_graph_of_another_embedder_is_data_error(
    workspace, trained, tmp_path, capsys, change
):
    # The adapted graph and its task encoders agree with each other, but
    # not with the bundle they are evaluated under.
    root, config_path, gen_dir = workspace
    common = ["--world", str(gen_dir / "world.json"), "--config", str(config_path)]
    adapted = tmp_path / "adapt"
    assert main(["adapt", "--bundle", str(trained / "bundle"), "--support",
                 str(gen_dir / "corpus.jsonl"), *common, "--out", str(adapted)]) == 0
    embedder = EmbedderConfig(**{**DEMO_CONFIG["embedder"], **change})
    corpus = load_corpus_jsonl(gen_dir / "corpus.jsonl")
    save_graph(build_graph(corpus, DEMO_CONFIG["delta"], embedder), adapted / "graph.json")
    for header in (adapted / "tasks").glob("*/encoder.json"):
        save_encoder(init_encoder_params(embedder), header)
    out = tmp_path / "eval"
    assert main(["eval", "--bundle", str(trained / "bundle"), "--adapted", str(adapted),
                 "--query", str(gen_dir / "corpus.jsonl"), *common, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(adapted / "graph.json") in err
    assert "embedder" in err and not out.exists()


def test_eval_on_a_policy_with_transposed_shapes_is_data_error(
    workspace, trained, tmp_path, capsys
):
    # The payloads keep their sizes, so only a check of each shape catches it.
    import shutil

    root, config_path, gen_dir = workspace
    bundle_dir = tmp_path / "bundle"
    shutil.copytree(trained / "bundle", bundle_dir)
    policy_file = bundle_dir / "policy.json"
    doc = json.loads(policy_file.read_text(encoding="utf-8"))
    doc["shapes"].update(w1=[3, 20], w2=[20, 2])
    policy_file.write_text(json.dumps(doc), encoding="utf-8")
    code = main([
        "eval", "--bundle", str(bundle_dir), "--query", str(gen_dir / "corpus.jsonl"),
        "--world", str(gen_dir / "world.json"), "--config", str(config_path),
        "--out", str(tmp_path / "eval"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("data error") and str(policy_file) in err


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
