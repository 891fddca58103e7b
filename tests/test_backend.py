import json
import os
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from ragplan.backend import (
    BackendConfig,
    HttpBackend,
    MockBackend,
    build_prompt,
    extract_instruction_path,
    http_complete,
    make_backend,
    mock_execute,
    parse_actions,
)
from ragplan.corpus import InstructionPath, MetricKind, Question, score
from ragplan.errors import (
    AuthError,
    BackendError,
    BackendTimeoutError,
    ConfigError,
    MalformedResponseError,
)
from ragplan.world import SyntheticWorldSpec, demo_spec, gen_world


@pytest.fixture(scope="module")
def world_and_corpus():
    return gen_world(demo_spec(), seed=7)


def sample_question(corpus, kind=None):
    for question in corpus.iter_questions():
        if kind is None or question.meta_dict().get("kind") == kind:
            return question
    raise AssertionError("no question of requested kind")


class TestBuildPrompt:
    def test_hotpotqa_prompt_contains_literal_header(self):
        path = InstructionPath(("Search[Ed Wood]", "Lookup[nationality]"), "T1", "q1")
        prompt = build_prompt("Were they compatriots?", path, "hotpotqa")
        assert "Here is the provided action sequence:" in prompt
        assert "Search[entity], which searches the exact entity on Wikipedia" in prompt

    def test_blocks_appear_in_order(self):
        path = InstructionPath(("Search[Ed Wood]",), "T1", "q1")
        prompt = build_prompt("Question?", path, "hotpotqa", examples="Example walk")
        positions = [
            prompt.find("Solve a question answering task"),
            prompt.find("(1) Search[entity]"),
            prompt.find("Here are some examples."),
            prompt.find("Here is the provided action sequence:"),
            prompt.find("Now you have to complete the following task:"),
        ]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)

    def test_empty_demonstrations_keep_other_blocks_in_order(self):
        path = InstructionPath(("Search[Ed Wood]",), "T1", "q1")
        prompt = build_prompt("Question?", path, "webshop", examples="")
        positions = [
            prompt.find("You are an advanced reasoning agent"),
            prompt.find("(1) search[keyword]"),
            prompt.find("Here is the provided action sequence:"),
            prompt.find("Now you have to complete the following task:"),
        ]
        assert all(p >= 0 for p in positions)
        assert positions == sorted(positions)

    def test_alfworld_template_renders(self):
        path = InstructionPath(("go to shelf 6", "take vase 2 from shelf 6"), "T1", "q1")
        prompt = build_prompt("Put a vase on the table.", path, "alfworld")
        assert "Interact with a household to solve a task." in prompt
        assert "go to shelf 6 -> take vase 2 from shelf 6" in prompt

    def test_round_trip_extracts_serialized_path(self):
        path = InstructionPath(
            ("Search[amber fox]", "Lookup[hue]", "Finish"), "T1", "q1"
        )
        for template in ("hotpotqa", "alfworld", "webshop", "synthetic"):
            prompt = build_prompt("What hue?", path, template)
            assert extract_instruction_path(prompt) == path.serialized()

    def test_unknown_template_rejected(self):
        with pytest.raises(ConfigError):
            build_prompt("q", None, "no-such-template")


class TestParseActions:
    def test_act_prefixed_line(self):
        assert parse_actions("Act 1: Search[Ed Wood]") == [("Search", "Ed Wood")]

    def test_thought_then_finish(self):
        text = "Thought 1: I reason about things.\nAct 1: Finish[yes]"
        assert parse_actions(text) == [("Finish", "yes")]

    def test_interleaved_transcript(self):
        text = (
            "Thought 1: Search first.\n"
            "Act 1: Search[The Decline of Western Civilization]\n"
            "Obs 1: It is a 1981 documentary...\n"
            "Act 2: Lookup[director]\n"
            "Obs 2: Penelope Spheeris directed it.\n"
            "Act 3: Finish[Penelope Spheeris]\n"
        )
        assert parse_actions(text) == [
            ("Search", "The Decline of Western Civilization"),
            ("Lookup", "director"),
            ("Finish", "Penelope Spheeris"),
        ]

    def test_bare_action_lines(self):
        assert parse_actions("Search[Ed Wood]\nCompare\nFinish") == [
            ("Search", "Ed Wood"),
            ("Compare", ""),
            ("Finish", ""),
        ]

    def test_free_prose_yields_nothing(self):
        assert parse_actions("The answer is probably Ed Wood, a director.") == []


class TestMockExecute:
    def test_gold_path_noise_zero_reproduces_answer(self, world_and_corpus):
        world, corpus = world_and_corpus
        for question in corpus.iter_questions():
            answer, _ = mock_execute(world, question, question.gold_path.instructions)
            assert score(MetricKind.TOKEN_F1, answer, question.answer) == 1.0

    def test_empty_path_yields_empty_answer(self, world_and_corpus):
        world, corpus = world_and_corpus
        question = sample_question(corpus)
        answer, trace = mock_execute(world, question, ())
        assert answer == ""
        assert trace == []
        assert score(MetricKind.TOKEN_F1, answer, question.answer) == 0.0

    def test_unknown_operator_recorded_and_execution_continues(self, world_and_corpus):
        world, corpus = world_and_corpus
        question = sample_question(corpus, kind="value")
        instructions = ("Teleport[moon]",) + question.gold_path.instructions
        answer, trace = mock_execute(world, question, instructions)
        assert trace[0].ok is False
        assert score(MetricKind.TOKEN_F1, answer, question.answer) == 1.0

    def test_full_noise_degrades_mean_score(self, world_and_corpus):
        world, corpus = world_and_corpus
        question = sample_question(corpus, kind="pair")
        clean = []
        noisy = []
        for seed in range(100):
            answer, _ = mock_execute(world, question, question.gold_path.instructions, 0.0, seed)
            clean.append(score(MetricKind.TOKEN_F1, answer, question.answer))
            answer, _ = mock_execute(world, question, question.gold_path.instructions, 1.0, seed)
            noisy.append(score(MetricKind.TOKEN_F1, answer, question.answer))
        assert float(np.mean(noisy)) < float(np.mean(clean))

    def test_deterministic_given_seed(self, world_and_corpus):
        world, corpus = world_and_corpus
        question = sample_question(corpus, kind="pair")
        a = mock_execute(world, question, question.gold_path.instructions, 0.5, seed=3)
        b = mock_execute(world, question, question.gold_path.instructions, 0.5, seed=3)
        assert a == b

    def test_compare_instruction_sets_pending_answer(self, world_and_corpus):
        world, corpus = world_and_corpus
        question = sample_question(corpus, kind="compare")
        answer, trace = mock_execute(world, question, question.gold_path.instructions)
        assert answer in ("yes", "no")
        assert answer == question.answer


class TestMockBackend:
    def test_end_to_end_prompt_to_answer(self, world_and_corpus):
        world, corpus = world_and_corpus
        backend = MockBackend(world, BackendConfig())
        for question in list(corpus.iter_questions())[:10]:
            result = backend.plan(question, question.gold_path)
            assert result.ok
            assert score(MetricKind.TOKEN_F1, result.answer, question.answer) == 1.0
            assert extract_instruction_path(result.prompt) == question.gold_path.serialized()

    def test_repeated_plans_identical_under_noise(self, world_and_corpus):
        world, corpus = world_and_corpus
        backend = MockBackend(world, BackendConfig(noise=0.5, seed=11))
        question = sample_question(corpus, kind="pair")
        first = backend.plan(question, question.gold_path)
        second = backend.plan(question, question.gold_path)
        assert first.answer == second.answer

    def test_make_backend_mock_requires_world(self):
        with pytest.raises(ConfigError):
            make_backend(BackendConfig(kind="mock"), world=None)


class _StubHandler(BaseHTTPRequestHandler):
    # list of (status, payload) tuples, consumed per request; the status
    # "drop" closes the connection without a reply, and "hold" does so
    # after a second
    script = []
    requests_seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).requests_seen.append(
            {"auth": self.headers.get("Authorization", ""), "body": body}
        )
        status, payload = (
            self.script.pop(0) if self.script else (200, {"choices": []})
        )
        if status == "hold":
            time.sleep(1.0)
        if status in ("drop", "hold"):
            return
        data = json.dumps(payload).encode("utf-8") if isinstance(payload, dict) else payload
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", self.path)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    _StubHandler.script = []
    _StubHandler.requests_seen = []
    yield server, f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    thread.join(timeout=2)
    server.server_close()


def completion(text):
    return {"choices": [{"message": {"content": text}}]}


class TestHttpComplete:
    def config(self, url, retries=2):
        return BackendConfig(
            kind="http", endpoint=url, model="test-model", max_retries=retries, timeout=5.0
        )

    def test_echo_completion(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [(200, completion("Act 1: Finish[yes]"))]
        text = http_complete(self.config(url), "prompt text")
        assert text == "Act 1: Finish[yes]"
        sent = _StubHandler.requests_seen[0]
        assert sent["auth"] == "Bearer secret-key"
        assert sent["body"]["model"] == "test-model"
        assert sent["body"]["messages"][0]["content"] == "prompt text"

    def test_retries_then_success(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [
            (500, {"error": "boom"}),
            (503, {"error": "busy"}),
            (200, completion("recovered")),
        ]
        text = http_complete(self.config(url), "prompt")
        assert text == "recovered"
        assert len(_StubHandler.requests_seen) == 3

    def test_retries_exhausted(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [(500, {}), (500, {}), (500, {})]
        with pytest.raises(BackendError):
            http_complete(self.config(url, retries=2), "prompt")

    def test_invalid_json_is_malformed_response(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [(200, b"this is not json")]
        with pytest.raises(MalformedResponseError):
            http_complete(self.config(url), "prompt")

    def test_missing_credential_is_auth_error(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.delenv("RAGPLAN_API_KEY", raising=False)
        with pytest.raises(AuthError):
            http_complete(self.config(url), "prompt")

    def test_rejected_credential_is_auth_error(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "bad-key")
        _StubHandler.script = [(401, {"error": "no"})]
        with pytest.raises(AuthError):
            http_complete(self.config(url), "prompt")


    def test_read_timeout_is_backend_timeout_error(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [("hold", None)]
        config = BackendConfig(kind="http", endpoint=url, max_retries=0, timeout=0.2)
        with pytest.raises(BackendTimeoutError):
            http_complete(config, "prompt")

    def test_refused_connection_is_backend_error(self, monkeypatch):
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        with socket.socket() as probe:  # a port that nothing listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(BackendError) as caught:
            http_complete(self.config(f"http://127.0.0.1:{port}/v1", retries=1), "prompt")
        assert caught.type is BackendError

    def test_dropped_connection_is_retried_then_backend_error(self, stub_server, monkeypatch):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [("drop", None)] * 3
        with pytest.raises(BackendError) as caught:
            http_complete(self.config(url, retries=2), "prompt")
        assert caught.type is BackendError
        assert len(_StubHandler.requests_seen) == 3

    @pytest.mark.parametrize("status", [201, 302, 307, 404])
    def test_other_status_is_backend_error_without_retry(self, stub_server, monkeypatch, status):
        # urllib returns a 201 without error, and would follow a 302 as a GET
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [(status, completion("not a 200"))] * 3
        with pytest.raises(BackendError, match=f"unexpected status {status}"):
            http_complete(self.config(url, retries=2), "prompt")
        assert len(_StubHandler.requests_seen) == 1

    def test_endpoint_that_is_not_a_url_is_backend_error(self, monkeypatch):
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        with pytest.raises(BackendError) as caught:
            http_complete(self.config("not a url"), "prompt")
        assert caught.type is BackendError

    @pytest.mark.parametrize("content", [None, 3, ["Act 1: Finish[yes]"]])
    def test_content_that_is_not_a_string_is_malformed_response(
        self, stub_server, monkeypatch, content
    ):
        _, url = stub_server
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        _StubHandler.script = [(200, completion(content))]
        with pytest.raises(MalformedResponseError):
            http_complete(self.config(url), "prompt")


@pytest.mark.parametrize(
    "field, value",
    [("max_retries", -1), ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")),
     ("timeout", float("inf")), ("timeout", 1e10)],
)
def test_backend_config_rejects_no_attempt_and_a_timeout_a_socket_cannot_take(field, value):
    with pytest.raises(ConfigError, match=field):
        BackendConfig(kind="http", endpoint="http://127.0.0.1:9/v1", **{field: value})


def test_importing_the_cli_loads_no_http_client():
    code = "import sys, ragplan.cli; print(sorted({'urllib.request', 'requests'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout
    assert loaded.strip() == "[]"


class TestHttpBackend:
    def test_plan_extracts_finish_argument(self, stub_server, monkeypatch, world_and_corpus):
        _, url = stub_server
        _, corpus = world_and_corpus
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        question = sample_question(corpus, kind="value")
        _StubHandler.script = [
            (200, completion("Thought 1: easy.\nAct 1: Finish[" + question.answer + "]"))
        ]
        backend = HttpBackend(
            BackendConfig(kind="http", endpoint=url, model="m", max_retries=0, timeout=5.0)
        )
        result = backend.plan(question, question.gold_path)
        assert result.ok
        assert result.answer == question.answer

    def test_backend_failure_reported_not_raised(self, stub_server, monkeypatch, world_and_corpus):
        _, url = stub_server
        _, corpus = world_and_corpus
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        question = sample_question(corpus, kind="value")
        _StubHandler.script = [(500, {}), (500, {})]
        backend = HttpBackend(
            BackendConfig(kind="http", endpoint=url, model="m", max_retries=1, timeout=5.0)
        )
        result = backend.plan(question, question.gold_path)
        assert not result.ok
        assert result.error

    def test_null_content_is_reported_not_raised(self, stub_server, monkeypatch, world_and_corpus):
        # OpenAI-style endpoints answer a tool call with "content": null
        _, url = stub_server
        _, corpus = world_and_corpus
        monkeypatch.setenv("RAGPLAN_API_KEY", "secret-key")
        question = sample_question(corpus, kind="value")
        _StubHandler.script = [(200, completion(None))]
        backend = HttpBackend(
            BackendConfig(kind="http", endpoint=url, model="m", max_retries=0, timeout=5.0)
        )
        result = backend.plan(question, question.gold_path)
        assert not result.ok
        assert "content" in result.error
