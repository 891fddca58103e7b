"""Planner backends: prompt building, a deterministic mock executor, and
an HTTP chat-completions client.

The prompt is composed of four blocks in a fixed order: task
description, instruction definitions, demonstrations, and the planning
path, followed by the question to solve. The mock backend parses the
path back out of the rendered prompt and executes it literally against
a synthetic world, which keeps rewards deterministic; the HTTP backend
POSTs the prompt to any chat-completions endpoint through the standard
library's ``urllib``, maps each failure onto a typed ``BackendError``,
and extracts actions from the reply.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from dataclasses import dataclass, field

import numpy as np

from .corpus import PATH_SEPARATOR, InstructionPath, Question
from .errors import (AuthError, BackendError, BackendTimeoutError, ConfigError,
                     MalformedResponseError)
from .serialize import check_minimums
from .world import World

PATH_SLOT_HEADER = "Here is the provided action sequence:"
QUESTION_HEADER = "Now you have to complete the following task:"
EXAMPLES_HEADER = "Here are some examples."


@dataclass(frozen=True)
class PromptParts:
    task_description: str
    instruction_definitions: str
    demonstrations: str
    planning_path: str

    def render(self, question: str) -> str:
        blocks = [
            self.task_description,
            self.instruction_definitions,
            self.demonstrations,
            self.planning_path,
            f"{QUESTION_HEADER}\n{question}",
        ]
        return "\n\n".join(block for block in blocks if block)


_HOTPOTQA_TASK = (
    "Solve a question answering task with interleaving Thought, Action, Observation "
    "steps. Thought can reason about the current situation, and Action can be three types:"
)
_HOTPOTQA_DEFS = (
    "(1) Search[entity], which searches the exact entity on Wikipedia and returns the "
    "first paragraph if it exists. If not, it will return some similar entities to search.\n"
    "(2) Lookup[keyword], which returns the next sentence containing keyword in the "
    "current passage.\n"
    "(3) Finish[answer], which returns the answer and finishes the task."
)
_ADJUST_LINES = (
    "Assess the initial understanding of the task and adjust the approach if new "
    "insights or requirements arise during the process."
)
_HOTPOTQA_RECONSIDER = (
    "If an action does not yield useful information or leads to a dead end, reconsider "
    "the previous steps or switch between \"Search\" and \"Lookup\" to gather more "
    "relevant data."
)

_ALFWORLD_TASK = (
    "Interact with a household to solve a task.  The following are legal actions: go, "
    "take, clean, use, examine, look, heat, cool, open, close, toggle, put, think."
)
_ALFWORLD_DEFS = (
    "When generating an action, the first word of your response must be one of the "
    "legal actions listed above."
)

_WEBSHOP_TASK = (
    "You are an advanced reasoning agent tasked with interacting with a shopping "
    "website. The following are legal actions:"
)
_WEBSHOP_DEFS = (
    "(1) search[keyword]: You can perform a search using specific keywords (if "
    "\"has_search_bar\" is True). Keep the keyword short and concise. Avoid overly "
    "detailed descriptions. Only include keywords that help identify the product.\n"
    "(2) click[clickables]:  You can click on available clickable items."
)

_SYNTHETIC_TASK = (
    "Solve a question about a catalog of entities by following Thought, Action, "
    "Observation steps. Action can be four types:"
)
_SYNTHETIC_DEFS = (
    "(1) Search[entity], which opens the record of the named entity.\n"
    "(2) Lookup[attribute], which reads the named attribute of the open record.\n"
    "(3) Compare, which compares the last two observed values.\n"
    "(4) Finish, which composes the final answer from the observations."
)


def _template(task: str, defs: str, trailer: str = "") -> dict:
    return {"task": task, "defs": defs, "trailer": trailer}


TEMPLATES: dict[str, dict] = {
    "hotpotqa": _template(_HOTPOTQA_TASK, _HOTPOTQA_DEFS, _HOTPOTQA_RECONSIDER),
    "alfworld": _template(_ALFWORLD_TASK, _ALFWORLD_DEFS),
    "webshop": _template(_WEBSHOP_TASK, _WEBSHOP_DEFS),
    "synthetic": _template(_SYNTHETIC_TASK, _SYNTHETIC_DEFS),
}


def build_prompt(
    question: str,
    path: InstructionPath | None,
    template_id: str = "synthetic",
    examples: str = "",
) -> str:
    """Render the four-block prompt for a question and its planning path."""
    if template_id not in TEMPLATES:
        raise ConfigError(
            f"unknown prompt template {template_id!r}; options: {sorted(TEMPLATES)}"
        )
    spec = TEMPLATES[template_id]
    serialized = path.serialized() if path is not None else ""
    planning = f"{PATH_SLOT_HEADER}\n{serialized}.\n{_ADJUST_LINES}"
    if spec["trailer"]:
        planning = f"{planning}\n{spec['trailer']}"
    parts = PromptParts(
        task_description=spec["task"],
        instruction_definitions=spec["defs"],
        demonstrations=f"{EXAMPLES_HEADER}\n{examples}" if examples else EXAMPLES_HEADER,
        planning_path=planning,
    )
    return parts.render(question)


def extract_instruction_path(prompt: str) -> str:
    """Recover the serialized path slot from a rendered prompt."""
    start = prompt.find(PATH_SLOT_HEADER)
    if start < 0:
        raise MalformedResponseError("prompt holds no action sequence block")
    start += len(PATH_SLOT_HEADER) + 1
    end = prompt.find(f".\n{_ADJUST_LINES}", start)
    if end < 0:
        raise MalformedResponseError("prompt action sequence block is unterminated")
    return prompt[start:end]


_ACTION_LINE_RE = re.compile(
    r"^\s*(?:Act(?:ion)?\s*\d*\s*:\s*)?([A-Za-z]\w*)(?:\[([^\]]*)\])?\s*$"
)
_SKIP_PREFIX_RE = re.compile(r"^\s*(Thought|Obs(?:ervation)?)\b", re.IGNORECASE)
KNOWN_OPERATORS = {"search", "lookup", "compare", "finish", "click"}


def parse_actions(completion_text: str) -> list[tuple[str, str]]:
    """Extract (operator, argument) pairs from a completion transcript.

    Lines led by Thought/Obs markers are skipped; action lines may carry
    an "Act N:" prefix or stand bare. Free prose yields an empty list.
    """
    actions: list[tuple[str, str]] = []
    for line in completion_text.splitlines():
        if _SKIP_PREFIX_RE.match(line):
            continue
        match = _ACTION_LINE_RE.match(line)
        if not match:
            continue
        operator, argument = match.group(1), match.group(2)
        has_prefix = re.match(r"^\s*Act", line, re.IGNORECASE)
        if operator.lower() not in KNOWN_OPERATORS and not (has_prefix and argument is not None):
            continue
        actions.append((operator, argument or ""))
    return actions


@dataclass(frozen=True)
class TaoStep:
    instruction: str
    operator: str
    argument: str
    observation: str
    ok: bool


@dataclass
class PlanResult:
    answer: str
    ok: bool = True
    reward: float | None = None
    trace: list[TaoStep] = field(default_factory=list)
    prompt: str = ""
    error: str = ""


_INSTRUCTION_RE = re.compile(r"^(\w+)(?:\[(.*)\])?$")


def _corrupted_value(argument: str, rng: np.random.Generator) -> str:
    token = f"garbled{int(rng.integers(1000)):03d}"
    return token


def mock_execute(
    world: World,
    question: Question,
    instructions: tuple[str, ...],
    noise: float = 0.0,
    seed: int = 0,
) -> tuple[str, list[TaoStep]]:
    """Execute instructions literally against the world.

    Each step's observation is corrupted with probability ``noise``.
    The final answer is derived from the observations according to the
    question's kind; a path that never gathered the needed facts yields
    a partial or empty answer.
    """
    rng = np.random.default_rng(seed)
    trace: list[TaoStep] = []
    current_entity: str | None = None
    observations: list[tuple[str, str, str]] = []
    pending: str | None = None
    finished = False
    for text in instructions:
        if finished:
            break
        match = _INSTRUCTION_RE.match(text.strip())
        if not match:
            trace.append(TaoStep(text, "", "", "unparseable instruction", False))
            continue
        operator = match.group(1).lower()
        argument = (match.group(2) or "").strip()
        corrupt = noise > 0.0 and float(rng.random()) < noise
        if operator == "search":
            if argument in world.entities:
                current_entity = argument
                trace.append(TaoStep(text, operator, argument, f"opened record of {argument}", True))
            else:
                current_entity = None
                trace.append(TaoStep(text, operator, argument, "no such entity", False))
        elif operator == "lookup":
            if current_entity is None:
                trace.append(TaoStep(text, operator, argument, "no open record", False))
                continue
            value = world.value(current_entity, argument)
            if value is None:
                trace.append(TaoStep(text, operator, argument, "no such attribute", False))
                continue
            if corrupt:
                value = _corrupted_value(argument, rng)
            observations.append((current_entity, argument, value))
            trace.append(TaoStep(text, operator, argument, value, True))
            # link attributes open the referenced record implicitly on
            # a follow-up Search carrying the observed value
        elif operator == "compare":
            if len(observations) < 2:
                trace.append(TaoStep(text, operator, argument, "not enough observations", False))
                continue
            left, right = observations[-2][2], observations[-1][2]
            pending = "yes" if left == right else "no"
            trace.append(TaoStep(text, operator, argument, pending, True))
        elif operator == "finish":
            finished = True
            trace.append(TaoStep(text, operator, argument, "finished", True))
        else:
            trace.append(TaoStep(text, operator, argument, "unknown operator", False))
    answer = _derive_answer(question, observations, pending)
    return answer, trace


def _derive_answer(
    question: Question, observations: list[tuple[str, str, str]], pending: str | None
) -> str:
    meta = question.meta_dict()
    kind = meta.get("kind", "")
    attr = meta.get("attr", "")
    link = meta.get("link", "")
    entities = [e for e in meta.get("entities", "").split("|") if e]

    def observed(entity: str, attribute: str) -> str | None:
        for seen_entity, seen_attr, value in reversed(observations):
            if seen_entity == entity and seen_attr == attribute:
                return value
        return None

    if kind == "compare":
        values = [observed(e, attr) for e in entities]
        if len(values) == 2 and all(v is not None for v in values):
            return "yes" if values[0] == values[1] else "no"
        return pending if pending is not None else ""
    if kind == "pair":
        values = [observed(e, attr) for e in entities]
        return " ".join(v for v in values if v is not None)
    if kind == "value":
        return observed(entities[0], attr) or "" if entities else ""
    if kind in ("bridge", "bridge2"):
        # follow the link chain gathered so far, then read the attribute
        target = entities[0] if entities else ""
        hops = 1 if kind == "bridge" else 2
        for _ in range(hops):
            nxt = observed(target, link)
            if nxt is None:
                return ""
            target = nxt
        return observed(target, attr) or ""
    # unknown kind: fall back to the last observation
    return observations[-1][2] if observations else ""


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "mock"  # mock | http
    template_id: str = "synthetic"
    noise: float = 0.0
    seed: int = 0
    endpoint: str = ""
    model: str = ""
    auth_env: str = "RAGPLAN_API_KEY"
    timeout: float = 30.0
    max_retries: int = 2
    temperature: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if not 0.0 <= self.noise <= 1.0:
            raise ConfigError(f"noise must be in [0, 1], got {self.noise}")
        if not 0.0 < self.timeout <= threading.TIMEOUT_MAX:  # the longest a socket takes
            raise ConfigError(
                f"timeout must be > 0 and <= {threading.TIMEOUT_MAX:g}, got {self.timeout}")
        check_minimums(self, max_retries=0)


class MockBackend:
    """Deterministic planner: renders the prompt, reads the path back out
    of it, and executes the path against the world."""

    def __init__(self, world: World, config: BackendConfig = BackendConfig()):
        self.world = world
        self.config = config

    def plan(self, question: Question, path: InstructionPath | None) -> PlanResult:
        prompt = build_prompt(question.text, path, self.config.template_id)
        if path is None:
            return PlanResult(answer="", ok=True, prompt=prompt)
        serialized = extract_instruction_path(prompt)
        instructions = tuple(t for t in serialized.split(PATH_SEPARATOR) if t)
        # stable per-call seed so repeated evaluations agree
        digest = hashlib.blake2b(
            f"{self.config.seed}|{question.question_id}|{serialized}".encode("utf-8"),
            digest_size=4,
        ).digest()
        call_seed = int.from_bytes(digest, "little")
        answer, trace = mock_execute(
            self.world, question, instructions, self.config.noise, call_seed
        )
        return PlanResult(answer=answer, ok=True, trace=trace, prompt=prompt)


def http_complete(config: BackendConfig, prompt: str) -> str:
    """POST a chat completion and return the first choice's text.

    A 5xx, a timeout, or a refused or dropped connection is retried at
    once, up to ``max_retries`` times; the last failure then raises
    BackendTimeoutError if it timed out, else BackendError. A 401 or 403
    raises AuthError at once. Any other status but 200 raises BackendError,
    a redirect too: a POST is not redirected. A reply that is not a
    completion with a string ``content`` raises MalformedResponseError.
    """
    # Imported here: a process without an HTTP backend never needs urllib.
    import urllib.error
    import urllib.request
    from http.client import HTTPException

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):  # the 3xx then raises HTTPError
            return None

    if not config.endpoint:
        raise ConfigError("http backend needs an endpoint URL")
    api_key = os.environ.get(config.auth_env, "")
    if not api_key:
        raise AuthError(f"no credential in ${config.auth_env}")
    headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
    body = json.dumps({
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
    }).encode("utf-8")
    opener = urllib.request.build_opener(NoRedirect)
    for _ in range(config.max_retries + 1):
        try:
            request = urllib.request.Request(config.endpoint, body, headers)
            with opener.open(request, timeout=config.timeout) as response:
                status, payload = response.status, response.read()
        except urllib.error.HTTPError as exc:
            status, payload = exc.code, b""
            exc.close()
        except (OSError, HTTPException) as exc:
            reason = getattr(exc, "reason", exc)  # a URLError wraps the socket error
            error = (BackendTimeoutError(f"request timed out after {config.timeout}s")
                     if isinstance(reason, TimeoutError) else
                     BackendError(f"request failed: {reason!r}"))
            continue
        except ValueError as exc:
            raise BackendError(f"cannot send to {config.endpoint!r}: {exc}") from exc
        if status in (401, 403):
            raise AuthError(f"endpoint rejected the credential ({status})")
        if status >= 500:
            error = BackendError(f"server error {status}")
            continue
        if status != 200:
            raise BackendError(f"unexpected status {status}")
        try:
            content = json.loads(payload)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"unparseable completion payload: {exc}") from exc
        if not isinstance(content, str):
            raise MalformedResponseError(f"completion content is {type(content).__name__}")
        return content
    raise error


class HttpBackend:
    """Live-LLM planner over an OpenAI-style chat completions endpoint."""

    def __init__(self, config: BackendConfig):
        if config.kind != "http":
            raise ConfigError("HttpBackend needs a config with kind='http'")
        self.config = config

    def plan(self, question: Question, path: InstructionPath | None) -> PlanResult:
        prompt = build_prompt(question.text, path, self.config.template_id)
        try:
            text = http_complete(self.config, prompt)
        except AuthError:
            # A missing or rejected credential fails every call alike.
            raise
        except BackendError as exc:
            return PlanResult(answer="", ok=False, prompt=prompt, error=str(exc))
        actions = parse_actions(text)
        answer = ""
        for operator, argument in actions:
            if operator.lower() == "finish":
                answer = argument
        if not answer and not actions:
            answer = text.strip()
        return PlanResult(answer=answer, ok=True, prompt=prompt)


def make_backend(config: BackendConfig, world: World | None = None):
    if config.kind == "mock":
        if world is None:
            raise ConfigError("mock backend needs a world")
        return MockBackend(world, config)
    return HttpBackend(config)
