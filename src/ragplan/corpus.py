"""Task corpora, support/query splitting, and effectiveness metrics.

A corpus maps task ids to question lists. Each question carries one or
more instruction paths with a success metric; paths at or above the
correctness threshold are the ones worth storing in a graph. Corpora
serialize as JSONL, one record per question.
"""

from __future__ import annotations

import collections
import json
import math
import re
import string
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, MalformedFileError
from .serialize import read_value

CORRECT_PATH_THRESHOLD = 1.0
PATH_SEPARATOR = " -> "  # joins a serialized path's instructions


@dataclass(frozen=True)
class InstructionPath:
    """An ordered instruction sequence tied to one question of one task."""

    instructions: tuple[str, ...]
    task_id: str
    question_id: str
    success_metric: float = 1.0

    def __post_init__(self) -> None:
        if not self.instructions:
            raise DataError("instruction path must hold at least one instruction")
        if any(not text.strip() for text in self.instructions):
            raise DataError("instruction path holds an empty instruction")

    def serialized(self) -> str:
        return PATH_SEPARATOR.join(self.instructions)

    @property
    def is_correct(self) -> bool:
        return self.success_metric >= CORRECT_PATH_THRESHOLD


@dataclass(frozen=True)
class Question:
    question_id: str
    task_id: str
    text: str
    answer: str
    paths: tuple[InstructionPath, ...] = ()
    # Optional generator annotations: designated split and question kind.
    split_hint: str | None = None
    meta: tuple[tuple[str, str], ...] = ()

    @property
    def gold_path(self) -> InstructionPath | None:
        for path in self.paths:
            if path.is_correct:
                return path
        return None

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)


@dataclass
class TaskCorpus:
    tasks: dict[str, list[Question]] = field(default_factory=dict)
    metadata: dict[str, str] = field(default_factory=dict)

    def add(self, question: Question) -> None:
        self.tasks.setdefault(question.task_id, []).append(question)

    def task_ids(self) -> list[str]:
        return sorted(self.tasks)

    def questions(self, task_id: str) -> list[Question]:
        return list(self.tasks.get(task_id, []))

    def iter_questions(self):
        """Canonical order: task id, then question id."""
        for task_id in self.task_ids():
            for question in sorted(self.tasks[task_id], key=lambda q: q.question_id):
                yield question

    def question_count(self) -> int:
        return sum(len(qs) for qs in self.tasks.values())

    def is_empty(self) -> bool:
        return self.question_count() == 0


class MetricKind(str, Enum):
    TOKEN_F1 = "token_f1"
    BINARY_SUCCESS = "binary_success"
    REWARD_SCORE = "reward_score"


_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def _normalize_answer(text: str) -> str:
    text = text.lower().translate(_PUNCT_TABLE)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def token_f1(predicted: str, truth: str) -> float:
    pred_tokens = _normalize_answer(predicted).split()
    gold_tokens = _normalize_answer(truth).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    common = collections.Counter(pred_tokens) & collections.Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def score(metric: MetricKind, predicted: str, truth: str) -> float:
    """Effectiveness of a predicted answer against the ground truth, in [0, 1]."""
    metric = MetricKind(metric)
    if metric is MetricKind.TOKEN_F1:
        return token_f1(predicted, truth)
    if metric is MetricKind.BINARY_SUCCESS:
        return float(_normalize_answer(predicted) == _normalize_answer(truth))
    # Reward scores are produced by the backend itself; when the predicted
    # string is that numeric reward, pass it through, otherwise (a
    # non-numeric string, or "nan" or "inf") fall back to exact match so
    # plain answers still score sensibly.
    try:
        reward = float(predicted)
    except ValueError:
        reward = math.nan
    if math.isfinite(reward):
        return float(np.clip(reward, 0.0, 1.0))
    return float(_normalize_answer(predicted) == _normalize_answer(truth))


def split_support_query(
    corpus: TaskCorpus, ratio: float = 0.6, seed: int = 0
) -> tuple[TaskCorpus, TaskCorpus]:
    """Per-task random split; the first part holds ``ratio`` of each task.

    Deterministic given the seed. Tasks with at least two questions land
    on both sides.
    """
    if not 0.0 <= ratio <= 1.0:
        raise DataError(f"split ratio must be in [0, 1], got {ratio}")
    support = TaskCorpus(metadata=dict(corpus.metadata))
    query = TaskCorpus(metadata=dict(corpus.metadata))
    rng = np.random.default_rng(seed)
    for task_id in corpus.task_ids():
        questions = sorted(corpus.tasks[task_id], key=lambda q: q.question_id)
        order = rng.permutation(len(questions))
        n_support = int(round(ratio * len(questions)))
        if len(questions) >= 2:
            n_support = min(max(n_support, 1), len(questions) - 1)
        if ratio == 1.0:
            n_support = len(questions)
        elif ratio == 0.0:
            n_support = 0
        chosen = set(order[:n_support].tolist())
        for idx, question in enumerate(questions):
            (support if idx in chosen else query).add(question)
    return support, query


def split_by_hint(corpus: TaskCorpus) -> tuple[TaskCorpus, TaskCorpus]:
    """Split along generator-designated roles; unhinted questions go to support."""
    support = TaskCorpus(metadata=dict(corpus.metadata))
    query = TaskCorpus(metadata=dict(corpus.metadata))
    for question in corpus.iter_questions():
        (query if question.split_hint == "query" else support).add(question)
    return support, query


def corrupt_paths(corpus: TaskCorpus, fraction: float, seed: int) -> TaskCorpus:
    """Corrupt the gold paths of a fraction of questions, keeping their
    claimed success metric.

    Models erroneous historical paths: each corrupted instruction keeps
    its operator but gets a wrong argument drawn from the arguments other
    instructions of the same operator use, so the result stays a
    plausible trajectory that fails its question.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DataError(f"corruption fraction must be in [0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    arguments_by_operator: dict[str, set[str]] = {}
    for question in corpus.iter_questions():
        for path in question.paths:
            for text in path.instructions:
                match = re.match(r"^(\w+)\[(.+)\]$", text)
                if match:
                    arguments_by_operator.setdefault(match.group(1), set()).add(match.group(2))
    pools = {op: sorted(args) for op, args in arguments_by_operator.items()}

    def corrupt_text(text: str) -> str:
        match = re.match(r"^(\w+)\[(.+)\]$", text)
        if not match:
            return text
        operator, argument = match.group(1), match.group(2)
        wrong = [a for a in pools.get(operator, []) if a != argument]
        if not wrong:
            return text
        return f"{operator}[{wrong[int(rng.integers(len(wrong)))]}]"

    out = TaskCorpus(metadata=dict(corpus.metadata))
    for question in corpus.iter_questions():
        if float(rng.random()) < fraction:
            new_paths = tuple(
                replace(path, instructions=tuple(corrupt_text(t) for t in path.instructions))
                for path in question.paths
            )
            out.add(replace(question, paths=new_paths))
        else:
            out.add(question)
    return out


def save_corpus_jsonl(corpus: TaskCorpus, destination: str | Path) -> None:
    with open(destination, "w", encoding="utf-8") as handle:
        for question in corpus.iter_questions():
            record = {
                "task_id": question.task_id,
                "question_id": question.question_id,
                "question_text": question.text,
                "answer": question.answer,
                "paths": [
                    {
                        "instructions": list(path.instructions),
                        "success_metric": path.success_metric,
                    }
                    for path in question.paths
                ],
            }
            if question.split_hint:
                record["split_hint"] = question.split_hint
            if question.meta:
                record["meta"] = question.meta_dict()
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_corpus_jsonl(source: str | Path) -> TaskCorpus:
    """The corpus ``save_corpus_jsonl`` wrote to ``source``; a line that is
    not such a record, or that repeats an earlier line's (task id,
    question id), raises ``MalformedFileError`` naming file and lines."""
    corpus = TaskCorpus()
    lines_of: dict[tuple[str, str], int] = {}
    try:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise MalformedFileError(f"cannot read corpus {source}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedFileError(f"{source}:{lineno}: invalid JSON: {exc}") from exc
        try:
            question = _read_question(record)
        except KeyError as exc:
            raise MalformedFileError(f"{source}:{lineno}: missing field {exc}") from exc
        except (ConfigError, DataError) as exc:  # a field of the wrong type is bad data
            raise MalformedFileError(f"{source}:{lineno}: malformed record: {exc}") from exc
        first = lines_of.setdefault((question.task_id, question.question_id), lineno)
        if first != lineno:
            raise MalformedFileError(
                f"{source}:{lineno}: question {question.task_id}/{question.question_id} "
                f"repeats line {first}"
            )
        corpus.add(question)
    return corpus


def _read_question(record) -> Question:
    """The question a record describes, each field of the type
    ``save_corpus_jsonl`` writes."""
    if type(record) is not dict:
        raise DataError(f"a record must be a JSON object, got {record!r}")
    task_id = read_value(record, "task_id", str)
    question_id = read_value(record, "question_id", str)
    paths = []
    for path in _optional(record, "paths", list, ()):
        if type(path) is not dict:
            raise DataError(f"a path must be a JSON object, got {path!r}")
        instructions = read_value(path, "instructions", tuple[str, ...])
        metric = _optional(path, "success_metric", float, 1.0)
        paths.append(InstructionPath(instructions, task_id, question_id, metric))
    meta = _optional(record, "meta", dict, {})
    if not all(type(value) is str for value in meta.values()):
        raise DataError(f"meta values must be strings, got {meta!r}")
    return Question(
        question_id=question_id,
        task_id=task_id,
        text=read_value(record, "question_text", str),
        answer=read_value(record, "answer", str),
        paths=tuple(paths),
        split_hint=_optional(record, "split_hint", str, None),
        meta=tuple(sorted(meta.items())),
    )


def _optional(doc: dict, name: str, hint, default):
    """``read_value`` of a field ``save_corpus_jsonl`` may leave out."""
    return read_value(doc, name, hint) if name in doc else default
