"""Verbatim-retrieval ablation: whole stored paths, no recombination.

Mirrors experience-replay retrieval baselines: every support path is
stored intact and a query is answered with the stored path of the most
similar stored question. Serves as the control for the enlargeability
and noise-robustness comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import InstructionPath, MetricKind, Question, TaskCorpus, score
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from .errors import NotFoundError


@dataclass
class _StoredCase:
    question_embedding: EmbeddingVector
    path: InstructionPath


class VerbatimRetriever:
    def __init__(self, support: TaskCorpus, embedder: EmbedderConfig):
        self.embedder = embedder
        self.cases: list[_StoredCase] = []
        for question in support.iter_questions():
            gold = question.gold_path
            if gold is not None:
                self.cases.append(
                    _StoredCase(embed_text(question.text, embedder, transient=True), gold)
                )

    def select(self, question_text: str) -> InstructionPath:
        if not self.cases:
            raise NotFoundError("no stored cases to retrieve from")
        query = embed_text(question_text, self.embedder, transient=True)
        best_index = max(
            range(len(self.cases)),
            key=lambda i: (cosine(query, self.cases[i].question_embedding), -i),
        )
        return self.cases[best_index].path


def evaluate_verbatim(
    support: TaskCorpus,
    query: TaskCorpus,
    backend,
    metric: MetricKind,
    embedder: EmbedderConfig,
) -> list[dict]:
    """Per-question records for the ablation over a query corpus."""
    retriever = VerbatimRetriever(support, embedder)
    records = []
    for question in query.iter_questions():
        try:
            path = retriever.select(question.text)
        except NotFoundError:
            records.append(_record(question, None, "", 0.0, failed=True))
            continue
        result = backend.plan(question, path)
        delta = score(metric, result.answer, question.answer) if result.ok else 0.0
        records.append(_record(question, path, result.answer, delta, failed=not result.ok))
    return records


def _record(question: Question, path, answer: str, delta: float, failed: bool) -> dict:
    return {
        "task_id": question.task_id,
        "question_id": question.question_id,
        "selected_path": path.serialized() if path is not None else "",
        "answer": answer,
        "delta": delta,
        "failed": failed,
    }
