"""Verbatim-retrieval ablation: whole stored paths, no recombination.

Mirrors experience-replay retrieval baselines: every support path is
stored intact and a query is answered with the stored path of the most
similar stored question. Serves as the control for the enlargeability
and noise-robustness comparisons.
"""

from __future__ import annotations

import numpy as np

from .corpus import InstructionPath, MetricKind, Question, TaskCorpus
from .embedding import EmbedderConfig, embed_counts, psi, text_counts
from .errors import NotFoundError
from .meta import plan_delta


class VerbatimRetriever:
    """Every support question with a gold path, its integer counts kept as
    one float64 row with their squared norm; ``select`` scores them all by
    one ``psi``."""

    def __init__(self, support: TaskCorpus, embedder: EmbedderConfig):
        self.embedder = embedder
        stored = [q for q in support.iter_questions() if q.gold_path is not None]
        self.paths: list[InstructionPath] = [q.gold_path for q in stored]
        counts = [embed_counts(q.text, embedder) for q in stored]
        self.rows = np.array(counts, dtype=np.float64).reshape(-1, embedder.dimension)
        self.sqnorms = np.vecdot(self.rows, self.rows)

    def select(self, question_text: str) -> InstructionPath:
        """The stored path of the most similar stored question; ties go to
        the lowest index."""
        if not self.paths:
            raise NotFoundError("no stored cases to retrieve from")
        query = text_counts(question_text, self.embedder).astype(np.float64)
        return self.paths[int(np.argmax(psi(self.rows @ query, query @ query, self.sqnorms)))]


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
        delta = plan_delta(result, metric, question.answer)
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
