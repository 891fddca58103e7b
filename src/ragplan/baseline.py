"""Verbatim-retrieval ablation: whole stored paths, no recombination.

Mirrors experience-replay retrieval baselines: every support path is
stored intact and a query is answered with the stored path of the most
similar stored question. Serves as the control for the enlargeability
and noise-robustness comparisons.
"""

from __future__ import annotations

import numpy as np

from .corpus import InstructionPath, MetricKind, Question, TaskCorpus, score
from .embedding import EmbedderConfig, cosine_rows, embed_text, row_norms
from .errors import NotFoundError


class VerbatimRetriever:
    """Every support question with a gold path, its embedding kept as one
    float32 row; ``select`` scores them all with one ``cosine_rows``."""

    def __init__(self, support: TaskCorpus, embedder: EmbedderConfig):
        self.embedder = embedder
        stored = [q for q in support.iter_questions() if q.gold_path is not None]
        self.paths: list[InstructionPath] = [q.gold_path for q in stored]
        vectors = [embed_text(q.text, embedder, transient=True) for q in stored]
        values = [v.values for v in vectors]
        self.rows = np.array(values, dtype=np.float32).reshape(-1, embedder.dimension)
        self.norms = row_norms(self.rows.astype(np.float64))
        self.valid = np.array([v.valid for v in vectors], dtype=bool)

    def select(self, question_text: str) -> InstructionPath:
        """The stored path of the most similar stored question; ties go to
        the lowest index."""
        if not self.paths:
            raise NotFoundError("no stored cases to retrieve from")
        query = embed_text(question_text, self.embedder, transient=True)
        return self.paths[int(np.argmax(cosine_rows(query, self.rows, self.norms, self.valid)))]


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
