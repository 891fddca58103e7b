"""The verbatim-retrieval ablation against a per-case loop: one ``psi``
over the stored questions' counts must pick the case of the highest
scalar ψ, with ties going to the lowest index."""

import pytest

from ragplan.backend import PlanResult
from ragplan.baseline import VerbatimRetriever, evaluate_verbatim
from ragplan.corpus import InstructionPath, MetricKind, Question, TaskCorpus, split_by_hint
from ragplan.embedding import EmbedderConfig
from ragplan.errors import NotFoundError
from ragplan.world import demo_spec, gen_world

from scan_reference import psi

EMBEDDER = EmbedderConfig(dimension=256)


def loop_select(support, embedder, text):
    """The retriever as a loop: the gold path of the stored question with
    the highest scalar ``psi``, the first one on a tie."""
    cases = [q for q in support.iter_questions() if q.gold_path is not None]
    best = max(range(len(cases)), key=lambda i: (psi(text, cases[i].text, embedder), -i))
    return cases[best].gold_path


def corpus_of(questions):
    corpus = TaskCorpus()
    for question in questions:
        corpus.add(question)
    return corpus


def test_select_matches_the_per_case_cosine_loop_on_the_demo():
    _, corpus = gen_world(demo_spec(), seed=7)
    support, query = split_by_hint(corpus)
    retriever = VerbatimRetriever(support, EMBEDDER)
    texts = [q.text for q in query.iter_questions()] + ["", "?"]
    for text in texts:
        assert retriever.select(text) is loop_select(support, EMBEDDER, text)


def test_ties_go_to_the_lowest_index():
    def stored(qid, text):
        path = InstructionPath((f"Search[{qid}]",), "T1", qid)
        return Question(qid, "T1", text, "a", paths=(path,))

    support = corpus_of([stored("q1", "hue of amber fox"), stored("q2", "hue of amber fox"),
                         stored("q3", "era of birch owl")])
    retriever = VerbatimRetriever(support, EMBEDDER)
    assert retriever.select("hue of amber fox").question_id == "q1"
    # A query without features scores every case 0, so the first case wins.
    assert retriever.select("?").question_id == "q1"


def test_empty_support_has_nothing_to_select():
    with pytest.raises(NotFoundError):
        VerbatimRetriever(TaskCorpus(), EMBEDDER).select("anything")


class RewardBackend:
    """A stub planner that answers every question "blue" and reports a
    reward of its own, as a live backend may, or fails on request."""

    def __init__(self, ok=True):
        self.ok = ok

    def plan(self, question, path):
        return PlanResult(answer="blue", ok=self.ok, reward=0.25)


def test_verbatim_scores_a_reported_reward_as_the_pipeline_does():
    path = InstructionPath(("Search[q1]",), "T1", "q1")
    support = corpus_of([Question("q1", "T1", "hue of amber fox", "blue", paths=(path,))])
    query = corpus_of([Question("q2", "T1", "hue of amber fox", "blue")])
    # Under reward_score the backend's reward is the score, not the match
    # of its answer; other metrics score the answer, and a failed plan 0.
    for metric, ok, delta in ((MetricKind.REWARD_SCORE, True, 0.25),
                              (MetricKind.TOKEN_F1, True, 1.0),
                              (MetricKind.REWARD_SCORE, False, 0.0)):
        [record] = evaluate_verbatim(support, query, RewardBackend(ok), metric, EMBEDDER)
        assert (record["delta"], record["failed"]) == (delta, not ok)
