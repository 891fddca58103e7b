"""The verbatim-retrieval ablation against the per-case cosine loop it
replaced: one ``cosine_rows`` over the stored questions must pick the
same case, with ties going to the lowest index."""

import pytest

from ragplan.baseline import VerbatimRetriever
from ragplan.corpus import InstructionPath, Question, TaskCorpus, split_by_hint
from ragplan.embedding import EmbedderConfig, cosine, embed_text
from ragplan.errors import NotFoundError
from ragplan.world import demo_spec, gen_world

EMBEDDER = EmbedderConfig(dimension=256)


def loop_select(support, embedder, text):
    """The retriever as a loop: the gold path of the stored question with
    the highest ``cosine``, the first one on a tie."""
    cases = [q for q in support.iter_questions() if q.gold_path is not None]
    query = embed_text(text, embedder, transient=True)
    best = max(
        range(len(cases)),
        key=lambda i: (cosine(query, embed_text(cases[i].text, embedder, transient=True)), -i),
    )
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
    # An invalid query scores every case 0, so the first case wins.
    assert retriever.select("?").question_id == "q1"


def test_empty_support_has_nothing_to_select():
    with pytest.raises(NotFoundError):
        VerbatimRetriever(TaskCorpus(), EMBEDDER).select("anything")
