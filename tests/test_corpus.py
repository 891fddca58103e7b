import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ragplan.corpus import (
    InstructionPath,
    MetricKind,
    Question,
    TaskCorpus,
    corrupt_paths,
    load_corpus_jsonl,
    save_corpus_jsonl,
    score,
    split_by_hint,
    split_support_query,
)
from ragplan.errors import DataError, MalformedFileError


def make_question(task_id, question_id, text="q", answer="a", instructions=("Search[x]",)):
    path = InstructionPath(tuple(instructions), task_id, question_id, 1.0)
    return Question(question_id, task_id, text, answer, paths=(path,))


def make_corpus(task_sizes):
    corpus = TaskCorpus()
    for task_id, size in task_sizes.items():
        for i in range(size):
            corpus.add(make_question(task_id, f"{task_id}-q{i:03d}"))
    return corpus


class TestScore:
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_identical_strings_score_one(self, metric):
        assert score(metric, "Penelope Spheeris", "Penelope Spheeris") == 1.0

    def test_disjoint_tokens_score_zero(self):
        assert score(MetricKind.TOKEN_F1, "alpha beta", "gamma delta") == 0.0
        assert score(MetricKind.BINARY_SUCCESS, "alpha", "gamma") == 0.0

    def test_hand_computed_f1(self):
        # pred tokens {penelope, spheeris, was, older}, truth {penelope, spheeris}:
        # precision 2/4, recall 2/2, F1 = 2*(0.5*1)/(1.5) = 0.6667
        value = score(MetricKind.TOKEN_F1, "Penelope Spheeris was older", "Penelope Spheeris")
        assert value == pytest.approx(0.6667, abs=1e-4)

    def test_f1_normalization_strips_articles_and_punctuation(self):
        assert score(MetricKind.TOKEN_F1, "The Ed Wood.", "ed wood") == 1.0

    def test_binary_success_exact_match_after_normalization(self):
        assert score(MetricKind.BINARY_SUCCESS, "Yes.", "yes") == 1.0
        assert score(MetricKind.BINARY_SUCCESS, "yes indeed", "yes") == 0.0

    def test_reward_score_passthrough(self):
        assert score(MetricKind.REWARD_SCORE, "0.75", "anything") == 0.75
        assert score(MetricKind.REWARD_SCORE, "2.0", "x") == 1.0
        assert score(MetricKind.REWARD_SCORE, "same", "same") == 1.0
        assert score(MetricKind.REWARD_SCORE, "other", "same") == 0.0

    @pytest.mark.parametrize("predicted", ["NAN", "nan", "inf", "-Infinity"])
    def test_non_finite_reward_falls_back_to_exact_match(self, predicted):
        assert score(MetricKind.REWARD_SCORE, predicted, "") == 0.0
        assert score(MetricKind.REWARD_SCORE, predicted, predicted.lower()) == 1.0

    @given(st.text(max_size=30), st.text(max_size=30))
    @example("NAN", "")
    @example("inf", "")
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_self_scoring(self, predicted, truth):
        for metric in MetricKind:
            value = score(metric, predicted, truth)
            assert 0.0 <= value <= 1.0
        if truth.strip():
            assert score(MetricKind.TOKEN_F1, truth, truth) == 1.0


class TestSplit:
    def test_ratio_one_empties_query(self):
        support, query = split_support_query(make_corpus({"T1": 5}), ratio=1.0, seed=1)
        assert support.question_count() == 5
        assert query.is_empty()

    def test_partition(self):
        corpus = make_corpus({"T1": 7, "T2": 4})
        support, query = split_support_query(corpus, ratio=0.6, seed=3)
        all_ids = {q.question_id for q in corpus.iter_questions()}
        support_ids = {q.question_id for q in support.iter_questions()}
        query_ids = {q.question_id for q in query.iter_questions()}
        assert support_ids | query_ids == all_ids
        assert support_ids & query_ids == set()

    def test_sixty_forty_counts(self):
        support, query = split_support_query(make_corpus({"T1": 10}), ratio=0.6, seed=0)
        assert support.question_count() == 6
        assert query.question_count() == 4

    def test_deterministic_given_seed(self):
        corpus = make_corpus({"T1": 9, "T2": 6})
        a = split_support_query(corpus, ratio=0.6, seed=11)
        b = split_support_query(corpus, ratio=0.6, seed=11)
        assert [q.question_id for q in a[0].iter_questions()] == [
            q.question_id for q in b[0].iter_questions()
        ]

    def test_both_sides_nonempty_for_small_tasks(self):
        support, query = split_support_query(make_corpus({"T1": 2}), ratio=0.9, seed=5)
        assert support.question_count() == 1
        assert query.question_count() == 1

    def test_invalid_ratio(self):
        with pytest.raises(DataError):
            split_support_query(make_corpus({"T1": 2}), ratio=1.5, seed=0)

    def test_split_by_hint(self):
        corpus = TaskCorpus()
        q1 = make_question("T1", "q1")
        corpus.add(Question("q2", "T1", "t", "a", paths=q1.paths, split_hint="query"))
        corpus.add(q1)
        support, query = split_by_hint(corpus)
        assert [q.question_id for q in support.iter_questions()] == ["q1"]
        assert [q.question_id for q in query.iter_questions()] == ["q2"]


class TestCorruption:
    def test_zero_fraction_is_identity(self):
        corpus = make_corpus({"T1": 4})
        out = corrupt_paths(corpus, 0.0, seed=1)
        assert [q.paths for q in out.iter_questions()] == [
            q.paths for q in corpus.iter_questions()
        ]

    def test_full_fraction_changes_arguments(self):
        corpus = TaskCorpus()
        corpus.add(make_question("T1", "q1", instructions=("Search[alpha]", "Lookup[color]")))
        corpus.add(make_question("T1", "q2", instructions=("Search[beta]", "Lookup[size]")))
        out = corrupt_paths(corpus, 1.0, seed=2)
        for before, after in zip(corpus.iter_questions(), out.iter_questions()):
            assert after.paths[0].instructions != before.paths[0].instructions
            # operators survive corruption
            assert [t.split("[")[0] for t in after.paths[0].instructions] == [
                t.split("[")[0] for t in before.paths[0].instructions
            ]
            assert after.paths[0].success_metric == before.paths[0].success_metric

    def test_deterministic(self):
        corpus = make_corpus({"T1": 6})
        a = corrupt_paths(corpus, 0.5, seed=9)
        b = corrupt_paths(corpus, 0.5, seed=9)
        assert [q.paths for q in a.iter_questions()] == [q.paths for q in b.iter_questions()]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        corpus = TaskCorpus(metadata={})
        corpus.add(
            Question(
                "q1",
                "T1",
                "What is the color of Verona Finch?",
                "amber",
                paths=(
                    InstructionPath(
                        ("Search[Verona Finch]", "Lookup[color]", "Finish"), "T1", "q1", 1.0
                    ),
                ),
                split_hint="support",
                meta=(("kind", "value"),),
            )
        )
        dest = tmp_path / "corpus.jsonl"
        save_corpus_jsonl(corpus, dest)
        loaded = load_corpus_jsonl(dest)
        original = next(corpus.iter_questions())
        restored = next(loaded.iter_questions())
        assert restored == original

    def test_malformed_line_rejected(self, tmp_path):
        dest = tmp_path / "bad.jsonl"
        dest.write_text('{"task_id": "T1"\n', encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_corpus_jsonl(dest)

    def test_missing_field_rejected(self, tmp_path):
        dest = tmp_path / "bad.jsonl"
        dest.write_text('{"task_id": "T1", "question_id": "q1"}\n', encoding="utf-8")
        with pytest.raises(MalformedFileError):
            load_corpus_jsonl(dest)


class TestInstructionPath:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            InstructionPath((), "T1", "q1")

    def test_serialized_uses_arrow_separator(self):
        path = InstructionPath(("Search[a]", "Lookup[b]"), "T1", "q1")
        assert path.serialized() == "Search[a] -> Lookup[b]"

    def test_correctness_threshold(self):
        assert InstructionPath(("x",), "T1", "q1", 1.0).is_correct
        assert not InstructionPath(("x",), "T1", "q1", 0.8).is_correct
