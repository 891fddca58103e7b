"""Seeded input generators for the benchmark workloads.

Each generator takes the workload seed and returns plain corpora,
questions or query texts; the program under test receives only these
generated inputs. The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

from ragplan.corpus import InstructionPath, Question, TaskCorpus
from ragplan.world import SyntheticWorldSpec, World, gen_task_corpus

OPERATORS = ["Search", "Lookup", "Check", "Fetch"]
WORDS = ["amber", "birch", "cobalt", "dune", "ember", "fjord", "grove", "heath",
         "iris", "jade", "kelp", "larch", "maple", "night", "oak", "pine",
         "quill", "reed", "slate", "thorn"]

# The world every demo workload uses: the acceptance suite's demo world.
DEMO_WORLD_SPEC = SyntheticWorldSpec(recombination_fraction=0.3)
DEMO_WORLD_SEED = 7
TRAINED_FAMILIES = 5


def _corpus_seed(seed: int, stream: int, index: int) -> int:
    """Generator seeds of one workload seed: disjoint streams, none equal to
    the training seed."""
    return 1_000 + seed * 3_000_000 + index * 3 + stream


def _random_path(rng: np.random.Generator) -> tuple[str, ...]:
    texts = []
    for _ in range(int(rng.integers(2, 6))):
        op = OPERATORS[int(rng.integers(len(OPERATORS)))]
        arg = " ".join(WORDS[int(rng.integers(len(WORDS)))] for _ in range(int(rng.integers(1, 3))))
        texts.append(f"{op}[{arg}]")
    return tuple(t for i, t in enumerate(texts) if i == 0 or t != texts[i - 1])


def random_corpus(seed: int, n_instructions: int, prefix: str = "q") -> TaskCorpus:
    """Random instruction paths over six tasks, shaped like the acceptance
    suite's corpus, with question ids unique under ``prefix``."""
    rng = np.random.default_rng([seed, n_instructions])
    corpus = TaskCorpus()
    total = 0
    for qi in itertools.count(1):
        if total >= n_instructions:
            break
        texts = _random_path(rng)
        qid = f"{prefix}{qi:05d}"
        task = f"T{qi % 6}"
        corpus.add(Question(qid, task, f"question {prefix}{qi}", "answer",
                            paths=(InstructionPath(texts, task, qid, 1.0),)))
        total += len(texts)
    return corpus


def index_queries(seed: int):
    """Endless (query text, reference path) pairs for graph reads.

    A query is a fresh random path with its steps joined into one text;
    the path it was made from is the reference its retrieved path is
    scored against. Such queries resemble the stored instructions, so the
    untrained policy walks deep: about 48 node visits per read.
    """
    rng = np.random.default_rng([seed, 7001])
    for qi in itertools.count():
        texts = _random_path(rng)
        yield " ".join(texts), InstructionPath(texts, "query", f"r{qi:05d}", 1.0)


def index_write_batches(seed: int, n_instructions: int):
    """Endless small corpora of new paths, each with its own id prefix."""
    for batch in itertools.count():
        yield random_corpus(_corpus_seed(seed, 1, batch), n_instructions, prefix=f"w{batch:03d}-")


def fresh_questions(world: World, seed: int, per_corpus: int = 6):
    """Endless questions on the trained families from corpora the bundle
    never saw (every seed differs from the training seed).

    Only a few questions come from each generated corpus: questions of one
    corpus share entities, so many small draws keep the mean answer score
    of a run close to that of another seed.
    """
    families = world.attributes[:TRAINED_FAMILIES]
    for batch in itertools.count():
        corpus_seed = _corpus_seed(seed, 0, batch)
        questions = list(gen_task_corpus(world, families, seed=corpus_seed).iter_questions())
        picked = np.random.default_rng(corpus_seed).choice(len(questions), per_corpus,
                                                           replace=False)
        yield from (questions[i] for i in sorted(picked))


def fresh_support_batches(world: World, seed: int, size: int):
    """Endless batches of ``size`` solved questions to ingest into the graph."""
    families = world.attributes[:TRAINED_FAMILIES]
    batch: list[Question] = []
    for round_ in itertools.count():
        corpus = gen_task_corpus(world, families, seed=_corpus_seed(seed, 1, round_))
        for question in corpus.iter_questions():
            if question.split_hint != "support":
                continue
            batch.append(question)
            if len(batch) == size:
                out = TaskCorpus()
                for q in batch:
                    out.add(q)
                yield out
                batch = []
