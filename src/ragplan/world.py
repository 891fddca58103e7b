"""Synthetic planning worlds and the corpora they induce.

A world is a table of named entities with attribute values; some
attributes link to other entities so multi-hop questions exist. Each
value attribute defines one task family. Generated questions come with
gold instruction paths over a closed vocabulary (Search, Lookup,
Compare, Finish) and a designated support/query role. A configurable
fraction of query questions are recombinations: their gold path never
occurs in the support set, but every edge of it does once the support
paths are merged into a graph, because identical lookup instructions
share a node.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import InstructionPath, Question, TaskCorpus
from .errors import ConfigError, MalformedFileError, SpecError
from .serialize import read_fields, read_versioned, write_versioned

WORLD_KIND = "synthetic-world"

# Attribute words are chosen so that lookup instructions for different
# attributes stay clearly below the default merge threshold while a
# question mentioning an attribute ranks its own lookup first.
ATTRIBUTE_POOL = [
    "wingspan",
    "doctrine",
    "insignia",
    "vocation",
    "heritage",
    "timbre",
    "forging",
    "regalia",
    "garnish",
    "lantern",
]
LINK_ATTRIBUTES = ["mentor", "rival"]

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SyntheticWorldSpec:
    entity_count: int = 24
    attribute_count: int = 6
    task_family_count: int = 5
    hop_range: tuple[int, int] = (1, 2)
    recombination_fraction: float = 0.0
    vocabulary_seed: int = 0
    # per-family question budget
    value_support: int = 2
    pair_support: int = 3
    compare_support: int = 1
    bridge_support: int = 1
    query_per_family: int = 6

    def __post_init__(self) -> None:
        lo, hi = self.hop_range
        if lo < 1 or lo > hi:
            raise SpecError(f"invalid hop range {self.hop_range}")
        if not 0.0 <= self.recombination_fraction <= 1.0:
            raise SpecError(
                f"recombination fraction must be in [0, 1], got {self.recombination_fraction}"
            )
        if self.recombination_fraction > 0.0 and hi < 2:
            raise SpecError("recombination needs multi-hop questions; raise hop_range")
        if self.task_family_count > self.attribute_count:
            raise SpecError("more task families than attributes")
        if self.attribute_count > len(ATTRIBUTE_POOL):
            raise SpecError(f"at most {len(ATTRIBUTE_POOL)} attributes are supported")
        if self.entity_count < 2 * self.pair_support + 2:
            raise SpecError("not enough entities for the pair questions per family")

    def to_json(self) -> dict:
        return {
            "entity_count": self.entity_count,
            "attribute_count": self.attribute_count,
            "task_family_count": self.task_family_count,
            "hop_range": list(self.hop_range),
            "recombination_fraction": self.recombination_fraction,
            "vocabulary_seed": self.vocabulary_seed,
            "value_support": self.value_support,
            "pair_support": self.pair_support,
            "compare_support": self.compare_support,
            "bridge_support": self.bridge_support,
            "query_per_family": self.query_per_family,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SyntheticWorldSpec":
        return read_fields(cls, doc)


@dataclass
class World:
    entities: dict[str, dict[str, str]]
    attributes: list[str]
    link_attributes: list[str]
    spec: SyntheticWorldSpec
    seed: int

    def value(self, entity: str, attribute: str) -> str | None:
        return self.entities.get(entity, {}).get(attribute)

    def world_hash(self) -> str:
        canonical = json.dumps(self.entities, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _word(rng: np.random.Generator, syllables: int) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
        parts.append(_VOWELS[int(rng.integers(len(_VOWELS)))])
    if rng.random() < 0.5:
        parts.append(_CONSONANTS[int(rng.integers(len(_CONSONANTS)))])
    return "".join(parts)


def _unique_words(rng: np.random.Generator, count: int, syllables: int) -> list[str]:
    words: list[str] = []
    seen = set()
    while len(words) < count:
        word = _word(rng, syllables)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


VALUE_PHRASINGS = [
    "What is the {attr} of {e1}?",
    "Tell me the {attr} of {e1}.",
    "Find the {attr} of {e1}.",
]
PAIR_PHRASINGS = [
    "What are the {attr} values of {e1} and {e2}?",
    "List the {attr} of {e1} and the {attr} of {e2}.",
    "Report the {attr} for both {e1} and {e2}.",
]
COMPARE_PHRASINGS = [
    "Do {e1} and {e2} share the same {attr}?",
    "Is the {attr} of {e1} equal to the {attr} of {e2}?",
]
BRIDGE_PHRASINGS = [
    "What is the {attr} of the {link} of {e1}?",
    "Find the {attr} of the {link} of {e1}.",
]
BRIDGE2_PHRASINGS = [
    "What is the {attr} of the {link} of the {link} of {e1}?",
]


def _meta(kind: str, attr: str, entities: list[str], link: str = "") -> tuple:
    items = {"kind": kind, "attr": attr, "entities": "|".join(entities)}
    if link:
        items["link"] = link
    return tuple(sorted(items.items()))


def _gold_value(world: World, attr: str, e1: str, task: str, qid: str) -> tuple[str, InstructionPath]:
    answer = world.value(e1, attr)
    path = InstructionPath((f"Search[{e1}]", f"Lookup[{attr}]", "Finish"), task, qid, 1.0)
    return answer, path


def _gold_pair(world, attr, e1, e2, task, qid):
    answer = f"{world.value(e1, attr)} {world.value(e2, attr)}"
    path = InstructionPath(
        (f"Search[{e1}]", f"Lookup[{attr}]", f"Search[{e2}]", f"Lookup[{attr}]", "Finish"),
        task,
        qid,
        1.0,
    )
    return answer, path


def _gold_compare(world, attr, e1, e2, task, qid):
    answer = "yes" if world.value(e1, attr) == world.value(e2, attr) else "no"
    path = InstructionPath(
        (
            f"Search[{e1}]",
            f"Lookup[{attr}]",
            f"Search[{e2}]",
            f"Lookup[{attr}]",
            "Compare",
            "Finish",
        ),
        task,
        qid,
        1.0,
    )
    return answer, path


def _gold_bridge(world, attr, link, e1, task, qid, depth=1):
    target = e1
    hops = [f"Search[{e1}]"]
    for _ in range(depth):
        nxt = world.value(target, link)
        hops.extend([f"Lookup[{link}]", f"Search[{nxt}]"])
        target = nxt
    hops.extend([f"Lookup[{attr}]", "Finish"])
    answer = world.value(target, attr)
    return answer, InstructionPath(tuple(hops), task, qid, 1.0)


def build_world(spec: SyntheticWorldSpec, seed: int) -> World:
    """Entities with attribute values; link attributes exist whenever the
    spec allows multi-hop questions, whether or not any are generated."""
    vocab_rng = np.random.default_rng(spec.vocabulary_seed)
    rng = np.random.default_rng(seed)
    entity_words = _unique_words(vocab_rng, 2 * spec.entity_count, 2)
    entity_names = [
        f"{entity_words[2 * i]} {entity_words[2 * i + 1]}" for i in range(spec.entity_count)
    ]
    attributes = ATTRIBUTE_POOL[: spec.attribute_count]
    link_attributes = LINK_ATTRIBUTES[:1] if spec.hop_range[1] >= 2 else []
    value_vocab = {attr: _unique_words(vocab_rng, 10, 2) for attr in attributes}
    entities: dict[str, dict[str, str]] = {}
    for name in entity_names:
        record = {
            attr: value_vocab[attr][int(rng.integers(len(value_vocab[attr])))]
            for attr in attributes
        }
        for link in link_attributes:
            others = [e for e in entity_names if e != name]
            record[link] = others[int(rng.integers(len(others)))]
        entities[name] = record
    return World(
        entities=entities,
        attributes=attributes,
        link_attributes=link_attributes,
        spec=spec,
        seed=seed,
    )


def _family_questions(
    world: World, spec: SyntheticWorldSpec, attr: str, seed: int
) -> list[Question]:
    """All questions of one task family, each carrying its split hint."""
    rng = np.random.default_rng([seed, ATTRIBUTE_POOL.index(attr)])
    lo, hi = spec.hop_range
    use_bridge = hi >= 2 and spec.bridge_support > 0 and world.link_attributes
    link = world.link_attributes[0] if world.link_attributes else ""
    entity_names = sorted(world.entities)
    task_id = f"T_{attr}"
    serial = 0

    def next_qid() -> str:
        nonlocal serial
        serial += 1
        return f"{task_id}-q{serial:03d}"

    picked = rng.permutation(len(entity_names))
    pool = [entity_names[i] for i in picked]
    pair_firsts = pool[: spec.pair_support]
    pair_seconds = pool[spec.pair_support : 2 * spec.pair_support]
    extra = pool[2 * spec.pair_support :]

    questions: list[Question] = []

    def add_question(kind, phrasing, answer, path, ents, split, extra_meta=()):
        questions.append(
            Question(
                question_id=path.question_id,
                task_id=task_id,
                text=phrasing,
                answer=answer,
                paths=(path,),
                split_hint=split,
                meta=_meta(kind, attr, ents, link if kind.startswith("bridge") or link else "")
                + tuple(extra_meta),
            )
        )

    support_specs = []
    if lo <= 1:
        for i in range(spec.value_support):
            support_specs.append(("value", (extra[i % len(extra)],)))
    if hi >= 2:
        for i in range(spec.pair_support):
            support_specs.append(("pair", (pair_firsts[i], pair_seconds[i])))
        for i in range(spec.compare_support):
            support_specs.append(
                ("compare", (pair_firsts[i % len(pair_firsts)], extra[(i + 1) % len(extra)]))
            )
        if use_bridge:
            for i in range(spec.bridge_support):
                support_specs.append(("bridge", (extra[(2 + i) % len(extra)],)))
            if hi >= 3:
                for i in range(max(1, spec.bridge_support // 2)):
                    support_specs.append(("bridge2", (extra[(4 + i) % len(extra)],)))

    def realize(kind, ents, qid, phrasing_shift):
        if kind == "value":
            text = VALUE_PHRASINGS[phrasing_shift % len(VALUE_PHRASINGS)].format(
                attr=attr, e1=ents[0]
            )
            answer, gold = _gold_value(world, attr, ents[0], task_id, qid)
        elif kind == "pair":
            text = PAIR_PHRASINGS[phrasing_shift % len(PAIR_PHRASINGS)].format(
                attr=attr, e1=ents[0], e2=ents[1]
            )
            answer, gold = _gold_pair(world, attr, ents[0], ents[1], task_id, qid)
        elif kind == "compare":
            text = COMPARE_PHRASINGS[phrasing_shift % len(COMPARE_PHRASINGS)].format(
                attr=attr, e1=ents[0], e2=ents[1]
            )
            answer, gold = _gold_compare(world, attr, ents[0], ents[1], task_id, qid)
        elif kind == "bridge":
            text = BRIDGE_PHRASINGS[phrasing_shift % len(BRIDGE_PHRASINGS)].format(
                attr=attr, link=link, e1=ents[0]
            )
            answer, gold = _gold_bridge(world, attr, link, ents[0], task_id, qid)
        else:
            text = BRIDGE2_PHRASINGS[0].format(attr=attr, link=link, e1=ents[0])
            answer, gold = _gold_bridge(world, attr, link, ents[0], task_id, qid, depth=2)
        return text, answer, gold

    built_support = []
    for kind, ents in support_specs:
        qid = next_qid()
        text, answer, gold = realize(kind, ents, qid, int(rng.integers(100)))
        add_question(kind, text, answer, gold, list(ents), "support")
        built_support.append((kind, ents, gold))

    recombination_count = int(round(spec.recombination_fraction * spec.query_per_family))
    if spec.recombination_fraction > 0.0:
        recombination_count = max(recombination_count, 1)
    in_coverage_count = max(spec.query_per_family - recombination_count, 0)

    # In-coverage queries rephrase a support question: same gold path.
    support_paths = {entry[2].instructions for entry in built_support}
    for i in range(in_coverage_count):
        kind, ents, gold = built_support[i % len(built_support)]
        qid = next_qid()
        shift = 1 + (i // len(built_support))
        text, answer, _ = realize(kind, ents, qid, shift)
        gold_copy = InstructionPath(gold.instructions, task_id, qid, 1.0)
        add_question(kind, text, answer, gold_copy, list(ents), "query")

    # Recombination queries cross the first entity of one support pair
    # with the second entity of another, so their gold paths are novel
    # sequences whose every edge exists via the shared lookup node.
    emitted = 0
    for offset in range(1, spec.pair_support):
        for i in range(spec.pair_support):
            if emitted >= recombination_count:
                break
            e1 = pair_firsts[i]
            e2 = pair_seconds[(i + offset) % spec.pair_support]
            qid = next_qid()
            answer, gold = _gold_pair(world, attr, e1, e2, task_id, qid)
            if gold.instructions in support_paths:
                continue
            text = PAIR_PHRASINGS[(i + offset) % len(PAIR_PHRASINGS)].format(
                attr=attr, e1=e1, e2=e2
            )
            add_question(
                "pair", text, answer, gold, [e1, e2], "query",
                extra_meta=(("recombination", "true"),),
            )
            emitted += 1
        if emitted >= recombination_count:
            break
    return questions


def gen_task_corpus(
    world: World,
    attributes: list[str],
    seed: int,
    spec: SyntheticWorldSpec | None = None,
) -> TaskCorpus:
    """Task families over an existing world, one family per attribute.

    The question mix follows ``spec`` (defaults to the world's own spec),
    so corpora with a different shape, such as bridge-heavy held-out
    families, can share one world.
    """
    spec = spec or world.spec
    for attr in attributes:
        if attr not in world.attributes:
            raise SpecError(f"attribute {attr!r} does not exist in this world")
    corpus = TaskCorpus(
        metadata={"world_hash": world.world_hash(), "seed": str(seed)}
    )
    for attr in attributes:
        for question in _family_questions(world, spec, attr, seed):
            corpus.add(question)
    return corpus


def gen_world(spec: SyntheticWorldSpec, seed: int) -> tuple[World, TaskCorpus]:
    """Deterministic world plus a support/query-annotated task corpus."""
    world = build_world(spec, seed)
    families = world.attributes[: spec.task_family_count]
    return world, gen_task_corpus(world, families, seed, spec)


def is_recombination(question: Question) -> bool:
    return question.meta_dict().get("recombination") == "true"


def demo_spec() -> SyntheticWorldSpec:
    """The corpus used by the CLI demos and the sweep examples."""
    return SyntheticWorldSpec(
        entity_count=24,
        attribute_count=6,
        task_family_count=5,
        hop_range=(1, 2),
        recombination_fraction=0.3,
        vocabulary_seed=11,
    )


def save_world(world: World, destination: str | Path) -> None:
    write_versioned(
        destination,
        WORLD_KIND,
        {
            "spec": world.spec.to_json(),
            "seed": world.seed,
            "attributes": world.attributes,
            "link_attributes": world.link_attributes,
            "entities": world.entities,
        },
    )


def load_world(source: str | Path) -> World:
    doc = read_versioned(source, WORLD_KIND)
    try:
        return World(
            entities={k: dict(v) for k, v in doc["entities"].items()},
            attributes=list(doc["attributes"]),
            link_attributes=list(doc["link_attributes"]),
            spec=SyntheticWorldSpec.from_json(doc["spec"]),
            seed=int(doc["seed"]),
        )
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{source}: malformed world file: {exc}") from exc
