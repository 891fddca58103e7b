"""The three-stage loop: meta-training, few-shot adaptation, testing.

Meta-training alternates task-wise inner adaptation (warm-start for the
traversal policy, alignment/match pre-training for the encoder) with
outer updates driven by the full retrieval loop: traverse, select,
prompt, plan, score. Outer gradients are first-order: they are taken at
the adapted parameters and applied to the base ones. Few-shot
adaptation extends the graph with the new support set and derives
per-task parameters; testing evaluates each task with its own adapted
bundle and reports per-task plus macro averages.

Encoder updates stay factors (``ragplan.encoder``) until Adam or a saved
file needs them dense. The inner step leaves an ``AdaptedEncoder``, the
base plus factors. A task's rollout traverses all its questions first,
then projects the questions and every pool path in one product per
side, and those rows serve both selection and fine-tuning. The
fine-tuning factors of a meta-batch become the dense outer gradient in
one stacked product per side, just before ``adam_step``; few-shot
adaptation forms each task's adapted encoder once, for its bundle.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .backend import PlanResult
from .corpus import MetricKind, Question, TaskCorpus, score
from .embedding import EmbedderConfig
from .encoder import (
    AdaptedEncoder,
    EncoderGrads,
    EncoderParams,
    PathPool,
    PoolRows,
    candidate_similarities,
    init_encoder_params,
    pt_loss_and_grads,
)
from .encoder import ft_loss_and_grads  # noqa: F401  bench/tracer.py wraps ragplan.meta.ft_loss_and_grads
from .errors import DataError, NotFoundError
from .graph import InstructionGraph, build_graph, extend_graph
from .optim import AdamState, ReturnBaseline, adam_step
from .policy import (
    Candidate,
    PolicyParams,
    RlConfig,
    bce_loss_and_grad,
    episode_returns,
    init_policy_params,
    make_warmstart_dataset,
    pg_loss_and_grad,
    traverse,
)
from .serialize import check_minimums

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MetaConfig:
    inner_lr: float = 0.01
    outer_lr: float = 0.001
    inner_steps: int = 1
    questions_per_batch: int = 8
    tasks_per_meta_batch: int = 4
    iterations: int = 40
    seed: int = 0
    pool_extra_negatives: int = 2
    strict_qpa: bool = False

    def __post_init__(self) -> None:
        check_minimums(
            self, inner_lr=0.0, outer_lr=0.0, inner_steps=1, questions_per_batch=1,
            tasks_per_meta_batch=1, iterations=0, pool_extra_negatives=0,
        )


@dataclass
class AgentBundle:
    policy: PolicyParams
    encoder: EncoderParams  # an AdaptedEncoder only between inner adaptation and rollout
    graph: InstructionGraph
    rl_config: RlConfig

    def copy(self) -> "AgentBundle":
        return AgentBundle(
            policy=self.policy.copy(),
            encoder=self.encoder.copy(),
            graph=self.graph,
            rl_config=self.rl_config,
        )


@dataclass
class EvalReport:
    records: list[dict] = field(default_factory=list)
    per_task: dict[str, dict] = field(default_factory=dict)
    macro_average: float = 0.0


def _stable_int(*parts) -> int:
    text = "|".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little"
    )


def _rng(*parts) -> np.random.Generator:
    return np.random.default_rng(_stable_int(*parts))


def init_bundle(
    graph: InstructionGraph, rl_config: RlConfig, seed: int = 0
) -> AgentBundle:
    return AgentBundle(
        policy=init_policy_params(seed=_stable_int(seed, "policy-init") % (1 << 31)),
        encoder=init_encoder_params(
            graph.embedder, seed=_stable_int(seed, "encoder-init") % (1 << 31)
        ),
        graph=graph,
        rl_config=rl_config,
    )


def _sample_questions(
    corpus: TaskCorpus, task_id: str, count: int, rng: np.random.Generator
) -> list[Question]:
    questions = sorted(corpus.questions(task_id), key=lambda q: q.question_id)
    questions = [q for q in questions if q.gold_path is not None]
    if len(questions) <= count:
        return questions
    picked = rng.choice(len(questions), size=count, replace=False)
    return [questions[i] for i in sorted(picked)]


def _single_task_corpus(questions: list[Question]) -> TaskCorpus:
    corpus = TaskCorpus()
    for question in questions:
        corpus.add(question)
    return corpus


def _adapt_inner(
    base: AgentBundle, questions: list[Question], config: MetaConfig, ws_key: tuple
) -> AgentBundle:
    """Inner adaptation of both agents on support questions: warm-start BCE
    steps for the policy, pre-training steps for the encoder. The adapted
    encoder is an ``AdaptedEncoder``: the base plus the steps' factors."""
    examples = make_warmstart_dataset(
        base.graph,
        _single_task_corpus(questions),
        samples_per_question=8,
        rng_seed=_stable_int(*ws_key) % (1 << 31),
    )
    if examples:
        states = np.stack([e.state for e in examples])
        labels = np.array([e.label for e in examples], dtype=np.float64)
        vector = base.policy.to_vector()
        for _ in range(config.inner_steps):
            _, grad = bce_loss_and_grad(PolicyParams.from_vector(vector), states, labels)
            vector = vector - config.inner_lr * grad
        policy = PolicyParams.from_vector(vector)
    else:
        policy = base.policy.copy()
    pairs = [(q.text, q.gold_path) for q in questions if q.gold_path is not None]
    encoder = AdaptedEncoder(base.encoder)
    if pairs:
        for _ in range(config.inner_steps):
            _, _, grads = pt_loss_and_grads(encoder, pairs, strict=config.strict_qpa)
            encoder = encoder.descend(grads, config.inner_lr)
    return AgentBundle(policy=policy, encoder=encoder, graph=base.graph, rl_config=base.rl_config)


def _sample_negative_paths(
    corpus: TaskCorpus, exclude_question: str, count: int, rng: np.random.Generator
):
    pool = [
        q.gold_path
        for q in corpus.iter_questions()
        if q.question_id != exclude_question and q.gold_path is not None
    ]
    if not pool or count <= 0:
        return []
    picked = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in sorted(picked)]


def retrieve(
    bundle: AgentBundle,
    question: Question,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
) -> tuple[list[Candidate], np.ndarray, int | None]:
    """Traverse for candidate paths, then select the one the encoder ranks
    closest to the question; ties go to the lowest index.

    Returns (candidates, similarities, selected index); the index is None
    when traversal found no candidates.
    """
    candidates = traverse(
        bundle.graph,
        question.text,
        bundle.policy,
        bundle.rl_config,
        mode=mode,
        rng=rng,
        task_id=question.task_id,
        question_id=question.question_id,
    )
    if not candidates:
        return candidates, np.zeros(0), None
    sims = candidate_similarities(bundle.encoder, question.text, [c.path for c in candidates])
    return candidates, sims, int(np.argmax(sims))


def plan_delta(result: PlanResult, metric: MetricKind, truth: str) -> float:
    """Score of one planner result; a failed plan scores 0."""
    if not result.ok:
        return 0.0
    if metric is MetricKind.REWARD_SCORE and result.reward is not None:
        return float(result.reward)
    return score(metric, result.answer, truth)


def evaluate_pool(question: Question, pool: PathPool, backend, metric: MetricKind) -> PathPool:
    """Score every pool path through the backend; the best becomes the positive.

    A backend failure scores that entry 0 and flags it. Ties go to the
    lowest index.
    """
    if not pool.entries:
        raise DataError("evaluate_pool over an empty pool")
    for entry in pool.entries:
        result = backend.plan(question, entry.path)
        entry.delta = plan_delta(result, metric, question.answer)
        entry.answer = result.answer if result.ok else ""
        entry.failed = not result.ok
    pool.best_index = max(range(len(pool.entries)), key=lambda i: (pool.entries[i].delta, -i))
    return pool


def _record(
    question: Question,
    candidates: list[Candidate],
    selected: int | None,
    answer: str = "",
    delta: float = 0.0,
) -> dict:
    chosen = None if selected is None else candidates[selected]
    return {
        "task_id": question.task_id,
        "question_id": question.question_id,
        "selected_path": chosen.path.serialized() if chosen else "",
        "answer": answer,
        "delta": delta,
        "episode_len": len(chosen.episode.steps) if chosen else 0,
        "candidates": len(candidates),
    }


def _rollout_and_accumulate(
    questions: list[Question],
    agents: AgentBundle,
    negatives_from: TaskCorpus,
    backend,
    metric: MetricKind,
    config: MetaConfig,
    baseline: ReturnBaseline,
    rng_key: tuple,
    policy_grad: np.ndarray,
    ft_grads: list[EncoderGrads],
) -> list[dict]:
    """Outer-loop rollouts at the adapted parameters.

    Each question is traversed by sampling, and negatives are sampled for
    its pool. Then the questions and every pool path (candidates plus
    negatives) are projected, one product per side, and the same rows
    serve selection and fine-tuning. Per question, in order, the pool is
    scored through the backend, the selected episode's REINFORCE gradient
    is added into ``policy_grad`` in place, and the pool's fine-tuning
    gradient is appended to ``ft_grads`` as factors. Returns one record
    per question.
    """
    rl_config = agents.rl_config
    walks = []
    for question in questions:
        rng = _rng(*rng_key, question.question_id)
        candidates = traverse(
            agents.graph, question.text, agents.policy, rl_config, mode="sample", rng=rng,
            task_id=question.task_id, question_id=question.question_id,
        )
        paths = [c.path for c in candidates]
        if candidates:
            paths += _sample_negative_paths(
                negatives_from, question.question_id, config.pool_extra_negatives, rng
            )
        walks.append((question, candidates, paths))
    rows = PoolRows(
        agents.encoder, [question.text for question, _, _ in walks], [p for _, _, p in walks]
    )
    records = []
    for row, (question, candidates, paths) in enumerate(walks):
        if not candidates:
            records.append(_record(question, candidates, None))
            continue
        selected = int(np.argmax(rows.similarities(row, len(candidates))))
        pool = evaluate_pool(question, PathPool.from_paths(paths), backend, metric)
        entry = pool.entries[selected]
        episode = candidates[selected].episode
        episode.reward = entry.delta
        records.append(_record(question, candidates, selected, entry.answer, entry.delta))
        baseline_value = baseline.value() if rl_config.use_baseline else 0.0
        _, pg_grad = pg_loss_and_grad(agents.policy, episode, rl_config.gamma, baseline_value)
        policy_grad += pg_grad
        for value in episode_returns(episode, rl_config.gamma):
            baseline.update(float(value))
        ft_grads.append(rows.ft_loss_and_grads(row, pool.best_index, config.strict_qpa)[1])
    return records


def meta_train(
    support: TaskCorpus,
    query: TaskCorpus,
    config: MetaConfig,
    *,
    delta: float,
    embedder: EmbedderConfig,
    rl_config: RlConfig,
    backend,
    metric: MetricKind,
) -> tuple[AgentBundle, list[dict]]:
    """Meta-train both agents over seen tasks; returns the bundle and a
    per-question training log."""
    graph = build_graph(support, delta, embedder)
    bundle = init_bundle(graph, rl_config, seed=config.seed)
    policy_vec = bundle.policy.to_vector()
    encoder = bundle.encoder
    policy_opt = AdamState.zeros(policy_vec.size)
    encoder_opt = AdamState.zeros(encoder.to_vector().size)
    baseline = ReturnBaseline(window=rl_config.baseline_window)
    log: list[dict] = []
    task_ids = [t for t in support.task_ids() if support.questions(t)]
    if not task_ids:
        return bundle, log

    for iteration in range(config.iterations):
        iter_rng = _rng(config.seed, "tasks", iteration)
        batch_size = min(config.tasks_per_meta_batch, len(task_ids))
        picked = iter_rng.choice(len(task_ids), size=batch_size, replace=False)
        batch = [task_ids[i] for i in sorted(picked)]
        policy_grad = np.zeros_like(policy_vec)
        ft_grads: list[EncoderGrads] = []
        for task_id in batch:
            sample_rng = _rng(config.seed, "support-batch", iteration, task_id)
            inner_questions = _sample_questions(
                support, task_id, config.questions_per_batch, sample_rng
            )
            if not inner_questions:
                logger.warning("task %s has no usable support questions; skipped", task_id)
                continue
            base = AgentBundle(
                policy=PolicyParams.from_vector(policy_vec),
                encoder=encoder,
                graph=graph,
                rl_config=rl_config,
            )
            adapted = _adapt_inner(
                base, inner_questions, config, (config.seed, "ws", iteration, task_id)
            )
            query_rng = _rng(config.seed, "query-batch", iteration, task_id)
            outer_questions = _sample_questions(
                query, task_id, config.questions_per_batch, query_rng
            )
            if not outer_questions:
                logger.warning("task %s has no query questions; skipped", task_id)
                continue
            records = _rollout_and_accumulate(
                outer_questions, adapted, support, backend, metric, config, baseline,
                (config.seed, "roll", iteration, task_id), policy_grad, ft_grads,
            )
            for record in records:
                record["iteration"] = iteration
            log.extend(records)
        policy_vec = adam_step(policy_vec, policy_grad, policy_opt, config.outer_lr)
        # The meta-batch's fine-tuning factors, dense: one stacked product per side.
        encoder_grad = EncoderGrads.total(ft_grads, encoder.dimension).to_vector()
        encoder = encoder.with_vector(
            adam_step(encoder.to_vector(), encoder_grad, encoder_opt, config.outer_lr)
        )
    bundle.policy = PolicyParams.from_vector(policy_vec)
    bundle.encoder = encoder
    return bundle, log


def fewshot_adapt(
    bundle: AgentBundle,
    new_support: TaskCorpus,
    config: MetaConfig,
    *,
    backend,
    metric: MetricKind,
) -> tuple[dict[str, AgentBundle], InstructionGraph]:
    """Per-task adaptation on an unseen support set over the extended graph.

    The base bundle and its graph are never mutated. Tasks without
    usable support questions come back unadapted and flagged in the log.
    """
    extended = extend_graph(bundle.graph, new_support)
    base = AgentBundle(
        policy=bundle.policy, encoder=bundle.encoder, graph=extended, rl_config=bundle.rl_config
    )
    adapted: dict[str, AgentBundle] = {}
    for task_id in new_support.task_ids():
        sample_rng = _rng(config.seed, "fewshot", task_id)
        questions = _sample_questions(
            new_support, task_id, config.questions_per_batch, sample_rng
        )
        if not questions:
            logger.warning("few-shot task %s has no usable questions; unadapted", task_id)
            adapted[task_id] = base.copy()
            continue
        inner = _adapt_inner(base, questions, config, (config.seed, "fewshot-ws", task_id))
        policy_vec = inner.policy.to_vector()
        pg_grad = np.zeros_like(policy_vec)
        ft_grads: list[EncoderGrads] = []
        _rollout_and_accumulate(
            questions, inner, new_support, backend, metric, config,
            ReturnBaseline(window=bundle.rl_config.baseline_window),
            (config.seed, "fewshot-roll", task_id), pg_grad, ft_grads,
        )
        ft_total = EncoderGrads.total(ft_grads, inner.encoder.dimension)
        adapted[task_id] = AgentBundle(
            policy=PolicyParams.from_vector(policy_vec - config.outer_lr * pg_grad),
            encoder=inner.encoder.descend(ft_total, config.outer_lr).dense(),
            graph=extended,
            rl_config=bundle.rl_config,
        )
    return adapted, extended


def answer_question(
    bundle: AgentBundle,
    question: Question,
    backend,
    metric: MetricKind,
    mode: str = "greedy",
    rng: np.random.Generator | None = None,
) -> dict:
    """One test-time pass: traverse, select, prompt, plan, score."""
    try:
        candidates, _, selected = retrieve(bundle, question, mode=mode, rng=rng)
    except NotFoundError:
        candidates, selected = [], None
    if selected is None:
        return dict(_record(question, candidates, selected), failed=True)
    result = backend.plan(question, candidates[selected].path)
    delta = plan_delta(result, metric, question.answer)
    return dict(
        _record(question, candidates, selected, result.answer, delta), failed=not result.ok
    )


def summarize_records(records: list[dict]) -> EvalReport:
    per_task: dict[str, dict] = {}
    for record in records:
        bucket = per_task.setdefault(
            record["task_id"], {"deltas": [], "failures": 0}
        )
        bucket["deltas"].append(record["delta"])
        if record.get("failed"):
            bucket["failures"] += 1
    summary = {}
    for task_id, bucket in sorted(per_task.items()):
        summary[task_id] = {
            "mean_delta": float(np.mean(bucket["deltas"])),
            "question_count": len(bucket["deltas"]),
            "failures": bucket["failures"],
        }
    macro = float(np.mean([s["mean_delta"] for s in summary.values()])) if summary else 0.0
    return EvalReport(records=records, per_task=summary, macro_average=macro)


def meta_test(
    adapted: dict[str, AgentBundle],
    query: TaskCorpus,
    metric: MetricKind,
    backend,
    default_bundle: AgentBundle | None = None,
) -> EvalReport:
    """Evaluate each task's query questions with that task's bundle."""
    records = []
    for question in query.iter_questions():
        bundle = adapted.get(question.task_id, default_bundle)
        if bundle is None:
            raise DataError(f"no adapted bundle for task {question.task_id} and no default")
        records.append(answer_question(bundle, question, backend, metric))
    return summarize_records(records)


def evaluate_bundle(
    bundle: AgentBundle, corpus: TaskCorpus, backend, metric: MetricKind
) -> EvalReport:
    """Evaluate every question of ``corpus`` with one bundle."""
    return meta_test({}, corpus, metric, backend, default_bundle=bundle)
