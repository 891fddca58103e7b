"""The dense encoder updates that ``ragplan.meta`` replaced, kept as a
test oracle.

Here every encoder gradient is formed as a dense d×d matrix as soon as a
loss is taken: each loss writes ``d_rawᵀ @ base`` into a flat buffer,
the inner step forms each adapted encoder densely, and each rollout
question projects itself and its candidates one row at a time for
selection, projects them again for fine-tuning and adds its dense
gradient into the meta-batch's. ``ragplan.meta`` keeps the same updates
as factors and forms them once; only the rounding order differs.

Selection here is the single-row path that ``ragplan.encoder`` replaced
with ``PoolRows``: each text is projected alone and each candidate
scored with a scalar ``cosine`` (``encode_question``, ``encode_path``,
``candidate_similarities``, ``retrieve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ragplan.embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from ragplan.encoder import (
    EncoderParams,
    PathPool,
    _flat_size,
    _info_nce,
    _split,
    make_qpm_batch,
)
from ragplan.errors import DataError
from ragplan.graph import build_graph, extend_graph
from ragplan.meta import (
    AgentBundle,
    _record,
    _rng,
    _sample_negative_paths,
    _sample_questions,
    _single_task_corpus,
    _stable_int,
    evaluate_pool,
    init_bundle,
)
from ragplan.optim import AdamState, ReturnBaseline, adam_step
from ragplan.policy import (
    PolicyParams,
    bce_loss_and_grad,
    episode_returns,
    make_warmstart_dataset,
    pg_loss_and_grad,
    traverse,
)


@dataclass
class _Rows:
    base: np.ndarray
    unit: np.ndarray
    norms: np.ndarray


def _project_rows(matrix: np.ndarray, texts: list[str], embedder: EmbedderConfig) -> _Rows:
    base = np.array(
        [embed_text(text, embedder, transient=True).values for text in texts], dtype=np.float64
    )
    raw = base @ matrix.T
    norms = np.sqrt(np.vecdot(raw, raw))
    unit = np.divide(raw, norms[:, None], out=np.zeros_like(raw), where=norms[:, None] > 0.0)
    return _Rows(base, unit, norms)


def _encoding(matrix: np.ndarray, text: str, embedder: EmbedderConfig) -> EmbeddingVector:
    rows = _project_rows(matrix, [text], embedder)
    return EmbeddingVector(rows.unit[0].astype(np.float32), valid=bool(rows.norms[0] > 0.0))


def encode_question(params, question: str) -> EmbeddingVector:
    return _encoding(params.wq, question, params.embedder)


def encode_path(params, path) -> EmbeddingVector:
    return _encoding(params.wp, path.serialized(), params.embedder)


def candidate_similarities(params, question: str, candidates) -> np.ndarray:
    encoded_q = encode_question(params, question)
    return np.array([cosine(encoded_q, encode_path(params, path)) for path in candidates])


def retrieve(bundle, question, mode="greedy", rng=None):
    candidates = traverse(
        bundle.graph, question.text, bundle.policy, bundle.rl_config, mode=mode, rng=rng,
        task_id=question.task_id, question_id=question.question_id,
    )
    if not candidates:
        return candidates, np.zeros(0), None
    sims = candidate_similarities(bundle.encoder, question.text, [c.path for c in candidates])
    return candidates, sims, int(np.argmax(sims))


def _project_backward(rows: _Rows, d_unit: np.ndarray, out: np.ndarray) -> None:
    tangent = d_unit - np.vecdot(d_unit, rows.unit)[:, None] * rows.unit
    norms = rows.norms[:, None]
    d_raw = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0.0)
    np.matmul(d_raw.T, rows.base, out=out)


class DenseGrads:
    """A gradient in one flat buffer, every part written by its loss."""

    def __init__(self, dimension: int) -> None:
        self._flat = np.empty(_flat_size(dimension))
        self.wq, self.wp, self.qpm_w = _split(self._flat, dimension)

    def to_vector(self) -> np.ndarray:
        return self._flat


def _contrastive_grads(params, q, p, d_scores) -> DenseGrads:
    grads = DenseGrads(params.dimension)
    _project_backward(q, (d_scores @ p.unit) / params.tau, grads.wq)
    _project_backward(p, (d_scores.T @ q.unit) / params.tau, grads.wp)
    grads.qpm_w[:] = 0.0
    return grads


def qpa_loss_and_grads(params, pairs, strict=False):
    q = _project_rows(params.wq, [question for question, _ in pairs], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for _, path in pairs], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    diagonal = np.arange(len(pairs))
    loss_qp, deltas_qp = _info_nce(scores, diagonal, strict)
    loss_pq, deltas_pq = _info_nce(scores.T, diagonal, strict)
    loss = 0.5 * (loss_qp + loss_pq)
    return loss, _contrastive_grads(params, q, p, 0.5 * (deltas_qp + deltas_pq.T))


def qpm_loss_and_grads(params, triples):
    d = params.dimension
    q = _project_rows(params.wq, [question for question, _, _ in triples], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for _, path, _ in triples], params.embedder)
    labels = np.array([label for _, _, label in triples], dtype=np.float64)
    count = labels.size
    w_q = params.qpm_w[:d]
    w_p = params.qpm_w[d : 2 * d]
    z = q.unit @ w_q + p.unit @ w_p + params.qpm_w[-1]
    prob = 1.0 / (1.0 + np.exp(-z))
    clipped = np.clip(prob, 1e-7, 1.0 - 1e-7)
    loss = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped)).sum()
    dz = (prob - labels) / count
    grads = DenseGrads(d)
    _project_backward(q, np.outer(dz, w_q), grads.wq)
    _project_backward(p, np.outer(dz, w_p), grads.wp)
    grads.qpm_w[:d] = dz @ q.unit
    grads.qpm_w[d : 2 * d] = dz @ p.unit
    grads.qpm_w[-1] = dz.sum()
    return float(loss / count), grads


def pt_loss_and_grads(params, pairs, strict=False):
    align, grads = qpa_loss_and_grads(params, pairs, strict)
    match, g_match = qpm_loss_and_grads(params, make_qpm_batch(pairs))
    np.add(grads.to_vector(), g_match.to_vector(), out=grads.to_vector())
    return align, match, grads


def ft_loss_and_grads(params, question, pool: PathPool, strict=False):
    if pool.best_index is None:
        raise DataError("ft loss needs a pool with best_index set")
    q = _project_rows(params.wq, [question], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for path in pool.paths()], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    loss, deltas = _info_nce(scores, np.array([pool.best_index]), strict)
    return 0.5 * loss, _contrastive_grads(params, q, p, 0.5 * deltas)


def _descend(encoder: EncoderParams, grad: np.ndarray, lr: float) -> EncoderParams:
    grad *= lr
    return encoder.with_vector(np.subtract(encoder.to_vector(), grad, out=grad))


def _adapt_inner(base, questions, config, ws_key):
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
    if pairs:
        encoder = base.encoder
        for _ in range(config.inner_steps):
            _, _, grads = pt_loss_and_grads(encoder, pairs, strict=config.strict_qpa)
            encoder = _descend(encoder, grads.to_vector(), config.inner_lr)
    else:
        encoder = base.encoder.copy()
    return AgentBundle(policy=policy, encoder=encoder, graph=base.graph, rl_config=base.rl_config)


def _rollout_and_accumulate(
    questions, agents, negatives_from, backend, metric, config, baseline, rng_key,
    policy_grad, encoder_grad,
):
    rl_config = agents.rl_config
    records = []
    for question in questions:
        rng = _rng(*rng_key, question.question_id)
        candidates, _, selected = retrieve(agents, question, mode="sample", rng=rng)
        if selected is None:
            records.append(_record(question, candidates, selected))
            continue
        extras = _sample_negative_paths(
            negatives_from, question.question_id, config.pool_extra_negatives, rng
        )
        pool = evaluate_pool(
            question, PathPool.from_paths([c.path for c in candidates] + extras), backend, metric
        )
        entry = pool.entries[selected]
        episode = candidates[selected].episode
        episode.reward = entry.delta
        records.append(_record(question, candidates, selected, entry.answer, entry.delta))
        baseline_value = baseline.value() if rl_config.use_baseline else 0.0
        _, pg_grad = pg_loss_and_grad(agents.policy, episode, rl_config.gamma, baseline_value)
        policy_grad += pg_grad
        for value in episode_returns(episode, rl_config.gamma):
            baseline.update(float(value))
        _, ft_grads = ft_loss_and_grads(
            agents.encoder, question.text, pool, strict=config.strict_qpa
        )
        encoder_grad += ft_grads.to_vector()
    return records


def reference_meta_train(support, query, config, *, delta, embedder, rl_config, backend, metric):
    graph = build_graph(support, delta, embedder)
    bundle = init_bundle(graph, rl_config, seed=config.seed)
    policy_vec = bundle.policy.to_vector()
    encoder = bundle.encoder
    encoder_grad = np.zeros_like(encoder.to_vector())
    policy_opt = AdamState.zeros(policy_vec.size)
    encoder_opt = AdamState.zeros(encoder_grad.size)
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
        encoder_grad.fill(0.0)
        for task_id in batch:
            sample_rng = _rng(config.seed, "support-batch", iteration, task_id)
            inner_questions = _sample_questions(
                support, task_id, config.questions_per_batch, sample_rng
            )
            if not inner_questions:
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
                continue
            records = _rollout_and_accumulate(
                outer_questions, adapted, support, backend, metric, config, baseline,
                (config.seed, "roll", iteration, task_id), policy_grad, encoder_grad,
            )
            for record in records:
                record["iteration"] = iteration
            log.extend(records)
        policy_vec = adam_step(policy_vec, policy_grad, policy_opt, config.outer_lr)
        encoder = encoder.with_vector(
            adam_step(encoder.to_vector(), encoder_grad, encoder_opt, config.outer_lr)
        )
    bundle.policy = PolicyParams.from_vector(policy_vec)
    bundle.encoder = encoder
    return bundle, log


def reference_fewshot_adapt(bundle, new_support, config, *, backend, metric):
    extended = extend_graph(bundle.graph, new_support)
    base = AgentBundle(
        policy=bundle.policy, encoder=bundle.encoder, graph=extended, rl_config=bundle.rl_config
    )
    adapted = {}
    for task_id in new_support.task_ids():
        sample_rng = _rng(config.seed, "fewshot", task_id)
        questions = _sample_questions(
            new_support, task_id, config.questions_per_batch, sample_rng
        )
        if not questions:
            adapted[task_id] = base.copy()
            continue
        inner = _adapt_inner(base, questions, config, (config.seed, "fewshot-ws", task_id))
        policy_vec = inner.policy.to_vector()
        pg_grad = np.zeros_like(policy_vec)
        ft_grad = np.zeros_like(inner.encoder.to_vector())
        _rollout_and_accumulate(
            questions, inner, new_support, backend, metric, config,
            ReturnBaseline(window=bundle.rl_config.baseline_window),
            (config.seed, "fewshot-roll", task_id), pg_grad, ft_grad,
        )
        adapted[task_id] = AgentBundle(
            policy=PolicyParams.from_vector(policy_vec - config.outer_lr * pg_grad),
            encoder=_descend(inner.encoder, ft_grad, config.outer_lr),
            graph=extended,
            rl_config=bundle.rl_config,
        )
    return adapted, extended
