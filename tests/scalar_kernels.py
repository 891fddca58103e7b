"""Per-row reference forms of the encoder and policy learning kernels.

These are the kernels ragplan ran before its losses were batched, one
question, path or state at a time: ``_project``, ``_normalize_backprop``,
``_anchor_softmax``, ``_forward_parts`` and ``_grad_from_logit_deltas``,
and the QPA, QPM, FT, BCE and REINFORCE losses assembled from them as the
library assembled them. Tests compare the batched kernels against these.
The one departure: ``_anchor_softmax`` raises ``ValueError`` where the
library raised its own error for a strict anchor with no negative.
``adam_reference`` is the Adam update as plain expressions, as it was
before it ran in place.
"""

import numpy as np

from ragplan.embedding import embed_text
from ragplan.encoder import make_qpm_batch
from ragplan.policy import INCLUDE, PROB_FLOOR, PolicyParams, episode_returns


def _project(matrix, base):
    """Project and unit-normalize; returns (normalized, raw, raw_norm)."""
    raw = matrix @ base.values.astype(np.float64)
    norm = float(np.linalg.norm(raw))
    if not base.valid or norm == 0.0:
        return np.zeros(matrix.shape[0]), raw, 0.0
    return raw / norm, raw, norm


def _normalize_backprop(d_normalized, normalized, norm):
    if norm == 0.0:
        return np.zeros_like(d_normalized)
    return (d_normalized - np.dot(d_normalized, normalized) * normalized) / norm


def _anchor_softmax(row, positive, strict):
    """Log-sum-exp and softmax of one anchor's scores; the strict form
    drops the positive from the denominator."""
    n = row.size
    if not strict:
        shifted = row - row.max()
        lse = float(np.log(np.exp(shifted).sum()) + row.max())
        return lse, np.exp(row - lse)
    if n < 2:
        raise ValueError("the strict contrastive form needs at least two candidates")
    mask = np.ones(n, dtype=bool)
    mask[positive] = False
    masked = row[mask]
    shifted = masked - masked.max()
    lse = float(np.log(np.exp(shifted).sum()) + masked.max())
    soft = np.zeros(n)
    soft[mask] = np.exp(masked - lse)
    return lse, soft


def _forward_parts(params, state):
    hidden = np.tanh(params.w1 @ state + params.b1)
    logits = params.w2 @ hidden + params.b2
    shifted = logits - logits.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    return hidden, probs


def _grad_from_logit_deltas(params, states, logit_deltas):
    """Backpropagate a batch of dL/dlogits rows into a flat gradient."""
    g_w1 = np.zeros_like(params.w1)
    g_b1 = np.zeros_like(params.b1)
    g_w2 = np.zeros_like(params.w2)
    g_b2 = np.zeros_like(params.b2)
    for state, d_logits in zip(states, logit_deltas):
        hidden = np.tanh(params.w1 @ state + params.b1)
        g_w2 += np.outer(d_logits, hidden)
        g_b2 += d_logits
        d_hidden = params.w2.T @ d_logits
        d_pre = d_hidden * (1.0 - hidden * hidden)
        g_w1 += np.outer(d_pre, state)
        g_b1 += d_pre
    return PolicyParams(g_w1, g_b1, g_w2, g_b2).to_vector()


def _encode_side(matrix, texts, embedder):
    bases = [embed_text(text, embedder) for text in texts]
    rows = [_project(matrix, base) for base in bases]
    return bases, rows, np.stack([normalized for normalized, _, _ in rows])


def _projection_grad(d_rows, bases, rows):
    grad = np.zeros((d_rows.shape[1], bases[0].values.size))
    for d_row, base, (normalized, _, norm) in zip(d_rows, bases, rows):
        grad += np.outer(
            _normalize_backprop(d_row, normalized, norm), base.values.astype(np.float64)
        )
    return grad


def _contrastive_row_deltas(scores, strict):
    n = scores.shape[0]
    loss = 0.0
    deltas = np.zeros_like(scores)
    for i in range(n):
        lse, soft = _anchor_softmax(scores[i], i, strict)
        loss += -scores[i, i] + lse
        deltas[i] += soft / n
        deltas[i, i] += -1.0 / n
    return loss / n, deltas


def qpa_reference(params, pairs, strict=False):
    """Symmetric in-batch InfoNCE; returns (loss, g_wq, g_wp)."""
    q_bases, q_rows, q = _encode_side(params.wq, [t for t, _ in pairs], params.embedder)
    p_bases, p_rows, p = _encode_side(
        params.wp, [path.serialized() for _, path in pairs], params.embedder
    )
    scores = (q @ p.T) / params.tau
    loss_qp, deltas_qp = _contrastive_row_deltas(scores, strict)
    loss_pq, deltas_pq_t = _contrastive_row_deltas(scores.T, strict)
    d_scores = 0.5 * (deltas_qp + deltas_pq_t.T)
    d_q = (d_scores @ p) / params.tau
    d_p = (d_scores.T @ q) / params.tau
    return (
        0.5 * (loss_qp + loss_pq),
        _projection_grad(d_q, q_bases, q_rows),
        _projection_grad(d_p, p_bases, p_rows),
    )


def qpm_reference(params, triples):
    """Match-head binary cross-entropy; returns (loss, g_wq, g_wp, g_head)."""
    d = params.dimension
    q_bases, q_rows, q = _encode_side(params.wq, [t for t, _, _ in triples], params.embedder)
    p_bases, p_rows, p = _encode_side(
        params.wp, [path.serialized() for _, path, _ in triples], params.embedder
    )
    w_q, w_p, bias = params.qpm_w[:d], params.qpm_w[d : 2 * d], params.qpm_w[-1]
    count = len(triples)
    loss = 0.0
    g_head = np.zeros_like(params.qpm_w)
    d_q = np.zeros_like(q)
    d_p = np.zeros_like(p)
    for i, (_, _, label) in enumerate(triples):
        z = float(w_q @ q[i] + w_p @ p[i] + bias)
        prob = 1.0 / (1.0 + np.exp(-z))
        clipped = float(np.clip(prob, 1e-7, 1.0 - 1e-7))
        loss += -(label * np.log(clipped) + (1.0 - label) * np.log(1.0 - clipped))
        dz = (prob - label) / count
        g_head[:d] += dz * q[i]
        g_head[d : 2 * d] += dz * p[i]
        g_head[-1] += dz
        d_q[i] = dz * w_q
        d_p[i] = dz * w_p
    return (
        loss / count,
        _projection_grad(d_q, q_bases, q_rows),
        _projection_grad(d_p, p_bases, p_rows),
        g_head,
    )


def pt_reference(params, pairs, strict=False):
    """(qpa loss, qpm loss, and the gradient of their sum as g_wq, g_wp,
    g_head)."""
    align, a_wq, a_wp = qpa_reference(params, pairs, strict)
    match, m_wq, m_wp, g_head = qpm_reference(params, make_qpm_batch(pairs))
    return align, match, a_wq + m_wq, a_wp + m_wp, g_head


def ft_reference(params, question, paths, best, strict=False):
    """Hard-negative InfoNCE of one question over a path pool; returns
    (loss, g_wq, g_wp)."""
    q_bases, q_rows, q = _encode_side(params.wq, [question], params.embedder)
    p_bases, p_rows, p = _encode_side(
        params.wp, [path.serialized() for path in paths], params.embedder
    )
    q_n = q[0]
    scores = (p @ q_n) / params.tau
    lse, soft = _anchor_softmax(scores, best, strict)
    d_scores = 0.5 * soft
    d_scores[best] -= 0.5
    d_q = ((d_scores @ p) / params.tau)[None, :]
    d_p = np.outer(d_scores, q_n) / params.tau
    return (
        float(0.5 * (-scores[best] + lse)),
        _projection_grad(d_q, q_bases, q_rows),
        _projection_grad(d_p, p_bases, p_rows),
    )


def policy_forward_reference(params, state):
    _, probs = _forward_parts(params, np.asarray(state, dtype=np.float64))
    return float(probs[0]), float(probs[1])


def bce_reference(params, states, labels):
    """Mean warm-start binary cross-entropy; returns (loss, flat gradient)."""
    count = labels.size
    losses = []
    deltas = np.zeros((count, 2))
    for idx, (state, label) in enumerate(zip(states, labels)):
        _, probs = _forward_parts(params, state)
        p_include = float(np.clip(probs[0], PROB_FLOOR, 1.0 - PROB_FLOOR))
        losses.append(-(label * np.log(p_include) + (1.0 - label) * np.log(1.0 - p_include)))
        deltas[idx] = (probs - np.array([label, 1.0 - label])) / count
    return float(np.mean(losses)), _grad_from_logit_deltas(params, states, deltas)


def pg_reference(params, episode, gamma, baseline_value=0.0):
    """REINFORCE loss and flat gradient; forced steps carry no gradient."""
    returns = episode_returns(episode, gamma) - baseline_value
    states = np.stack([step.state for step in episode.steps])
    deltas = np.zeros((len(episode.steps), 2))
    loss = 0.0
    for idx, (step, weight) in enumerate(zip(episode.steps, returns)):
        if step.forced:
            continue
        _, probs = _forward_parts(params, step.state)
        prob_index = 0 if step.action == INCLUDE else 1
        action_prob = float(np.clip(probs[prob_index], PROB_FLOOR, 1.0))
        loss += -weight * np.log(action_prob)
        onehot = np.zeros(2)
        onehot[prob_index] = 1.0
        deltas[idx] = weight * (probs - onehot)
    return float(loss), _grad_from_logit_deltas(params, states, deltas)


def adam_reference(params, grad, state, learning_rate):
    """``adam_step`` as plain expressions, each making a new array."""
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
