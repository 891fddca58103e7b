"""Dual-encoder path selection.

Questions and serialized instruction paths are embedded by the shared
base embedder, passed through separate trainable linear projections,
and unit-normalized. Pre-training aligns paired question/path
encodings with a symmetric contrastive loss plus a binary match head;
fine-tuning contrasts the answer-verified best path of a pool against
the rest. Selection is a plain cosine argmax, so nothing depends on
how many candidates are offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import InstructionPath
from .corpus import score  # noqa: F401  bench/tracer.py wraps ragplan.encoder.score
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from .errors import (
    ConfigError,
    DataError,
    DegenerateBatchError,
    MalformedFileError,
    NotFoundError,
)
from .serialize import floats_to_hex, hex_to_floats, read_versioned, write_versioned

ENCODER_KIND = "encoder-params"
PATH_SEPARATOR = " -> "


@dataclass
class EncoderParams:
    wq: np.ndarray  # (d, d) question projection
    wp: np.ndarray  # (d, d) path projection
    qpm_w: np.ndarray  # (2d + 1,) linear match head over [q ; p ; 1]
    tau: float
    embedder: EmbedderConfig

    def __post_init__(self) -> None:
        if self.tau <= 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        d = self.embedder.dimension
        if self.wq.shape != (d, d) or self.wp.shape != (d, d):
            raise ConfigError("projection shapes do not match the embedder dimension")
        if self.qpm_w.shape != (2 * d + 1,):
            raise ConfigError("match head must have 2d+1 entries")

    @property
    def dimension(self) -> int:
        return self.embedder.dimension

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.wq.ravel(), self.wp.ravel(), self.qpm_w])

    def with_vector(self, vector: np.ndarray) -> "EncoderParams":
        d = self.dimension
        sizes = [d * d, d * d, 2 * d + 1]
        if vector.size != sum(sizes):
            raise ConfigError(
                f"encoder vector has {vector.size} entries, expected {sum(sizes)}"
            )
        chunks = np.split(vector.astype(np.float64), np.cumsum(sizes)[:-1])
        return EncoderParams(
            wq=chunks[0].reshape(d, d),
            wp=chunks[1].reshape(d, d),
            qpm_w=chunks[2].copy(),
            tau=self.tau,
            embedder=self.embedder,
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.wq.copy(), self.wp.copy(), self.qpm_w.copy(), self.tau, self.embedder
        )


def init_encoder_params(
    embedder: EmbedderConfig, seed: int = 0, tau: float = 0.07, scale: float | None = None
) -> EncoderParams:
    """Identity projections by default, so an untrained selector ranks by
    base-embedding cosine; pass a scale for random gaussian projections."""
    d = embedder.dimension
    if scale is None:
        wq = np.eye(d)
        wp = np.eye(d)
    else:
        rng = np.random.default_rng(seed)
        wq = scale * rng.standard_normal((d, d))
        wp = scale * rng.standard_normal((d, d))
    return EncoderParams(
        wq=wq,
        wp=wp,
        qpm_w=np.zeros(2 * d + 1),
        tau=tau,
        embedder=embedder,
    )


def _project(matrix: np.ndarray, base: EmbeddingVector) -> tuple[np.ndarray, np.ndarray, float]:
    """Project and unit-normalize; returns (normalized, raw, raw_norm)."""
    raw = matrix @ base.values.astype(np.float64)
    norm = float(np.linalg.norm(raw))
    if not base.valid or norm == 0.0:
        return np.zeros(matrix.shape[0]), raw, 0.0
    return raw / norm, raw, norm


def encode_question(params: EncoderParams, question: str) -> EmbeddingVector:
    base = embed_text(question, params.embedder)
    normalized, _, norm = _project(params.wq, base)
    return EmbeddingVector(normalized.astype(np.float32), valid=norm > 0.0)


def encode_path(params: EncoderParams, path: InstructionPath) -> EmbeddingVector:
    base = embed_text(path.serialized(), params.embedder)
    normalized, _, norm = _project(params.wp, base)
    return EmbeddingVector(normalized.astype(np.float32), valid=norm > 0.0)


def _normalize_backprop(
    d_normalized: np.ndarray, normalized: np.ndarray, norm: float
) -> np.ndarray:
    if norm == 0.0:
        return np.zeros_like(d_normalized)
    return (d_normalized - np.dot(d_normalized, normalized) * normalized) / norm


@dataclass
class _EncodedBatch:
    q_base: list[EmbeddingVector]
    p_base: list[EmbeddingVector]
    q: np.ndarray  # (n_q, d) normalized
    p: np.ndarray  # (n_p, d) normalized
    q_norms: np.ndarray
    p_norms: np.ndarray


def _encode(
    params: EncoderParams, questions: list[str], paths: list[InstructionPath]
) -> _EncodedBatch:
    """Embed and project questions and paths; the two lists may differ in length."""
    q_base = [embed_text(question, params.embedder) for question in questions]
    p_base = [embed_text(path.serialized(), params.embedder) for path in paths]
    q_rows = [_project(params.wq, qb) for qb in q_base]
    p_rows = [_project(params.wp, pb) for pb in p_base]
    return _EncodedBatch(
        q_base=q_base,
        p_base=p_base,
        q=np.stack([normalized for normalized, _, _ in q_rows]),
        p=np.stack([normalized for normalized, _, _ in p_rows]),
        q_norms=np.array([norm for _, _, norm in q_rows]),
        p_norms=np.array([norm for _, _, norm in p_rows]),
    )


def _anchor_softmax(row: np.ndarray, positive: int, strict: bool) -> tuple[float, np.ndarray]:
    """Log-sum-exp and softmax of one anchor's scores.

    The strict form drops the positive from the denominator, as printed;
    the default keeps it (standard form).
    """
    n = row.size
    if not strict:
        shifted = row - row.max()
        lse = float(np.log(np.exp(shifted).sum()) + row.max())
        return lse, np.exp(row - lse)
    if n < 2:
        raise DegenerateBatchError("the strict contrastive form needs at least two candidates")
    mask = np.ones(n, dtype=bool)
    mask[positive] = False
    masked = row[mask]
    shifted = masked - masked.max()
    lse = float(np.log(np.exp(shifted).sum()) + masked.max())
    soft = np.zeros(n)
    soft[mask] = np.exp(masked - lse)
    return lse, soft


def _contrastive_row_deltas(scores: np.ndarray, strict: bool) -> tuple[float, np.ndarray]:
    """Anchor-side InfoNCE over one score matrix; returns (loss, dL/dS).

    Rows are anchors, the diagonal holds the positives.
    """
    n = scores.shape[0]
    loss = 0.0
    deltas = np.zeros_like(scores)
    for i in range(n):
        lse, soft = _anchor_softmax(scores[i], i, strict)
        loss += -scores[i, i] + lse
        deltas[i] += soft / n
        deltas[i, i] += -1.0 / n
    return loss / n, deltas


def _accumulate_projection_grads(
    batch: _EncodedBatch, d_q: np.ndarray, d_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of wq and wp from dL/d(normalized projection) rows: per
    side, the sum over rows of outer(dL/d raw projection, base embedding)."""

    def accumulate(d_rows, rows, norms, bases) -> np.ndarray:
        terms = (
            np.outer(_normalize_backprop(d_row, row, norm), base.values.astype(np.float64))
            for d_row, row, norm, base in zip(d_rows, rows, norms, bases)
        )
        grad = next(terms)
        for term in terms:
            grad += term
        return grad

    return (
        accumulate(d_q, batch.q, batch.q_norms, batch.q_base),
        accumulate(d_p, batch.p, batch.p_norms, batch.p_base),
    )


@dataclass
class EncoderGrads:
    wq: np.ndarray
    wp: np.ndarray
    qpm_w: np.ndarray

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.wq.ravel(), self.wp.ravel(), self.qpm_w])

    def __add__(self, other: "EncoderGrads") -> "EncoderGrads":
        return EncoderGrads(self.wq + other.wq, self.wp + other.wp, self.qpm_w + other.qpm_w)


def qpa_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Symmetric in-batch contrastive alignment of question/path pairs."""
    if not pairs:
        raise DataError("qpa loss over an empty batch")
    batch = _encode(params, [question for question, _ in pairs], [path for _, path in pairs])
    scores = (batch.q @ batch.p.T) / params.tau
    loss_qp, deltas_qp = _contrastive_row_deltas(scores, strict)
    loss_pq, deltas_pq_t = _contrastive_row_deltas(scores.T, strict)
    loss = 0.5 * (loss_qp + loss_pq)
    d_scores = 0.5 * (deltas_qp + deltas_pq_t.T)
    d_q = (d_scores @ batch.p) / params.tau
    d_p = (d_scores.T @ batch.q) / params.tau
    g_wq, g_wp = _accumulate_projection_grads(batch, d_q, d_p)
    return loss, EncoderGrads(g_wq, g_wp, np.zeros_like(params.qpm_w))


def qpa_loss(
    params: EncoderParams, pairs: list[tuple[str, InstructionPath]], strict: bool = False
) -> float:
    return qpa_loss_and_grads(params, pairs, strict)[0]


def make_qpm_batch(
    pairs: list[tuple[str, InstructionPath]]
) -> list[tuple[str, InstructionPath, int]]:
    """Matched pairs labeled 1 plus an in-batch derangement labeled 0."""
    triples = [(question, path, 1) for question, path in pairs]
    if len(pairs) >= 2:
        for i, (question, _) in enumerate(pairs):
            triples.append((question, pairs[(i + 1) % len(pairs)][1], 0))
    return triples


def qpm_loss_and_grads(
    params: EncoderParams, triples: list[tuple[str, InstructionPath, int]]
) -> tuple[float, EncoderGrads]:
    """Binary cross-entropy of the linear match head over projected pairs."""
    if not triples:
        raise DataError("qpm loss over an empty batch")
    d = params.dimension
    batch = _encode(params, [q for q, _, _ in triples], [p for _, p, _ in triples])
    labels = np.array([label for _, _, label in triples], dtype=np.float64)
    count = labels.size
    w_q = params.qpm_w[:d]
    w_p = params.qpm_w[d : 2 * d]
    bias = params.qpm_w[-1]
    loss = 0.0
    g_head = np.zeros_like(params.qpm_w)
    d_q = np.zeros_like(batch.q)
    d_p = np.zeros_like(batch.p)
    for i, label in enumerate(labels):
        z = float(w_q @ batch.q[i] + w_p @ batch.p[i] + bias)
        prob = 1.0 / (1.0 + np.exp(-z))
        clipped = float(np.clip(prob, 1e-7, 1.0 - 1e-7))
        loss += -(label * np.log(clipped) + (1.0 - label) * np.log(1.0 - clipped))
        dz = (prob - label) / count
        g_head[:d] += dz * batch.q[i]
        g_head[d : 2 * d] += dz * batch.p[i]
        g_head[-1] += dz
        d_q[i] = dz * w_q
        d_p[i] = dz * w_p
    g_wq, g_wp = _accumulate_projection_grads(batch, d_q, d_p)
    return loss / count, EncoderGrads(g_wq, g_wp, g_head)


def qpm_loss(params: EncoderParams, triples) -> float:
    return qpm_loss_and_grads(params, triples)[0]


def pt_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, float, EncoderGrads]:
    """Pre-training objective: alignment loss plus match loss."""
    align, g_align = qpa_loss_and_grads(params, pairs, strict)
    match, g_match = qpm_loss_and_grads(params, make_qpm_batch(pairs))
    return align, match, g_align + g_match


@dataclass
class PoolEntry:
    path: InstructionPath
    delta: float | None = None
    failed: bool = False
    answer: str = ""


@dataclass
class PathPool:
    entries: list[PoolEntry] = field(default_factory=list)
    best_index: int | None = None

    @classmethod
    def from_paths(cls, paths: list[InstructionPath]) -> "PathPool":
        return cls(entries=[PoolEntry(path=p) for p in paths])

    def paths(self) -> list[InstructionPath]:
        return [entry.path for entry in self.entries]


def ft_loss_and_grads(
    params: EncoderParams,
    question: str,
    pool: PathPool,
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Hard-negative contrastive loss against the pool's best path.

    With a single question anchor the path-anchored half of the
    symmetric loss is vacuously zero; it is kept in the average so the
    two halves weigh as documented.
    """
    if pool.best_index is None:
        raise DataError("ft loss needs a pool with best_index set")
    batch = _encode(params, [question], pool.paths())
    q_n = batch.q[0]
    scores = (batch.p @ q_n) / params.tau
    best = pool.best_index
    lse, soft = _anchor_softmax(scores, best, strict)
    loss = 0.5 * (-scores[best] + lse)
    d_scores = 0.5 * soft
    d_scores[best] -= 0.5
    d_q = ((d_scores @ batch.p) / params.tau)[None, :]
    d_p = np.outer(d_scores, q_n) / params.tau
    g_wq, g_wp = _accumulate_projection_grads(batch, d_q, d_p)
    return float(loss), EncoderGrads(g_wq, g_wp, np.zeros_like(params.qpm_w))


def candidate_similarities(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> np.ndarray:
    encoded_q = encode_question(params, question)
    return np.array(
        [cosine(encoded_q, encode_path(params, path)) for path in candidates]
    )


def select_path(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> InstructionPath:
    """Cosine argmax over candidates; ties go to the lowest index."""
    if not candidates:
        raise NotFoundError("select_path over an empty candidate list")
    sims = candidate_similarities(params, question, candidates)
    return candidates[int(np.argmax(sims))]


def save_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> None:
    write_versioned(
        destination,
        ENCODER_KIND,
        {
            "dimension": params.dimension,
            "tau": params.tau,
            "strict_qpa": strict_qpa,
            "embedder": params.embedder.to_json(),
            "data": {
                "wq": floats_to_hex(params.wq.ravel(), dtype="<f8"),
                "wp": floats_to_hex(params.wp.ravel(), dtype="<f8"),
                "qpm_w": floats_to_hex(params.qpm_w, dtype="<f8"),
            },
        },
    )


def load_encoder(source) -> tuple[EncoderParams, bool]:
    doc = read_versioned(source, ENCODER_KIND)
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        d = int(doc["dimension"])
        data = doc["data"]
        params = EncoderParams(
            wq=hex_to_floats(data["wq"], d * d, dtype="<f8").reshape(d, d),
            wp=hex_to_floats(data["wp"], d * d, dtype="<f8").reshape(d, d),
            qpm_w=hex_to_floats(data["qpm_w"], 2 * d + 1, dtype="<f8"),
            tau=float(doc["tau"]),
            embedder=embedder,
        )
        return params, bool(doc["strict_qpa"])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
