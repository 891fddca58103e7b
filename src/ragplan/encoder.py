"""Dual-encoder path selection.

Questions and serialized instruction paths are embedded by the shared
base embedder, passed through separate trainable linear projections,
and unit-normalized. Pre-training aligns paired question/path
encodings with a symmetric contrastive loss plus a binary match head;
fine-tuning contrasts the answer-verified best path of a pool against
the rest. Selection is a plain cosine argmax, so nothing depends on
how many candidates are offered. Serving and training select alike,
through ``PoolRows``: one projection product per side, then one
``np.vecdot`` of the float64 unit projections.

Parameters live in one flat float64 buffer laid out ``wq | wp | qpm_w``,
each projection stored column-major. Base embeddings are sparse: a
hashed demo text sets a few hundred of d = 1024 columns. So a projection
multiplies only the columns its batch uses, ``x[:, used] @ W[:,
used].T``, and reads just those columns of W, each one contiguous,
gathering a few hundred at a time. Training, ``AdaptedEncoder``,
``PoolRows`` and serving all project through this one product
(``EncoderParams.project``).

A projection's gradient is a sum of products ``d_rawᵀ @ base`` over a
few rows, so the losses return it as factors: the rows of ``d_raw`` and
the base-embedding rows they multiply (``Factors``, held by
``EncoderGrads``). A sum of gradients stacks its rows. An encoder moved
by such steps is an ``AdaptedEncoder``, the base plus the steps'
factors, which projects rows without forming its weights. Factors
become dense only when asked: ``EncoderGrads.to_vector`` and its
``wq``/``wp`` views form the gradient with one product per side, in the
parameters' layout, as Adam needs it; ``AdaptedEncoder.dense`` forms
adapted weights, as a saved file needs them.

On disk an encoder is a versioned JSON header plus a sidecar payload of
raw little-endian float64. Training moves each projection away from its
identity init only on a block of rows × columns, so the payload holds,
for ``wq`` then ``wp``, the smallest block outside which the projection
equals the identity bit for bit, column by column as the buffer holds
it, then ``qpm_w``. The header records each block's sorted row and
column index sets, the payload's file name and value count, and one
sha256 over the index sets and the values. Loading checks all of them
and that every value is finite, and reads the blocks into one buffer
filled with the identity. Given the embedder config of the graph the
encoder serves, it checks the header against it before it allocates
anything. The trained demo encoder (d = 1024) stores 9.4 MB of its
16.8 MB of weights.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import InstructionPath
from .corpus import score  # noqa: F401  bench/tracer.py wraps ragplan.encoder.score
from .embedding import EmbedderConfig, embed_text
from .embedding import cosine  # noqa: F401  bench/tracer.py wraps ragplan.encoder.cosine
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .serialize import read_value, read_versioned, write_versioned

ENCODER_KIND = "encoder-header"
ENCODER_LAYOUT = "identity-column-blocks"
PAYLOAD_SUFFIX = ".f64"
SIDES = ("wq", "wp")  # the projections, as named in EncoderParams and EncoderGrads
_ONE_BITS = np.float64(1.0).view(np.uint64)
_PIECE_VALUES = 1 << 14  # values a save or load moves at a time: 128 KB
# Columns of W a projection gathers at a time: 2 MB at d = 1024. On the
# demo, a read's question uses about 130 columns and its candidate paths
# about 310; a training projection uses 425 at the median and up to 616.
# Gathering all of them at once left 3-5 MB temporaries that raised
# serve-demo's peak RSS from 176 to 191 MB (heap fragmentation across its
# two training builds).
_PROJECT_COLUMNS = 256


def _flat_size(d: int) -> int:
    return 2 * d * d + 2 * d + 1


def _split(flat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``wq``, ``wp`` and ``qpm_w`` views of a ``wq | wp | qpm_w`` buffer,
    where each d×d projection is stored column-major: ``wq[r, c]`` is
    ``flat[c * d + r]``."""
    wq, wp = (flat[k * d * d : (k + 1) * d * d].reshape(d, d, order="F") for k in (0, 1))
    return wq, wp, flat[2 * d * d :]


def _assign(view: np.ndarray, value, message: str) -> None:
    value = np.asarray(value, dtype=np.float64)
    if value.shape != view.shape:
        raise ConfigError(message)
    view[...] = value


class EncoderParams:
    """Encoder weights in one flat float64 buffer laid out ``wq | wp |
    qpm_w``, the ``to_vector`` layout, with each projection column-major;
    ``wq``, ``wp`` and ``qpm_w`` are views of it.

    The buffer has one owner. The constructor copies its arrays into a
    new buffer, and assigning a field writes into the buffer.
    ``to_vector`` returns the buffer as a read-only view, so a write to
    that vector raises instead of changing these params.
    ``with_vector`` takes a writable, contiguous float64 vector over
    without a copy: the caller gives it up, and a later write to it
    changes the new params and no others. It copies any other vector,
    such as another params' ``to_vector()``.
    """

    def __init__(
        self,
        wq: np.ndarray,  # (d, d) question projection
        wp: np.ndarray,  # (d, d) path projection
        qpm_w: np.ndarray,  # (2d + 1,) linear match head over [q ; p ; 1]
        tau: float,
        embedder: EmbedderConfig,
    ) -> None:
        self._own(np.empty(_flat_size(embedder.dimension)), tau, embedder)
        self.wq, self.wp, self.qpm_w = wq, wp, qpm_w

    @classmethod
    def _wrap(cls, flat: np.ndarray, tau: float, embedder: EmbedderConfig) -> "EncoderParams":
        params = cls.__new__(cls)
        params._own(flat, tau, embedder)
        return params

    def _own(self, flat: np.ndarray, tau: float, embedder: EmbedderConfig) -> None:
        if tau <= 0:
            raise ConfigError(f"temperature must be positive, got {tau}")
        self._flat, self.tau, self.embedder = flat, tau, embedder

    @property
    def dimension(self) -> int:
        return self.embedder.dimension

    @property
    def wq(self) -> np.ndarray:
        return _split(self._flat, self.dimension)[0]

    @wq.setter
    def wq(self, value) -> None:
        _assign(self.wq, value, "projection shapes do not match the embedder dimension")

    @property
    def wp(self) -> np.ndarray:
        return _split(self._flat, self.dimension)[1]

    @wp.setter
    def wp(self, value) -> None:
        _assign(self.wp, value, "projection shapes do not match the embedder dimension")

    @property
    def qpm_w(self) -> np.ndarray:
        return _split(self._flat, self.dimension)[2]

    @qpm_w.setter
    def qpm_w(self, value) -> None:
        _assign(self.qpm_w, value, "match head must have 2d+1 entries")

    def to_vector(self) -> np.ndarray:
        vector = self._flat.view()
        vector.flags.writeable = False
        return vector

    def with_vector(self, vector: np.ndarray) -> "EncoderParams":
        size = _flat_size(self.dimension)
        if vector.size != size:
            raise ConfigError(f"encoder vector has {vector.size} entries, expected {size}")
        flags = vector.flags
        if not (vector.dtype == np.float64 and flags.writeable and flags.c_contiguous):
            vector = np.array(vector, dtype=np.float64)
        return EncoderParams._wrap(vector, self.tau, self.embedder)

    def copy(self) -> "EncoderParams":
        return EncoderParams._wrap(self._flat.copy(), self.tau, self.embedder)

    def project(self, side: str, x: np.ndarray) -> np.ndarray:
        """Rows ``x`` of base embeddings through projection ``side``,
        ``x[:, used] @ W[:, used].T`` over the columns some row uses, so
        only those columns of W are read. W's columns are gathered
        ``_PROJECT_COLUMNS`` at a time. A batch that uses no column
        projects to zero rows."""
        used = np.flatnonzero(x.any(axis=0))
        w = getattr(self, side)
        out = np.zeros((len(x), self.dimension))
        for start in range(0, used.size, _PROJECT_COLUMNS):
            columns = used[start : start + _PROJECT_COLUMNS]
            out += x[:, columns] @ w[:, columns].T
        return out


def init_encoder_params(
    embedder: EmbedderConfig, seed: int = 0, tau: float = 0.07, scale: float | None = None
) -> EncoderParams:
    """Identity projections by default, so an untrained selector ranks by
    base-embedding cosine; pass a scale for random gaussian projections."""
    d = embedder.dimension
    params = EncoderParams._wrap(np.zeros(_flat_size(d)), tau, embedder)
    if scale is None:
        np.fill_diagonal(params.wq, 1.0)
        np.fill_diagonal(params.wp, 1.0)
    else:
        rng = np.random.default_rng(seed)
        params.wq = scale * rng.standard_normal((d, d))
        params.wp = scale * rng.standard_normal((d, d))
    return params


@dataclass
class _Rows:
    """Texts of one side, embedded and projected as rows."""

    base: np.ndarray  # (n, d) float64 base embeddings
    unit: np.ndarray  # (n, d) unit-normalized projections; zero where the norm is 0
    norms: np.ndarray  # (n,) projection norms

    def take(self, index) -> "_Rows":
        return _Rows(self.base[index], self.unit[index], self.norms[index])


def _project_rows(encoder, side: str, texts: list[str]) -> _Rows:
    """Embed texts (questions or serialized paths) and project every row
    through the encoder's ``side`` (``"wq"`` or ``"wp"``) at once. A row
    with a zero projection, as of a text that embeds invalid (a zero
    vector), stays zero and has norm 0."""
    embedder = encoder.embedder
    base = np.array(
        [embed_text(text, embedder).values for text in texts], dtype=np.float64
    ).reshape(len(texts), embedder.dimension)
    raw = encoder.project(side, base)
    norms = np.sqrt(np.vecdot(raw, raw))
    unit = np.divide(raw, norms[:, None], out=np.zeros_like(raw), where=norms[:, None] > 0.0)
    return _Rows(base, unit, norms)


@dataclass(frozen=True)
class Factors:
    """A d×d matrix kept as ``d_rawᵀ @ base``: rows of back-propagated
    error (scaled by the learning rate in an update) and the base-embedding
    rows they multiply. A sum of such matrices stacks its rows."""

    d_raw: np.ndarray  # (m, d)
    base: np.ndarray  # (m, d)

    @classmethod
    def of(cls, rows: _Rows, d_unit: np.ndarray) -> "Factors":
        """The gradient of a projection matrix from dL/d(unit rows): back
        through the normalization row by row; a zero-norm row gets zero."""
        tangent = d_unit - np.vecdot(d_unit, rows.unit)[:, None] * rows.unit
        norms = rows.norms[:, None]
        d_raw = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0.0)
        return cls(d_raw, rows.base)

    @classmethod
    def stack(cls, parts: list["Factors"], dimension: int) -> "Factors":
        if not parts:
            return cls(np.zeros((0, dimension)), np.zeros((0, dimension)))
        return cls(np.concatenate([f.d_raw for f in parts]), np.concatenate([f.base for f in parts]))

    def dense(self, out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(self.d_raw.T, self.base, out=out)


class EncoderGrads:
    """Encoder gradients as factors: ``factors["wq"]`` and ``factors["wp"]``
    are the projections' gradients as ``Factors``, and ``head`` the match
    head's dense (2d + 1,) gradient.

    Nothing d×d is formed until asked. ``to_vector`` forms the dense
    gradient on its first call, one ``matmul`` per side, in one flat
    buffer in the ``to_vector`` layout of ``EncoderParams``, and returns
    that same buffer from then on; ``wq``, ``wp`` and ``qpm_w`` are views
    of it."""

    def __init__(self, wq: Factors, wp: Factors, head: np.ndarray) -> None:
        self.factors = {"wq": wq, "wp": wp}
        self.head = head
        self._flat: np.ndarray | None = None

    @classmethod
    def total(cls, parts: list["EncoderGrads"], dimension: int) -> "EncoderGrads":
        """The sum of ``parts``, with each side's factors stacked so that its
        dense form is one product."""
        factors = [Factors.stack([g.factors[side] for g in parts], dimension) for side in SIDES]
        head = np.zeros(2 * dimension + 1)
        for grads in parts:
            head += grads.head
        return cls(*factors, head)

    def scaled(self, factor: float) -> "EncoderGrads":
        return EncoderGrads(
            *(Factors(factor * self.factors[side].d_raw, self.factors[side].base) for side in SIDES),
            factor * self.head,
        )

    def to_vector(self) -> np.ndarray:
        if self._flat is None:
            d = self.head.size // 2
            flat = np.empty(_flat_size(d))
            wq, wp, qpm_w = _split(flat, d)
            self.factors["wq"].dense(out=wq)
            self.factors["wp"].dense(out=wp)
            qpm_w[:] = self.head
            self._flat = flat
        return self._flat

    @property
    def wq(self) -> np.ndarray:
        return _split(self.to_vector(), self.head.size // 2)[0]

    @property
    def wp(self) -> np.ndarray:
        return _split(self.to_vector(), self.head.size // 2)[1]

    @property
    def qpm_w(self) -> np.ndarray:
        return _split(self.to_vector(), self.head.size // 2)[2]


class AdaptedEncoder:
    """``base`` moved by gradient steps that stay factors.

    ``update`` is the sum of the steps taken, each gradient scaled by its
    learning rate, so an adapted projection is ``W − Uᵀ @ B`` for the
    base's ``W`` and the update's stacked rows ``U`` (scaled ``d_raw``)
    and ``B`` (their base embeddings). It is never formed: a row block x
    projects as ``x Wᵀ − (x Bᵀ) U``. The match head, 2d + 1 values, is
    kept dense. ``dense`` forms the adapted weights once, as new params.
    """

    def __init__(self, base: EncoderParams, update: EncoderGrads | None = None) -> None:
        self.base = base
        self.update = EncoderGrads.total([], base.dimension) if update is None else update
        self.qpm_w = base.qpm_w - self.update.head
        self.tau, self.embedder = base.tau, base.embedder

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def project(self, side: str, x: np.ndarray) -> np.ndarray:
        step = self.update.factors[side]
        return self.base.project(side, x) - (x @ step.base.T) @ step.d_raw

    def descend(self, grads: EncoderGrads, lr: float) -> "AdaptedEncoder":
        """This encoder moved by ``-lr * grads``, still as factors."""
        return AdaptedEncoder(
            self.base, EncoderGrads.total([self.update, grads.scaled(lr)], self.dimension)
        )

    def dense(self) -> EncoderParams:
        """``base − update`` as new params: one product per side."""
        return self.base.with_vector(self.base.to_vector() - self.update.to_vector())


def _info_nce(scores: np.ndarray, positives: np.ndarray, strict: bool) -> tuple[float, np.ndarray]:
    """InfoNCE of each score row against its positive column, averaged
    over rows; returns (loss, dL/d scores).

    The standard form keeps the positive in the log-sum-exp; the strict
    form leaves it out, as printed in the paper. A strict row with no
    other column has no negative and gives zero loss and zero gradient.
    """
    n, columns = scores.shape
    if strict and columns < 2:
        return 0.0, np.zeros_like(scores)
    rows = np.arange(n)
    kept = scores.copy()
    if strict:
        kept[rows, positives] = -np.inf
    top = kept.max(axis=1, keepdims=True)
    lse = np.log(np.exp(kept - top).sum(axis=1, keepdims=True)) + top
    deltas = np.exp(kept - lse) / n
    deltas[rows, positives] -= 1.0 / n
    return float((lse[:, 0] - scores[rows, positives]).sum() / n), deltas


def _contrastive(
    tau: float, q: _Rows, p: _Rows, d_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """dL/d(unit rows) of each side for a loss over ``q.unit @ p.unit.T / tau``."""
    return (d_scores @ p.unit) / tau, (d_scores.T @ q.unit) / tau


def _grads(q: _Rows, p: _Rows, d_q: np.ndarray, d_p: np.ndarray, head=None) -> EncoderGrads:
    if head is None:
        head = np.zeros(2 * q.base.shape[1] + 1)
    return EncoderGrads(Factors.of(q, d_q), Factors.of(p, d_p), head)


def _pair_rows(encoder, pairs: list[tuple[str, InstructionPath]]) -> tuple[_Rows, _Rows]:
    q = _project_rows(encoder, "wq", [question for question, _ in pairs])
    p = _project_rows(encoder, "wp", [path.serialized() for _, path in pairs])
    return q, p


def _qpa(tau: float, q: _Rows, p: _Rows, strict: bool):
    """Symmetric in-batch InfoNCE of row-aligned pairs; returns the loss and
    dL/d(unit rows) of each side."""
    scores = (q.unit @ p.unit.T) / tau
    diagonal = np.arange(len(q.norms))
    loss_qp, deltas_qp = _info_nce(scores, diagonal, strict)
    loss_pq, deltas_pq = _info_nce(scores.T, diagonal, strict)
    return 0.5 * (loss_qp + loss_pq), *_contrastive(tau, q, p, 0.5 * (deltas_qp + deltas_pq.T))


def qpa_loss_and_grads(
    encoder,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Symmetric in-batch contrastive alignment of question/path pairs."""
    if not pairs:
        raise DataError("qpa loss over an empty batch")
    q, p = _pair_rows(encoder, pairs)
    loss, d_q, d_p = _qpa(encoder.tau, q, p, strict)
    return loss, _grads(q, p, d_q, d_p)


def _qpm_pairing(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair rows and labels of ``make_qpm_batch`` over ``n`` pairs: each
    matched pair labeled 1, then, from two pairs on, each question with
    the next pair's path labeled 0."""
    rows = np.arange(n)
    if n < 2:
        return rows, rows, np.ones(n)
    return (
        np.concatenate([rows, rows]),
        np.concatenate([rows, np.roll(rows, -1)]),
        np.concatenate([np.ones(n), np.zeros(n)]),
    )


def make_qpm_batch(
    pairs: list[tuple[str, InstructionPath]]
) -> list[tuple[str, InstructionPath, int]]:
    """Matched pairs labeled 1 plus an in-batch derangement labeled 0."""
    questions, paths, labels = _qpm_pairing(len(pairs))
    return [
        (pairs[i][0], pairs[j][1], int(label)) for i, j, label in zip(questions, paths, labels)
    ]


def _qpm(qpm_w: np.ndarray, q: _Rows, p: _Rows, labels: np.ndarray):
    """Binary cross-entropy of the linear match head over row-aligned
    pairs; returns the loss, dL/d(unit rows) of each side and the head's
    gradient."""
    d = q.base.shape[1]
    count = labels.size
    w_q = qpm_w[:d]
    w_p = qpm_w[d : 2 * d]
    z = q.unit @ w_q + p.unit @ w_p + qpm_w[-1]
    prob = 1.0 / (1.0 + np.exp(-z))
    clipped = np.clip(prob, 1e-7, 1.0 - 1e-7)
    loss = -(labels * np.log(clipped) + (1.0 - labels) * np.log(1.0 - clipped)).sum()
    dz = (prob - labels) / count
    head = np.empty(2 * d + 1)
    head[:d] = dz @ q.unit
    head[d : 2 * d] = dz @ p.unit
    head[-1] = dz.sum()
    return float(loss / count), np.outer(dz, w_q), np.outer(dz, w_p), head


def qpm_loss_and_grads(
    encoder, triples: list[tuple[str, InstructionPath, int]]
) -> tuple[float, EncoderGrads]:
    """Binary cross-entropy of the linear match head over projected pairs."""
    if not triples:
        raise DataError("qpm loss over an empty batch")
    q, p = _pair_rows(encoder, [(question, path) for question, path, _ in triples])
    labels = np.array([label for _, _, label in triples], dtype=np.float64)
    loss, d_q, d_p, head = _qpm(encoder.qpm_w, q, p, labels)
    return loss, _grads(q, p, d_q, d_p, head)


def pt_loss_and_grads(
    encoder,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, float, EncoderGrads]:
    """Pre-training objective: alignment loss plus match loss.

    The match batch (``make_qpm_batch``) pairs the same texts again, so
    both losses read one projection per side, and their row gradients
    add up before one back-projection per side."""
    if not pairs:
        raise DataError("qpa loss over an empty batch")
    q, p = _pair_rows(encoder, pairs)
    align, d_q, d_p = _qpa(encoder.tau, q, p, strict)
    questions, paths, labels = _qpm_pairing(len(pairs))
    match, m_q, m_p, head = _qpm(encoder.qpm_w, q.take(questions), p.take(paths), labels)
    np.add.at(d_q, questions, m_q)
    np.add.at(d_p, paths, m_p)
    return align, match, _grads(q, p, d_q, d_p, head)


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


class PoolRows:
    """Questions and the paths of their pools, each side projected in one
    product, for selection and fine-tuning alike.

    Question ``i`` owns the pool paths ``pools[i]``, stored one after the
    other in ``p``; ``similarities`` and ``ft_loss_and_grads`` read the
    same rows."""

    def __init__(self, encoder, questions: list[str], pools: list[list[InstructionPath]]) -> None:
        self.tau = encoder.tau
        self.q = _project_rows(encoder, "wq", questions)
        self.p = _project_rows(encoder, "wp", [path.serialized() for pool in pools for path in pool])
        self.starts = np.cumsum([0] + [len(pool) for pool in pools])

    def _pool(self, i: int, count: int | None = None) -> _Rows:
        start, end = self.starts[i], self.starts[i + 1]
        return self.p.take(slice(start, end if count is None else start + count))

    def similarities(self, i: int, count: int) -> np.ndarray:
        """The cosine of question ``i``'s encoding with each of the first
        ``count`` paths of its pool: the dot products of their float64 unit
        rows, 0 where either projection is zero."""
        return np.vecdot(self._pool(i, count).unit, self.q.unit[i])

    def ft_loss_and_grads(self, i: int, best: int, strict: bool) -> tuple[float, EncoderGrads]:
        """``ft_loss_and_grads`` of question ``i`` against its pool."""
        q, p = self.q.take(slice(i, i + 1)), self._pool(i)
        loss, deltas = _info_nce((q.unit @ p.unit.T) / self.tau, np.array([best]), strict)
        return 0.5 * loss, _grads(q, p, *_contrastive(self.tau, q, p, 0.5 * deltas))


def ft_loss_and_grads(
    encoder,
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
    return PoolRows(encoder, [question], [pool.paths()]).ft_loss_and_grads(
        0, pool.best_index, strict
    )


def candidate_similarities(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> np.ndarray:
    """``PoolRows.similarities`` of one question and its candidates."""
    return PoolRows(params, [question], [candidates]).similarities(0, len(candidates))


def select_path(
    params: EncoderParams, question: str, candidates: list[InstructionPath]
) -> InstructionPath:
    """Cosine argmax over candidates; ties go to the lowest index."""
    if not candidates:
        raise NotFoundError("select_path over an empty candidate list")
    sims = candidate_similarities(params, question, candidates)
    return candidates[int(np.argmax(sims))]


def _moved_block(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted rows and columns of the smallest block outside which the
    d×d projection ``w`` equals the identity bit for bit, so a ``-0.0``
    counts as moved."""
    moved = w.view(np.uint64) != 0
    diagonal = np.arange(len(w))
    moved[diagonal, diagonal] = np.diagonal(w).view(np.uint64) != _ONE_BITS
    return np.flatnonzero(moved.any(axis=1)), np.flatnonzero(moved.any(axis=0))


def _index_set(values, d: int) -> np.ndarray:
    """A header's index list, which must hold sorted, distinct ints in [0, d)."""
    if not (
        isinstance(values, list)
        and all(type(v) is int and 0 <= v < d for v in values)
        and all(a < b for a, b in zip(values, values[1:]))
    ):
        raise ValueError(f"an index set must list sorted, distinct integers in [0, {d})")
    return np.array(values, dtype=np.intp)


def _block_values(blocks: list[tuple[np.ndarray, np.ndarray]], d: int) -> int:
    return sum(rows.size * cols.size for rows, cols in blocks) + 2 * d + 1


def _block_digest(blocks: list[tuple[np.ndarray, np.ndarray]]):
    """A sha256 started on the blocks' index sets, each side's sizes first,
    to be continued with the payload's values."""
    digest = hashlib.sha256()
    for rows, cols in blocks:
        digest.update(np.concatenate([[rows.size, cols.size], rows, cols]).astype("<i8"))
    return digest


def _block_pieces(blocks: list[tuple[np.ndarray, np.ndarray]], d: int):
    """Each side's block in payload order, as pieces of whole block columns
    and at most ``_PIECE_VALUES`` values. A piece is the ascending
    positions of its values in the params' flat buffer, where a projection
    is column-major, so the payload holds each block column by column,
    its rows ascending."""
    for offset, (rows, cols) in zip((0, d * d), blocks):
        step = max(1, _PIECE_VALUES // max(1, rows.size))
        for start in range(0, cols.size, step):
            yield (offset + cols[start : start + step, None] * d + rows).ravel()


def save_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> Path:
    """Write the header ``destination`` and, next to it, the payload: for
    ``wq`` then ``wp``, the block where the projection differs from the
    identity, column by column, then ``qpm_w``, as raw little-endian float64.
    The header names the payload and records the blocks' row and column
    index sets, the value count and a sha256 of index sets and values.
    Returns the payload's path."""
    destination = Path(destination)
    payload = destination.with_suffix(PAYLOAD_SUFFIX)
    if payload == destination:
        raise ConfigError(f"an encoder header cannot be named *{PAYLOAD_SUFFIX}: {destination}")
    blocks = [_moved_block(getattr(params, side)) for side in SIDES]
    digest = _block_digest(blocks)
    flat = params.to_vector()
    with open(payload, "wb") as handle:
        for positions in _block_pieces(blocks, params.dimension):
            values = flat[positions].astype("<f8", copy=False)
            digest.update(values)
            values.tofile(handle)
        head = params.qpm_w.astype("<f8", copy=False)
        digest.update(head)
        head.tofile(handle)
    write_versioned(
        destination,
        ENCODER_KIND,
        {
            "dimension": params.dimension,
            "tau": params.tau,
            "strict_qpa": strict_qpa,
            "embedder": params.embedder.to_json(),
            "layout": ENCODER_LAYOUT,
            "blocks": {
                side: {"rows": rows.tolist(), "cols": cols.tolist()}
                for side, (rows, cols) in zip(SIDES, blocks)
            },
            "payload": {
                "file": payload.name,
                "values": _block_values(blocks, params.dimension),
                "sha256": digest.hexdigest(),
            },
        },
    )
    return payload


def _read_into(handle, out: np.ndarray, digest) -> bool:
    """Fill ``out`` from the payload and go on with ``digest``; returns
    whether every value read is finite."""
    if handle.readinto(out) != out.nbytes:
        raise MalformedFileError(f"{handle.name}: payload ends early")
    digest.update(out)
    return bool(np.isfinite(out).all())


def load_encoder(
    source, expected_embedder: EmbedderConfig | None = None
) -> tuple[EncoderParams, bool]:
    """Read an encoder header and its payload; returns (params, strict_qpa).

    Given ``expected_embedder``, the config of the graph the encoder
    serves, the header's embedder must equal it; this is checked before
    anything is allocated, so a header cannot size the buffer past the
    graph's dimension. The header's index sets must be sorted, distinct
    and in range, and its value count must be what they and the dimension
    make. The payload must sit next to the header, hold exactly that
    count, hash with the index sets to the header's sha256 and be finite.
    The params own one buffer, filled with the identity; each block is
    read piece by piece into it."""
    doc = read_versioned(source, ENCODER_KIND)
    if doc.get("layout") != ENCODER_LAYOUT:
        raise MalformedFileError(
            f"{source}: encoder header has layout {doc.get('layout')!r}, this build reads "
            f"{ENCODER_LAYOUT!r}; re-save it by running train or adapt again with this build"
        )
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        d = read_value(doc, "dimension", int)
        tau = read_value(doc, "tau", float)
        strict = doc["strict_qpa"]
        name = doc["payload"]["file"]
        count = read_value(doc["payload"], "values", int)
        expected = str(doc["payload"]["sha256"])
        blocks = [
            tuple(_index_set(doc["blocks"][side][key], d) for key in ("rows", "cols"))
            for side in SIDES
        ]
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        # A setting out of range in the file (embedder, tau, shapes) is bad data.
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
    if not isinstance(strict, bool):
        raise MalformedFileError(f"{source}: strict_qpa must be true or false, got {strict!r}")
    if expected_embedder is not None and embedder != expected_embedder:
        raise MalformedFileError(
            f"{source}: encoder embedder {embedder.to_json()} differs from the graph's "
            f"{expected_embedder.to_json()}"
        )
    if d != embedder.dimension or count != _block_values(blocks, d):
        raise MalformedFileError(
            f"{source}: header lists {count} values at dimension {d}, where its blocks "
            f"need {_block_values(blocks, d)} and the embedder's dimension is "
            f"{embedder.dimension}"
        )
    if not isinstance(name, str) or not name or Path(name).name != name:
        raise MalformedFileError(f"{source}: payload {name!r} is not a file name")
    payload = Path(source).with_name(name)
    digest = _block_digest(blocks)
    try:
        with open(payload, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            if size != 8 * count:
                raise MalformedFileError(f"{payload}: holds {size} bytes, expected {8 * count}")
            params = init_encoder_params(embedder, tau=tau)
            finite = bool(np.isfinite(tau))
            for positions in _block_pieces(blocks, d):
                piece = np.empty(positions.size, dtype="<f8")
                finite &= _read_into(handle, piece, digest)
                params._flat[positions] = piece
            finite &= _read_into(handle, params.qpm_w, digest)
    except OSError as exc:
        raise MalformedFileError(f"{source}: cannot read payload: {exc}") from exc
    except ConfigError as exc:  # tau out of range
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
    if digest.hexdigest() != expected:
        raise MalformedFileError(f"{payload}: sha256 does not match the encoder header")
    if not finite:
        raise MalformedFileError(f"{source}: encoder file holds a non-finite value")
    return params, strict
