"""Dual-encoder path selection.

Questions and serialized instruction paths are embedded by the shared
base embedder, passed through separate trainable linear projections,
and unit-normalized. Pre-training aligns paired question/path
encodings with a symmetric contrastive loss plus a binary match head;
fine-tuning contrasts the answer-verified best path of a pool against
the rest. Selection is a plain cosine argmax, so nothing depends on
how many candidates are offered.

Parameters and gradients each live in one flat float64 buffer laid out
``wq | wp | qpm_w``, and the meta-loop hands these buffers on without
copying them. On disk an encoder is a small versioned JSON header plus
a sidecar payload holding exactly that buffer as raw little-endian
float64; the header records the payload's file name, value count and
sha256, and loading checks all three and that every value is finite.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import InstructionPath
from .corpus import score  # noqa: F401  bench/tracer.py wraps ragplan.encoder.score
from .embedding import EmbedderConfig, EmbeddingVector, cosine, embed_text
from .errors import ConfigError, DataError, MalformedFileError, NotFoundError
from .serialize import read_versioned, write_versioned

ENCODER_KIND = "encoder-header"
PAYLOAD_SUFFIX = ".f64"
PATH_SEPARATOR = " -> "


def _flat_size(d: int) -> int:
    return 2 * d * d + 2 * d + 1


def _split(flat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``wq``, ``wp`` and ``qpm_w`` views of a ``wq | wp | qpm_w`` buffer."""
    return flat[: d * d].reshape(d, d), flat[d * d : 2 * d * d].reshape(d, d), flat[2 * d * d :]


def _assign(view: np.ndarray, value, message: str) -> None:
    value = np.asarray(value, dtype=np.float64)
    if value.shape != view.shape:
        raise ConfigError(message)
    view[...] = value


class EncoderParams:
    """Encoder weights in one flat float64 buffer laid out ``wq | wp |
    qpm_w``, the ``to_vector`` layout; ``wq``, ``wp`` and ``qpm_w`` are
    views of it.

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


def _project_rows(matrix: np.ndarray, texts: list[str], embedder: EmbedderConfig) -> _Rows:
    """Embed texts (questions or serialized paths, both ``transient`` as in
    ``embed_text``) and project every row through ``matrix`` at once. A row
    with a zero projection, as of a text that embeds invalid (a zero
    vector), stays zero and has norm 0."""
    base = np.array(
        [embed_text(text, embedder, transient=True).values for text in texts], dtype=np.float64
    )
    raw = base @ matrix.T
    norms = np.sqrt(np.vecdot(raw, raw))
    unit = np.divide(raw, norms[:, None], out=np.zeros_like(raw), where=norms[:, None] > 0.0)
    return _Rows(base, unit, norms)


def _project_backward(rows: _Rows, d_unit: np.ndarray, out: np.ndarray) -> None:
    """Write dL/d(projection matrix) into ``out`` from dL/d(unit rows):
    back through the normalization row by row, then one ``d_rawᵀ @ base``."""
    tangent = d_unit - np.vecdot(d_unit, rows.unit)[:, None] * rows.unit
    norms = rows.norms[:, None]
    d_raw = np.divide(tangent, norms, out=np.zeros_like(tangent), where=norms > 0.0)
    np.matmul(d_raw.T, rows.base, out=out)


def _encoding(rows: _Rows) -> EmbeddingVector:
    return EmbeddingVector(rows.unit[0].astype(np.float32), valid=bool(rows.norms[0] > 0.0))


def encode_question(params: EncoderParams, question: str) -> EmbeddingVector:
    return _encoding(_project_rows(params.wq, [question], params.embedder))


def encode_path(params: EncoderParams, path: InstructionPath) -> EmbeddingVector:
    return _encoding(_project_rows(params.wp, [path.serialized()], params.embedder))


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


class EncoderGrads:
    """Encoder gradients in one flat float64 buffer, in the ``to_vector``
    layout of ``EncoderParams``; ``wq``, ``wp`` and ``qpm_w`` are views of
    it. The buffer starts uninitialized, and every loss writes all three
    parts. ``to_vector`` returns the buffer itself, not a copy."""

    def __init__(self, dimension: int) -> None:
        self._flat = np.empty(_flat_size(dimension))
        self.wq, self.wp, self.qpm_w = _split(self._flat, dimension)

    def to_vector(self) -> np.ndarray:
        return self._flat


def _contrastive_grads(
    params: EncoderParams, q: _Rows, p: _Rows, d_scores: np.ndarray
) -> EncoderGrads:
    """Gradients of a loss over the scores ``q.unit @ p.unit.T / tau``."""
    grads = EncoderGrads(params.dimension)
    _project_backward(q, (d_scores @ p.unit) / params.tau, grads.wq)
    _project_backward(p, (d_scores.T @ q.unit) / params.tau, grads.wp)
    grads.qpm_w[:] = 0.0
    return grads


def qpa_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, EncoderGrads]:
    """Symmetric in-batch contrastive alignment of question/path pairs."""
    if not pairs:
        raise DataError("qpa loss over an empty batch")
    q = _project_rows(params.wq, [question for question, _ in pairs], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for _, path in pairs], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    diagonal = np.arange(len(pairs))
    loss_qp, deltas_qp = _info_nce(scores, diagonal, strict)
    loss_pq, deltas_pq = _info_nce(scores.T, diagonal, strict)
    loss = 0.5 * (loss_qp + loss_pq)
    return loss, _contrastive_grads(params, q, p, 0.5 * (deltas_qp + deltas_pq.T))


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
    grads = EncoderGrads(d)
    _project_backward(q, np.outer(dz, w_q), grads.wq)
    _project_backward(p, np.outer(dz, w_p), grads.wp)
    grads.qpm_w[:d] = dz @ q.unit
    grads.qpm_w[d : 2 * d] = dz @ p.unit
    grads.qpm_w[-1] = dz.sum()
    return float(loss / count), grads


def pt_loss_and_grads(
    params: EncoderParams,
    pairs: list[tuple[str, InstructionPath]],
    strict: bool = False,
) -> tuple[float, float, EncoderGrads]:
    """Pre-training objective: alignment loss plus match loss."""
    align, grads = qpa_loss_and_grads(params, pairs, strict)
    match, g_match = qpm_loss_and_grads(params, make_qpm_batch(pairs))
    np.add(grads.to_vector(), g_match.to_vector(), out=grads.to_vector())
    return align, match, grads


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
    q = _project_rows(params.wq, [question], params.embedder)
    p = _project_rows(params.wp, [path.serialized() for path in pool.paths()], params.embedder)
    scores = (q.unit @ p.unit.T) / params.tau
    loss, deltas = _info_nce(scores, np.array([pool.best_index]), strict)
    return 0.5 * loss, _contrastive_grads(params, q, p, 0.5 * deltas)


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


def save_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> Path:
    """Write the header ``destination`` and, next to it, the payload:
    the weights as raw little-endian float64 in the ``to_vector`` layout.
    The header names the payload and records its value count and sha256.
    Returns the payload's path."""
    destination = Path(destination)
    payload = destination.with_suffix(PAYLOAD_SUFFIX)
    if payload == destination:
        raise ConfigError(f"an encoder header cannot be named *{PAYLOAD_SUFFIX}: {destination}")
    values = params.to_vector().astype("<f8", copy=False)
    values.tofile(payload)
    write_versioned(
        destination,
        ENCODER_KIND,
        {
            "dimension": params.dimension,
            "tau": params.tau,
            "strict_qpa": strict_qpa,
            "embedder": params.embedder.to_json(),
            "payload": {
                "file": payload.name,
                "values": int(values.size),
                "sha256": hashlib.sha256(values).hexdigest(),
            },
        },
    )
    return payload


def load_encoder(source) -> tuple[EncoderParams, bool]:
    """Read an encoder header and its payload; returns (params, strict_qpa).

    The payload must sit next to the header, hold exactly the header's
    value count for its dimension, hash to the header's sha256 and be
    finite; the params wrap it without a copy."""
    doc = read_versioned(source, ENCODER_KIND)
    try:
        embedder = EmbedderConfig.from_json(doc["embedder"])
        d = int(doc["dimension"])
        tau = float(doc["tau"])
        strict = bool(doc["strict_qpa"])
        name = doc["payload"]["file"]
        count = int(doc["payload"]["values"])
        digest = str(doc["payload"]["sha256"])
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        # A setting out of range in the file (embedder, tau, shapes) is bad data.
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
    if d != embedder.dimension or count != _flat_size(d):
        raise MalformedFileError(
            f"{source}: header lists {count} values at dimension {d}; the embedder's "
            f"dimension {embedder.dimension} needs {_flat_size(embedder.dimension)}"
        )
    if not isinstance(name, str) or not name or Path(name).name != name:
        raise MalformedFileError(f"{source}: payload {name!r} is not a file name")
    payload = Path(source).with_name(name)
    try:
        size = payload.stat().st_size
        values = np.fromfile(payload, dtype="<f8") if size == 8 * count else None
    except OSError as exc:
        raise MalformedFileError(f"{source}: cannot read payload: {exc}") from exc
    if values is None:
        raise MalformedFileError(f"{payload}: holds {size} bytes, expected {8 * count}")
    values = values.astype(np.float64, copy=False)
    if hashlib.sha256(values).hexdigest() != digest:
        raise MalformedFileError(f"{payload}: sha256 does not match the encoder header")
    if not (np.isfinite(values).all() and np.isfinite(tau)):
        raise MalformedFileError(f"{source}: encoder file holds a non-finite value")
    try:
        params = EncoderParams._wrap(values, tau, embedder)
    except ConfigError as exc:
        raise MalformedFileError(f"{source}: malformed encoder file: {exc}") from exc
    return params, strict
