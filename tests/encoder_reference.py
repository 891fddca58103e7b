"""Reference encoder writers and readers, kept as test oracles.

``save_full_encoder`` and ``load_full_encoder`` keep the full raw layout
that ``ragplan.encoder`` replaced: the payload holds the whole
parameter buffer, ``wq | wp | qpm_w`` with each projection row-major, as
raw little-endian float64 (2d² + 2d + 1 values), and the header records
its file name, value count and a sha256 of the values alone. The
identity-block layout stores only where each projection differs from
the identity, so both layouts must load to the same weights bit for bit.

``save_block_encoder`` writes the identity-block layout, each block
column by column with its rows ascending, from the (d, d) weight views,
with its own block search, gather and hash; it never reads the flat
buffer. The program's ``save_encoder`` must write the same bytes as this
writer, and ``load_encoder`` must read this writer's files to the same
weights.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ragplan.embedding import EmbedderConfig
from ragplan.encoder import ENCODER_KIND, ENCODER_LAYOUT, PAYLOAD_SUFFIX, SIDES, EncoderParams
from ragplan.serialize import read_versioned, write_versioned


def save_full_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> Path:
    """Write the header ``destination`` and the full raw payload next to
    it; returns the payload's path."""
    destination = Path(destination)
    payload = destination.with_suffix(PAYLOAD_SUFFIX)
    values = np.concatenate([getattr(params, side).ravel() for side in SIDES] + [params.qpm_w])
    values = values.astype("<f8", copy=False)
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


def load_full_encoder(source) -> tuple[EncoderParams, bool]:
    """Read a header and full raw payload written by ``save_full_encoder``.
    Checks the value count and sha256."""
    doc = read_versioned(source, ENCODER_KIND)
    embedder = EmbedderConfig.from_json(doc["embedder"])
    d = embedder.dimension
    values = np.fromfile(Path(source).with_name(doc["payload"]["file"]), dtype="<f8")
    assert values.size == doc["payload"]["values"] == 2 * d * d + 2 * d + 1
    assert hashlib.sha256(values).hexdigest() == doc["payload"]["sha256"]
    wq, wp = (values[k * d * d : (k + 1) * d * d].reshape(d, d) for k in (0, 1))
    params = EncoderParams(wq, wp, values[2 * d * d :], doc["tau"], embedder)
    return params, doc["strict_qpa"]


def _moved_block(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    moved = w.view(np.uint64) != 0
    diagonal = np.arange(len(w))
    moved[diagonal, diagonal] = np.diagonal(w).view(np.uint64) != np.float64(1.0).view(np.uint64)
    return np.flatnonzero(moved.any(axis=1)), np.flatnonzero(moved.any(axis=0))


def save_block_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> Path:
    """Write the identity-block layout (header ``destination``, payload next
    to it), each block column by column; returns the payload's path."""
    destination = Path(destination)
    payload = destination.with_suffix(PAYLOAD_SUFFIX)
    weights = [getattr(params, side) for side in SIDES]
    blocks = [_moved_block(w) for w in weights]
    values = np.concatenate(
        [w[np.ix_(rows, cols)].ravel(order="F") for w, (rows, cols) in zip(weights, blocks)]
        + [params.qpm_w]
    ).astype("<f8", copy=False)
    digest = hashlib.sha256()
    for rows, cols in blocks:
        digest.update(np.concatenate([[rows.size, cols.size], rows, cols]).astype("<i8"))
    digest.update(values)
    values.tofile(payload)
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
                "values": int(values.size),
                "sha256": digest.hexdigest(),
            },
        },
    )
    return payload
