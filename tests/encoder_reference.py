"""The full raw encoder layout that ``ragplan.encoder`` replaced, kept as a
test oracle.

Here the payload holds the whole parameter buffer, ``wq | wp | qpm_w``,
as raw little-endian float64 (2d² + 2d + 1 values), and the header
records its file name, value count and a sha256 of the values alone. The
identity-block layout stores only where each projection differs from
the identity, so both layouts must load to the same weights bit for bit.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from ragplan.embedding import EmbedderConfig
from ragplan.encoder import ENCODER_KIND, PAYLOAD_SUFFIX, EncoderParams, _flat_size
from ragplan.serialize import read_versioned, write_versioned


def save_full_encoder(params: EncoderParams, destination, strict_qpa: bool = False) -> Path:
    """Write the header ``destination`` and the full raw payload next to
    it; returns the payload's path."""
    destination = Path(destination)
    payload = destination.with_suffix(PAYLOAD_SUFFIX)
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


def load_full_encoder(source) -> tuple[EncoderParams, bool]:
    """Read a header and full raw payload written by ``save_full_encoder``;
    the params wrap the payload buffer. Checks the value count and sha256."""
    doc = read_versioned(source, ENCODER_KIND)
    embedder = EmbedderConfig.from_json(doc["embedder"])
    values = np.fromfile(Path(source).with_name(doc["payload"]["file"]), dtype="<f8")
    assert values.size == doc["payload"]["values"] == _flat_size(embedder.dimension)
    assert hashlib.sha256(values).hexdigest() == doc["payload"]["sha256"]
    params = EncoderParams._wrap(values.astype(np.float64, copy=False), doc["tau"], embedder)
    return params, doc["strict_qpa"]
