"""Ways to damage a saved encoder (an ``encoder.json`` header and the raw
float64 payload it names), each of which ``load_encoder`` must reject
with ``MalformedFileError``. ``nan`` and ``inf`` rewrite the header's
sha256 to match the damaged payload, so only the finiteness check can
catch them; ``block-count`` re-hashes under the current rule, so only
the value count can. ``moved-old-hash`` moves one index into a gap of
an index set and hashes the values alone, as the full raw layout did,
so only a hash that covers the index sets can catch it: it needs an
encoder with a block that is not full in at least one direction.
``row-major-layout`` rewrites the file as the ``identity-blocks`` layout
wrote it, each block row by row under a matching sha256, so only the
layout check can catch it.
"""

import hashlib
import json

import numpy as np

from encoder_reference import save_full_encoder
from ragplan.encoder import SIDES, _block_digest, load_encoder


def _header(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rewrite(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _payload(header_path):
    return header_path.with_name(_header(header_path)["payload"]["file"])


def _rehash(header_path, new_rule):
    """Set the header's sha256 to the payload's, under the current rule
    (index sets, then values) or under the full raw layout's (values alone)."""
    doc = _header(header_path)
    blocks = [tuple(np.array(doc["blocks"][side][key], dtype=np.int64) for key in ("rows", "cols"))
              for side in SIDES]
    digest = _block_digest(blocks) if new_rule else hashlib.sha256()
    digest.update(_payload(header_path).read_bytes())
    doc["payload"]["sha256"] = digest.hexdigest()
    _rewrite(header_path, doc)


def _poke(header_path, value):
    payload = _payload(header_path)
    values = np.fromfile(payload, dtype="<f8")
    values[3] = value
    values.tofile(payload)
    _rehash(header_path, new_rule=True)


def _edit_header(header_path, key, value):
    doc = _header(header_path)
    doc["payload"][key] = value
    _rewrite(header_path, doc)


def _edit_index(header_path, side, key, edit):
    doc = _header(header_path)
    doc["blocks"][side][key] = edit(doc["blocks"][side][key], doc["dimension"])
    _rewrite(header_path, doc)


def _drop_last_row(header_path):
    _edit_index(header_path, "wp", "rows", lambda rows, d: rows[:-1])
    _rehash(header_path, new_rule=True)


def _move_into_gap(header_path):
    doc = _header(header_path)
    d = doc["dimension"]
    for side in SIDES:
        for key in ("rows", "cols"):
            index = doc["blocks"][side][key]
            for i, value in enumerate(index):
                if value + 1 < (index[i + 1] if i + 1 < len(index) else d):
                    index[i] = value + 1
                    _rewrite(header_path, doc)
                    _rehash(header_path, new_rule=False)
                    return
    raise AssertionError("every block is full: no index can move")


def _resave_full(header_path):
    params, strict = load_encoder(header_path)
    save_full_encoder(params, header_path, strict)


def _resave_row_major(header_path):
    params, _ = load_encoder(header_path)
    doc = _header(header_path)
    blocks = [[doc["blocks"][side][key] for key in ("rows", "cols")] for side in SIDES]
    values = np.concatenate(
        [getattr(params, side)[np.ix_(rows, cols)].ravel() for side, (rows, cols)
         in zip(SIDES, blocks)] + [params.qpm_w])
    values.astype("<f8").tofile(_payload(header_path))
    doc["layout"] = "identity-blocks"
    _rewrite(header_path, doc)
    _rehash(header_path, new_rule=True)


def _set_field(header_path, key, value):
    doc = _header(header_path)
    doc[key] = value
    _rewrite(header_path, doc)


FAULTS = {
    "missing": lambda header: _payload(header).unlink(),
    "truncated": lambda header: _payload(header).write_bytes(
        _payload(header).read_bytes()[:-3]),
    "sha256": lambda header: _edit_header(header, "sha256", "0" * 64),
    "count": lambda header: _edit_header(
        header, "values", _header(header)["payload"]["values"] - 1),
    "path": lambda header: _edit_header(header, "file", "../" + _payload(header).name),
    "no-name": lambda header: _edit_header(header, "file", ""),
    "nan": lambda header: _poke(header, np.nan),
    "inf": lambda header: _poke(header, -np.inf),
    "row-range": lambda header: _edit_index(header, "wq", "rows", lambda rows, d: rows[:-1] + [d]),
    "col-negative": lambda header: _edit_index(
        header, "wp", "cols", lambda cols, d: [-1] + cols[1:]),
    "row-unsorted": lambda header: _edit_index(
        header, "wq", "rows", lambda rows, d: [rows[1], rows[0]] + rows[2:]),
    "col-repeated": lambda header: _edit_index(
        header, "wq", "cols", lambda cols, d: [cols[0], cols[0]] + cols[2:]),
    "block-count": _drop_last_row,
    "moved-old-hash": _move_into_gap,
    "old-layout": _resave_full,
    "row-major-layout": _resave_row_major,
    "strict-qpa-string": lambda header: _set_field(header, "strict_qpa", "false"),
}
