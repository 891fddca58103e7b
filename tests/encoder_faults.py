"""Ways to damage a saved encoder (an ``encoder.json`` header and the raw
float64 payload it names), each of which ``load_encoder`` must reject
with ``MalformedFileError``. ``nan`` and ``inf`` rewrite the header's
sha256 to match the damaged payload, so only the finiteness check can
catch them.
"""

import hashlib
import json

import numpy as np


def _header(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rewrite(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


def _payload(header_path):
    return header_path.with_name(_header(header_path)["payload"]["file"])


def _poke(header_path, value):
    payload = _payload(header_path)
    values = np.fromfile(payload, dtype="<f8")
    values[3] = value
    values.tofile(payload)
    doc = _header(header_path)
    doc["payload"]["sha256"] = hashlib.sha256(values.tobytes()).hexdigest()
    _rewrite(header_path, doc)


def _edit_header(header_path, key, value):
    doc = _header(header_path)
    doc["payload"][key] = value
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
}
