"""Small numeric helpers used across modules."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np


def sinc(t):
    """sin(t)/t with sinc(0) = 1; series branch below 1e-4 to avoid cancellation."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    big = np.abs(t) > 1e-4
    out[big] = np.sin(t[big]) / t[big]
    ts = t[~big]
    out[~big] = 1.0 - ts * ts / 6.0 + ts ** 4 / 120.0
    if out.ndim == 0:
        return float(out)
    return out


def canonical_hash(mapping: dict) -> str:
    """Stable hex digest of a flat configuration mapping."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def atomic_write_text(path, text):
    """Write text to path atomically (tmp file + rename)."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
