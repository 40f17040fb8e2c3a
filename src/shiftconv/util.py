"""Small numeric helpers used across modules."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _json_default(v):
    """numpy scalars as Python values, complex as {"re", "im"}; else TypeError."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (bool, int, float, str)):
        return v
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def canonical_hash(mapping: dict) -> str:
    """Stable hex digest of a flat configuration mapping."""
    blob = json.dumps(mapping, sort_keys=True, separators=(",", ":"), default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

