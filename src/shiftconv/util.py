"""Small numeric helpers used across modules."""

from __future__ import annotations

import hashlib
import json
import operator

import numpy as np

from .errors import OutOfRange


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


def as_index(value, name: str) -> int:
    """value as a Python int (numpy integers included); else OutOfRange."""
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRange(f"{name} must be an integer, got {value!r}") from None
