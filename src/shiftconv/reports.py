"""Experiment reports: per-tuple rows stored by column, emitted as JSON lines.

Every row carries the config hash so it can be traced back to the exact
inputs that produced it.

A report stores columns, not row dicts.  `add` appends one row of values,
or one block of rows given as equal-length 1-D numpy arrays, any other value
repeated down the block; the S census appends one block per call.  Arrays
are copied, and row values are kept as given.

`records` is a read view: the rows as dicts in column order, with array
values as Python ints and floats.  It is built on first read and kept until
the next `add`, so reads in between return the same list; changing that
list changes no column.

`to_jsonl` is byte-identical to writing each row, with its config hash, as
json.dumps(row, sort_keys=True, default=_json_default), one line each, then
the summary line.  It encodes a few thousand rows at a time, column by
column, into a row template made from the sorted keys: a column of plain
ints, floats and bools takes one encoder call per chunk, any other column
one call per cell.  Each chunk is appended to one byte buffer and freed
before the next, so no chunk outlives its turn and the peak memory of a
call does not depend on where the allocator put earlier chunks.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import OutOfRange
from .util import _json_default, canonical_hash

# rows encoded at a time; bounds the cells held besides the output
_CHUNK_ROWS = 4096
# types that JSON writes without separators inside a value
_PLAIN = frozenset((int, float, bool))


class ExperimentReport:
    """Ordered per-tuple rows, stored by column, plus summary statistics."""

    def __init__(self, columns, config_hash: str = ""):
        self.columns = list(columns)
        self.config_hash = config_hash
        self.summary: dict = {}
        self._segments: list = []  # [rows, {column: list or 1-D array}]
        self._open = None  # the last segment while single rows extend it
        self._records = None

    @classmethod
    def for_config(cls, columns, config: dict) -> "ExperimentReport":
        return cls(columns, config_hash=canonical_hash(config))

    def add(self, **fields) -> None:
        """Append one row, or one block of rows.

        The fields must be exactly the columns.  A numpy array field is one
        column of a block: every array in a call is 1-D and of one length,
        and any other field is one value repeated down the block.  A call
        without arrays appends one row.
        """
        if fields.keys() != set(self.columns):
            missing = [c for c in self.columns if c not in fields]
            extra = [f for f in fields if f not in self.columns]
            raise TypeError(f"add() fields must be the columns: missing {missing}, unexpected {extra}")
        shapes = {v.shape for v in fields.values() if isinstance(v, np.ndarray)}
        if not shapes:
            if self._open is None:
                self._open = [0, {c: [] for c in self.columns}]
                self._segments.append(self._open)
            self._open[0] += 1
            for c, col in self._open[1].items():
                col.append(fields[c])
        elif len(shapes) == 1 and len(next(iter(shapes))) == 1:
            ((k,),) = shapes
            cols = {c: fields[c].copy() if isinstance(fields[c], np.ndarray) else [fields[c]] * k for c in self.columns}
            self._segments.append([k, cols])
            self._open = None
        else:
            raise OutOfRange(f"block columns must be 1-D arrays of one length, got shapes {sorted(shapes)}")
        self._records = None

    def __len__(self) -> int:
        return sum(k for k, _ in self._segments)

    def _column(self, name: str) -> list:
        return [v for _, cols in self._segments for v in _values(cols[name])]

    @property
    def records(self) -> list:
        """The rows as dicts in column order (see the module docstring)."""
        if self._records is None:
            cols = [self._column(c) for c in self.columns]
            self._records = [dict(zip(self.columns, vals)) for vals in zip(*cols)]
        return self._records

    def finalize(self, **extra) -> "ExperimentReport":
        rs = self._column("ratio") if "ratio" in self.columns else []
        if rs:
            srt = sorted(rs)
            self.summary["max_ratio"] = max(rs)
            self.summary["median_ratio"] = srt[len(srt) // 2]
        self.summary["n_records"] = len(self)
        self.summary.update(extra)
        return self

    def to_jsonl(self) -> str:
        keys = sorted({*self.columns, "config_hash"})
        template = "{" + ", ".join(_encode_json(k).replace("%", "%%") + ": %s" for k in keys) + "}\n"
        hash_cell = _encode_json(self.config_hash)
        out = bytearray()  # JSON text is ASCII; one buffer, see the module docstring
        for k, cols in self._segments:
            for a in range(0, k, _CHUNK_ROWS):
                b = min(k, a + _CHUNK_ROWS)
                cells = [[hash_cell] * (b - a) if c == "config_hash" else _cells(cols[c][a:b]) for c in keys]
                out += "".join(map(template.__mod__, zip(*cells))).encode()
        out += (_encode_json({"summary": self.summary, "config_hash": self.config_hash}) + "\n").encode()
        return out.decode()


def _values(seq) -> list:
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


def _cells(seq) -> list:
    """The JSON text of each value of a non-empty column chunk."""
    vals = _values(seq)
    if _PLAIN.issuperset(map(type, vals)):
        return _encode_json(vals)[1:-1].split(", ")
    return [_encode_json(v) for v in vals]


# One encoder for every row: json.dumps with keyword arguments builds a new
# JSONEncoder per call.
_encode_json = json.JSONEncoder(sort_keys=True, default=_json_default).encode
