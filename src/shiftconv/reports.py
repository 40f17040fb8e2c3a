"""Experiment reports: per-tuple rows stored by column, emitted as JSON lines.

Every row carries the config hash so it can be traced back to the exact
inputs that produced it.

A report stores columns, not row dicts.  `add` appends one row of values,
or one block of rows given as equal-length 1-D numpy arrays; any other field
of a block is one value for every row and is stored once.  The S census
appends one block per call.  Arrays are copied, and row values are kept as
given.

`records` is a read view: the rows as dicts in column order, with array
values as Python ints and floats and a block's constant fields repeated as
given.  It is built on first read and kept until the next `add`, so reads in
between return the same list; changing that list changes no column.

`to_jsonl` is byte-identical to writing each row, with its config hash, as
json.dumps(row, sort_keys=True, default=_json_default), one line each, then
the summary line.  It works one block, and at most a few thousand rows, at
a time:

- the keys in sorted order, the config hash and the block's constant fields
  are encoded once, into the fixed text between the varying cells;
- a column of ints, floats or bools takes one encoder call per chunk.  A
  numeric array column is first reduced to its distinct values, compared
  by bit pattern so that 0.0 and -0.0 stay apart, and each cell is taken
  from those; any other column takes one call per cell;
- the rows are one list of fixed text and cells, interleaved by slice
  assignment, and joined once.

Each chunk is appended to one byte buffer and freed before the next, so no
chunk outlives its turn and the peak memory of a call does not depend on
where the allocator put earlier chunks.  Distinct values are found per chunk,
never over a whole column, for the same reason.
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
        self._segments: list = []  # [rows, {column: list or 1-D array}, {column: constant}]
        self._open = None  # the last segment while single rows extend it
        self._records = None

    @classmethod
    def for_config(cls, columns, config: dict) -> "ExperimentReport":
        return cls(columns, config_hash=canonical_hash(config))

    def add(self, **fields) -> None:
        """Append one row, or one block of rows.

        The fields must be exactly the columns.  A numpy array field is one
        column of a block: every array in a call is 1-D and of one length,
        and any other field is one value for every row of the block.  A call
        without arrays appends one row.
        """
        if fields.keys() != set(self.columns):
            missing = [c for c in self.columns if c not in fields]
            extra = [f for f in fields if f not in self.columns]
            raise TypeError(f"add() fields must be the columns: missing {missing}, unexpected {extra}")
        shapes = {v.shape for v in fields.values() if isinstance(v, np.ndarray)}
        if not shapes:
            if self._open is None:
                self._open = [0, {c: [] for c in self.columns}, {}]
                self._segments.append(self._open)
            self._open[0] += 1
            for c, col in self._open[1].items():
                col.append(fields[c])
        elif len(shapes) == 1 and len(next(iter(shapes))) == 1:
            ((k,),) = shapes
            arrays = {c: v.copy() for c, v in fields.items() if isinstance(v, np.ndarray)}
            consts = {c: v for c, v in fields.items() if c not in arrays}
            self._segments.append([k, arrays, consts])
            self._open = None
        else:
            raise OutOfRange(f"block columns must be 1-D arrays of one length, got shapes {sorted(shapes)}")
        self._records = None

    def __len__(self) -> int:
        return sum(k for k, _, _ in self._segments)

    def _column(self, name: str) -> list:
        out = []
        for k, cols, consts in self._segments:
            out += [consts[name]] * k if name in consts else _values(cols[name])
        return out

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
        out = bytearray()  # JSON text is ASCII; one buffer, see the module docstring
        for k, cols, consts in self._segments:
            same = {**consts, "config_hash": self.config_hash}  # one value for every row
            # fixed[j] is the text before varying[j]; fixed[-1] ends the row
            fixed, varying, text = [], [], "{"
            for i, key in enumerate(keys):
                text += (", " if i else "") + _encode_json(key) + ": "
                if key in same:
                    text += _encode_json(same[key])
                else:
                    fixed.append(text)
                    varying.append(cols[key])
                    text = ""
            fixed.append(text + "}\n")
            stride = 2 * len(varying) + 1
            for a in range(0, k, _CHUNK_ROWS):
                m = min(k - a, _CHUNK_ROWS)
                parts = [None] * (m * stride)
                for j, col in enumerate(varying):
                    parts[2 * j :: stride] = [fixed[j]] * m
                    parts[2 * j + 1 :: stride] = _cells(col[a : a + m])
                parts[stride - 1 :: stride] = [fixed[-1]] * m
                out += "".join(parts).encode()
        out += (_encode_json({"summary": self.summary, "config_hash": self.config_hash}) + "\n").encode()
        return out.decode()


def _values(seq) -> list:
    return seq.tolist() if isinstance(seq, np.ndarray) else seq


def _cells(seq) -> list:
    """The JSON text of each value of a non-empty column chunk."""
    if isinstance(seq, np.ndarray) and seq.dtype.kind in "biuf" and seq.itemsize <= 8:
        # longdouble (16 bytes) has no unsigned view; the encoder below rejects it
        bits, inverse = np.unique(seq.view(f"u{seq.itemsize}"), return_inverse=True)
        return np.array(_plain_cells(bits.view(seq.dtype).tolist()), dtype=object)[inverse].tolist()
    vals = _values(seq)
    if _PLAIN.issuperset(map(type, vals)):
        return _plain_cells(vals)
    return [_encode_json(v) for v in vals]


def _plain_cells(vals: list) -> list:
    """The JSON text of each of a list of ints, floats and bools, in one call."""
    return _encode_json(vals)[1:-1].split(", ")


# One encoder for every row: json.dumps with keyword arguments builds a new
# JSONEncoder per call.
_encode_json = json.JSONEncoder(sort_keys=True, default=_json_default).encode
