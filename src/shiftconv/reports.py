"""Experiment reports: per-tuple rows stored as blocks of columns, emitted as
JSON lines.

Every row carries the config hash so it can be traced back to the exact
inputs that produced it.

A report is a list of blocks.  `add` appends one block: each numpy array
field is one column of its rows, and every other field is one value for
every row of the block, stored once.  A block has at least one array; its
arrays are 1-D, of one length, and hold ints, uints, floats or bools of at
most 8 bytes each.  Arrays are copied, and the other fields are kept as
given.  The S census appends one block per (q1, q2, m1), the T census one
per (q1, q1t, q2, n, h) and the L2 census one per anchor.

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
- each column chunk is reduced to its distinct values, compared by bit
  pattern so that 0.0 and -0.0 stay apart; those are encoded in one call,
  and each cell is taken from them;
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


class ExperimentReport:
    """Ordered per-tuple rows, stored as blocks of columns, plus summary statistics."""

    def __init__(self, columns, config: dict):
        self.columns = list(columns)
        self.config_hash = canonical_hash(config)
        self.summary: dict = {}
        self._blocks: list = []  # (rows, {column: 1-D array}, {column: constant})
        self._records = None

    def add(self, **fields) -> None:
        """Append one block of rows (see the module docstring).

        The fields must be exactly the columns.
        """
        if fields.keys() != set(self.columns):
            missing = [c for c in self.columns if c not in fields]
            extra = [f for f in fields if f not in self.columns]
            raise TypeError(f"add() fields must be the columns: missing {missing}, unexpected {extra}")
        arrays = {c: v for c, v in fields.items() if isinstance(v, np.ndarray)}
        shapes = {v.shape for v in arrays.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise OutOfRange(f"a block needs 1-D arrays of one length, got shapes {sorted(shapes)}")
        # ints, bools and floats of at most 8 bytes: tolist() gives them as
        # Python values, and each has an unsigned view of its size
        bad = {c: v.dtype for c, v in arrays.items() if v.dtype.kind not in "iu" and v.dtype.char not in "?efd"}
        if bad:
            raise OutOfRange(f"block arrays must hold ints, bools or floats of at most 8 bytes, got {bad}")
        ((k,),) = shapes
        consts = {c: v for c, v in fields.items() if c not in arrays}
        self._blocks.append((k, {c: v.copy() for c, v in arrays.items()}, consts))
        self._records = None

    def __len__(self) -> int:
        return sum(k for k, _, _ in self._blocks)

    def _column(self, name: str) -> list:
        out = []
        for k, cols, consts in self._blocks:
            out += [consts[name]] * k if name in consts else cols[name].tolist()
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
        for k, cols, consts in self._blocks:
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


def _cells(col: np.ndarray) -> list:
    """The JSON text of each value of a non-empty column chunk."""
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    text = _encode_json(bits.view(col.dtype).tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[inverse].tolist()


# One encoder for every row: json.dumps with keyword arguments builds a new
# JSONEncoder per call.
_encode_json = json.JSONEncoder(sort_keys=True, default=_json_default).encode
