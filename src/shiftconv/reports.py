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
the summary line.  It writes the rows in chunks of at most _CHUNK_ROWS.  A
chunk runs on across consecutive blocks whose array columns have the same
names and dtypes; a block with other arrays, or other dtypes, starts a new
chunk, so no column slice of a chunk is promoted on concatenation.

- The keys in sorted order and the config hash are encoded once per call.
  With a block's constant fields they make the block's fixed text, the text
  between the varying cells.
- Each array column of a chunk is one slice, concatenated across its
  blocks.  The slice is reduced to its distinct values, compared by bit
  pattern so that 0.0 and -0.0 stay apart.  Those are encoded in one call,
  and each cell is taken from them.
- The chunk's rows are one list of fixed text and cells: each column's
  cells, and each block's fixed text, go in by slice assignment.  The list
  is joined once into the chunk's str and freed.

The chunk strs, then the summary line, are joined once at the end, so the
output is held twice at most, and each chunk's cells and parts only during
its own turn.  Distinct values are found per chunk, never over a whole
column, for the same reason.
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
        """Record n_records, then the extra summary fields; return the report."""
        self.summary["n_records"] = len(self)
        self.summary.update(extra)
        return self

    def to_jsonl(self) -> str:
        keys = sorted({*self.columns, "config_hash"})
        # each key's text with the separator before it, encoded once
        heads = {key: ("{" if i == 0 else ", ") + _encode_json(key) + ": " for i, key in enumerate(keys)}
        hash_text = _encode_json(self.config_hash)
        chunks = [_chunk_text(run, heads, hash_text) for run in _runs(self._blocks)]
        chunks.append(_encode_json({"summary": self.summary, "config_hash": self.config_hash}) + "\n")
        return "".join(chunks)


def ratio_summary(parts) -> dict:
    """max_ratio and median_ratio (index len // 2 of the sorted values) of the
    float arrays in parts, as Python floats; {} when they hold no value."""
    rs = np.sort(np.concatenate([np.empty(0), *map(np.ravel, parts)]))
    if not rs.size:
        return {}
    top, mid = rs[[-1, rs.size // 2]].tolist()
    return {"max_ratio": top, "median_ratio": mid}


def _runs(blocks):
    """The rows in chunks of at most _CHUNK_ROWS: each a list of
    (block, first row, rows) pieces of consecutive blocks whose array
    columns have the same names and dtypes."""
    run, rows, layout = [], 0, None
    for block in blocks:
        k, cols, _ = block
        dtypes = {c: v.dtype for c, v in cols.items()}
        if run and dtypes != layout:
            yield run
            run, rows = [], 0
        layout, a = dtypes, 0
        while a < k:
            m = min(k - a, _CHUNK_ROWS - rows)
            run.append((block, a, m))
            rows, a = rows + m, a + m
            if rows == _CHUNK_ROWS:
                yield run
                run, rows = [], 0
    if run:
        yield run


def _chunk_text(run, heads, hash_text) -> str:
    """The JSON lines of one chunk's rows (see the module docstring)."""
    # each piece's encoded constants; the config hash wins over a column of that name
    sames = [
        {**{c: _encode_json(v) for c, v in consts.items()}, "config_hash": hash_text} for (*_, consts), *_ in run
    ]
    varying = [key for key in heads if key not in sames[0]]
    stride, rows = 2 * len(varying) + 1, sum(m for _, _, m in run)
    parts = [None] * (rows * stride)
    for j, key in enumerate(varying):
        parts[2 * j + 1 :: stride] = _cells(np.concatenate([cols[key][a : a + m] for (_, cols, _), a, m in run]))
    r = 0
    for same, (_, _, m) in zip(sames, run):
        for j, text in enumerate(_fixed_text(heads, same)):
            parts[r * stride + 2 * j : (r + m) * stride : stride] = [text] * m
        r += m
    return "".join(parts)


def _fixed_text(heads, same) -> list:
    """A row's text around its varying cells, given the encoded constants:
    item j comes before the j-th varying cell, the last one ends the row."""
    fixed, text = [], ""
    for key, head in heads.items():
        if key in same:
            text += head + same[key]
        else:
            fixed.append(text + head)
            text = ""
    fixed.append(text + "}\n")
    return fixed


def _cells(col: np.ndarray) -> list:
    """The JSON text of each value of a non-empty column chunk."""
    bits, inverse = np.unique(col.view(f"u{col.itemsize}"), return_inverse=True)
    text = _encode_json(bits.view(col.dtype).tolist())[1:-1].split(", ")
    return np.array(text, dtype=object)[inverse].tolist()


# One encoder for every row: json.dumps with keyword arguments builds a new
# JSONEncoder per call.
_encode_json = json.JSONEncoder(sort_keys=True, default=_json_default).encode
