"""Experiment report records with JSON-lines emission.

Every record carries the config hash so any row can be traced back to the
exact inputs that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .util import _json_default, atomic_write_text, canonical_hash


@dataclass
class ExperimentReport:
    """Ordered per-tuple records plus summary statistics."""

    columns: list
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    config_hash: str = ""

    @classmethod
    def for_config(cls, columns, config: dict) -> "ExperimentReport":
        return cls(columns=list(columns), config_hash=canonical_hash(config))

    def add(self, **fields) -> None:
        row = {c: fields[c] for c in self.columns}
        self.records.append(row)

    def finalize(self, **extra) -> "ExperimentReport":
        rs = [r["ratio"] for r in self.records if "ratio" in r]
        if rs:
            srt = sorted(rs)
            self.summary["max_ratio"] = max(rs)
            self.summary["median_ratio"] = srt[len(srt) // 2]
        self.summary["n_records"] = len(self.records)
        self.summary.update(extra)
        return self

    def to_jsonl(self) -> str:
        lines = []
        for r in self.records:
            row = dict(r)
            row["config_hash"] = self.config_hash
            lines.append(_encode_json(row))
        lines.append(_encode_json({"summary": self.summary, "config_hash": self.config_hash}))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> None:
        atomic_write_text(path, self.to_jsonl())


# One encoder for every row: json.dumps with keyword arguments builds a new
# JSONEncoder per call, and a census report has one row per tuple.
_encode_json = json.JSONEncoder(sort_keys=True, default=_json_default).encode
