"""Report emission tests."""

import json

from shiftconv import reports
from shiftconv.reports import ExperimentReport


def test_jsonl_matches_json_dumps():
    rep = ExperimentReport.for_config(["k", "x", "z", "label"], {"family": "demo"})
    rep.add(k=3, x=0.1, z=1 + 2j, label="a")
    rep.add(k=-7, x=1e-300, z=-0.5j, label="b")
    rep.finalize(peak=2.5 - 1j, count=2)
    want = [
        json.dumps(dict(r, config_hash=rep.config_hash), sort_keys=True, default=reports._json_default)
        for r in rep.records
    ]
    want.append(
        json.dumps(
            {"summary": rep.summary, "config_hash": rep.config_hash},
            sort_keys=True,
            default=reports._json_default,
        )
    )
    assert rep.to_jsonl() == "\n".join(want) + "\n"
