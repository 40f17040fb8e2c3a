"""Report emission tests."""

import json

import numpy as np
import pytest

from shiftconv import reports
from shiftconv.reports import ExperimentReport
from shiftconv.util import canonical_hash


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


def test_numpy_scalars_are_written_as_numbers():
    rep = ExperimentReport.for_config(["q", "v", "ok"], {"family": "demo"})
    rep.add(q=np.int64(5), v=np.float32(0.1), ok=np.bool_(True))
    row = json.loads(rep.to_jsonl().splitlines()[0])
    assert row["q"] == 5 and isinstance(row["q"], int)
    assert row["v"] == float(np.float32(0.1))
    assert row["ok"] is True


def test_complex_is_written_as_re_im():
    rep = ExperimentReport.for_config(["z", "w"], {"family": "demo"})
    rep.add(z=1 + 2j, w=np.complex64(-0.5j))
    row = json.loads(rep.to_jsonl().splitlines()[0])
    assert row["z"] == {"re": 1.0, "im": 2.0}
    assert row["w"] == {"re": 0.0, "im": -0.5}


def test_unknown_values_raise():
    rep = ExperimentReport.for_config(["s"], {"family": "demo"})
    rep.add(s={1, 2})
    with pytest.raises(TypeError):
        rep.to_jsonl()
    with pytest.raises(TypeError):
        canonical_hash({"s": object()})


def test_hash_reads_numpy_scalars_as_python_values():
    assert canonical_hash({"h": np.int64(5)}) == canonical_hash({"h": 5})
    assert canonical_hash({"h": np.int64(5)}) != canonical_hash({"h": "5"})
    assert canonical_hash({"x": np.float64(0.25)}) == canonical_hash({"x": 0.25})
    assert canonical_hash({"z": np.complex128(1 - 1j)}) == canonical_hash({"z": 1 - 1j})
