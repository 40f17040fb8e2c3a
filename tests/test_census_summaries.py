"""The summary line of each benchmark census report at seed 7, pinned by
value in census_summaries.json: the families are written out there, so the
check runs without the benchmark.  Counts and the config hash must match
exactly, floats to 1e-12 relative, so an FFT build whose last bits differ
passes and a moved summary does not."""

import json
from pathlib import Path

import pytest

from shiftconv.charsums import SCensusFamily, TCensusFamily, bound_census
from shiftconv.circle import l2_error_census

CASES = json.loads((Path(__file__).parent / "census_summaries.json").read_text())


def _report(kind: str, family: dict):
    if kind == "L2":
        return l2_error_census(**family)
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in family.items()}
    return bound_census(SCensusFamily(**fields) if kind == "S" else TCensusFamily(**fields))


@pytest.mark.parametrize("case", CASES, ids=[c["report"] for c in CASES])
def test_census_summary_is_pinned(case):
    rep = _report(case["kind"], case["family"])
    assert rep.config_hash == case["config_hash"]
    assert rep.summary.keys() == case["summary"].keys()
    for key, want in case["summary"].items():
        got = rep.summary[key]
        if isinstance(want, float):
            assert got == pytest.approx(want, rel=1e-12, abs=0), key
        else:
            assert (type(got), got) == (int, want), key
