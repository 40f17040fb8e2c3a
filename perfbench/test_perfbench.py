"""Tests of the benchmark itself: tracer rebinding, self time, output checks.

Run with `PYTHONPATH=src python -m pytest -q perfbench`.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

import numpy as np

from shiftconv import charsums, reports

import workloads
from layers import LayerProbe
from tracer import self_times


def _bindings():
    """Every attribute of every package module and of ExperimentReport."""
    spaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "shiftconv"]
    spaces.append(reports.ExperimentReport)
    return {(id(ns), key): val for ns in spaces for key, val in list(vars(ns).items())}


def test_rebinding_reaches_internal_call_sites_and_restores():
    before = _bindings()
    probe = LayerProbe()
    with probe.tracer:
        assert charsums.kloosterman_table is not before[(id(charsums), "kloosterman_table")]
        charsums.bound_census(charsums.SCensusFamily(primes=(3, 5), m2_max=2, n_max=2, h_max=2))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    t = probe.tracer
    ids, parents, _, _ = t.arrays()
    names = [t.names[i] for i in ids]
    parent_of = {names[i]: names[p] for i, p in enumerate(parents) if p >= 0}
    # _census_s is private, so char_sum_S_factored hangs straight off bound_census
    assert parent_of["charsums.char_sum_S_factored"] == "charsums.bound_census"
    # charsums' own `from .arith import kloosterman_table` binding was traced
    assert parent_of["arith.kloosterman_table"] == "charsums.char_sum_S_factored"
    assert parent_of["reports.ExperimentReport.add"] == "charsums.bound_census"
    m = probe.metrics()
    assert m["charsums.char_sum_S_factored.calls"] == names.count("charsums.char_sum_S_factored") > 0
    assert m["arith.kloosterman_table.calls"] == 2 * m["charsums.char_sum_S_factored.calls"]
    assert m["arith.kloosterman_table.misses"] <= 2


def test_self_time_on_nested_spans():
    # 0: [0, 10] with children 1: [1, 4] and 2: [5, 6]; 3: [2, 3] inside 1
    parents = np.array([-1, 0, 0, 1])
    starts = np.array([0.0, 1.0, 5.0, 2.0])
    ends = np.array([10.0, 4.0, 6.0, 3.0])
    assert np.allclose(self_times(parents, starts, ends), [6.0, 2.0, 1.0, 1.0])


def test_self_time_through_the_tracer():
    probe = LayerProbe()
    with probe.tracer:
        charsums.bound_census(charsums.SCensusFamily(primes=(3, 5), m2_max=1, n_max=1, h_max=1))
    ids, parents, starts, ends = probe.tracer.arrays()
    total = sum(s["self_s"] for s in probe.tracer.summary().values())
    roots = parents < 0
    assert np.isclose(total, float(np.sum(ends[roots] - starts[roots])))


def _checks(w, params, out, seed=3):
    checks = workloads.Checks()
    w.check(params, out, seed, checks)
    return checks


def test_flipped_coefficient_fails_a_check():
    w = workloads.WORKLOADS["gl_tables"]
    params = {"k": 12, "N": 300}
    out = w.run(params)
    assert _checks(w, params, out).failures == []
    ints = list(out["gl2"].integer_values)
    ints[7] = -ints[7]
    bad = dict(out, gl2=dataclasses.replace(out["gl2"], integer_values=tuple(ints)))
    checks = _checks(w, params, bad)
    assert len(checks.failures) / checks.attempted > 0


def test_perturbed_census_value_fails_a_check():
    w = workloads.WORKLOADS["census_small_q"]
    params = {
        "S": {"primes": (5, 7, 11), "m2_max": 3, "n_max": 3, "h_max": 3},
        "T": {"q1_primes": (3, 5), "q2_primes": (7,), "m_max": 4, "n_values": (1, 2, 4), "h_values": (1, 2)},
    }
    out = w.run(params)
    assert _checks(w, params, out).failures == []
    records = out["S"].records
    # random.sample picks by index, so this is the first record the check draws
    first = random.Random(3).sample(range(len(records)), workloads.S_SAMPLE)[0]
    records[first] = dict(records[first], abs_sum=records[first]["abs_sum"] * (1 + 1e-6) + 1e-3)
    checks = _checks(w, params, out)
    assert len(checks.failures) / checks.attempted > 0


def test_pair_runs_and_checks_both_parts():
    gl, small = workloads.WORKLOADS["gl_tables"], workloads.WORKLOADS["census_small_q"]
    w = workloads.pair(gl, small)
    params = {
        "gl_tables": {"k": 12, "N": 300},
        "census_small_q": {
            "S": {"primes": (5, 7, 11), "m2_max": 3, "n_max": 3, "h_max": 3},
            "T": {"q1_primes": (3, 5), "q2_primes": (7,), "m_max": 4, "n_values": (1, 2, 4), "h_values": (1, 2)},
        },
    }
    out = w.run(params)
    assert set(out["part_s"]) == {"gl_tables", "census_small_q"}
    assert w.items(params, out) == 300 + small.items(params["census_small_q"], out["outputs"]["census_small_q"])
    checks = _checks(w, params, out)
    assert checks.failures == [] and checks.attempted == sum(
        _checks(p, params[p.name], out["outputs"][p.name]).attempted for p in (gl, small)
    )
    ints = list(out["outputs"]["gl_tables"]["gl2"].integer_values)
    ints[7] = -ints[7]
    gl_out = out["outputs"]["gl_tables"]
    out["outputs"]["gl_tables"] = dict(gl_out, gl2=dataclasses.replace(gl_out["gl2"], integer_values=tuple(ints)))
    assert _checks(w, params, out).failures


def test_benchmark_names_only_known_workloads():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_seed_moves_inputs_not_item_counts():
    a, b = (workloads.WORKLOADS["census_small_q"].params(s) for s in (1, 2))
    assert a["T"] != b["T"]
    reps = [charsums.bound_census(charsums.TCensusFamily(**p["T"])) for p in (a, b)]
    assert [len(r.records) for r in reps] == [648, 648]
    assert [r.summary["vanish_checked"] for r in reps] == [144, 144]
    for name in ("census_small_q", "census_large_q"):
        for p in (workloads.WORKLOADS[name].params(s) for s in (1, 2)):
            for fam in p.values():
                if "n_values" in fam:
                    assert len(set(fam["n_values"])) == 3 and len(set(fam["h_values"])) == 2
