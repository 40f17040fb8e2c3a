"""Report emission tests."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import jsonl_reference

from shiftconv import reports
from shiftconv.charsums import SCensusFamily, TCensusFamily, bound_census
from shiftconv.circle import l2_error_census
from shiftconv.errors import OutOfRange
from shiftconv.reports import ExperimentReport
from shiftconv.util import canonical_hash


def test_jsonl_matches_json_dumps():
    rep = ExperimentReport(["k", "x", "z", "label"], {"family": "demo"})
    rep.add(k=np.array([3, -7]), x=np.array([0.1, 1e-300]), z=1 + 2j, label="a")
    rep.add(k=np.array([5]), x=0.25, z=-0.5j, label="b")
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
    rep = ExperimentReport(["i", "q", "v", "ok"], {"family": "demo"})
    rep.add(i=np.arange(1), q=np.int64(5), v=np.float32(0.1), ok=np.bool_(True))
    row = json.loads(rep.to_jsonl().splitlines()[0])
    assert row["q"] == 5 and isinstance(row["q"], int)
    assert row["v"] == float(np.float32(0.1))
    assert row["ok"] is True


def test_complex_is_written_as_re_im():
    rep = ExperimentReport(["i", "z", "w"], {"family": "demo"})
    rep.add(i=np.arange(1), z=1 + 2j, w=np.complex64(-0.5j))
    row = json.loads(rep.to_jsonl().splitlines()[0])
    assert row["z"] == {"re": 1.0, "im": 2.0}
    assert row["w"] == {"re": 0.0, "im": -0.5}


def test_unknown_values_raise():
    rep = ExperimentReport(["i", "s"], {"family": "demo"})
    rep.add(i=np.arange(2), s={1, 2})
    with pytest.raises(TypeError):
        rep.to_jsonl()
    with pytest.raises(TypeError):
        canonical_hash({"s": object()})


@pytest.mark.parametrize(
    "fields",
    [
        {"a": 1, "b": 0.5},
        {"a": np.array([1 + 2j]), "b": 0.5},
        {"a": np.array(["x"]), "b": 0.5},
        {"a": np.array([1, "x"], dtype=object), "b": np.arange(2)},
        {"a": np.array([0.5], dtype=np.longdouble), "b": 0.5},
        {"a": np.array(0.5), "b": 0.5},
        {"a": np.zeros((2, 2)), "b": 0.5},
    ],
    ids=["no_array", "complex", "str", "object", "longdouble", "zero_dim", "two_dim"],
)
def test_add_rejects_blocks_it_cannot_store(fields):
    rep = ExperimentReport(["a", "b"], {"family": "demo"})
    with pytest.raises(OutOfRange):
        rep.add(**fields)
    assert len(rep) == 0


def test_hash_reads_numpy_scalars_as_python_values():
    assert canonical_hash({"h": np.int64(5)}) == canonical_hash({"h": 5})
    assert canonical_hash({"h": np.int64(5)}) != canonical_hash({"h": "5"})
    assert canonical_hash({"x": np.float64(0.25)}) == canonical_hash({"x": 0.25})
    assert canonical_hash({"z": np.complex128(1 - 1j)}) == canonical_hash({"z": 1 - 1j})


# Four rows: the array columns vary, the constants are the same in every
# row.  The ", " and "%" inside a string and a column name guard the fixed
# text between cells.
_ARRAYS = {
    "k": np.array([3, -7, 0, 2 ** 40]),
    "x": np.array([0.1, 1e-300, -2.5, 1e22]),
    "ok": np.array([True, False, True, True]),
    "special": np.array([float("nan"), float("inf"), float("-inf"), -0.0]),
    "small": np.array([1, -2, 127, -128], dtype=np.int8),
}
_CONSTANTS = {
    "z": complex(float("nan"), float("inf")),
    "scalar": np.float32(0.1),
    "100%": 'a%s, "50% off", %d, %%',
    "none": None,
}


@pytest.mark.parametrize("split", [0, 1, 3, 4])  # rows added as one-row blocks, then one block
def test_jsonl_is_byte_identical_for_rows_and_blocks(split):
    rows = [{**{c: v[i].item() for c, v in _ARRAYS.items()}, **_CONSTANTS} for i in range(4)]
    rep = ExperimentReport([*_ARRAYS, *_CONSTANTS], {"family": "demo"})
    for i in range(split):
        rep.add(**{c: v[i : i + 1] for c, v in _ARRAYS.items()}, **_CONSTANTS)
    if split < 4:
        rep.add(**{c: v[split:] for c, v in _ARRAYS.items()}, **_CONSTANTS)
    rep.finalize()
    assert rep.summary["n_records"] == 4
    assert rep.to_jsonl() == jsonl_reference(rep, rows)


def test_jsonl_over_several_chunks():
    k = 2 * reports._CHUNK_ROWS + 17
    rng = np.random.default_rng(5)
    x = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
    cols = {"i": np.arange(k), "x": x, "ratio": x / 3.0, "q": 7}
    rep = ExperimentReport(list(cols), {"family": "demo"})
    rep.add(**cols)
    rep.add(i=np.array([-1]), x=np.array([0.5]), ratio=np.array([1.5]), q=7)
    rep.finalize()
    rows = [{"i": i, "x": v, "ratio": v / 3.0, "q": 7} for i, v in enumerate(x.tolist())]
    rows.append({"i": -1, "x": 0.5, "ratio": 1.5, "q": 7})
    assert rep.records == rows
    assert rep.to_jsonl() == jsonl_reference(rep, rows)


def _rows_of(adds, names):
    """The rows that add calls with these fields stand for."""
    rows = []
    for fields in adds:
        k = next(len(v) for v in fields.values() if isinstance(v, np.ndarray))
        cols = {c: fields[c].tolist() if isinstance(fields[c], np.ndarray) else [fields[c]] * k for c in names}
        rows += [{c: cols[c][i] for c in names} for i in range(k)]
    return rows


def _report_of(adds, names):
    rep = ExperimentReport(names, {"family": "demo"})
    for fields in adds:
        rep.add(**fields)
    return rep.finalize()


# Blocks that share a chunk of rows, or must not: each case is a list of add
# calls on the columns "v" and "w".
_CROSS_BLOCK_CASES = {
    # int64 then uint64 under one name: concatenated, both become float64
    # and 0 would be written as 0.0
    "int64_then_uint64": [
        {"v": np.array([0, -5], dtype=np.int64), "w": 1},
        {"v": np.array([0, 2 ** 64 - 1], dtype=np.uint64), "w": 1},
        {"v": np.array([0, 7], dtype=np.int64), "w": 1},
    ],
    "float32_then_float64": [
        {"v": np.array([0.1, 0.5], dtype=np.float32), "w": 2},
        {"v": np.array([0.1, 0.5]), "w": 2},
    ],
    "arrays_change": [
        {"v": np.array([1, 2]), "w": 0.5},
        {"v": 3, "w": np.array([0.25, 0.75, 1.0])},
        {"v": np.array([4]), "w": np.array([2.5])},
        {"v": np.array([5, 6]), "w": "x"},
    ],
    # 1000 blocks of 9 rows, each with its own constant: several full chunks
    "many_small_blocks": [
        {"v": np.arange(9) * b, "w": b} for b in range(1000)
    ],
    "large_block_between_small_ones": [
        *({"v": np.arange(7) - b, "w": -b} for b in range(3)),
        {"v": np.arange(reports._CHUNK_ROWS + 50) % 97, "w": 0.5},
        *({"v": np.arange(7) + b, "w": b} for b in range(3)),
    ],
    "zero_row_blocks": [
        {"v": np.array([], dtype=np.int64), "w": 9},
        {"v": np.array([1, 2]), "w": 1},
        {"v": np.array([], dtype=np.float32), "w": np.array([], dtype=np.uint8)},
        {"v": np.array([3]), "w": 1},
        {"v": np.array([], dtype=np.int64), "w": 2},
        *({"v": np.arange(9), "w": b} for b in range(500)),
        {"v": np.array([], dtype=np.bool_), "w": 3},
    ],
}


@pytest.mark.parametrize("adds", list(_CROSS_BLOCK_CASES.values()), ids=list(_CROSS_BLOCK_CASES))
def test_jsonl_of_chunks_across_blocks(adds):
    rep = _report_of(adds, ["v", "w"])
    rows = _rows_of(adds, ["v", "w"])
    assert len(rep) == len(rows)
    assert rep.to_jsonl() == jsonl_reference(rep, rows)


def test_chunks_span_blocks_of_one_layout_only():
    adds = _CROSS_BLOCK_CASES["int64_then_uint64"] + _CROSS_BLOCK_CASES["many_small_blocks"]
    runs = list(reports._runs(_report_of(adds, ["v", "w"])._blocks))
    assert [sum(m for _, _, m in run) for run in runs] == [2, 2, 2 + reports._CHUNK_ROWS - 2, reports._CHUNK_ROWS, 9000 - 2 * reports._CHUNK_ROWS + 2]


# float ratio arrays, and the sorted values they stand for
_RATIO_SUMMARY_CASES = {
    "one_array": ([np.array([0.5, 0.25, 2.0])], [0.25, 0.5, 2.0]),
    "across_arrays": ([np.array([0.1, 1e300, -0.0]), np.array([-math.inf, 2.5])], [-math.inf, -0.0, 0.1, 2.5, 1e300]),
    "empty_and_2d": ([np.array([]), np.array([[3.0, 1.0], [2.0, 0.75]])], [0.75, 1.0, 2.0, 3.0]),
    "one_value": ([np.array([]), np.array([7.5])], [7.5]),
}


@pytest.mark.parametrize("parts,values", list(_RATIO_SUMMARY_CASES.values()), ids=list(_RATIO_SUMMARY_CASES))
def test_ratio_summary_is_max_and_middle_of_the_sorted_values(parts, values):
    got = reports.ratio_summary(parts)
    assert got == {"max_ratio": values[-1], "median_ratio": values[len(values) // 2]}
    assert [type(v) for v in got.values()] == [float, float]


def test_ratio_summary_without_values_is_empty():
    assert reports.ratio_summary([]) == reports.ratio_summary([np.array([]), np.zeros((2, 0))]) == {}


def test_finalize_special_cases_no_column():
    rep = ExperimentReport(["i", "ratio"], {"family": "demo"})
    rep.add(i=np.arange(2), ratio=np.array([0.5, 2.0]))
    assert rep.finalize(peak=1).summary == {"n_records": 2, "peak": 1}


def test_empty_report_writes_only_the_summary():
    rep = ExperimentReport(["a", "ratio"], {"family": "demo"})
    rep.add(a=np.array([], dtype=np.int64), ratio=np.array([]))
    rep.finalize()
    assert rep.records == [] and rep.summary == {"n_records": 0}
    assert rep.to_jsonl() == jsonl_reference(rep, [])
    assert len(rep.to_jsonl().splitlines()) == 1


@pytest.mark.parametrize(
    "fields",
    [
        {"a": 1, "ratioo": 0.5},
        {"a": 1},
        {"a": 1, "ratio": 0.5, "extra": 2},
        {"a": np.arange(3), "ratioo": np.ones(3)},
    ],
    ids=["misspelled", "missing", "extra", "misspelled_block"],
)
def test_add_rejects_fields_other_than_the_columns(fields):
    rep = ExperimentReport(["a", "ratio"], {"family": "demo"})
    with pytest.raises(TypeError):
        rep.add(**fields)
    assert len(rep) == 0


def test_records_view_is_python_values_in_column_order():
    rep = ExperimentReport(["n", "v"], {"family": "demo"})
    rep.add(n=np.array([2, 1]), v=np.array([0.5, 0.25]))
    rep.add(n=np.int64(3), v=np.array([0.125]))
    rep.add(n=np.int64(4), v=np.array([1.0, 2.0]))
    assert [list(r) for r in rep.records] == [["n", "v"]] * 5
    assert [type(r["n"]) for r in rep.records] == [int, int, np.int64, np.int64, np.int64]
    assert [r["n"] for r in rep.records] == [2, 1, 3, 4, 4]
    assert rep.records is rep.records
    rep.records[0] = {}
    assert json.loads(rep.to_jsonl().splitlines()[0])["n"] == 2


# Property: any sequence of blocks is written as json.dumps would.  Keys
# with ", " and "%" guard the fixed text between cells.
_NAMES = ["a", "b, c", "d%"]
_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
_CONSTANT_VALUES = st.one_of(
    st.integers(-(2 ** 70), 2 ** 70),
    st.one_of(_SPECIAL, st.floats()),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.complex_numbers(),
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.booleans().map(np.bool_),
)
_ARRAY_VALUES = {
    np.int64: st.integers(-(2 ** 63), 2 ** 63 - 1),
    np.uint64: st.integers(0, 2 ** 64 - 1),
    np.int8: st.integers(-128, 127),
    np.float64: st.one_of(_SPECIAL, st.floats()),
    np.float32: st.one_of(_SPECIAL, st.floats(width=32)),
    np.bool_: st.booleans(),
}
# a few rows, or more than one chunk
_BLOCK_ROWS = st.one_of(st.integers(0, 40), st.integers(reports._CHUNK_ROWS - 1, reports._CHUNK_ROWS + 600))


@st.composite
def _blocks(draw):
    """Fields of each add call, and the rows they stand for."""
    adds = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(_BLOCK_ROWS)
        arrays = draw(st.lists(st.sampled_from(_NAMES), min_size=1, unique=True))
        fields = {}
        for c in _NAMES:
            if c not in arrays:
                fields[c] = draw(_CONSTANT_VALUES)
                continue
            dtype = draw(st.sampled_from(list(_ARRAY_VALUES)))
            pool = np.array(draw(st.lists(_ARRAY_VALUES[dtype], min_size=1, max_size=6)), dtype=dtype)
            # few distinct values, so blocks repeat them
            fields[c] = pool[np.random.default_rng(draw(st.integers(0, 2 ** 32))).integers(0, len(pool), k)]
        adds.append(fields)
    return adds, _rows_of(adds, _NAMES)


@given(_blocks())
@settings(max_examples=30, deadline=None)
def test_jsonl_is_json_dumps_of_any_blocks(case):
    adds, rows = case
    rep = ExperimentReport(_NAMES, {"family": "demo"})
    for fields in adds:
        rep.add(**fields)
    rep.finalize()
    assert len(rep) == len(rows)
    assert rep.to_jsonl() == jsonl_reference(rep, rows)


@pytest.mark.parametrize(
    "census",
    [
        lambda: bound_census(SCensusFamily(primes=(11, 13, 17))),
        lambda: bound_census(TCensusFamily(q1_primes=(5, 7, 11), q2_primes=(13,), m_max=5)),
        lambda: bound_census(TCensusFamily(q1_primes=(5, 7, 11), q2_primes=(13,), m_max=5, diagonal=True)),
        lambda: l2_error_census([(3, 11), (3, 13)], [-1.0, -1.5]),
    ],
    ids=["S", "T", "T_diag", "L2"],
)
def test_census_jsonl_is_json_dumps_of_its_records(census):
    rep = census()
    rows = rep.records
    assert len(rep) == rep.summary["n_records"] == len(rows) > 0
    assert rep.to_jsonl() == jsonl_reference(rep, rows)
    # no row stores the ratio; the summary's are those of the written floats
    written = [json.loads(line) for line in rep.to_jsonl().splitlines()[:-1]]
    assert not any("ratio" in r for r in written)
    num, den = ("error", "bound") if "error" in written[0] else ("abs_sum", "normalizer")
    ratios = sorted(r[num] / r[den] for r in written)
    assert rep.summary["max_ratio"] == ratios[-1]
    assert rep.summary["median_ratio"] == ratios[len(ratios) // 2]


def _census_like_report(blocks: int, rows: int = 512) -> ExperimentReport:
    """S-census-shaped blocks of at most 512 rows: few distinct ints, a
    constant float column, distinct floats and constant fields."""
    rng = np.random.default_rng(3)
    n, h, m2 = (g.ravel()[:rows] for g in np.meshgrid(*[np.arange(1, 9)] * 3, indexing="ij"))
    rep = ExperimentReport(["q1", "q2", "m1", "m2", "n", "h", "abs_sum", "normalizer"], {"family": "demo"})
    for b in range(blocks):
        abs_sum = rng.random(rows) * 300.0
        norm = np.full(rows, 143.0 / math.sqrt(1 + b % 4))
        rep.add(q1=11, q2=13 + b, m1=1 + b % 4, m2=m2, n=n, h=h, abs_sum=abs_sum, normalizer=norm)
    return rep.finalize()


def test_jsonl_peak_memory_stays_near_its_output():
    # the output is held twice at the end, as the chunks' strings and as
    # their join; keeping every cell's text for the whole report measured 2.8x
    for blocks, rows in [(48, 512), (2731, 9)]:  # blocks as large as the S census's, and many small ones
        rep = _census_like_report(blocks, rows)
        assert len(rep) == blocks * rows
        tracemalloc.start()
        try:
            text = rep.to_jsonl()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * len(text)
