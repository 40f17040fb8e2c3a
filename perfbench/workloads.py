"""The benchmark's workloads: inputs made from a seed, the calls into the
package that are timed, and the checks run on their outputs.  Four single
workloads, each aimed at one layer, and the two pairs of them that
BENCHMARK.json names.

The seed picks only which outputs are checked against an oracle and the
n/h values of the T families (always as many as the package defaults), so
the cost of a workload does not depend on it.  Why each workload exists is
written in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from shiftconv import charsums, circle, coeffs
from shiftconv.arith import PrimeModulus
from shiftconv.reports import ExperimentReport

# Ramanujan's tau(n), the classical values (same list as tests/test_coeffs.py).
KNOWN_A = {
    1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
    8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944,
    13: -577738, 14: 401856, 15: 1217160, 16: 987136, 17: -6905934,
    18: 2727432, 19: 10661420, 20: -7109760, 24: 21288960, 25: -25499225,
}


class Checks:
    """Counts output checks; each `expect` is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    params: Callable[[int], dict]            # seed -> JSON-able inputs
    run: Callable[[dict], object]            # the timed calls
    items: Callable[[dict, object], int]     # work items in one run
    digest: Callable[[object], str]          # fingerprint of the outputs
    check: Callable[[dict, object, int, Checks], None]


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()[:16]


def _primes_upto(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]


def _coprime_values(rng: random.Random, count: int, hi: int, primes) -> tuple:
    """`count` distinct values in [1, hi] coprime to every prime given.

    hi stays below the smallest composite modulus q1*q2 of the family, so no
    two values coincide mod q and the s_alpha_table cache sees as many keys
    as with the defaults.
    """
    pool = [v for v in range(1, hi + 1) if all(v % p for p in primes)]
    return tuple(sorted(rng.sample(pool, count)))


# ---------------------------------------------------------------------------
# gl_tables: the Delta table and its symmetric-square lift


def _gl_params(seed: int) -> dict:
    return {"k": 12, "N": 6000}


def _gl_run(p: dict):
    gl2 = coeffs.build_gl2_table(p["k"], p["N"])
    gl3 = coeffs.build_gl3_sym2_table(gl2, p["N"])
    return {
        "gl2": gl2,
        "gl3": gl3,
        "rs2": coeffs.rankin_selberg_average(gl2, p["N"]),
        "rs3": coeffs.rankin_selberg_average(gl3, p["N"]),
    }


def _gl_digest(out) -> str:
    ints = ",".join(map(str, out["gl2"].integer_values)).encode()
    return _sha(ints, out["gl3"].first_row.tobytes(), repr((out["rs2"], out["rs3"])).encode())


def _gl_check(p: dict, out, seed: int, checks: Checks) -> None:
    N = p["N"]
    a = out["gl2"].integer_values
    for n, v in KNOWN_A.items():
        checks.expect(a[n] == v, f"a({n}) = {a[n]}, classical {v}")
    for q in _primes_upto(math.isqrt(N)):
        checks.expect(a[q * q] == a[q] ** 2 - q ** 11, f"a({q}^2) != a({q})^2 - {q}^11")
    rng = random.Random(seed)
    pairs = 0
    while pairs < 20:
        m = rng.randint(2, 80)
        n = rng.randint(2, N // m)
        if math.gcd(m, n) != 1:
            continue
        pairs += 1
        checks.expect(a[m * n] == a[m] * a[n], f"a({m}*{n}) != a({m}) a({n})")
    gl2, row = out["gl2"], out["gl3"].first_row
    primes = _primes_upto(N)
    small = [q for q in primes if q * q <= N]
    large = [q for q in primes if q * q > N]
    for q in rng.sample(small, 6) + rng.sample(large, 6):
        kmax = 1
        while q ** (kmax + 1) <= N:
            kmax += 1
        oracle = coeffs.sym2_local_expansion(gl2.lam(q), kmax)
        for s in range(1, kmax + 1):
            got, want = row[q ** s], oracle[s]
            checks.expect(
                abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                f"GL(3) lam(1, {q}^{s}) = {got!r}, local expansion {want!r}",
            )


# ---------------------------------------------------------------------------
# census_small_q: many tiny S and T sums

S_SAMPLE = 40  # S records recomputed directly per run
_S_FAMILY = {"primes": (11, 13, 17, 19, 23, 29, 31), "m2_max": 8, "n_max": 8, "h_max": 8}
_T_SMALL = {"q1_primes": (5, 7, 11, 13), "q2_primes": (17, 19), "m_max": 11}


def _small_params(seed: int) -> dict:
    rng = random.Random(seed)
    primes = _T_SMALL["q1_primes"] + _T_SMALL["q2_primes"]
    return {
        "S": dict(_S_FAMILY),
        "T": dict(
            _T_SMALL,
            n_values=_coprime_values(rng, 3, 40, primes),
            h_values=_coprime_values(rng, 2, 40, primes),
        ),
    }


def _small_run(p: dict):
    s_rep = charsums.bound_census(charsums.SCensusFamily(**p["S"]))
    t_rep = charsums.bound_census(charsums.TCensusFamily(**p["T"]))
    return {"S": s_rep, "T": t_rep, "jsonl": s_rep.to_jsonl() + t_rep.to_jsonl()}


def _census_items(p: dict, out) -> int:
    reps = [v for v in out.values() if isinstance(v, ExperimentReport)]
    return sum(len(r.records) + r.summary.get("vanish_checked", 0) for r in reps)


def _small_check(p: dict, out, seed: int, checks: Checks) -> None:
    rng = random.Random(seed)
    records = out["S"].records
    for r in rng.sample(records, S_SAMPLE):
        q = r["q1"] * r["q2"]
        direct = abs(charsums.char_sum_S(charsums.SCharParams(r["m1"], r["m2"], r["n"], r["h"], q)))
        checks.expect(
            abs(direct - r["abs_sum"]) <= 1e-9 * q,
            f"S{(r['q1'], r['q2'], r['m1'], r['m2'], r['n'], r['h'])}: census "
            f"{r['abs_sum']!r}, direct {direct!r}",
        )
    summary = out["T"].summary
    checks.expect(
        summary["vanish_passed"] == summary["vanish_checked"],
        f"T vanishing law held on {summary['vanish_passed']} of {summary['vanish_checked']} tuples",
    )


# ---------------------------------------------------------------------------
# census_large_q: few T sums with large moduli, off-diagonal and diagonal

_T_LARGE = {"q1_primes": (17, 19, 23), "q2_primes": (29,), "m_max": 5}


def _large_params(seed: int) -> dict:
    rng = random.Random(seed)
    primes = _T_LARGE["q1_primes"] + _T_LARGE["q2_primes"]
    fam = dict(
        _T_LARGE,
        n_values=_coprime_values(rng, 3, 60, primes),
        h_values=_coprime_values(rng, 2, 60, primes),
    )
    return {"offdiag": fam, "diag": dict(fam, diagonal=True)}


def _large_run(p: dict):
    return {
        "offdiag": charsums.bound_census(charsums.TCensusFamily(**p["offdiag"])),
        "diag": charsums.bound_census(charsums.TCensusFamily(**p["diag"])),
    }


def _report_digest(out) -> str:
    return _sha(*(v.to_jsonl().encode() for v in out.values() if isinstance(v, ExperimentReport)))


def _tparams(r: dict) -> charsums.TCharParams:
    return charsums.TCharParams(
        n=r["n"], m=r["m"], h=r["h"],
        q1=PrimeModulus(r["q1"]), q1t=PrimeModulus(r["q1t"]), q2=PrimeModulus(r["q2"]),
    )


def brute_force_t_diag(n: int, m: int, h: int, q1: int, q2: int) -> complex:
    """T(n, m, h; q1, q1, q2) straight from the definition.

    S(1, alpha, n, h; q) = sum over units a, x mod q of
    e_q(a h - abar n + abar x + alpha xbar), summed term by term for each
    alpha mod q; the alpha-sum then runs over all of q1^2 q2.  Shares no
    code with the package's Kloosterman tables or s_alpha_table.
    """
    q = q1 * q2
    big = q1 * q
    units = np.array([a for a in range(q) if math.gcd(a, q) == 1], dtype=np.int64)
    inv = np.array([pow(int(a), -1, q) for a in units], dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    base = (units[:, None] * h - inv[:, None] * n + inv[:, None] * units[None, :]) % q
    s = np.array([roots[(base + alpha * inv[None, :]) % q].sum() for alpha in range(q)])
    alpha = np.arange(big)
    sa = s[alpha % q]
    return complex(np.sum(sa * np.conj(sa) * np.exp(2j * np.pi * ((m * alpha) % big) / big)))


def _large_check(p: dict, out, seed: int, checks: Checks) -> None:
    rng = random.Random(seed)
    for r in rng.sample(out["offdiag"].records, 12):
        tp = _tparams(r)
        prod = abs(
            charsums.t1_closed_form(tp, "q1")
            * charsums.t1_closed_form(tp, "q1t")
            * charsums.t2_sum(tp.n, tp.m, tp.h, tp.q1, tp.q1t, tp.q2)
        )
        checks.expect(
            abs(prod - r["abs_sum"]) <= 1e-6 * max(1.0, r["abs_sum"]),
            f"T{(r['q1'], r['q1t'], r['q2'], r['n'], r['m'], r['h'])}: census "
            f"{r['abs_sum']!r}, CRT product {prod!r}",
        )
    for r in rng.sample(out["diag"].records, 2):
        oracle = abs(brute_force_t_diag(r["n"], r["m"], r["h"], r["q1"], r["q2"]))
        checks.expect(
            abs(oracle - r["abs_sum"]) <= 1e-6 * max(1.0, r["abs_sum"]),
            f"T{(r['q1'], r['q1t'], r['q2'], r['n'], r['m'], r['h'])}: census "
            f"{r['abs_sum']!r}, brute force {oracle!r}",
        )


# ---------------------------------------------------------------------------
# circle_l2: the L2 error of the approximant on one large moduli set


def _circle_params(seed: int) -> dict:
    return {"anchors": [(30, 200)], "delta_exponents": [-1.0], "n_max_factor": 50.0}


def _circle_run(p: dict):
    return {"report": circle.l2_error_census(p["anchors"], p["delta_exponents"], n_max_factor=p["n_max_factor"])}


def _circle_approximants(p: dict):
    """(Approximant, n_max) per census row, rebuilt as l2_error_census does."""
    for Q1, Q2 in p["anchors"]:
        ms = circle.build_moduli_set(Q1, Q2, 1)
        for e in p["delta_exponents"]:
            A = circle.Approximant(moduli=ms, delta=float(ms.max_modulus) ** e)
            yield A, int(p["n_max_factor"] / A.delta)


def _circle_items(p: dict, out) -> int:
    return sum(n_max for _, n_max in _circle_approximants(p))


def coeff_oracle(A, ns: np.ndarray) -> np.ndarray:
    """a_n of the approximant for every n in ns.

    The members are the full product P1 x P2 and c_q1q2 = c_q1 c_q2, so
    sum_q c_q(n) = (sum over P1 of c_p(n)) (sum over P2 of c_p(n)), with
    c_p(n) = p - 1 if p | n else -1: about (|P1| + |P2|) / (|P1| |P2|) of
    the package's work, and none of its code.
    """
    members = A.moduli.members
    p1 = sorted({m[0] for m in members})
    p2 = sorted({m[1] for m in members})
    if len(members) != len(p1) * len(p2):
        raise ValueError("moduli set is not a full product P1 x P2")
    s1 = sum(np.where(ns % p == 0, p - 1.0, -1.0) for p in p1)
    s2 = sum(np.where(ns % p == 0, p - 1.0, -1.0) for p in p2)
    return s1 * s2 / A.moduli.L * np.sinc(2.0 * ns * A.delta)  # np.sinc(x) = sin(pi x)/(pi x)


def _circle_check(p: dict, out, seed: int, checks: Checks) -> None:
    rng = random.Random(seed)
    rows = out["report"].records
    for row, (A, n_max) in zip(rows, _circle_approximants(p)):
        for n in rng.sample(range(1, 2 * n_max + 1), 10):
            got = circle.fourier_coeff(A, n)
            want = coeff_oracle(A, np.array([n]))[0]
            checks.expect(abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"a_{n} = {got!r}, oracle {want!r}")
        partial = beyond = 0.0
        chunk = 1 << 20
        for lo in range(1, 2 * n_max + 1, chunk):
            ns = np.arange(lo, min(2 * n_max, lo + chunk - 1) + 1)
            sq = 2.0 * coeff_oracle(A, ns) ** 2
            partial += float(np.sum(sq[ns <= n_max]))
            beyond += float(np.sum(sq[ns > n_max]))
        # error = partial + tail majorant; the mass between n_max and
        # 2 n_max is part of the true tail, so a valid majorant exceeds it.
        # The majorant itself is never compared with a stored value.
        tail = row["error"] - partial
        checks.expect(tail >= beyond, f"tail bound {tail!r} < known tail mass {beyond!r}")
    ms = circle.build_moduli_set(3, 11, 1)
    A = circle.Approximant(moduli=ms, delta=1.0 / ms.max_modulus)
    est = circle.l2_error(A, int(20000 / A.delta)).value
    grid = circle.quadrature_l2_error(A, A.delta / 50.0)
    checks.expect(abs(est - grid) <= 0.01 * grid, f"(3,11) l2_error {est!r} vs quadrature {grid!r}")


def pair(first: Workload, second: Workload) -> Workload:
    """`first` then `second` in one interpreter, both from cold caches.

    The two share no cached table, so each part costs what it costs alone.
    Items, checks and the digest are those of the parts together; the
    output also holds each part's own time.
    """
    parts = (first, second)

    def params(seed: int) -> dict:
        return {w.name: w.params(seed) for w in parts}

    def run(p: dict):
        out, part_s = {}, {}
        for w in parts:
            t0 = time.perf_counter()
            out[w.name] = w.run(p[w.name])
            part_s[w.name] = time.perf_counter() - t0
        return {"outputs": out, "part_s": part_s}

    def items(p: dict, out) -> int:
        return sum(w.items(p[w.name], out["outputs"][w.name]) for w in parts)

    def digest(out) -> str:
        return _sha(*(w.digest(out["outputs"][w.name]).encode() for w in parts))

    def check(p: dict, out, seed: int, checks: Checks) -> None:
        for w in parts:
            w.check(p[w.name], out["outputs"][w.name], seed, checks)

    return Workload(f"{first.name}-{second.name}", params, run, items, digest, check)


SINGLE = {
    w.name: w
    for w in (
        Workload("gl_tables", _gl_params, _gl_run, lambda p, out: p["N"], _gl_digest, _gl_check),
        Workload(
            "census_small_q", _small_params, _small_run, _census_items,
            lambda out: _sha(out["jsonl"].encode()), _small_check,
        ),
        Workload("census_large_q", _large_params, _large_run, _census_items, _report_digest, _large_check),
        Workload("circle_l2", _circle_params, _circle_run, _circle_items, _report_digest, _circle_check),
    )
}
# Each pair joins a workload whose speed follows the machine's drift closely
# with one that follows it less (README.md, Steadiness).
PAIRS = [
    pair(SINGLE["gl_tables"], SINGLE["census_small_q"]),
    pair(SINGLE["circle_l2"], SINGLE["census_large_q"]),
]
WORKLOADS = {**SINGLE, **{w.name: w for w in PAIRS}}
