"""Overlapping-interval circle-method approximant over factorable moduli.

The indicator of [0, 1] is approximated by the period-1 function

    I~(x) = (1 / 2 delta L) sum_{q in Q} sum over units a mod q
            of 1[|x - a/q| <= delta, circularly mod 1],

where the moduli family Q = P1 x P2 consists of the products q = q1 q2 of
primes from two disjoint dyadic segments, and L = sum phi(q) =
Phi(P1) Phi(P2) with Phi(P) = sum (p - 1).  The Fourier coefficients are

    a_n = (1/L) sum_q c_q(n) sinc(2 n delta),   a_0 = 1 exactly,

where sum_q c_q(n) = (sum_{p in P1} c_p(n)) (sum_{p in P2} c_p(n)) as
c_{q1 q2} = c_{q1} c_{q2}, and sinc(x) = sin(pi x) / (pi x) as in np.sinc.
Each factor is sieved over a window of n: c_p(n) = -1 except at the
multiples of p, so a prime costs one strided add over 1/p of the window.
The L^2 distance from 1 is sum_{n != 0} |a_n|^2 (Parseval), summed in
windows of 2^16 n, and reported with a certified divisor-pair tail
majorant.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import primes_in_dyadic, unit_residues
from .errors import OutOfRange, OverlappingRanges
from .reports import ExperimentReport
from .util import as_index

log = logging.getLogger(__name__)

# n per l2_error window: the window's arrays stay cache-sized.  The chunk
# size sets the rounding of the partial sum, and 2^16 rounds as the
# recorded circle_l2 digest does (2^18 does not)
_L2_CHUNK = 1 << 16


@dataclass(frozen=True)
class ModuliSet:
    """The products P1 x P2 of primes from [Q1, 2Q1] and [Q2, 2Q2]."""

    Q1: int
    Q2: int
    P1: tuple  # ascending primes of [Q1, 2Q1]
    P2: tuple  # ascending primes of [Q2, 2Q2]

    @property
    def members(self) -> tuple:
        """The sorted (q1, q2, q1 q2) triples of P1 x P2."""
        return tuple((q1, q2, q1 * q2) for q1 in self.P1 for q2 in self.P2)

    @property
    def L(self) -> int:
        """sum of phi(q) over members, Phi(P1) Phi(P2)."""
        return sum(p - 1 for p in self.P1) * sum(p - 1 for p in self.P2)

    @property
    def max_modulus(self) -> int:
        """The dyadic cap 4 Q1 Q2 (every member is <= this)."""
        return 4 * self.Q1 * self.Q2


def build_moduli_set(Q1: int, Q2: int, h: int) -> ModuliSet:
    """P1 x P2 from the primes of [Q1, 2Q1] and [Q2, 2Q2] not dividing h."""
    Q1, Q2, h = as_index(Q1, "Q1"), as_index(Q2, "Q2"), as_index(h, "h")
    if not (2 * Q1 < Q2 or 2 * Q2 < Q1):
        raise OverlappingRanges(f"[{Q1},{2 * Q1}] and [{Q2},{2 * Q2}] intersect")
    return ModuliSet(Q1=Q1, Q2=Q2, P1=primes_in_dyadic(Q1, h), P2=primes_in_dyadic(Q2, h))


@dataclass(frozen=True)
class Approximant:
    """A moduli set with an interval half-width delta in [Q^-2 / 8, 8 Q^-1]."""

    moduli: ModuliSet
    delta: float

    def __post_init__(self):
        Q = self.moduli.max_modulus
        if not (Q ** -2.0 / 8.0 <= self.delta <= 8.0 / Q):
            raise OutOfRange(f"delta={self.delta} outside [Q^-2/8, 8/Q] for Q={Q}")


def _interval_counts(A: Approximant, xs) -> np.ndarray:
    """Number of fractions a/q within circular distance delta of each x mod 1;
    as delta < 1/2, the window [x - delta, x + delta] holds at most one of
    f - 1, f, f + 1 for each a/q = f in (0, 1)."""
    f = np.sort(np.concatenate([unit_residues(q) / q for _, _, q in A.moduli.members]))
    f = np.concatenate([f - 1.0, f, f + 1.0])
    x = np.asarray(xs, dtype=float) % 1.0
    return np.searchsorted(f, x + A.delta, "right") - np.searchsorted(f, x - A.delta, "left")


def approximant_eval(A: Approximant, x: float | np.ndarray) -> float | np.ndarray:
    """Value of I~ at x, with circular interval membership.

    x may be a float (returns a float) or an array (returns an array of the
    same shape, each entry equal to the scalar call)."""
    vals = _interval_counts(A, x) / (2.0 * A.delta * A.moduli.L)
    return float(vals) if np.ndim(x) == 0 else vals


def _ramanujan_rows(ms: ModuliSet, lo: int, count: int) -> np.ndarray:
    """sum_q c_q(n) for n = lo, ..., lo + count - 1, as (sum over P1)(sum
    over P2) of c_p(n) = p - 1 if p | n else -1.

    Each row is sieved: it starts at -|P| and gains p at the multiples of
    each p in P, so a prime touches count / p entries.  Every value is a
    small integer, exact in a float.
    """
    rows = []
    for primes in (ms.P1, ms.P2):
        row = np.full(count, -float(len(primes)))
        for p in primes:
            row[-lo % p :: p] += p
        rows.append(row)
    return rows[0] * rows[1]


def fourier_coeff(A: Approximant, n: int) -> complex:
    """a_n = (1/L) sum_q c_q(n) sinc(2 n delta); a_0 = 1 exactly."""
    n = as_index(n, "n")
    if n == 0:
        return 1.0 + 0.0j
    row = _ramanujan_rows(A.moduli, n, 1)[0]
    return complex(row / A.moduli.L * np.sinc(2.0 * n * A.delta))


@dataclass(frozen=True)
class L2Error:
    """Parseval partial sum plus a certified tail majorant."""

    partial: float
    tail_bound: float
    n_max: int

    @property
    def value(self) -> float:
        return self.partial + self.tail_bound


def _multiples_tail(N: int, D) -> np.ndarray:
    """Upper bound for S(N, D) = sum_{n > N, D | n} n^-2, elementwise in D.

    With K = floor(N/D), S(N, D) = D^-2 sum_{k > K} k^-2, which is below
    1 / (D^2 K) for K >= 1 and equals zeta(2) / D^2 for K = 0 (D > N).
    """
    K = N // D
    return np.where(K > 0, 1.0 / np.maximum(K, 1), math.pi ** 2 / 6.0) / (D * D)


def l2_error(A: Approximant, n_max: int) -> L2Error:
    """sum_{0 < |n| <= n_max} |a_n|^2 plus an explicit tail majorant.

    n_max must be an integer (numpy integers included) of at least 1/delta.
    The partial sum runs over windows of _L2_CHUNK = 2^16 n, each with its
    own sieved Ramanujan rows, so memory does not grow with n_max.

    Tail:  |a_n| <= (1 / 2 pi delta L |n|) |sum_q c_q(n)|, and expanding
    (sum_q sum_{d | (n,q)} d)^2 over divisor pairs, grouped by value d with
    weight w_d = d times the multiplicity of d among the 4 |Q| divisors
    (1, q1, q2, q) of the members, gives

        sum_{|n| > N} |a_n|^2
          <= 2 (1 / 2 pi delta L)^2 sum_{d, d'} w_d w_d' S(N, lcm(d, d'))

    with S(N, D) = sum_{n > N, D | n} n^-2 <= 1 / (D^2 floor(N/D)) for
    D <= N and S(N, D) = zeta(2) / D^2 for D > N (_multiples_tail), summed
    one row of d' at a time with lcm in floats, so no int64 can overflow.
    """
    n_max = as_index(n_max, "n_max")
    if n_max < 1.0 / A.delta:
        raise OutOfRange("need n_max >= 1/delta")
    L, delta = A.moduli.L, A.delta
    partial = 0.0
    for lo in range(1, n_max + 1, _L2_CHUNK):
        ns = np.arange(lo, min(n_max + 1, lo + _L2_CHUNK))
        an = _ramanujan_rows(A.moduli, lo, len(ns)) / L * np.sinc(2.0 * ns * delta)
        partial += 2.0 * float(np.sum(an * an))
    d, mult = np.unique(np.insert(np.array(A.moduli.members), 0, 1, axis=1), return_counts=True)
    w = (d * mult).astype(float)
    tail = 0.0
    for di, wi in zip(d, w):
        lcm = (di // np.gcd(di, d)) * d.astype(float)
        tail += wi * float(np.sum(w * _multiples_tail(n_max, lcm)))
    tail *= 2.0 * (1.0 / (2.0 * np.pi * delta * L)) ** 2
    return L2Error(partial=partial, tail_bound=tail, n_max=n_max)


def quadrature_l2_error(A: Approximant, step: float) -> float:
    """Midpoint-rule value of the integral of |1 - I~|^2 (independent oracle)."""
    m = int(np.ceil(1.0 / step))
    xs = (np.arange(m) + 0.5) / m
    vals = 1.0 - approximant_eval(A, xs)
    return float(np.mean(vals * vals))


def l2_error_census(anchors, delta_exponents, h: int = 1, n_max_factor: float = 500.0) -> ExperimentReport:
    """Sweep (Q1, Q2) anchors and delta = Q^e; one record per combination,
    one report block per anchor.

    Records L / Q^2 alongside the normalized error ratio: desk-scale prime
    counts make the density |Q| >> Q^(1-eps) unattainable, so it is reported
    rather than enforced.
    """
    cols = ["Q1", "Q2", "delta", "L", "density", "error", "bound", "ratio"]
    rep = ExperimentReport(
        cols,
        {"anchors": list(anchors), "delta_exponents": list(delta_exponents), "h": h, "n_max_factor": n_max_factor},
    )
    t0 = time.perf_counter()
    for Q1, Q2 in anchors:
        ms = build_moduli_set(Q1, Q2, h)
        Q = ms.max_modulus
        rows = []  # (delta, error, bound) per exponent
        for e in delta_exponents:
            delta = float(Q) ** e
            err = l2_error(Approximant(moduli=ms, delta=delta), int(n_max_factor / delta)).value
            rows.append((delta, err, Q * Q * math.log(Q) / (delta * ms.L ** 2)))
        delta, error, bound = np.array(rows, dtype=float).reshape(-1, 3).T
        rep.add(
            Q1=Q1, Q2=Q2, delta=delta, L=ms.L, density=ms.L / Q ** 2,
            error=error, bound=bound, ratio=error / bound,
        )
        log.debug(
            "L2 census (Q1, Q2) = (%d, %d): %d members, %d rows, %.3f s",
            Q1, Q2, len(ms.members), len(rep), time.perf_counter() - t0,
        )
    return rep.finalize()
