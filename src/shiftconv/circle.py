"""Overlapping-interval circle-method approximant over factorable moduli.

The indicator of [0, 1] is approximated by

    I~(x) = (1 / 2 delta L) sum_{q in Q} sum over units a mod q
            of 1[|x - a/q| <= delta, circularly mod 1],

where the moduli family Q consists of products q = q1 q2 of primes drawn
from two disjoint dyadic segments and L = sum phi(q).  The Fourier
coefficients are

    a_n = (1/L) sum_q c_q(n) sinc(2 pi n delta),   a_0 = 1 exactly,

and the L^2 distance from 1 is sum_{n != 0} |a_n|^2 (Parseval), reported
with a certified divisor-pair tail majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, primes_in_dyadic, unit_residues
from .errors import OverlappingRanges
from .reports import ExperimentReport
from .util import sinc


@dataclass(frozen=True)
class ModuliSet:
    """Products of primes from [Q1, 2Q1] x [Q2, 2Q2], coprime to h_excluded."""

    Q1: int
    Q2: int
    h_excluded: int
    members: tuple  # sorted (q1, q2, q) triples
    L: int          # sum of phi(q) over members

    @property
    def max_modulus(self) -> int:
        """The dyadic cap 4 Q1 Q2 (every member is <= this)."""
        return 4 * self.Q1 * self.Q2


def build_moduli_set(Q1: int, Q2: int, h: int) -> ModuliSet:
    """All products of admissible primes from the two segments, sorted."""
    lo1, hi1, lo2, hi2 = Q1, 2 * Q1, Q2, 2 * Q2
    if not (hi1 < lo2 or hi2 < lo1):
        raise OverlappingRanges(f"[{lo1},{hi1}] and [{lo2},{hi2}] intersect")
    p1 = primes_in_dyadic(Q1, h)
    p2 = primes_in_dyadic(Q2, h)
    members = tuple(
        sorted((a.p, b.p, a.p * b.p) for a in p1 for b in p2)
    )
    L = sum(euler_phi(q1) * euler_phi(q2) for q1, q2, _ in members)
    return ModuliSet(Q1=Q1, Q2=Q2, h_excluded=h, members=members, L=L)


@dataclass(frozen=True)
class Approximant:
    """A moduli set with an interval half-width delta in [Q^-2 / 8, 8 Q^-1]."""

    moduli: ModuliSet
    delta: float

    def __post_init__(self):
        Q = self.moduli.max_modulus
        if not (Q ** -2.0 / 8.0 <= self.delta <= 8.0 / Q):
            raise ValueError(
                f"delta={self.delta} outside [Q^-2/8, 8/Q] for Q={Q}"
            )


def approximant_eval(A: Approximant, x: float) -> float:
    """Pointwise value of I~ at x, with circular interval membership."""
    count = 0
    for q1, q2, q in A.moduli.members:
        frac = np.abs(x - unit_residues(q) / q)
        circ = np.minimum(frac, 1.0 - frac)
        count += int(np.count_nonzero(circ <= A.delta))
    return count / (2.0 * A.delta * A.moduli.L)


def _ramanujan_rows(members, ns: np.ndarray) -> np.ndarray:
    """sum_q c_q(n) for the vector ns; c_{q1 q2} = c_{q1} c_{q2} with
    c_p(n) = p - 1 if p | n else -1 at primes."""
    total = np.zeros(len(ns))
    for q1, q2, _ in members:
        c1 = np.where(ns % q1 == 0, float(q1 - 1), -1.0)
        c2 = np.where(ns % q2 == 0, float(q2 - 1), -1.0)
        total += c1 * c2
    return total


def fourier_coeff(A: Approximant, n: int) -> complex:
    """a_n = (1/L) sum_q c_q(n) sinc(2 pi n delta); a_0 = 1 exactly."""
    if n == 0:
        return 1.0 + 0.0j
    row = _ramanujan_rows(A.moduli.members, np.array([n]))[0]
    return complex(row / A.moduli.L * sinc(2.0 * np.pi * n * A.delta))


@dataclass(frozen=True)
class L2Error:
    """Parseval partial sum plus a certified tail majorant."""

    partial: float
    tail_bound: float
    n_max: int

    @property
    def value(self) -> float:
        return self.partial + self.tail_bound


def _multiples_tail(N: int, D: int) -> float:
    """Upper bound for S(N, D) = sum_{n > N, D | n} n^-2.

    With K = floor(N/D), S(N, D) = D^-2 sum_{k > K} k^-2, which is below
    1 / (D^2 K) for K >= 1 and equals zeta(2) / D^2 for K = 0 (D > N).
    """
    K = N // D
    return (1.0 / K if K else math.pi ** 2 / 6.0) / (D * D)


def l2_error(A: Approximant, n_max: int) -> L2Error:
    """sum_{0 < |n| <= n_max} |a_n|^2 plus an explicit tail majorant.

    Tail:  |a_n| <= (1 / 2 pi delta L |n|) |sum_q c_q(n)|, and expanding
    (sum_q sum_{d | (n,q)} d)^2 over divisor pairs gives

        sum_{|n| > N} |a_n|^2
          <= 2 (1 / 2 pi delta L)^2 sum_{(q,d), (q',d')} d d' S(N, lcm(d,d'))

    with S(N, D) = sum_{n > N, D | n} n^-2 <= 1 / (D^2 floor(N/D)) for
    D <= N and S(N, D) = zeta(2) / D^2 for D > N (_multiples_tail).
    """
    if n_max < 1.0 / A.delta:
        raise ValueError("need n_max >= 1/delta")
    members, L, delta = A.moduli.members, A.moduli.L, A.delta
    partial = 0.0
    chunk = 4_000_000
    lo = 1
    while lo <= n_max:
        hi = min(n_max, lo + chunk - 1)
        ns = np.arange(lo, hi + 1)
        an = _ramanujan_rows(members, ns) / L * sinc(2.0 * np.pi * ns * delta)
        partial += 2.0 * float(np.sum(an * an))
        lo = hi + 1
    divisor_lists = [(1, q1, q2, q) for q1, q2, q in members]
    tail = 0.0
    for da in divisor_lists:
        for db in divisor_lists:
            for d1 in da:
                for d2 in db:
                    lcm = d1 * d2 // math.gcd(d1, d2)
                    tail += d1 * d2 * _multiples_tail(n_max, lcm)
    tail *= 2.0 * (1.0 / (2.0 * np.pi * delta * L)) ** 2
    return L2Error(partial=partial, tail_bound=tail, n_max=n_max)


def quadrature_l2_error(A: Approximant, step: float) -> float:
    """Midpoint-rule value of the integral of |1 - I~|^2 (independent oracle)."""
    m = int(np.ceil(1.0 / step))
    xs = (np.arange(m) + 0.5) / m
    count = np.zeros(m)
    for q1, q2, q in A.moduli.members:
        for a in unit_residues(q):
            d = np.abs(xs - a / q)
            count += (np.minimum(d, 1.0 - d) <= A.delta)
    vals = 1.0 - count / (2.0 * A.delta * A.moduli.L)
    return float(np.mean(vals * vals))


def l2_error_census(anchors, delta_exponents, h: int = 1, n_max_factor: float = 500.0) -> ExperimentReport:
    """Sweep (Q1, Q2) anchors and delta = Q^e; one CSV row per combination.

    Records L / Q^2 alongside the normalized error ratio: desk-scale prime
    counts make the density |Q| >> Q^(1-eps) unattainable, so it is reported
    rather than enforced.
    """
    cols = ["Q1", "Q2", "delta", "L", "density", "error", "bound", "ratio"]
    rep = ExperimentReport.for_config(
        cols,
        {"anchors": list(anchors), "delta_exponents": list(delta_exponents), "h": h},
    )
    for Q1, Q2 in anchors:
        ms = build_moduli_set(Q1, Q2, h)
        Q = ms.max_modulus
        for e in delta_exponents:
            delta = float(Q) ** e
            A = Approximant(moduli=ms, delta=delta)
            err = l2_error(A, int(n_max_factor / delta)).value
            bound = Q * Q * math.log(Q) / (delta * ms.L ** 2)
            rep.add(
                Q1=Q1, Q2=Q2, delta=delta, L=ms.L, density=ms.L / Q ** 2,
                error=err, bound=bound, ratio=err / bound,
            )
    return rep.finalize()
