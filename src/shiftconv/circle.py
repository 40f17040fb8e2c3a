"""Overlapping-interval circle-method approximant over factorable moduli.

The indicator of [0, 1] is approximated by the period-1 function

    I~(x) = (1 / 2 delta L) sum_{q in Q} sum over units a mod q
            of 1[|x - a/q| <= delta, circularly mod 1],

where the moduli family Q = P1 x P2 consists of the products q = q1 q2 of
primes from two disjoint dyadic segments, and L = sum phi(q) =
Phi(P1) Phi(P2) with Phi(P) = sum (p - 1).  The Fourier coefficients are

    a_n = (1/L) sum_q c_q(n) sinc(2 n delta),   a_0 = 1 exactly,

where sum_q c_q(n) = (sum_{p in P1} c_p(n)) (sum_{p in P2} c_p(n)) as
c_{q1 q2} = c_{q1} c_{q2}, and sinc(x) = sin(pi x) / (pi x).
Each factor is sieved over a window of n: c_p(n) = -1 except at the
multiples of p, so a prime costs one strided add over 1/p of the window.
The L^2 distance from 1 is sum_{n != 0} |a_n|^2 (Parseval), summed in
windows of 2^14 n, each computed in the same few buffers, whose sines come
from one table of sin and cos by angle addition, and reported with a
certified divisor-pair tail majorant.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, primes_in_dyadic
from .errors import EmptyRange, InvalidDivisor, OutOfRange, OverlappingRanges
from .reports import ExperimentReport, ratio_summary
from .util import as_index

log = logging.getLogger(__name__)

# n per l2_error window.  A window holds the sin and cos tables of 2^14
# floats and four 128 kB rows (two sieve rows, a scratch row and n), 768 kB,
# which fits a core's L2.  The size also fixes the order in which the
# partial sum rounds, so changing it moves the last bits of the partial sum
_L2_CHUNK = 1 << 14

# rows of divisor values per block of the tail's lcm matrix
_TAIL_BLOCK = 32

# points of the quadrature grid: it peaks at ~40 B a point (tracemalloc), so
# 168 MB at the cap, far above tier-1's largest grid of 66,000 points
_QUADRATURE_MAX_POINTS = 1 << 22


@dataclass(frozen=True)
class ModuliSet:
    """The products P1 x P2 of primes from [Q1, 2Q1] and [Q2, 2Q2].

    Checked at construction, as the tail of l2_error, _ramanujan_rows and L
    assume P1 and P2 are disjoint sets of primes: Q1 and Q2 must be integers
    (else OutOfRange) whose segments do not meet (else OverlappingRanges),
    P1 and P2 must be non-empty (else EmptyRange), and each must hold
    distinct primes of its own segment in ascending order (else
    InvalidDivisor).  The fields are stored as given.
    """

    Q1: int
    Q2: int
    P1: tuple  # ascending primes of [Q1, 2Q1]
    P2: tuple  # ascending primes of [Q2, 2Q2]

    def __post_init__(self):
        Q1, Q2 = as_index(self.Q1, "Q1"), as_index(self.Q2, "Q2")
        if not (2 * Q1 < Q2 or 2 * Q2 < Q1):
            raise OverlappingRanges(f"[{Q1},{2 * Q1}] and [{Q2},{2 * Q2}] intersect")
        for name, Q, ps in (("P1", Q1, self.P1), ("P2", Q2, self.P2)):
            if len(ps) == 0:
                raise EmptyRange(f"{name} is empty")
            if not (all(is_prime(p) and Q <= p <= 2 * Q for p in ps) and all(a < b for a, b in zip(ps, ps[1:]))):
                raise InvalidDivisor(f"{name} must be ascending distinct primes of [{Q}, {2 * Q}], got {ps!r}")

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
    return ModuliSet(Q1=Q1, Q2=Q2, P1=primes_in_dyadic(Q1, h), P2=primes_in_dyadic(Q2, h))


@dataclass(frozen=True)
class Approximant:
    """A moduli set with an interval half-width delta in [Q^-2 / 8, 8 Q^-1]."""

    moduli: ModuliSet
    delta: float

    def __post_init__(self):
        Q = self.moduli.max_modulus
        if not (isinstance(self.delta, numbers.Real) and Q ** -2.0 / 8.0 <= self.delta <= 8.0 / Q):
            raise OutOfRange(f"delta={self.delta} outside [Q^-2/8, 8/Q] for Q={Q}")


def _interval_counts(A: Approximant, xs) -> np.ndarray:
    """Number of fractions a/q within circular distance delta of each x mod 1;
    as delta < 1/2, the window [x - delta, x + delta] holds at most one of
    f - 1, f, f + 1 for each a/q = f in (0, 1)."""
    f = np.sort(np.concatenate([np.flatnonzero(np.gcd(np.arange(q), q) == 1) / q for *_, q in A.moduli.members]))
    f = np.concatenate([f - 1.0, f, f + 1.0])
    x = np.asarray(xs, dtype=float) % 1.0
    return np.searchsorted(f, x + A.delta, "right") - np.searchsorted(f, x - A.delta, "left")


def approximant_eval(A: Approximant, x: float | np.ndarray) -> float | np.ndarray:
    """Value of I~ at x, with circular interval membership.

    x may be a float (returns a float) or an array (returns an array of the
    same shape, each entry equal to the scalar call).  Every x must be real
    (an int or float dtype) and finite."""
    xs = np.asarray(x)
    if xs.dtype.kind not in "iuf" or not np.isfinite(xs).all():
        raise OutOfRange(f"x must be real and finite, got {x!r}")
    vals = _interval_counts(A, xs) / (2.0 * A.delta * A.moduli.L)
    return float(vals) if xs.ndim == 0 else vals


def _ramanujan_rows(ms: ModuliSet, lo: int, count: int, rows: np.ndarray | None = None) -> np.ndarray:
    """sum_q c_q(n) for n = lo, ..., lo + count - 1, as (sum over P1)(sum
    over P2) of c_p(n) = p - 1 if p | n else -1.

    Each factor is sieved: it starts at -|P| and gains p at the multiples of
    each p in P, so a prime touches count / p entries.  Every value is a
    small integer, exact in a float.  The factors are sieved into rows, a
    (2, >= count) float buffer (allocated if None), and their product
    overwrites rows[0, :count] and is returned, so a caller that passes the
    same rows for every window allocates nothing.
    """
    if rows is None:
        rows = np.empty((2, count))
    first, second = rows[0, :count], rows[1, :count]
    for row, primes in ((first, ms.P1), (second, ms.P2)):
        row.fill(-float(len(primes)))
        for p in primes:
            row[-lo % p :: p] += p
    return np.multiply(first, second, out=first)


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
    D holds integers (ints or integral floats) with N + D < 2^53, which
    l2_error enforces.  Then the floor of one rounded division is K exactly,
    and far cheaper than a float floor division: N / D could round up to
    K + 1 only from within (K + 1) 2^-53 of it, but it lies at least 1/D
    below, and D (K + 1) <= N + D < 2^53.
    """
    K = np.floor(N / D)
    return np.where(K > 0, 1.0 / np.maximum(K, 1), math.pi ** 2 / 6.0) / (D * D)


def _partial_sum(A: Approximant, n_max: int) -> float:
    """sum_{n=1}^{n_max} (row_n sin(theta n) / theta n)^2, theta = 2 pi delta,
    window by window (see l2_error), each window in the same buffers: the two
    sieve rows, whose first takes the product and then a_n and whose second
    the sine, one scratch row for sin(theta j) cos(theta lo) and then theta n,
    and the n of the window, moved on by _L2_CHUNK (exact: n < 2^53)."""
    theta = 2.0 * math.pi * A.delta
    size = min(n_max, _L2_CHUNK)
    angles = theta * np.arange(size)
    sin_j, cos_j = np.sin(angles), np.cos(angles)
    del angles
    rows, scratch, n = np.empty((2, size)), np.empty(size), np.arange(1.0, size + 1.0)
    total = 0.0
    for lo in range(1, n_max + 1, _L2_CHUNK):
        count = min(n_max + 1 - lo, _L2_CHUNK)
        row, sine, tmp = _ramanujan_rows(A.moduli, lo, count, rows), rows[1, :count], scratch[:count]
        np.multiply(cos_j[:count], math.sin(theta * lo), out=sine)
        np.multiply(sin_j[:count], math.cos(theta * lo), out=tmp)
        sine += tmp
        row *= sine
        np.multiply(theta, n[:count], out=tmp)
        row /= tmp
        total += float(np.einsum("i,i->", row, row))
        n += _L2_CHUNK
    return total


def l2_error(A: Approximant, n_max: int) -> L2Error:
    """sum_{0 < |n| <= n_max} |a_n|^2 plus an explicit tail majorant.

    n_max must be an integer (numpy integers included) of at least 1/delta,
    with n_max + Q^2 < 2^53 for the tail (Q = max_modulus).
    The partial sum runs over windows of _L2_CHUNK = 2^14 n, each sieving
    its Ramanujan rows into the same preallocated buffers, so memory does
    not grow with n_max.  With theta = 2 pi delta,
    a_n = row_n sin(theta n) / (L theta n); the window at lo takes
    sin(theta (lo + j)) = sin(theta lo) cos(theta j)
    + cos(theta lo) sin(theta j) from one table of sin and cos of theta j,
    j < _L2_CHUNK, built once per call, so a window costs two scalar sines
    and no array sine.  Each window sums (row_n sin(theta n) / theta n)^2
    without BLAS, and 2 / L^2 scales the total once.  The buffers and the
    tables are freed before the tail is summed.

    Tail:  |a_n| <= (1 / 2 pi delta L |n|) |sum_q c_q(n)|, and expanding
    (sum_q sum_{d | (n,q)} d)^2 over divisor pairs, grouped by value d with
    weight w_d = d times the multiplicity of d among the 4 |Q| divisors
    (1, q1, q2, q) of the members, gives

        sum_{|n| > N} |a_n|^2
          <= 2 (1 / 2 pi delta L)^2 sum_{d, d'} w_d w_d' S(N, lcm(d, d'))

    with S(N, D) = sum_{n > N, D | n} n^-2 <= 1 / (D^2 floor(N/D)) for
    D <= N and S(N, D) = zeta(2) / D^2 for D > N (_multiples_tail).  The
    values come from the prime sets, not the members: P1 and P2 are disjoint
    sets of primes, so each d is one product a b, a in {1} u P1 and
    b in {1} u P2, taken in ascending order; its multiplicity is |P1| |P2|,
    |P2|, |P1| or 1 as d is 1, q1, q2 or q; and

        lcm(d, d') = (a if a = a' else a a') (b if b = b' else b b'),

    with no gcd.  The lcm matrix is built in blocks of _TAIL_BLOCK rows of
    d, in floats so no int64 can overflow; each row is summed over d' and
    the rows are added in order of d.
    """
    n_max = as_index(n_max, "n_max")
    if n_max < 1.0 / A.delta:
        raise OutOfRange("need n_max >= 1/delta")
    if n_max + A.moduli.max_modulus ** 2 >= 2**53:  # every lcm is at most Q^2
        raise OutOfRange("need n_max + Q^2 < 2^53, so the tail's floats stay exact integers")
    L, delta = A.moduli.L, A.delta
    partial = 2.0 * _partial_sum(A, n_max) / L**2
    P1, P2 = A.moduli.P1, A.moduli.P2
    # d = a b ascending; w_d = (a, or |P1| at a = 1) (b, or |P2| at b = 1)
    ia, ib = np.divmod(np.argsort(np.outer((1, *P1), (1, *P2)), axis=None), len(P2) + 1)
    a, b = np.array((1, *P1), dtype=float)[ia], np.array((1, *P2), dtype=float)[ib]
    w = (np.array((len(P1), *P1))[ia] * np.array((len(P2), *P2))[ib]).astype(float)
    tail = 0.0
    for i in range(0, len(a), _TAIL_BLOCK):
        ai, bi = a[i : i + _TAIL_BLOCK, None], b[i : i + _TAIL_BLOCK, None]
        lcm = np.where(ai == a, a, ai * a) * np.where(bi == b, b, bi * b)
        rows = np.sum(w * _multiples_tail(n_max, lcm), axis=1)
        for term in (w[i : i + _TAIL_BLOCK] * rows).tolist():
            tail += term
    tail *= 2.0 * (1.0 / (2.0 * math.pi * delta * L)) ** 2
    return L2Error(partial=partial, tail_bound=tail, n_max=n_max)


def _check_positive_real(value, name: str) -> None:
    """OutOfRange unless value is a finite positive real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise OutOfRange(f"{name} must be finite and positive, got {value!r}")


def quadrature_l2_error(A: Approximant, step: float) -> float:
    """Midpoint-rule value of the integral of |1 - I~|^2 (independent oracle),
    on ceil(1 / step) points; step must be a finite positive real, and a
    grid past _QUADRATURE_MAX_POINTS raises OutOfRange before allocating."""
    _check_positive_real(step, "step")
    if 1.0 / step > _QUADRATURE_MAX_POINTS:
        raise OutOfRange(f"step={step!r} needs more than {_QUADRATURE_MAX_POINTS} grid points")
    m = int(np.ceil(1.0 / step))
    xs = (np.arange(m) + 0.5) / m
    vals = 1.0 - approximant_eval(A, xs)
    return float(np.mean(vals * vals))


def l2_error_census(anchors, delta_exponents, h: int = 1, n_max_factor: float = 500.0) -> ExperimentReport:
    """Sweep (Q1, Q2) anchors and delta = Q^e; one record per combination,
    one report block per anchor.  An anchor that is not a tuple or list of
    two raises OutOfRange.

    Records L / Q^2 beside the error and its bound; the summary carries the
    max and median of error / bound.  Desk-scale prime counts make the
    density |Q| >> Q^(1-eps) unattainable, so it is reported, not enforced.
    """
    _check_positive_real(n_max_factor, "n_max_factor")
    # lists once, so a one-shot iterator is not emptied by the check or config
    anchors, delta_exponents = list(anchors), list(delta_exponents)
    if not all(isinstance(a, (tuple, list)) and len(a) == 2 for a in anchors):
        raise OutOfRange(f"anchors must be (Q1, Q2) pairs, got {anchors!r}")
    if not all(isinstance(e, numbers.Real) for e in delta_exponents):
        raise OutOfRange(f"delta_exponents must be real numbers, got {delta_exponents!r}")
    cols = ["Q1", "Q2", "delta", "L", "density", "error", "bound"]
    rep = ExperimentReport(
        cols, {"anchors": anchors, "delta_exponents": delta_exponents, "h": h, "n_max_factor": n_max_factor}
    )
    t0, ratios = time.perf_counter(), []
    for Q1, Q2 in anchors:
        ms = build_moduli_set(Q1, Q2, h)
        Q = ms.max_modulus
        rows = []  # (delta, error, bound) per exponent
        for e in delta_exponents:
            delta = float(Q) ** e
            err = l2_error(Approximant(moduli=ms, delta=delta), int(n_max_factor / delta)).value
            rows.append((delta, err, Q * Q * math.log(Q) / (delta * ms.L ** 2)))
        delta, error, bound = np.array(rows, dtype=float).reshape(-1, 3).T
        rep.add(Q1=Q1, Q2=Q2, delta=delta, L=ms.L, density=ms.L / Q ** 2, error=error, bound=bound)
        ratios.append(error / bound)
        log.debug(
            "L2 census (Q1, Q2) = (%d, %d): %d members, %d rows, %.3f s",
            Q1, Q2, len(ms.members), len(rep), time.perf_counter() - t0,
        )
    return rep.finalize(**ratio_summary(ratios))
