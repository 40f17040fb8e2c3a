"""Hecke eigenvalue tables.

The degree-2 table holds lambda2(n) = a(n) / n^{(k-1)/2} for the weight-12
level-1 holomorphic cusp form, whose integer coefficients a(n) come from the
eta-product expansion

    q * prod_{n>=1} (1 - q^n)^24 = q * (sum_k (-1)^k (2k+1) q^{k(k+1)/2})^8,

using Jacobi's cube identity for prod(1-q^n)^3.  The degree-3 table is the
symmetric-square lift: at a prime p with Satake parameters {a, 1/a} (so
lambda2(p) = a + 1/a), the lift has parameters {a^2, 1, a^-2}.  Coefficients
at prime powers are Schur polynomials in these parameters,

    lam(p^r, p^s) = h_{r+s} h_s - h_{r+s+1} h_{s-1},

where h_k = lam(p^k, 1) satisfies h_k = c(h_{k-1} - h_{k-2}) + h_{k-3} with
c = lambda2(p)^2 - 1, and values extend multiplicatively across primes.

The first row lam(1, n) is a sieve over prime powers: for each prime p <= N,
one array product multiplies every multiple of p by lam(1, p^s), s its p-adic
valuation.  lam(m1, m2) factors m1 m2 with arith.factorize instead.

Tables are built once and immutable afterwards; reads are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .arith import factorize
from .errors import InsufficientBase, OutOfRange, UnsupportedWeight

# Slot width for the Kronecker-substitution polynomial products.  Each slot
# holds c + 2^127 for a coefficient |c| < 2^127, so no slot borrows from the
# next.  |a(n)| <= d(n) n^{11/2}, whose maximum over n <= N is about 2^117.5
# at N = 10^6, 2^126.5 at 3 * 10^6 and 2^128.9 at 4 * 10^6; _MAX_N keeps
# every table below the limit.
_SLOT_BITS = 128
_SLOT_BYTES = _SLOT_BITS // 8
_HALF = 1 << (_SLOT_BITS - 1)
_MAX_N = 3_000_000


def _eta_cube_terms(length):
    """Sparse coefficients of prod(1-q^n)^3 up to degree < length."""
    terms = []
    k = 0
    while k * (k + 1) // 2 < length:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return terms


def _offset(length):
    """2^127 in each of `length` slots."""
    return int.from_bytes(_HALF.to_bytes(_SLOT_BYTES, "little") * length, "little")


def _encode(terms, length):
    """The integer whose slot idx holds c for each (idx, c), |c| < 2^127."""
    buf = bytearray(_HALF.to_bytes(_SLOT_BYTES, "little") * length)
    for idx, c in terms:
        buf[idx * _SLOT_BYTES : (idx + 1) * _SLOT_BYTES] = (c + _HALF).to_bytes(_SLOT_BYTES, "little")
    return int.from_bytes(buf, "little") - _offset(length)


def _decode(value, length):
    """Signed slot coefficients (|c| < 2^127) of value mod 2^(128 length)."""
    value = (value + _offset(length)) & ((1 << (_SLOT_BITS * length)) - 1)
    raw = value.to_bytes(length * _SLOT_BYTES, "little")
    return [
        int.from_bytes(raw[i : i + _SLOT_BYTES], "little") - _HALF
        for i in range(0, len(raw), _SLOT_BYTES)
    ]


def weight12_integer_coefficients(N: int) -> list[int]:
    """a(1..N) of the weight-12 form, exact integers.

    Three squarings of the encoded eta-cube series give (eta^3)^8.  Each
    square is truncated to its low N slots with `& mask`, mask = 2^(128 N) - 1,
    which gives the same residue as `% 2^(128 N)` without a long division
    (CPython's `%` on big ints is quadratic).  For N <= 3 * 10^6 slot
    arithmetic stays below 2^127, so the offset decode is unambiguous, and
    larger N raise OutOfRange.
    """
    if N < 1:
        raise OutOfRange("need N >= 1")
    if N > _MAX_N:
        raise OutOfRange(f"N={N} beyond {_MAX_N}: coefficients would overflow the {_SLOT_BITS}-bit slots")
    mask = (1 << (_SLOT_BITS * N)) - 1
    acc = _encode(_eta_cube_terms(N), N)
    for _ in range(3):
        acc = (acc * acc) & mask
    coeffs = _decode(acc, N)
    return [0] + coeffs  # a(n) = coeffs[n-1]; index 0 is a dummy


@dataclass(frozen=True)
class GL2CoefficientTable:
    """Normalized degree-2 Hecke eigenvalues lambda(n), 1 <= n <= N."""

    N: int
    values: np.ndarray          # values[n] = lambda(n); values[0] unused
    integer_values: tuple       # exact a(n), same indexing

    def lam(self, n: int) -> float:
        if not 1 <= n <= self.N:
            raise OutOfRange(f"n={n} outside [1, {self.N}]")
        return float(self.values[n])


def build_gl2_table(k: int, N: int) -> GL2CoefficientTable:
    """Coefficient table of the weight-12 form; other weights are not wired."""
    if k != 12:
        raise UnsupportedWeight(f"weight {k} not supported (only 12)")
    ints = weight12_integer_coefficients(N)
    ns = np.arange(N + 1, dtype=float)
    ns[0] = 1.0
    values = np.array([float(a) for a in ints]) / ns ** ((k - 1) / 2.0)
    values.setflags(write=False)
    return GL2CoefficientTable(N=N, values=values, integer_values=tuple(ints))


def _local(h, r, s):
    """lam(p^r, p^s) = h_{r+s} h_s - h_{r+s+1} h_{s-1} from p's h table (h_{-1} = 0)."""
    hm1 = h[s - 1] if s >= 1 else 0.0
    return h[r + s] * h[s] - h[r + s + 1] * hm1


@dataclass(frozen=True)
class GL3CoefficientTable:
    """Symmetric-square coefficients lam(m1, m2) for m1 * m2 <= N."""

    N: int
    h_tables: MappingProxyType = field(repr=False)  # prime -> array of h_k values
    first_row: np.ndarray = field(repr=False)       # first_row[n] = lam(1, n)

    def lam(self, m1: int, m2: int) -> float:
        if m1 < 1 or m2 < 1 or m1 * m2 > self.N:
            raise OutOfRange(f"(m1, m2) = ({m1}, {m2}) outside m1*m2 <= {self.N}")
        val = 1.0
        for p, _ in factorize(m1 * m2):  # p^(r + s) <= N, inside p's h table
            r = 0
            while m1 % p == 0:
                m1 //= p
                r += 1
            s = 0
            while m2 % p == 0:
                m2 //= p
                s += 1
            val *= _local(self.h_tables[p], r, s)
        return val


def sym2_local_expansion(lam_p: float, kmax: int) -> np.ndarray:
    """Independent oracle for h_k: expand the lift's local Euler factor.

    With lambda2(p) = 2 cos(theta), the parameters are (e^{2i theta}, 1,
    e^{-2i theta}); h_k is the complete homogeneous polynomial, computed by
    multiplying the three truncated geometric series directly.
    """
    theta = math.acos(max(-1.0, min(1.0, lam_p / 2.0)))
    params = [np.exp(2j * theta), 1.0 + 0j, np.exp(-2j * theta)]
    series = np.zeros(kmax + 1, dtype=complex)
    series[0] = 1.0
    for a in params:
        geo = a ** np.arange(kmax + 1)
        series = np.convolve(series, geo)[: kmax + 1]
    assert np.abs(series.imag).max() < 1e-9
    return series.real


def build_gl3_sym2_table(base: GL2CoefficientTable, N: int) -> GL3CoefficientTable:
    """Symmetric-square lift table on m1 * m2 <= N."""
    if N < 1:
        raise OutOfRange("need N >= 1")
    if base.N < N:
        raise InsufficientBase(f"base covers {base.N} < {N}")
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    # Multiplicative sieve, largest prime first: each first[n] multiplies its
    # local factors onto 1.0 from the largest prime down; that order fixes rounding.
    h_tables = {}
    first = np.ones(N + 1)
    for p in np.flatnonzero(sieve)[::-1].tolist():
        kmax = 1
        while p ** kmax <= N:
            kmax += 1
        c = base.lam(p) ** 2 - 1.0
        h = [0.0, 0.0, 1.0]  # h_{-2}, h_{-1}, h_0, then the recurrence
        for _ in range(kmax + 2):
            h.append(c * (h[-1] - h[-2]) + h[-3])
        h = h[2:]
        local = np.array([_local(h, 0, s) for s in range(1, kmax)])  # lam(1, p^s)
        h_tables[p] = np.array(h)
        h_tables[p].setflags(write=False)
        v = np.zeros(N // p, dtype=np.intp)  # v[j - 1] = ord_p(j), so p j has s = v + 1
        pk = p
        while pk <= N // p:
            v[pk - 1 :: pk] += 1
            pk *= p
        first[p::p] *= local[v]
    first.setflags(write=False)
    h_tables = MappingProxyType(dict(reversed(h_tables.items())))  # ascending primes
    return GL3CoefficientTable(N=N, h_tables=h_tables, first_row=first)


def rankin_selberg_average(table, x) -> float:
    """(1/x) sum_{n <= x} |lam(1,n)|^2 (degree-3) or |lam(n)|^2 (degree-2)."""
    x = int(x)
    if x < 1:
        raise OutOfRange("need x >= 1")
    if isinstance(table, GL3CoefficientTable):
        row = table.first_row
    elif isinstance(table, GL2CoefficientTable):
        row = table.values
    else:
        raise TypeError("expected a coefficient table")
    if x > table.N:
        raise OutOfRange(f"x={x} beyond table range {table.N}")
    row = row[1 : x + 1]
    return float(np.sum(row * row) / x)
