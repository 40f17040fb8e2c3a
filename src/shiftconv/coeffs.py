"""Hecke eigenvalue tables.

The degree-2 table holds lambda2(n) = a(n) / n^{(k-1)/2} for the weight-12
level-1 holomorphic cusp form, whose integer coefficients a(n) come from the
eta-product expansion

    q * prod_{n>=1} (1 - q^n)^24 = q * (sum_k (-1)^k (2k+1) q^{k(k+1)/2})^8,

using Jacobi's cube identity for prod(1-q^n)^3.  Three squarings of that
series by Kronecker substitution give a(n) exactly.  Each squaring packs the
series into one big integer, w bits per coefficient.  By Cauchy-Schwarz every
coefficient the square keeps is at most B, the sum of the squared input
coefficients, in absolute value, so w with B < 2^(w-1) holds them all; no
bound on a(n) is assumed.  weight12_integer_coefficients takes the least such
whole-byte w before each squaring.

The degree-3 table is the symmetric-square lift: at a prime p with Satake
parameters {a, 1/a} (so lambda2(p) = a + 1/a), the lift has parameters
{a^2, 1, a^-2}.  Coefficients at prime powers are Schur polynomials in these
parameters,

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
from .util import as_index

# Caps run time and memory.  No slot can overflow at any N: each width is
# sized from the series it squares.
_MAX_N = 3_000_000


def _eta_cube_terms(length):
    """Coefficients of prod(1-q^n)^3 below degree `length` (Jacobi's identity)."""
    series = [0] * length
    k = 0
    while k * (k + 1) // 2 < length:
        series[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return series


def _slot_bits(coeffs):
    """Smallest whole-byte width w with sum(c^2) < 2^(w-1)."""
    return 8 * (sum(c * c for c in coeffs).bit_length() // 8 + 1)


def _offset(length, bits):
    """2^(bits-1) in each of `length` slots of `bits` bits."""
    return int.from_bytes((1 << (bits - 1)).to_bytes(bits // 8, "little") * length, "little")


def _encode(coeffs, bits):
    """sum_i coeffs[i] 2^(bits i), each |coeffs[i]| < 2^(bits-1)."""
    size, half = bits // 8, 1 << (bits - 1)
    raw = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(raw, "little") - _offset(len(coeffs), bits)


def _decode(value, length, bits):
    """Signed slot coefficients (|c| < 2^(bits-1)) of value mod 2^(bits length)."""
    size, half = bits // 8, 1 << (bits - 1)
    value = (value + _offset(length, bits)) & ((1 << (bits * length)) - 1)
    raw = value.to_bytes(length * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]


def weight12_integer_coefficients(N: int) -> list[int]:
    """a(1..N) of the weight-12 form, exact integers.

    Three Kronecker squarings take the eta-cube series to eta^6, eta^12 and
    (eta^3)^8 = eta^24, each kept to its low N coefficients.  Before each
    squaring the series a_0..a_{N-1} is encoded in slots of w bits, w the
    smallest whole number of bytes with B = sum a_i^2 < 2^(w-1).  That width
    is exact: every kept coefficient of the square satisfies, by
    Cauchy-Schwarz,

        |sum_{i+j=n} a_i a_j| <= sum_{i<=n} a_i^2 <= B    (n < N),

    so each slot holds c + 2^(w-1) in [0, 2^w) and the offset decode of the
    product mod 2^(w N) (a mask, not CPython's quadratic `%`) returns the
    coefficients, which are re-encoded at the next width.  N beyond _MAX_N
    raises OutOfRange before any encoding.
    """
    N = as_index(N, "N")
    if N < 1:
        raise OutOfRange("need N >= 1")
    if N > _MAX_N:
        raise OutOfRange(f"N={N} beyond {_MAX_N}: the squarings would take too long")
    series = _eta_cube_terms(N)
    for _ in range(3):
        bits = _slot_bits(series)
        acc = _encode(series, bits)
        series = _decode(acc * acc, N, bits)
    return [0] + series  # a(n) = series[n-1]; index 0 is a dummy


@dataclass(frozen=True)
class GL2CoefficientTable:
    """Normalized degree-2 Hecke eigenvalues lambda(n), 1 <= n <= N."""

    N: int
    values: np.ndarray          # values[n] = lambda(n); values[0] unused
    integer_values: tuple       # exact a(n), same indexing

    def lam(self, n: int) -> float:
        n = as_index(n, "n")
        if not 1 <= n <= self.N:
            raise OutOfRange(f"n={n} outside [1, {self.N}]")
        return float(self.values[n])


def build_gl2_table(k: int, N: int) -> GL2CoefficientTable:
    """Coefficient table of the weight-12 form; other weights are not wired."""
    if k != 12:
        raise UnsupportedWeight(f"weight {k} not supported (only 12)")
    N = as_index(N, "N")
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
        m1, m2 = as_index(m1, "m1"), as_index(m2, "m2")
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
    N = as_index(N, "N")
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
    x = as_index(x, "x")
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
