"""Hecke eigenvalue tables.

The degree-2 table holds lambda2(n) = a(n) / n^{(k-1)/2} for the weight-12
level-1 holomorphic cusp form, whose integer coefficients a(n) come from the
eta-product expansion

    q * prod_{n>=1} (1 - q^n)^24 = q * (sum_k (-1)^k (2k+1) q^{k(k+1)/2})^8,

using Jacobi's cube identity for prod(1-q^n)^3.  Three squarings of that
series give a(n) exactly, each by real FFTs on balanced int64 limbs, with
Python ints built once at the end (weight12_integer_coefficients).

The degree-3 table is the symmetric-square lift: at a prime p with Satake
parameters {a, 1/a} (so lambda2(p) = a + 1/a), the lift has parameters
{a^2, 1, a^-2}.  Its first row at prime powers is a Schur polynomial in these
parameters,

    lam(1, p^s) = h_s h_s - h_{s+1} h_{s-1},

where h_k = lam(p^k, 1) satisfies h_k = c(h_{k-1} - h_{k-2}) + h_{k-3} with
c = lambda2(p)^2 - 1.  The first row lam(1, n) is a sieve over prime powers:
for each prime p <= sqrt(N), one array product multiplies every multiple of p
by lam(1, p^s), s its p-adic valuation; the primes above sqrt(N) divide each
n <= N at most once, and at most one of them does, so one array product
covers all of them.

The table holds that row only.  The lift is self-dual, lam(m, 1) = lam(1, m),
so the GL(3) Hecke relation gives every other value from it (Goldfeld,
Automorphic Forms and L-Functions for the Group GL(n, R), section 6.4):

    lam(m1, m2) = sum over d | (m1, m2) of mu(d) lam(1, m1/d) lam(1, m2/d).

Tables are built once and immutable afterwards; reads are thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import factorize, primes_between
from .errors import InsufficientBase, OutOfRange, UnsupportedWeight
from .util import as_index

# Caps run time and memory: a squaring holds ~K x M x 16 B of limbs and spectra
# (K limbs, M = 2^ceil(log2(2N - 1))); tracemalloc peak 72 MB at N = 2 * 10^5.
_MAX_N = 3_000_000


def _eta_cube_terms(length):
    """Coefficients of prod(1-q^n)^3 below degree `length` (Jacobi's identity)."""
    k = np.arange((math.isqrt(8 * length - 7) + 1) // 2)  # every k with k(k+1)/2 < length
    series = np.zeros(length, dtype=np.int64)
    series[k * (k + 1) // 2] = (1 - 2 * (k & 1)) * (2 * k + 1)
    return series


def _limb_count(bound, bits):
    """Least K with bound < 2^(bits K - 2), so K limbs hold every |c| <= bound."""
    return -(-(bound.bit_length() + 2) // bits)


def _rounding_bound(N, M, bits, K):
    """Error bound of a diagonal of K products of limbs with |x|^2 <= N 4^(bits-1):
    K times Percival's bound for one FFT product of length M = 2^m (Math. Comp.
    72 (2003) 387-395, Thm 5.1), |x|^2 ((1+e)^3m (1+e sqrt5)^(3m+1) (1+b)^3m - 1),
    e = b = 2^-53, with K roundings more for the spectra's sum; (1+x)^j <= e^(jx)."""
    m = M.bit_length() - 1
    return K * N * 4.0 ** (bits - 1) * math.expm1((6 * m + K + (3 * m + 1) * 5 ** 0.5) * 2.0 ** -53)


def _limb_bits(N, M, top):
    """Widest limb whose rounding bound stays below 1/4 for series bounded by top."""
    return max((b for b in range(3, 63) if _rounding_bound(N, M, b, _limb_count(top, b)) < 0.25), default=2)


def _carry(diagonals, bits, K):
    """Balanced limbs, |d| <= 2^(bits-1), of sum_k diagonals[k] 2^(bits k) mod 2^(bits K)."""
    limbs, carry, half = np.empty((K, len(diagonals[0])), dtype=np.int64), 0, 1 << (bits - 1)
    for k in range(K):
        t = carry + diagonals[k] if k < len(diagonals) else carry
        limbs[k] = ((t + half) & (2 * half - 1)) - half
        carry = (t - limbs[k]) >> bits
    return limbs


def _square(limbs, M, bits, K):
    """The low N coefficients of the square of the series in `limbs` (shape
    (n, N)), as K limbs; a rounding residual above 1/4 raises FloatingPointError."""
    n, spec, diagonals = len(limbs), np.fft.rfft(limbs, n=M), []
    for k in range(min(K, 2 * n - 1)):  # diagonals from K on vanish mod 2^(bits K)
        acc = sum(spec[s] * spec[k - s] * (2 - (2 * s == k)) for s in range(max(0, k - n + 1), k // 2 + 1))
        y = np.fft.irfft(acc, n=M)[: limbs.shape[1]]
        diagonals.append(np.rint(y).astype(np.int64))
        if (err := np.abs(y - diagonals[-1]).max()) > 0.25:
            raise FloatingPointError(f"FFT rounding residual {err:.3g} above 1/4")
    return _carry(diagonals, bits, K)


def weight12_integer_coefficients(N: int) -> list[int]:
    """a(1..N) of the weight-12 form, exact integers.

    The eta-cube series is squared three times (eta^6, eta^12, eta^24), each
    cut to N terms, as K balanced L-bit limbs: diagonal k of a square, the sum
    of d_s * d_t over s + t = k, is one inverse real FFT of length
    M = 2^ceil(log2(2N - 1)), rounded and carried.  Each kept coefficient is
    at most B = sum a_i^2 (Cauchy-Schwarz; exact from the limbs' int64 Gram
    matrix), which sets the next K; each series squared is at most
    top = N B1^2 (B1 the first B), which fixes L before any transform.  A
    width past its rounding bound raises FloatingPointError, N outside
    [1, _MAX_N] OutOfRange.
    """
    N = as_index(N, "N")
    if not 1 <= N <= _MAX_N:
        raise OutOfRange(f"need 1 <= N <= {_MAX_N}, got N={N}")
    series = _eta_cube_terms(N)
    M, top = 1 << (2 * N - 2).bit_length(), N * int(series @ series) ** 2
    bits = _limb_bits(N, M, top)
    if not _rounding_bound(N, M, bits, _limb_count(top, bits)) < 0.25:
        raise FloatingPointError(f"{bits}-bit limbs break the FFT rounding bound at N={N}")
    limbs = _carry([series], bits, _limb_count(int(np.abs(series).max()), bits))
    for _ in range(3):
        gram = (limbs @ limbs.T).tolist()
        B = sum(v << bits * (s + t) for s, row in enumerate(gram) for t, v in enumerate(row))
        limbs = _square(limbs, M, bits, _limb_count(B, bits))
    step = 62 // bits  # groups of limbs below 2^62, then one Python int per coefficient
    groups = [(1 << bits * np.arange(len(g))) @ g for g in np.split(limbs, range(step, len(limbs), step))]
    values = groups[0].tolist()
    for j, g in enumerate(groups[1:], 1):
        values = [v + (w << bits * step * j) for v, w in zip(values, g.tolist())]
    return [0] + values  # a(n) = values[n-1]; index 0 is a dummy


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
    k = as_index(k, "k")
    if k != 12:
        raise UnsupportedWeight(f"weight {k} not supported (only 12)")
    N = as_index(N, "N")
    ints = weight12_integer_coefficients(N)
    ns = np.maximum(np.arange(N + 1, dtype=float), 1.0)  # ns[0] = 1 divides the dummy a(0)
    values = np.array([float(a) for a in ints]) / ns ** ((k - 1) / 2.0)
    values.setflags(write=False)
    return GL2CoefficientTable(N=N, values=values, integer_values=tuple(ints))


@dataclass(frozen=True)
class GL3CoefficientTable:
    """Symmetric-square coefficients lam(m1, m2) for m1 * m2 <= N, stored as
    the read-only first row; lam(m1, m2) comes from it by the Hecke relation."""

    N: int
    first_row: np.ndarray = field(repr=False)  # first_row[n] = lam(1, n)

    def lam(self, m1: int, m2: int) -> float:
        m1, m2 = as_index(m1, "m1"), as_index(m2, "m2")
        if m1 < 1 or m2 < 1 or m1 * m2 > self.N:
            raise OutOfRange(f"(m1, m2) = ({m1}, {m2}) outside m1*m2 <= {self.N}")
        terms = [(1, 1.0)]  # (d, mu(d)) over the squarefree divisors of (m1, m2)
        for p, _ in factorize(math.gcd(m1, m2)):
            terms += [(d * p, -mu) for d, mu in terms]
        return float(sum(mu * self.first_row[m1 // d] * self.first_row[m2 // d] for d, mu in terms))


def sym2_local_expansion(lam_p: float, kmax: int) -> np.ndarray:
    """Independent oracle for h_k: with lambda2(p) = 2 cos(theta), the product
    of the truncated geometric series of e^{2i theta}, 1 and e^{-2i theta}."""
    theta = math.acos(max(-1.0, min(1.0, lam_p / 2.0)))
    series = (np.arange(kmax + 1) == 0).astype(complex)  # the constant 1
    for a in (np.exp(2j * theta), 1.0 + 0j, np.exp(-2j * theta)):
        series = np.convolve(series, a ** np.arange(kmax + 1))[: kmax + 1]
    assert np.abs(series.imag).max() < 1e-9
    return series.real


def build_gl3_sym2_table(base: GL2CoefficientTable, N: int) -> GL3CoefficientTable:
    """Symmetric-square lift table on m1 * m2 <= N."""
    N = as_index(N, "N")
    if N < 1:
        raise OutOfRange("need N >= 1")
    if base.N < N:
        raise InsufficientBase(f"base covers {base.N} < {N}")
    # Multiplicative sieve, largest prime first: each first[n] multiplies its
    # local factors onto 1.0 from the largest prime down; that order fixes rounding.
    first = np.ones(N + 1)
    primes, r = primes_between(2, N), math.isqrt(N)
    small, big = [p for p in primes if p <= r], np.array([p for p in primes if p > r], dtype=np.intp)
    # A prime above sqrt(N) divides each n <= N at most once, and no n has two
    # of them, so all of them are one pass, taken first: lam(1, p) = h_1 h_1 - h_2 h_0
    # with h_1 = c, h_2 = c (c - 1) + 0.0, as the recurrence below gives them.
    # Every square is a product, which IEEE rounds correctly on any platform;
    # Python's ** calls libm pow, whose last bit differs between libms.
    lam_p = base.values[big]
    c = lam_p * lam_p - 1.0
    local = c * c - (c * (c - 1.0) + 0.0) * 1.0
    counts = N // big
    rep = np.repeat(np.arange(big.size), counts)
    j = np.arange(rep.size) - (np.cumsum(counts) - counts)[rep] + 1  # j = 1 .. N // p for each p
    first[big[rep] * j] *= local[rep]
    for p in small[::-1]:
        kmax = 1
        while p ** kmax <= N:
            kmax += 1
        lam_p = base.lam(p)
        c = lam_p * lam_p - 1.0
        h = [0.0, 0.0, 1.0]  # h_{-2}, h_{-1}, h_0, then the recurrence up to h_kmax
        for _ in range(kmax):
            h.append(c * (h[-1] - h[-2]) + h[-3])
        h = h[2:]
        local = np.array([h[s] * h[s] - h[s + 1] * h[s - 1] for s in range(1, kmax)])  # lam(1, p^s)
        v = np.zeros(N // p, dtype=np.intp)  # v[j - 1] = ord_p(j), so p j has s = v + 1
        pk = p
        while pk <= N // p:
            v[pk - 1 :: pk] += 1
            pk *= p
        first[p::p] *= local[v]
    first.setflags(write=False)
    return GL3CoefficientTable(N=N, first_row=first)


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
    return float(np.sum(row[1 : x + 1] * row[1 : x + 1]) / x)
