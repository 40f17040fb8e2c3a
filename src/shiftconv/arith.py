"""Exact modular arithmetic, and the unit inverses and Kloosterman row mod a prime.

Conventions (q = 1 throughout means the empty product; p is a prime):
    e_q(x)   = exp(2 pi i x / q)
    phi(q)   = #units mod q, phi(1) = 1
    S(a,b;q) = sum over units x mod q of e_q(a x + b xbar),  S(a,b;1) = 1
    K[c]     = S(1, c; p), the Kloosterman row; S(a, b; p) = K[a b] for a unit a

Everything here is pure and reentrant; the tables exist only at a prime p and
are cached, read-only and typed, so a float p never reads an integer's entry.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import numpy.fft  # at import: numpy 2 would load it at the first np.fft call

from .errors import EmptyRange, InvalidDivisor, OutOfRange
from .util import as_index


def is_prime(n: int) -> bool:
    """Primality by trial division (via factorize); O(sqrt(n)) divisions."""
    n = as_index(n, "n")
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, ascending, by trial division."""
    n = as_index(n, "n")
    if n < 1:
        raise OutOfRange("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(q: int) -> int:
    """phi(q) via factorization; phi(1) = 1."""
    q = as_index(q, "q")
    if q < 1:
        raise OutOfRange("euler_phi needs q >= 1")
    r = 1
    for p, e in factorize(q):
        r *= (p - 1) * p ** (e - 1)
    return r


@dataclass(frozen=True)
class PrimeModulus:
    """A verified prime modulus."""

    p: int

    def __post_init__(self):
        if not is_prime(as_index(self.p, "p")):
            raise InvalidDivisor(f"{self.p} is not prime")


@lru_cache(maxsize=4096, typed=True)
def unit_inverses(p: int) -> np.ndarray:
    """inv[a] = abar mod the prime p, and inv[0] = 0: a^(p-2) (Fermat) by
    repeated squaring on arange(p), in log2(p) int64 steps.  p is checked
    before anything is allocated: every product (p - 1)^2 must fit an int64,
    and at p = 1 the exponent -1 would never shift to 0."""
    p = as_index(p, "p")
    if not 2 <= p <= 3_037_000_500:
        raise OutOfRange(f"need a prime p in [2, 3037000500], got {p}")
    PrimeModulus(p)  # InvalidDivisor for a composite
    base, inv, e = np.arange(p, dtype=np.int64), np.ones(p, dtype=np.int64), p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    inv[0] = 0  # 0^0 = 1 at p = 2
    inv.setflags(write=False)
    return inv


@lru_cache(maxsize=256, typed=True)
def kloosterman_table(p: int) -> np.ndarray:
    """The row K[c] = S(1, c; p), c mod the prime p, as a length-p complex vector.

    For a unit a mod p, S(a, b; p) = K[a b mod p] (substitute x -> abar x),
    so the row holds every sum with one argument a unit.  With y = xbar,
    K[c] = sum over units y of e_p(ybar) e_p(c y): the DFT of w[y] = e_p(ybar)
    (w[0] = 0), so K = p ifft(w); cost O(p log p), memory O(p).
    """
    p = as_index(p, "p")
    w = np.exp(2j * np.pi * unit_inverses(p) / p)  # unit_inverses checks p
    w[0] = 0
    k = p * np.fft.ifft(w)
    k.setflags(write=False)
    return k


def primes_between(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi] (lo >= 2), ascending: a sieve of the segment
    that strikes, for each d <= sqrt(hi), its multiples from max(d^2, lo) on
    (a composite d strikes only composites).  A bytearray, not numpy: a
    first numpy sieve in a process touches ~0.3 MB more of resident memory.
    hi < lo gives []; a non-integer lo or hi, or lo < 2, raises OutOfRange."""
    lo, hi = as_index(lo, "lo"), as_index(hi, "hi")
    if lo < 2:
        raise OutOfRange(f"need lo >= 2, got lo={lo}")
    keep = bytearray([1]) * max(hi - lo + 1, 0)
    for d in range(2, math.isqrt(max(hi, 0)) + 1):
        start = max(d * d, -(-lo // d) * d) - lo
        keep[start::d] = bytes(len(range(start, len(keep), d)))
    return list(itertools.compress(range(lo, hi + 1), keep))


def primes_in_dyadic(Q: int, exclude: int) -> tuple[int, ...]:
    """The primes p in [Q, 2Q] with p not dividing exclude, ascending, as ints.

    exclude = 0 disables the exclusion (every p divides 0, which would
    otherwise empty every segment; zero-shift experiments need the full set).
    """
    Q, exclude = as_index(Q, "Q"), as_index(exclude, "exclude")
    if Q < 2:
        raise OutOfRange("need Q >= 2")
    ps = tuple(p for p in primes_between(Q, 2 * Q) if exclude == 0 or exclude % p != 0)
    if not ps:
        raise EmptyRange(f"no admissible prime in [{Q}, {2 * Q}] excluding {exclude}")
    return ps
