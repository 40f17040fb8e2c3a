"""Exact modular arithmetic and the Kloosterman table.

Conventions (q = 1 throughout means the empty product):
    e_q(x)   = exp(2 pi i x / q)
    phi(q)   = #units mod q, phi(1) = 1
    S(a,b;q) = sum over units x mod q of e_q(a x + b xbar),  S(a,b;1) = 1

Everything here is pure and reentrant; cached tables are built once and
read-only afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyRange, InvalidDivisor, OutOfRange
from .util import as_index


def is_prime(n: int) -> bool:
    """Primality by trial division (via factorize); O(sqrt(n)) divisions."""
    return n >= 2 and factorize(n) == [(n, 1)]


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, ascending, by trial division."""
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


@lru_cache(maxsize=4096)
def unit_residues(q: int) -> np.ndarray:
    """The units mod q, ascending; [0] for q = 1, as gcd(0, 1) = 1."""
    if q < 1:
        raise OutOfRange(f"need q >= 1, got {q}")
    r = np.arange(q, dtype=np.int64)
    u = r[np.gcd(r, q) == 1]
    u.setflags(write=False)
    return u


@lru_cache(maxsize=4096)
def unit_inverses(q: int) -> np.ndarray:
    """Inverses of unit_residues(q), in matching order."""
    ub = np.array([pow(int(a), -1, q) for a in unit_residues(q)], dtype=np.int64)
    ub.setflags(write=False)
    return ub


@lru_cache(maxsize=256)
def kloosterman_table(q: int) -> np.ndarray:
    """Full table T[a, b] = S(a, b; q) as a q x q complex array.

    S(a, b; q) is the 2-D DFT of the indicator M of the pairs (x, xbar), x a
    unit, so the table is one q x q inverse FFT; cost O(q^2 log q).
    """
    m = np.zeros((q, q))
    m[unit_residues(q), unit_inverses(q)] = 1.0
    t = q * q * np.fft.ifft2(m)  # [a, b] = sum over x of e_q(a x + b xbar)
    t.setflags(write=False)
    return t


def primes_in_dyadic(Q: int, exclude: int) -> tuple[int, ...]:
    """The primes p in [Q, 2Q] with p not dividing exclude, ascending, as ints.

    exclude = 0 disables the exclusion (every p divides 0, which would
    otherwise empty every segment; zero-shift experiments need the full set).
    """
    if Q < 2:
        raise OutOfRange("need Q >= 2")
    ps = tuple(p for p in range(Q, 2 * Q + 1) if is_prime(p) and (exclude == 0 or exclude % p != 0))
    if not ps:
        raise EmptyRange(f"no admissible prime in [{Q}, {2 * Q}] excluding {exclude}")
    return ps
