"""Exact modular arithmetic and the Kloosterman row.

Conventions (q = 1 throughout means the empty product):
    e_q(x)   = exp(2 pi i x / q)
    phi(q)   = #units mod q, phi(1) = 1
    S(a,b;q) = sum over units x mod q of e_q(a x + b xbar),  S(a,b;1) = 1
    K[c]     = S(1, c; q), the Kloosterman row; S(a, b; q) = K[a b] for a unit a

Everything here is pure and reentrant; cached tables are built once and are
read-only; the caches are typed, so a float q never reads an integer's entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
def unit_residues(q: int) -> np.ndarray:
    """The units mod q, ascending; [0] for q = 1, as gcd(0, 1) = 1."""
    q = as_index(q, "q")
    if q < 1:
        raise OutOfRange(f"need q >= 1, got {q}")
    r = np.arange(q, dtype=np.int64)
    u = r[np.gcd(r, q) == 1]
    u.setflags(write=False)
    return u


@lru_cache(maxsize=4096, typed=True)
def unit_inverses(q: int) -> np.ndarray:
    """Inverses of unit_residues(q), in matching order."""
    q = as_index(q, "q")
    ub = np.array([pow(int(a), -1, q) for a in unit_residues(q)], dtype=np.int64)
    ub.setflags(write=False)
    return ub


@lru_cache(maxsize=256, typed=True)
def kloosterman_table(q: int) -> np.ndarray:
    """The row K[c] = S(1, c; q), c mod q, as a length-q complex vector.

    For a unit a mod q, S(a, b; q) = K[a b mod q] (substitute x -> abar x),
    so the row holds every sum with one argument a unit.  With y = xbar,
    K[c] = sum over units y of e_q(ybar) e_q(c y): the DFT of w[y] = e_q(ybar)
    at the units, so K = q ifft(w); cost O(q log q), memory O(q).
    """
    q = as_index(q, "q")
    w = np.zeros(q, dtype=complex)
    w[unit_residues(q)] = np.exp(2j * np.pi * unit_inverses(q) / q)
    k = q * np.fft.ifft(w)
    k.setflags(write=False)
    return k


def primes_in_dyadic(Q: int, exclude: int) -> tuple[int, ...]:
    """The primes p in [Q, 2Q] with p not dividing exclude, ascending, as ints.

    exclude = 0 disables the exclusion (every p divides 0, which would
    otherwise empty every segment; zero-shift experiments need the full set).
    """
    Q, exclude = as_index(Q, "Q"), as_index(exclude, "exclude")
    if Q < 2:
        raise OutOfRange("need Q >= 2")
    ps = tuple(p for p in range(Q, 2 * Q + 1) if is_prime(p) and (exclude == 0 or exclude % p != 0))
    if not ps:
        raise EmptyRange(f"no admissible prime in [{Q}, {2 * Q}] excluding {exclude}")
    return ps
