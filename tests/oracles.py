"""Brute-force oracles shared by the test modules; independent of shiftconv."""

import math

import numpy as np


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    m, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            m = -m
        p += 1
    return -m if n > 1 else m


def ramanujan_sum(q, n):
    """c_q(n) = sum_{d | (n,q)} d mu(q/d), exact over the integers."""
    return sum(d * mobius(q // d) for d in divisors(math.gcd(abs(n), q)))


def brute_kloosterman(a, b, q):
    """S(a, b; q) summed term by term over the units x mod q."""
    if q == 1:
        return 1.0 + 0j
    s = 0j
    for x in range(q):
        if math.gcd(x, q) != 1:
            continue
        s += np.exp(2j * np.pi * ((a * x + b * pow(x, -1, q)) % q) / q)
    return s
