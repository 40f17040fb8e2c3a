"""Brute-force oracles and reference computations shared by the test modules.

All are independent of shiftconv except direct_t, which checks T's CRT
reindexing and takes its S vectors from the package's S kernel.
"""

import math

import numpy as np

from shiftconv.charsums import char_sum_S_factored


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


def direct_t(n, m, h, q1, q1t, q2):
    """T(n, m, h; q1, q1t, q2) as the full sum over alpha mod q1 q1t q2, with
    S(1, alpha, n, h; q) for every alpha mod q1 q2 and mod q1t q2 from
    char_sum_S_factored."""
    qa, qb, bigq = q1 * q2, q1t * q2, q1 * q1t * q2
    sa = char_sum_S_factored(1, np.arange(qa), n, h, q1, q2)
    sb = char_sum_S_factored(1, np.arange(qb), n, h, q1t, q2)
    alpha = np.arange(bigq)
    phases = np.exp(2j * np.pi * (m % bigq * alpha % bigq) / bigq)
    return complex(np.sum(sa[alpha % qa] * np.conj(sb[alpha % qb]) * phases))


def kronecker_delta_integers(N):
    """a(0..N) of the weight-12 form (a(0) = 0) in fixed 128-bit slots.

    The eta-cube series sum_k (-1)^k (2k+1) q^{k(k+1)/2} is packed into one
    integer, one 128-bit slot per coefficient holding c + 2^127, squared
    three times with each square cut to its low N slots, and unpacked.  The
    slots hold every coefficient for N <= 3 * 10^6, where the largest
    d(n) n^{11/2} >= |a(n)| is about 2^126.5.
    """
    size, half = 16, 1 << 127
    offset = int.from_bytes(half.to_bytes(size, "little") * N, "little")
    mask = (1 << (128 * N)) - 1
    buf = bytearray(half.to_bytes(size, "little") * N)
    k = 0
    while k * (k + 1) // 2 < N:
        idx = k * (k + 1) // 2
        buf[idx * size : (idx + 1) * size] = ((-1) ** k * (2 * k + 1) + half).to_bytes(size, "little")
        k += 1
    acc = int.from_bytes(buf, "little") - offset
    for _ in range(3):
        acc = (acc * acc) & mask
    raw = ((acc + offset) & mask).to_bytes(size * N, "little")
    return [0] + [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size)]
