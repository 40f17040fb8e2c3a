"""Brute-force oracles and reference computations shared by the test modules.

All are independent of shiftconv except three.  direct_t checks T's CRT
reindexing and takes its S vectors from the package's S kernel.
jsonl_reference writes a report's rows by json.dumps, with the package's
default hook for numpy scalars and complex values.
contraction_prime_factor, the reference for the FFT kernel of S's prime
factors, is the phase-matrix contraction that kernel replaced; it builds
its own units and inverses, and reads the package's phases and Kloosterman
row, which test_arith checks against brute_kloosterman.
"""

import json
import math
from fractions import Fraction

import numpy as np

from shiftconv.charsums import _eq_pow, _kloosterman, char_sum_S_factored
from shiftconv.util import _json_default


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


def contraction_prime_factor(p, c, m1, m2, n, h):
    """The factor of S at the prime p with cofactor c, on int64 arrays, as
    the b-sum of e_p(hr b + nr bbar) S(bbar, m2_eff; p) contracted over a
    (..., p - 1) phase matrix: O(p) memory per (n, h, m2), p^2 for a whole
    row of m2.  Its twist cb * cb * m2 is formed in int64 before reduction,
    so it wraps for p above ~2.1 * 10^6; keep p far below that."""
    cb = pow(c, -1, p)
    # residues mod p first, so no int64 product can wrap
    hr, nr = cb * (h % p) % p, -cb * (n % p) % p
    if m1 % p == 0:
        return _kloosterman(p, hr, nr)
    m2_eff = cb * cb * (m2 % p) % p if m1 == 1 else m2 % p
    b = np.arange(1, p)
    bb = np.array([pow(int(x), -1, p) for x in b], dtype=np.int64)
    phases = _eq_pow(p, hr[..., None] * b + nr[..., None] * bb)
    # contract b without materialising the broadcast product
    return np.einsum("...b,...b->...", phases, _kloosterman(p, bb, m2_eff[..., None]))


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


def exact_l2_error(A):
    """The L^2 distance of the approximant A from 1, sum over n != 0 of
    |a_n|^2, in closed form, with no truncation in n.

    With theta = 2 pi delta, a_n = R(n) sin(theta n) / (theta n L), where
    R(n) = sum_q c_q(n) = sum over divisor values d = a b (a in {1} u P1,
    b in {1} u P2) of v_d [d | n], v_ab = u_a u_b, u_1 = -|P| and u_p = p.
    Squaring R gives pairs (d, d') with D = lcm(d, d'), and
    sum_{k >= 1} sin^2(theta D k) / k^2 = t (2 pi - t) / 8, t = 2 pi frac(2 delta D),
    from sum_{m >= 1} cos(m t) / m^2 = pi^2/6 - pi t / 2 + t^2 / 4 on [0, 2 pi].
    So E = (2 / (theta^2 L^2)) sum_{d, d'} v_d v_d' t_D (2 pi - t_D) / (8 D^2),
    frac(2 delta D) taken exactly from the float delta.
    """
    P1, P2 = A.moduli.P1, A.moduli.P2
    vals = [(a * b, ua * ub) for a, ua in [(1, -len(P1))] + [(p, p) for p in P1]
            for b, ub in [(1, -len(P2))] + [(p, p) for p in P2]]
    num, den = Fraction(A.delta).as_integer_ratio()
    terms = []
    for d, v in vals:
        for d2, v2 in vals:
            D = math.lcm(d, d2)
            t = 2.0 * math.pi * (2 * num * D % den) / den
            terms.append(v * v2 * t * (2.0 * math.pi - t) / (8.0 * D * D))
    theta = 2.0 * math.pi * A.delta
    return 2.0 / (theta * theta * A.moduli.L ** 2) * math.fsum(terms)


def windowed_partial_sum(A, n_max, window):
    """The partial sum of l2_error, sum_{0 < |n| <= n_max} |a_n|^2, by its
    plain loop over windows of `window` n, each allocating its own arrays:
    the two Ramanujan factors sieved afresh, their product, the sine by
    angle addition from one table of sin and cos of theta j, j < window,
    and theta n.  The window size fixes the order of rounding, so at
    window = circle._L2_CHUNK this is l2_error's partial sum bit for bit."""
    P1, P2 = A.moduli.P1, A.moduli.P2
    theta = 2.0 * math.pi * A.delta
    angles = theta * np.arange(min(n_max, window))
    sin_j, cos_j = np.sin(angles), np.cos(angles)
    total = 0.0
    for lo in range(1, n_max + 1, window):
        count = min(n_max + 1 - lo, window)
        factors = []
        for primes in (P1, P2):
            factor = np.full(count, -float(len(primes)))
            for p in primes:
                factor[-lo % p :: p] += p
            factors.append(factor)
        row = factors[0] * factors[1]
        row *= cos_j[:count] * math.sin(theta * lo) + sin_j[:count] * math.cos(theta * lo)
        row /= theta * np.arange(lo, lo + count, dtype=float)
        total += float(np.einsum("i,i->", row, row))
    return 2.0 * total / A.moduli.L ** 2


def gl3_first_row_by_primes(lam2, N):
    """lam(1, n) for n <= N, from lam2[p] = lambda2(p), by one multiplicative
    pass per prime, largest first, with the h_k recurrence of coeffs at every
    prime: the sieve that build_gl3_sym2_table batches above sqrt(N)."""
    primes = [p for p in range(2, N + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    first = np.ones(N + 1)
    for p in primes[::-1]:
        kmax = 1
        while p ** kmax <= N:
            kmax += 1
        lam_p = float(lam2[p])
        c = lam_p * lam_p - 1.0
        h = [0.0, 0.0, 1.0]  # h_{-2}, h_{-1}, h_0, then h_1 .. h_kmax
        for _ in range(kmax):
            h.append(c * (h[-1] - h[-2]) + h[-3])
        h = h[2:]
        local = np.array([h[s] * h[s] - h[s + 1] * h[s - 1] for s in range(1, kmax)])  # lam(1, p^s)
        v = np.zeros(N // p, dtype=np.intp)  # v[j - 1] = ord_p(j)
        pk = p
        while pk <= N // p:
            v[pk - 1 :: pk] += 1
            pk *= p
        first[p::p] *= local[v]
    return first


def jsonl_reference(rep, rows):
    """json.dumps of each row of rep with its config hash, then the summary line."""
    lines = [dict(r, config_hash=rep.config_hash) for r in rows]
    lines.append({"summary": rep.summary, "config_hash": rep.config_hash})
    return "".join(json.dumps(d, sort_keys=True, default=_json_default) + "\n" for d in lines)
