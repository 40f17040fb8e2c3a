"""Composite Kloosterman-type character sums over factorable moduli.

Two families, with e_q(x) = exp(2 pi i x / q):

    S(m1, m2, n, h; q)
        = sum over units a mod q of e_q(a h) e_q(-abar n) S(abar, m2; q/m1),
      defined for m1 | q.  For m1 = q it degenerates to S(h, -n; q).

    T(n, m, h; q1, q1t, q2)
        = sum over alpha mod q1*q1t*q2 of
              S(1, alpha, n, h; q1 q2) conj(S(1, alpha, n, h; q1t q2))
              e_{q1 q1t q2}(m alpha).

Brute-force summation is the ground truth; the closed forms below are
verified against it, never assumed.  For q = q1 q2 a product of two distinct
primes, S factors through the residues mod q1 and mod q2, and for
q1 != q1t the sum T factors into three sums with moduli q1, q1t, q2:

    T = T1(q1) * T1(q1t)~ * T2,
    T1(q1)  = q1 S(q2bar h, -q2bar (n + q1t mbar); q1)   if (m, q1) = 1,
              0 otherwise,

where mbar is the inverse of m mod q1.  The factor coming from the
conjugated S is the mirror image of T1 with m replaced by -m (conjugation
flips the sign of the Poisson phase).  T2 is the mod-q2 factor written out
in t2_sum below.

Each sum has one evaluator per use:
    char_sum_S            direct double sum, the reference for any q;
    char_sum_S_factored   per-prime product for q = q1 q2, taking arrays
                          in m2, n and h (at m1 = q1 it is the Kloosterman
                          factor times the two-variable unit sum mod q2);
                          the S census calls it once per (q1, q2, m1)
                          block on its whole (n, h, m2) grid and appends
                          the block to its report as columns, one array
                          per field;
    char_sum_T            built from the same per-prime factors of S: by
                          CRT the alpha-sum splits into one sum mod each
                          prime, and one length-r inverse FFT of each
                          cached alpha-vector gives that sum at every m,
                          so m may be an int or an array; the T census
                          calls it once per (q1, q1t, q2, n, h) on all its
                          m and appends that block, like S.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import PrimeModulus, is_prime, kloosterman_table, unit_inverses, unit_residues
from .errors import InvalidDivisor, OutOfRange
from .reports import ExperimentReport
from .util import as_index

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SCharParams:
    """Parameters (m1, m2, n, h) of S over the modulus q (m1 | q)."""

    m1: int
    m2: int
    n: int
    h: int
    q: int

    def __post_init__(self):
        for name in ("m1", "m2", "n", "h", "q"):
            as_index(getattr(self, name), name)
        if self.m1 < 1 or self.q < 1:
            raise InvalidDivisor(f"need m1 >= 1 and q >= 1, got m1={self.m1}, q={self.q}")
        if self.q % self.m1 != 0:
            raise InvalidDivisor(f"m1={self.m1} does not divide q={self.q}")


@dataclass(frozen=True)
class TCharParams:
    """Parameters (n, m, h) of T over the prime triple (q1, q1t, q2).

    m is an int or a 1-D int array of dual frequencies; char_sum_T then
    returns T at each of them.  q1 = q1t is permitted (the two inner S then
    share a modulus); q2 must differ from both.
    """

    n: int
    m: int | np.ndarray
    h: int
    q1: PrimeModulus
    q1t: PrimeModulus
    q2: PrimeModulus

    def __post_init__(self):
        for name in ("n", "h"):
            as_index(getattr(self, name), name)
        if not isinstance(self.m, np.ndarray):
            as_index(self.m, "m")
        elif self.m.ndim != 1 or self.m.dtype.kind not in "iu":
            raise OutOfRange(f"m must be an int or a 1-D int array, got {self.m.dtype} of shape {self.m.shape}")
        if self.q2.p in (self.q1.p, self.q1t.p):
            raise InvalidDivisor("q2 must avoid {q1, q1t}")


def _eq_pow(q: int, exponents: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * (exponents % q) / q)


def char_sum_S(p: SCharParams) -> complex:
    """S(m1, m2, n, h; q) by direct double summation."""
    q = p.q
    qm = q // p.m1
    a = unit_residues(q)
    ab = unit_inverses(q)
    # residues first, so no int64 product can wrap
    outer = _eq_pow(q, int(p.h) % q * a - int(p.n) % q * ab)
    inner = kloosterman_table(qm)[ab * (int(p.m2) % qm) % qm]  # S(ab, m2; qm), ab a unit
    return complex(np.sum(outer * inner))


def char_sum_S_factored(
    m1: int, m2: int | np.ndarray, n: int | np.ndarray, h: int | np.ndarray, q1: int, q2: int
) -> complex | np.ndarray:
    """S over q = q1 q2 (distinct primes) as a product of per-prime factors.

    For each prime p with cofactor c = q/p the factor is
        sum over units b mod p of e_p(cbar h b - cbar n bbar) * (inner),
    where the inner Kloosterman carries a cbar^2 twist on m2 when the
    Kloosterman modulus itself splits (m1 = 1), no twist when the modulus is
    the single prime p (p = q/m1), and reduces to 1 when p | m1 (then the
    b-sum is itself a Kloosterman sum).  Equals char_sum_S.

    m2, n and h may be integers or integer arrays and broadcast against each
    other; m1, q1 and q2 are integers.  The result has the broadcast shape,
    and a call with three scalars returns a complex.  Non-integer m2, n or h
    raise OutOfRange.
    """
    if q1 == q2 or not (is_prime(q1) and is_prime(q2)):
        raise InvalidDivisor(f"q1 and q2 must be distinct primes, got {q1} and {q2}")
    q = q1 * q2
    m1 = as_index(m1, "m1")
    if m1 < 1 or q % m1:
        raise InvalidDivisor(f"m1={m1} does not divide q={q}")
    m2, n, h = (np.asarray(x % q if type(x) is int else x) for x in (m2, n, h))
    if any(x.dtype.kind not in "iu" for x in (m2, n, h)):
        raise OutOfRange(f"m2, n and h must be integers, got dtypes {m2.dtype}, {n.dtype}, {h.dtype}")
    # reduced mod q in their own dtype, so a uint64 cannot wrap in the cast
    m2, n, h = ((x % q).astype(np.int64, copy=False) for x in (m2, n, h))
    val = np.ones(np.broadcast_shapes(m2.shape, n.shape, h.shape), dtype=complex)
    val = val * _prime_factor(q1, q2, m1, m2, n, h) * _prime_factor(q2, q1, m1, m2, n, h)
    return complex(val) if val.ndim == 0 else val


def _prime_factor(p, c, m1, m2, n, h):
    """The factor of S at the prime p with cofactor c, on int64 arrays."""
    cb = pow(c, -1, p)
    # residues mod p first, so no int64 product can wrap
    hr, nr = cb * (h % p) % p, -cb * (n % p) % p
    if m1 % p == 0:
        return _kloosterman(p, hr, nr)
    m2_eff = cb * cb * (m2 % p) % p if m1 == 1 else m2 % p
    b, bb = unit_residues(p), unit_inverses(p)
    phases = _eq_pow(p, hr[..., None] * b + nr[..., None] * bb)
    # contract b without materialising the broadcast product
    return np.einsum("...b,...b->...", phases, _kloosterman(p, bb, m2_eff[..., None]))


def _kloosterman(p, a, b):
    """S(a, b; p) at the prime p for residues a, b mod p: K[a b] from the row
    (K[0] = -1 covers exactly one of a, b being 0), and p - 1 at (0, 0)."""
    return np.where((a == 0) & (b == 0), p - 1, kloosterman_table(p)[a * b % p])


@lru_cache(maxsize=1024)
def _alpha_factor(p: int, c: int, n: int, h: int) -> np.ndarray:
    """A(x) = factor at p of S(1, x, n, h; p c) for x mod p; keys n, h mod p.
    By CRT, S(1, alpha, n, h; q1 q2) = A_q1(alpha mod q1) A_q2(alpha mod q2)."""
    a = _prime_factor(p, c, 1, np.arange(p), np.int64(n), np.int64(h))
    a.setflags(write=False)
    return a


def _t_factors(p: TCharParams):
    """(A_q1, A_q2) and (B_q1t, B_q2), the alpha factors of S_a and S_b."""
    return [[_alpha_factor(r, c, p.n % r, p.h % r) for r, c in ((q, p.q2.p), (p.q2.p, q))]
            for q in (p.q1.p, p.q1t.p)]


def char_sum_T(p: TCharParams) -> complex | np.ndarray:
    """T(n, m, h; q1, q1t, q2): its alpha-sum reindexed by CRT, exactly.

    With S_a = A_q1 A_q2 and S_b = B_q1t B_q2 (_t_factors), alpha <-> (x, y, z)
    mod (q1, q1t, q2) splits e_Q(m alpha) into e_r(m rbar x_r) per prime r,
    rbar = (Q/r)^-1 mod r, so for q1 != q1t T is [sum_x A_q1 e] [sum_y conj
    B_q1t e] [sum_z A_q2 conj B_q2 e].  For q1 = q1t the summand has period
    q1 q2: T = 0 unless m = q1 m', and then T = q1 sum over beta mod q1 q2 of
    |S(beta)|^2 e_{q1 q2}(m' beta), which splits the same way.

    Each short sum is sum_x v_r(x) e_r(k x) = r ifft(v_r)[k], so one length-r
    inverse FFT per prime gives T at every m: p.m is an int, for which the
    result is a complex, or a 1-D int array, for which it is an array of the
    same length.  m is reduced mod Q = q1 q1t q2, a period of T, first.
    """
    q1, q1t, q2 = p.q1.p, p.q1t.p, p.q2.p
    (a1, a2), (b1, b2) = _t_factors(p)
    # one array path for both kinds of m, so a scalar gets the array's bits
    m = np.atleast_1d(np.asarray(p.m % (q1 * q1t * q2), dtype=np.int64))
    if q1 == q1t:
        scale, m, terms = q1 * (m % q1 == 0), m // q1, [(q1, np.abs(a1) ** 2), (q2, np.abs(a2) ** 2)]
    else:
        scale, terms = 1, [(q1, a1), (q1t, np.conj(b1)), (q2, a2 * np.conj(b2))]
    big = math.prod(r for r, _ in terms)
    val = scale * math.prod(r * np.fft.ifft(v)[m % r * pow(big // r, -1, r) % r] for r, v in terms)
    return val if isinstance(p.m, np.ndarray) else complex(val[0])


def char_sum_T_tolerance(p: TCharParams) -> float:
    """Absolute float error allowed in char_sum_T, for the vanishing laws.

    A float error model, not a proven bound.  T is a product of three short
    sums (F_q1 F_q1t F_q2; q1 F_q1 F_q2 on the diagonal), so |T| <= B = Q
    max|S_a| max|S_b|, Q = q1 q1t q2 (max|S_a| = max|A_q1| max|A_q2|, and so
    for S_b).  A T that vanishes through one factor comes out as a small
    multiple of epsilon B: below 0.4 epsilon B on the vanishing laws, so the
    factor 16 leaves a wide margin; a T that does not vanish is far larger.
    """
    sa, sb = (np.abs(u).max() * np.abs(v).max() for u, v in _t_factors(p))
    return float(16 * np.finfo(float).eps * p.q1.p * p.q1t.p * p.q2.p * sa * sb)


def t1_closed_form(p: TCharParams, which: str = "q1") -> complex:
    """Closed form of the prime factor of T at q1 (or at q1t).

    For which="q1":   q1 * S(q2bar h, -q2bar (n + q1t mbar); q1), zero when
    q1 | m (a valid value, not an error).  The factor at q1t comes from the
    conjugated inner sum and is the same expression with the roles of q1 and
    q1t swapped and m replaced by -m.
    """
    if p.q1.p == p.q1t.p:
        raise InvalidDivisor("closed form applies to q1 != q1t")
    if which == "q1":
        pr, other, m = p.q1.p, p.q1t.p, p.m
    elif which == "q1t":
        pr, other, m = p.q1t.p, p.q1.p, -p.m
    else:
        raise OutOfRange(f"which must be 'q1' or 'q1t', got {which!r}")
    if m % pr == 0:
        return 0.0 + 0.0j
    q2b = pow(p.q2.p, -1, pr)
    mb = pow(m % pr, -1, pr)
    return complex(pr * _kloosterman(pr, q2b * int(p.h) % pr, -q2b * (int(p.n) + other * mb) % pr))


def t2_sum(
    n: int, m: int, h: int, q1: PrimeModulus, q1t: PrimeModulus, q2: PrimeModulus
) -> complex:
    """The mod-q2 factor of T:

        q2 * sum over delta (delta and q1t*delta+m both invertible mod q2)
             of [sum over units beta of e(q1bar h beta - q1bar n betabar
                                          + q1bar betabar deltabar)]
              * [sum over units gamma of e(-q1tbar h gamma + q1tbar n gammabar
                                          - q1tbar q1 gammabar inv(q1t delta + m))].
    """
    p1, pt, p2 = q1.p, q1t.p, q2.p
    # residues first, so no int64 product can wrap
    n, m, h = (as_index(v, name) % p2 for v, name in ((n, "n"), (m, "m"), (h, "h")))
    q1b = pow(p1, -1, p2)
    qtb = pow(pt, -1, p2)
    beta = unit_residues(p2)
    betab = unit_inverses(p2)
    base_b = _eq_pow(p2, q1b * h * beta - q1b * n * betab)
    base_g = _eq_pow(p2, -qtb * h * beta + qtb * n * betab)  # gamma shares the unit grid
    total = 0.0 + 0.0j
    for delta, deltab in zip(unit_residues(p2), unit_inverses(p2)):
        w = (pt * delta + m) % p2
        if w == 0:
            continue
        winv = pow(int(w), -1, p2)
        bsum = np.sum(base_b * _eq_pow(p2, q1b * betab * deltab))
        gsum = np.sum(base_g * _eq_pow(p2, -qtb * p1 * winv * betab))
        total += bsum * gsum
    return complex(p2 * total)


# ---------------------------------------------------------------------------
# bound censuses


@dataclass(frozen=True)
class SCensusFamily:
    """Sweep of S over pairs of distinct primes and small (m2, n, h) boxes.

    m1 runs over all divisors {1, q1, q2, q1 q2}; tuples with gcd(n h, q) > 1
    are skipped (the bound is stated for n, h coprime to q).  A non-integer
    count or prime raises OutOfRange, a composite prime InvalidDivisor; the
    fields are stored as given.
    """

    primes: tuple
    m2_max: int = 10
    n_max: int = 10
    h_max: int = 10

    def __post_init__(self):
        for name in ("m2_max", "n_max", "h_max"):
            as_index(getattr(self, name), name)
        for q in self.primes:
            PrimeModulus(q)


@dataclass(frozen=True)
class TCensusFamily:
    """Sweep of T; diagonal=True restricts to q1 = q1t with m = q1 m'.

    Checked at construction as SCensusFamily is, n_values and h_values too.
    """

    q1_primes: tuple
    q2_primes: tuple
    m_max: int = 11
    n_values: tuple = (1, 2, 3)
    h_values: tuple = (1, 2)
    diagonal: bool = False

    def __post_init__(self):
        as_index(self.m_max, "m_max")
        for name in ("n_values", "h_values"):
            for v in getattr(self, name):
                as_index(v, name)
        for q in (*self.q1_primes, *self.q2_primes):
            PrimeModulus(q)


def _s_normalizer(q, m1, m2):
    return q / math.sqrt(m1) * math.sqrt(math.gcd(q // m1, m2))


def bound_census(family) -> ExperimentReport:
    """Sweep a family, recording |sum|, the bound-shape normalizer and their
    ratio per tuple; the summary carries the max ratio.

    The bound shape follows the family:
      S                   : (q / sqrt(m1)) sqrt(gcd(q/m1, m2))
      T, diagonal=False   : q1^{3/2} q1t^{3/2} q2^{5/2} gcd(m, q2)^{1/2}
      T, diagonal=True    : q1^{5/2} q2^{5/2} sqrt(gcd(m', q1 q2)), m = q1 m'
    """
    if isinstance(family, SCensusFamily):
        return _census_s(family)
    if isinstance(family, TCensusFamily):
        return _census_t(family)
    raise TypeError("unknown census family")


def _census_s(family: SCensusFamily) -> ExperimentReport:
    cols = ["q1", "q2", "m1", "m2", "n", "h", "abs_sum", "normalizer", "ratio"]
    rep = ExperimentReport(cols, {"family": "S", **family.__dict__})
    t0 = time.perf_counter()
    m2s = np.array(range(1, family.m2_max + 1), dtype=np.int64)
    for q1 in family.primes:
        for q2 in family.primes:
            if q1 == q2:
                continue
            q = q1 * q2
            ns = np.array([n for n in range(1, family.n_max + 1) if math.gcd(n, q) == 1], dtype=np.int64)
            hs = np.array([h for h in range(1, family.h_max + 1) if math.gcd(h, q) == 1], dtype=np.int64)
            n_ax, h_ax = ns.reshape(-1, 1, 1), hs.reshape(-1, 1)
            # one block per m1 on axes (n, h, m2), flattened in record order
            n, h, m2 = (g.ravel() for g in np.meshgrid(ns, hs, m2s, indexing="ij"))
            for m1 in (1, q1, q2, q):
                block = np.abs(char_sum_S_factored(m1, m2s, n_ax, h_ax, q1, q2))
                norm = np.broadcast_to([_s_normalizer(q, m1, v) for v in m2s], block.shape).ravel()
                abs_sum = block.ravel()
                rep.add(
                    q1=q1, q2=q2, m1=m1, m2=m2, n=n, h=h,
                    abs_sum=abs_sum, normalizer=norm, ratio=abs_sum / norm,
                )
            log.debug("S census (q1, q2) = (%d, %d): %d rows, %.3f s", q1, q2, len(rep), time.perf_counter() - t0)
    return rep.finalize()


def _census_t(family: TCensusFamily) -> ExperimentReport:
    cols = ["q1", "q1t", "q2", "n", "m", "h", "abs_sum", "normalizer", "ratio"]
    normalizer = "t_diag" if family.diagonal else "t_offdiag"
    rep = ExperimentReport(cols, {"family": "T", "normalizer": normalizer, **family.__dict__})
    t0 = time.perf_counter()
    vanish_checked = vanish_passed = 0
    ks = np.arange(1, family.m_max + 1, dtype=np.int64)
    for q1, q1t, q2 in itertools.product(family.q1_primes, family.q1_primes, family.q2_primes):
        if family.diagonal != (q1 == q1t) or q2 in (q1, q1t):
            continue
        if not family.diagonal and q1 > q1t:
            continue  # T(q1t, q1) pairs with m -> -m; sweep unordered
        moduli = {"q1": PrimeModulus(q1), "q1t": PrimeModulus(q1t), "q2": PrimeModulus(q2)}
        if family.diagonal:
            m, vanish = q1 * ks, np.zeros(ks.shape, dtype=bool)
            norm = q1 ** 2.5 * q2 ** 2.5 * np.sqrt(np.gcd(ks, q1 * q2))
        else:
            # vanishing-law tuples, gcd(m, q1 q1t) > 1: counted, expected ~0, not recorded
            m, vanish = ks, np.gcd(ks, q1 * q1t) != 1
            norm = q1 ** 1.5 * q1t ** 1.5 * q2 ** 2.5 * np.sqrt(np.gcd(ks, q2))
        keep = ~vanish
        for n, h in itertools.product(family.n_values, family.h_values):
            params = TCharParams(n=n, m=m, h=h, **moduli)
            v = np.abs(char_sum_T(params))
            vanish_checked += int(vanish.sum())
            vanish_passed += int((v[vanish] < char_sum_T_tolerance(params)).sum())
            rep.add(
                q1=q1, q1t=q1t, q2=q2, n=n, m=m[keep], h=h,
                abs_sum=v[keep], normalizer=norm[keep], ratio=v[keep] / norm[keep],
            )
        log.debug(
            "T census (q1, q1t, q2) = (%d, %d, %d): %d rows, %.3f s",
            q1, q1t, q2, len(rep), time.perf_counter() - t0,
        )
    return rep.finalize(vanish_checked=vanish_checked, vanish_passed=vanish_passed)
