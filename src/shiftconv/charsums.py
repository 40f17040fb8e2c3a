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
    char_sum_S            direct double sum for any q, reading no package table;
    char_sum_S_factored   per-prime product for q = q1 q2, on arrays in m2, n
                          and h, at one m1 or at a tuple of them;
    char_sum_T            its alpha-sum split by CRT into one short sum per
                          prime, each one batched length-r inverse FFT, at
                          every (n, h, m) of ints or arrays that broadcast.
Both read one kernel, _prime_factor(p, c, n, h) -> (k0, row).  The factor of
S at the prime p with cofactor c is k0 when p | m1; otherwise it is the row,
which holds it at every m mod p for one length-p inverse FFT per (n, h), read
at cbar^2 m2 (m1 = 1) or at m2 (m1 = c).  T reads the row at cbar^2 x for
every x mod p.  The censuses call S once per (q1, q2), with the four m1, and
T once per (q1, q1t, q2), each on its whole grid, so each row is built once.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # at import: numpy 2 would load it at the first np.fft call

from .arith import PrimeModulus, is_prime, kloosterman_table, unit_inverses
from .errors import InvalidDivisor, OutOfRange
from .reports import ExperimentReport, ratio_summary
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

    n, m (the dual frequency) and h are ints or int arrays that broadcast
    together, stored as given, and char_sum_T returns T at each (n, h, m); a
    non-integer raises OutOfRange.  q1 = q1t is permitted; q2 must differ
    from both, and a q that is not a PrimeModulus raises InvalidDivisor.  The
    residues of n, m and h and the alpha-factors are built once and kept, so
    char_sum_T and char_sum_T_tolerance at one instance share them.
    """

    n: int | np.ndarray
    m: int | np.ndarray
    h: int | np.ndarray
    q1: PrimeModulus
    q1t: PrimeModulus
    q2: PrimeModulus

    def __post_init__(self):
        if not all(isinstance(r, PrimeModulus) for r in (self.q1, self.q1t, self.q2)):
            raise InvalidDivisor(f"need PrimeModulus q1, q1t, q2, got {self.q1!r}, {self.q1t!r}, {self.q2!r}")
        # n, m and h reduced once mod Q = q1 q1t q2, a period of T, as int64 arrays
        object.__setattr__(self, "_nmh", _residues(self.q1.p * self.q1t.p * self.q2.p, self.n, self.m, self.h))
        if self.q2.p in (self.q1.p, self.q1t.p):
            raise InvalidDivisor("q2 must avoid {q1, q1t}")

    @cached_property
    def _factors(self):
        """(A_q1, A_q2) and (B_q1t, B_q2), the alpha factors of S_a and S_b, on
        the broadcast shape of n and h (at least one axis) plus one axis x mod
        r: by CRT, S(1, alpha, n, h; q1 q2) = A_q1(alpha mod q1) A_q2(alpha mod q2)."""
        n, _, h = (np.atleast_1d(x) for x in self._nmh)
        q1, q1t, q2 = self.q1.p, self.q1t.p, self.q2.p
        # A_r(x) is the kernel's row at cbar^2 x; one call per distinct (r, c), two on the diagonal
        pairs = {q: [_prime_factor(r, c, n, h)[1][..., pow(c, -2, r) * np.arange(r) % r]
                     for r, c in ((q, q2), (q2, q))] for q in dict.fromkeys((q1, q1t))}
        return pairs[q1], pairs[q1t]


def _residues(q: int, *xs) -> list[np.ndarray]:
    """Each x, an int or an int array, reduced mod q as an int64 array; a
    non-integer, or shapes that do not broadcast together, raise OutOfRange."""
    xs = [np.asarray(x % q if type(x) is int else x) for x in xs]
    if any(x.dtype.kind not in "iu" for x in xs):
        raise OutOfRange(f"expected integers, got dtypes {', '.join(str(x.dtype) for x in xs)}")
    try:
        np.broadcast_shapes(*(x.shape for x in xs))
    except ValueError:
        raise OutOfRange(f"shapes {', '.join(str(x.shape) for x in xs)} do not broadcast") from None
    # reduced mod q in their own dtype, so a uint64 cannot wrap in the cast
    return [(x % q).astype(np.int64, copy=False) for x in xs]


def _eq_pow(q: int, exponents: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * (exponents % q) / q)


def char_sum_S(p: SCharParams) -> complex:
    """S(m1, m2, n, h; q) by direct double summation."""
    q = p.q
    qm = q // p.m1
    a = np.flatnonzero(np.gcd(np.arange(q), q) == 1)  # the units, [0] at q = 1
    ab = np.array([pow(int(v), -1, q) for v in a], dtype=np.int64)
    x = np.flatnonzero(np.gcd(np.arange(qm), qm) == 1)  # the units mod qm
    xb = np.array([pow(int(v), -1, qm) for v in x], dtype=np.int64)
    # residues first, so no int64 product can wrap
    outer = _eq_pow(q, int(p.h) % q * a - int(p.n) % q * ab)
    inner = _eq_pow(qm, ab[:, None] * x + int(p.m2) % qm * xb).sum(axis=1)  # S(ab, m2; qm)
    return complex(np.sum(outer * inner))


def char_sum_S_factored(
    m1: int, m2: int | np.ndarray, n: int | np.ndarray, h: int | np.ndarray, q1: int, q2: int
) -> complex | np.ndarray:
    """S over q = q1 q2 (distinct primes) as the product of its factors at q1
    and at q2, each read from _prime_factor's (k0, row).  Equals char_sum_S.

    m2, n and h may be integers or integer arrays and broadcast against each
    other; q1 and q2 are integers.  The result has the broadcast shape, and a
    call with three scalars returns a complex.  m1 may also be a tuple of
    divisors of q: the result then has one more leading axis, over m1, and
    each prime factor is built once for all of them.  Non-integer arguments,
    or shapes that do not broadcast, raise OutOfRange.
    """
    q1, q2 = as_index(q1, "q1"), as_index(q2, "q2")
    if q1 == q2 or not (is_prime(q1) and is_prime(q2)):
        raise InvalidDivisor(f"q1 and q2 must be distinct primes, got {q1} and {q2}")
    q = q1 * q2
    m1s = tuple(as_index(d, "m1") for d in (m1 if isinstance(m1, tuple) else (m1,)))
    if not m1s or any(d < 1 or q % d for d in m1s):
        raise InvalidDivisor(f"need m1 to divide q={q}, got m1={m1}")
    m2, n, h = _residues(q, m2, n, h)
    ones = np.ones(np.broadcast_shapes(m2.shape, n.shape, h.shape), dtype=complex)

    def factors(p, c):  # at each m1: k0 when p | m1, else the row at m1's read index
        k0, row = _prime_factor(p, c, n, h)
        # sparse (n, h) indices broadcast against m2 as the arguments did
        nh, m = np.indices(row.shape[:-1], sparse=True), {1: pow(c, -2, p) * (m2 % p) % p, c: m2 % p}
        return [k0 if m1 % p == 0 else row[(*nh, m[m1])] for m1 in m1s]

    vals = [ones * f1 * f2 for f1, f2 in zip(factors(q1, q2), factors(q2, q1))]
    if isinstance(m1, tuple):
        return np.stack(vals)
    return complex(vals[0]) if vals[0].ndim == 0 else vals[0]


def _prime_factor(p, c, n, h):
    """(k0, row): the factor of S at the prime p with cofactor c, on the
    broadcast shape of the int64 residues n and h, row with one more axis,
    m mod p.  With hr = cbar h and nr = -cbar n, k0 = S(hr, nr; p) is the
    factor when p | m1, and otherwise it is

        F(m) = sum over units b of e_p(hr b + nr bbar) S(bbar, m; p)

    at m = cbar^2 m2 (m1 = 1) or m = m2 (m1 = c).  Writing out S(bbar, m; p)
    and summing b first gives F(m) = sum over units y of S(hr, nr + y; p)
    e_p(m ybar), so with w[ybar] = S(hr, nr + y; p) (w[0] = 0), row = p
    ifft(w) holds F at every m mod p, in O(p) memory per (n, h).
    """
    cb = pow(c, -1, p)
    # residues mod p first, so no int64 product can wrap
    hr, nr = cb * (h % p) % p, -cb * (n % p) % p
    ks = _kloosterman(p, hr[..., None], (nr[..., None] + np.arange(p)) % p)  # S(hr, nr + y; p)
    w = np.zeros(ks.shape, dtype=complex)
    w[..., unit_inverses(p)[1:]] = ks[..., 1:]
    return ks[..., 0], p * np.fft.ifft(w)


def _kloosterman(p, a, b):
    """S(a, b; p) at the prime p for residues a, b mod p: K[a b] from the row
    (K[0] = -1 covers exactly one of a, b being 0), and p - 1 at (0, 0)."""
    return np.where((a == 0) & (b == 0), p - 1, kloosterman_table(p)[a * b % p])


def char_sum_T(p: TCharParams) -> complex | np.ndarray:
    """T(n, m, h; q1, q1t, q2): its alpha-sum reindexed by CRT, exactly.

    With S_a = A_q1 A_q2 and S_b = B_q1t B_q2 (p._factors), alpha <-> (x, y, z)
    mod (q1, q1t, q2) splits e_Q(m alpha) into e_r(m rbar x_r) per prime r,
    rbar = (Q/r)^-1 mod r, so for q1 != q1t T is [sum_x A_q1 e] [sum_y conj
    B_q1t e] [sum_z A_q2 conj B_q2 e].  For q1 = q1t the summand has period
    q1 q2: T = 0 unless m = q1 m', and then T = q1 sum over beta mod q1 q2 of
    |S(beta)|^2 e_{q1 q2}(m' beta), which splits the same way.

    Each short sum is sum_x v_r(x) e_r(k x) = r ifft(v_r)[k], so one batched
    length-r inverse FFT per prime, over every (n, h), gives T at every
    (n, h, m).  The result has the broadcast shape of p.n, p.m and p.h, and a
    call with three scalars returns a complex.  n, m and h are reduced mod
    Q = q1 q1t q2, a period of T, first.
    """
    q1, q1t, q2 = p.q1.p, p.q1t.p, p.q2.p
    # one array path for scalars too, so a scalar call gets the array's bits
    m = np.atleast_1d(p._nmh[1])
    (a1, a2), (b1, b2) = p._factors
    if q1 == q1t:
        scale, m, terms = q1 * (m % q1 == 0), m // q1, [(q1, np.abs(a1) ** 2), (q2, np.abs(a2) ** 2)]
    else:
        scale, terms = 1, [(q1, a1), (q1t, np.conj(b1)), (q2, a2 * np.conj(b2))]
    big = math.prod(r for r, _ in terms)
    # sparse (n, h) indices broadcast against m as the arguments did
    nh = np.indices(a1.shape[:-1], sparse=True)
    val = scale * math.prod(r * np.fft.ifft(v)[(*nh, m % r * pow(big // r, -1, r) % r)] for r, v in terms)
    return complex(val[0]) if all(x.ndim == 0 for x in p._nmh) else val


def char_sum_T_tolerance(p: TCharParams) -> float | np.ndarray:
    """Absolute float error allowed in char_sum_T, for the vanishing laws, on
    the broadcast shape of p.n and p.h (a float for two scalars).

    A float error model, not a proven bound.  T is a product of three short
    sums (F_q1 F_q1t F_q2; q1 F_q1 F_q2 on the diagonal), so |T| <= B = Q
    max|S_a| max|S_b|, Q = q1 q1t q2 (max|S_a| = max|A_q1| max|A_q2|, and so
    for S_b).  A T that vanishes through one factor comes out as a small
    multiple of epsilon B: below 0.4 epsilon B on the vanishing laws, so the
    factor 16 leaves a wide margin; a T that does not vanish is far larger.
    """
    sa, sb = (np.abs(u).max(axis=-1) * np.abs(v).max(axis=-1) for u, v in p._factors)
    tol = 16 * np.finfo(float).eps * p.q1.p * p.q1t.p * p.q2.p * sa * sb
    return tol[0] if np.ndim(p.n) == np.ndim(p.h) == 0 else tol


def t1_closed_form(p: TCharParams, which: str = "q1") -> complex:
    """Closed form of the prime factor of T at q1 (or at q1t).

    For which="q1":   q1 * S(q2bar h, -q2bar (n + q1t mbar); q1), zero when
    q1 | m (a valid value, not an error).  The factor at q1t comes from the
    conjugated inner sum and is the same expression with the roles of q1 and
    q1t swapped and m replaced by -m.
    """
    if p.q1.p == p.q1t.p:
        raise InvalidDivisor("closed form applies to q1 != q1t")
    if which not in ("q1", "q1t"):
        raise OutOfRange(f"which must be 'q1' or 'q1t', got {which!r}")
    # one (n, m, h), though char_sum_T also takes arrays
    n, m, h = (as_index(getattr(p, name), name) for name in ("n", "m", "h"))
    pr, other, m = (p.q1.p, p.q1t.p, m) if which == "q1" else (p.q1t.p, p.q1.p, -m)
    if m % pr == 0:
        return 0.0 + 0.0j
    q2b, mb = pow(p.q2.p, -1, pr), pow(m % pr, -1, pr)
    return complex(pr * _kloosterman(pr, q2b * h % pr, -q2b * (n + other * mb) % pr))


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
    q1b, qtb = pow(p1, -1, p2), pow(pt, -1, p2)
    inv = unit_inverses(p2)
    beta, betab = np.arange(1, p2), inv[1:]
    base_b = _eq_pow(p2, q1b * h * beta - q1b * n * betab)
    base_g = _eq_pow(p2, -qtb * h * beta + qtb * n * betab)  # gamma shares the unit grid
    total = 0.0 + 0.0j
    for delta, deltab in zip(beta, betab):
        w = (pt * delta + m) % p2
        if w == 0:
            continue
        bsum = np.sum(base_b * _eq_pow(p2, q1b * betab * deltab))
        gsum = np.sum(base_g * _eq_pow(p2, -qtb * p1 * inv[w] * betab))
        total += bsum * gsum
    return complex(p2 * total)


# ---------------------------------------------------------------------------
# bound censuses


@dataclass(frozen=True)
class SCensusFamily:
    """Sweep of S over unordered pairs of distinct primes, each q once, and
    small (m2, n, h) boxes.

    m1 runs over all divisors {1, q1, q2, q1 q2}; tuples with gcd(n h, q) > 1
    are skipped (the bound is stated for n, h coprime to q).  A non-integer
    or negative count, primes that are not a tuple or a list, or a
    non-integer prime, raise OutOfRange, a composite or repeated prime
    InvalidDivisor; the fields are stored as given.
    """

    primes: tuple
    m2_max: int = 10
    n_max: int = 10
    h_max: int = 10

    def __post_init__(self):
        _check_family(self, ("m2_max", "n_max", "h_max"), ("primes",))


@dataclass(frozen=True)
class TCensusFamily:
    """Sweep of T; diagonal=True restricts to q1 = q1t with m = q1 m'.

    Checked at construction as SCensusFamily is: the prime fields, and
    n_values and h_values, each a tuple or a list of integers.
    """

    q1_primes: tuple
    q2_primes: tuple
    m_max: int = 11
    n_values: tuple = (1, 2, 3)
    h_values: tuple = (1, 2)
    diagonal: bool = False

    def __post_init__(self):
        _check_family(self, ("m_max",), ("q1_primes", "q2_primes"), ("n_values", "h_values"))


def _check_family(family, counts, prime_fields, int_fields=()):
    for name in counts:
        if as_index(getattr(family, name), name) < 0:
            raise OutOfRange(f"{name} must be >= 0, got {getattr(family, name)}")
    for name in (*prime_fields, *int_fields):
        values = getattr(family, name)
        if not isinstance(values, (tuple, list)):  # as the config hash encodes them
            raise OutOfRange(f"{name} must be a tuple or a list, got {values!r}")
        ints = [as_index(v, name) for v in values]
        if name in prime_fields and len({PrimeModulus(q).p for q in ints}) < len(ints):
            raise InvalidDivisor(f"{name} repeats a prime: {tuple(values)}")


def bound_census(family) -> ExperimentReport:
    """Sweep a family, recording |sum| and the bound-shape normalizer per
    tuple; the summary carries the max and median of their ratio.

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
    cols = ["q1", "q2", "m1", "m2", "n", "h", "abs_sum", "normalizer"]
    rep = ExperimentReport(cols, {"family": "S", **family.__dict__})
    t0, ratios = time.perf_counter(), []
    m2s, n_box, h_box = (np.arange(1, k + 1, dtype=np.int64) for k in (family.m2_max, family.n_max, family.h_max))
    for q1, q2 in itertools.combinations(family.primes, 2):
        q = q1 * q2
        ns, hs = n_box[np.gcd(n_box, q) == 1], h_box[np.gcd(h_box, q) == 1]
        # one block per m1 on axes (n, h, m2), flattened in record order
        n, h, m2 = (g.ravel() for g in np.meshgrid(ns, hs, m2s, indexing="ij"))
        # each prime factor built once for the four m1
        blocks = np.abs(char_sum_S_factored((1, q1, q2, q), m2s, ns[:, None, None], hs[:, None], q1, q2))
        for m1, block in zip((1, q1, q2, q), blocks):
            abs_sum = block.ravel()
            norm = np.tile(q / math.sqrt(m1) * np.sqrt(np.gcd(q // m1, m2s)), len(ns) * len(hs))
            rep.add(q1=q1, q2=q2, m1=m1, m2=m2, n=n, h=h, abs_sum=abs_sum, normalizer=norm)
            ratios.append(abs_sum / norm)
        log.debug("S census (q1, q2) = (%d, %d): %d rows, %.3f s", q1, q2, len(rep), time.perf_counter() - t0)
    return rep.finalize(**ratio_summary(ratios))


def _census_t(family: TCensusFamily) -> ExperimentReport:
    cols = ["q1", "q1t", "q2", "n", "m", "h", "abs_sum", "normalizer"]
    normalizer = "t_diag" if family.diagonal else "t_offdiag"
    rep = ExperimentReport(cols, {"family": "T", "normalizer": normalizer, **family.__dict__})
    t0, ratios = time.perf_counter(), []
    vanish_checked = vanish_passed = 0
    ks = np.arange(1, family.m_max + 1, dtype=np.int64)
    for q1, q1t, q2 in itertools.product(family.q1_primes, family.q1_primes, family.q2_primes):
        if family.diagonal != (q1 == q1t) or q2 in (q1, q1t):
            continue
        if not family.diagonal and q1 > q1t:
            continue  # T(q1t, q1) pairs with m -> -m; sweep unordered
        if family.diagonal:
            m, vanish = q1 * ks, np.zeros(ks.shape, dtype=bool)
            norm = q1 ** 2.5 * q2 ** 2.5 * np.sqrt(np.gcd(ks, q1 * q2))
        else:
            # vanishing-law tuples, gcd(m, q1 q1t) > 1: counted, expected ~0, not recorded
            m, vanish = ks, np.gcd(ks, q1 * q1t) != 1
            norm = q1 ** 1.5 * q1t ** 1.5 * q2 ** 2.5 * np.sqrt(np.gcd(ks, q2))
        # one call on axes (n, h, m), with n and h reduced mod Q, a period of
        # T; the report keeps them as given, one block per (n, h)
        q = q1 * q1t * q2
        ns, hs = (np.array([x % q for x in xs], dtype=np.int64) for xs in (family.n_values, family.h_values))
        params = TCharParams(ns[:, None, None], m, hs[:, None], *map(PrimeModulus, (q1, q1t, q2)))
        v = np.abs(char_sum_T(params))
        if vanish.any():  # the tolerance reads the alpha-factors that char_sum_T built in params
            vanish_checked += v[..., vanish].size
            vanish_passed += int((v[..., vanish] < char_sum_T_tolerance(params)).sum())
        v, m, norm = v[..., ~vanish], m[~vanish], norm[~vanish]
        ratios.append(v / norm)
        for (i, n), (j, h) in itertools.product(enumerate(family.n_values), enumerate(family.h_values)):
            rep.add(q1=q1, q1t=q1t, q2=q2, n=n, m=m, h=h, abs_sum=v[i, j], normalizer=norm)
        log.debug("T census (q1, q1t, q2) = (%d, %d, %d): %d rows, %.3f s",
                  q1, q1t, q2, len(rep), time.perf_counter() - t0)
    return rep.finalize(**ratio_summary(ratios), vanish_checked=vanish_checked, vanish_passed=vanish_passed)
