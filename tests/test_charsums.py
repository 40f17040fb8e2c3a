"""Character-sum tests: brute-force oracles, closed forms, vanishing laws."""

import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_kloosterman, direct_t
from shiftconv import charsums as cs
from shiftconv.arith import PrimeModulus, factorize, kloosterman_table
from shiftconv.errors import InvalidDivisor

P = PrimeModulus


def eq(q, x):
    return np.exp(2j * np.pi * (x % q) / q)


def oracle_S(m1, m2, n, h, q):
    """Pure-Python double loop, straight from the definition."""
    qm = q // m1
    total = 0j
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        ab = pow(a, -1, q)
        if qm == 1:
            kl = 1.0 + 0j
        else:
            kl = sum(
                eq(qm, ab * x + m2 * pow(x, -1, qm))
                for x in range(qm)
                if math.gcd(x, qm) == 1
            )
        total += eq(q, a * h) * eq(q, -ab * n) * kl
    return total


def oracle_T(n, m, h, q1, q1t, q2):
    """Triple sum over alpha with scalar char_sum_S on both sides."""
    bigq = q1 * q1t * q2
    total = 0j
    for alpha in range(bigq):
        s1 = cs.char_sum_S(cs.SCharParams(1, alpha, n, h, q1 * q2))
        s2 = cs.char_sum_S(cs.SCharParams(1, alpha, n, h, q1t * q2))
        total += s1 * np.conj(s2) * eq(bigq, m * alpha)
    return total


def tparams(n, m, h, q1, q1t, q2):
    return cs.TCharParams(n=n, m=m, h=h, q1=P(q1), q1t=P(q1t), q2=P(q2))


class TestSCharSum:
    def test_empty_modulus(self):
        assert cs.char_sum_S(cs.SCharParams(1, 1, 1, 1, 1)) == 1.0 + 0j

    def test_brute_force_oracle(self):
        got = cs.char_sum_S(cs.SCharParams(1, 2, 1, 1, 15))
        assert abs(got - oracle_S(1, 2, 1, 1, 15)) < 1e-10

    @pytest.mark.parametrize(
        "m1,m2,n,h,q", [(1, 3, 2, 4, 21), (3, 2, 1, 2, 21), (7, 5, 4, 1, 21), (21, 9, 2, 5, 21)]
    )
    def test_oracle_all_divisors(self, m1, m2, n, h, q):
        got = cs.char_sum_S(cs.SCharParams(m1, m2, n, h, q))
        assert abs(got - oracle_S(m1, m2, n, h, q)) < 1e-9

    def test_m1_equals_q_is_kloosterman(self):
        for (q, n, h) in [(15, 1, 1), (21, 2, 4), (35, 3, 2)]:
            got = cs.char_sum_S(cs.SCharParams(q, 7, n, h, q))
            assert abs(got - brute_kloosterman(h, -n, q)) < 1e-9

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_kloosterman_every_pair_at_a_prime(self, p):
        # K[a b] off (0, 0), where S(0, 0; p) = p - 1
        got = cs._kloosterman(p, np.arange(p)[:, None], np.arange(p))
        want = [[brute_kloosterman(a, b, p) for b in range(p)] for a in range(p)]
        assert np.abs(got - want).max() < 1e-9
        assert got[0, 0] == p - 1

    @pytest.mark.parametrize(
        "big", [2 ** 62 + 1, 2 ** 63 + 5, 2 ** 70 + 3, -(2 ** 70)], ids=["2_62", "2_63", "2_70", "minus_2_70"]
    )
    def test_direct_sum_reduces_before_multiplying(self, big):
        # int64 products of an unreduced h, n or m2 wrapped below 2^63 and
        # overflowed above it
        q = 35
        for m1, m2, n, h in [(1, 3, 2, big), (1, 3, big, 4), (5, big, 2, 4), (1, big, 2, 4)]:
            got = cs.char_sum_S(cs.SCharParams(m1, m2, n, h, q))
            assert got == cs.char_sum_S(cs.SCharParams(m1, m2 % q, n % q, h % q, q))
            assert abs(got - cs.char_sum_S_factored(m1, m2 % q, n % q, h % q, 5, 7)) < 1e-9 * q

    def test_invalid_divisor(self):
        with pytest.raises(InvalidDivisor):
            cs.SCharParams(4, 1, 1, 1, 15)

    @pytest.mark.parametrize("m1,q", [(0, 15), (-3, 15), (1, 0), (3, -15)])
    def test_rejects_nonpositive_m1_or_q(self, m1, q):
        with pytest.raises(InvalidDivisor):
            cs.SCharParams(m1, 1, 1, 1, q)

    @given(st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_periodicity_in_h(self, n, h):
        q = 15
        a = cs.char_sum_S(cs.SCharParams(1, 2, n, h, q))
        b = cs.char_sum_S(cs.SCharParams(1, 2, n, h + q, q))
        assert abs(a - b) < 1e-9

    def test_factored_matches_brute(self):
        rng = np.random.default_rng(3)
        for q1, q2 in [(3, 5), (3, 7), (5, 7), (7, 11), (11, 13)]:
            q = q1 * q2
            for m1 in (1, q1, q2, q):
                m2, n, h = (int(v) for v in rng.integers(1, q, 3))
                fast = cs.char_sum_S_factored(m1, m2, n, h, q1, q2)
                slow = cs.char_sum_S(cs.SCharParams(m1, m2, n, h, q))
                assert abs(fast - slow) < 1e-8

    @pytest.mark.parametrize(
        "q1,q2,m2,n,h", [(3, 5, 1, 1, 1), (3, 5, 2, 2, 1), (5, 7, 3, 2, 4), (3, 5, 2, 1, 0)]
    )
    def test_factored_matches_direct_at_m1_q1(self, q1, q2, m2, n, h):
        # m1 = q1: a Kloosterman factor mod q1 times the unit sum mod q2;
        # h = 0 makes the Kloosterman factor a Ramanujan sum
        fast = cs.char_sum_S_factored(q1, m2, n, h, q1, q2)
        slow = cs.char_sum_S(cs.SCharParams(q1, m2, n, h, q1 * q2))
        assert abs(fast - slow) < 1e-8

    def test_factored_rejects_equal_primes(self):
        with pytest.raises(InvalidDivisor):
            cs.char_sum_S_factored(1, 1, 1, 1, 5, 5)
        with pytest.raises(InvalidDivisor):
            cs.char_sum_S_factored(1, np.arange(1, 4), 1, 1, 7, 7)

    @pytest.mark.parametrize(
        "call",
        [
            # the per-prime formula would give 0; the direct sum at q = 36 is 18
            lambda: cs.char_sum_S_factored(2, 1, 1, 1, 4, 9),
            # ... and 21.44 where the direct sum at q = 45 is 0
            lambda: cs.char_sum_S_factored(3, 2, 1, 1, 9, 5),
            # ... and a bare ValueError from pow(15, -1, 3)
            lambda: cs.char_sum_S_factored(1, 1, 1, 1, 3, 15),
            lambda: cs.bound_census(cs.SCensusFamily(primes=(4, 9))),
        ],
        ids=["q1_composite", "q1_prime_power", "q2_multiple_of_q1", "census_composites"],
    )
    def test_factored_rejects_composite_moduli(self, call):
        with pytest.raises(InvalidDivisor):
            call()

    @pytest.mark.parametrize("m2", [2, np.arange(1, 4)], ids=["scalar", "array"])
    @pytest.mark.parametrize("m1", [2, 7, 45, 0, -3])
    def test_factored_rejects_non_divisor(self, m1, m2):
        # char_sum_S rejects these m1 through SCharParams; so must the factored form
        with pytest.raises(InvalidDivisor):
            cs.char_sum_S_factored(m1, m2, 1, 1, 3, 5)


def scalar_census_s(family):
    """The S census as one scalar char_sum_S_factored call per tuple."""
    out = []
    for q1 in family.primes:
        for q2 in family.primes:
            if q1 == q2:
                continue
            q = q1 * q2
            for m1 in (1, q1, q2, q):
                for n in range(1, family.n_max + 1):
                    if math.gcd(n, q) != 1:
                        continue
                    for h in range(1, family.h_max + 1):
                        if math.gcd(h, q) != 1:
                            continue
                        for m2 in range(1, family.m2_max + 1):
                            v = abs(cs.char_sum_S_factored(m1, m2, n, h, q1, q2))
                            norm = q / math.sqrt(m1) * math.sqrt(math.gcd(q // m1, m2))
                            out.append(dict(
                                q1=q1, q2=q2, m1=m1, m2=m2, n=n, h=h,
                                abs_sum=v, normalizer=norm, ratio=v / norm,
                            ))
    return out


def scalar_census_t(family):
    """The T census as one scalar char_sum_T call per tuple: its rows, in
    order, and the (checked, passed) counts of the vanishing-law tuples."""
    out, checked, passed = [], 0, 0
    for q1 in family.q1_primes:
        for q1t in family.q1_primes:
            # q1 > q1t off the diagonal is the mirror of (q1t, q1)
            if (q1 == q1t) != family.diagonal or (not family.diagonal and q1 > q1t):
                continue
            for q2 in family.q2_primes:
                if q2 in (q1, q1t):
                    continue
                for n in family.n_values:
                    for h in family.h_values:
                        for k in range(1, family.m_max + 1):
                            m = q1 * k if family.diagonal else k
                            p = tparams(n, m, h, q1, q1t, q2)
                            v = abs(cs.char_sum_T(p))
                            if family.diagonal:
                                norm = q1 ** 2.5 * q2 ** 2.5 * math.sqrt(math.gcd(k, q1 * q2))
                            elif math.gcd(m, q1 * q1t) > 1:
                                checked += 1
                                passed += v < cs.char_sum_T_tolerance(p)
                                continue
                            else:
                                norm = q1 ** 1.5 * q1t ** 1.5 * q2 ** 2.5 * math.sqrt(math.gcd(m, q2))
                            out.append(dict(
                                q1=q1, q1t=q1t, q2=q2, n=n, m=m, h=h,
                                abs_sum=v, normalizer=norm, ratio=v / norm,
                            ))
    return out, checked, passed


class TestSFactoredArrays:
    @pytest.mark.parametrize("q1,q2", [(3, 5), (5, 7), (7, 11)])
    def test_broadcast_matches_direct(self, q1, q2):
        q = q1 * q2
        m2 = np.array([1, 3, q1, 2 * q2, q])
        n = np.array([1, 2, q1, q + 4])[:, None, None]
        h = np.array([0, 1, q2, 6])[:, None]
        for m1 in (1, q1, q2, q):
            got = cs.char_sum_S_factored(m1, m2, n, h, q1, q2)
            assert got.shape == (4, 4, 5)
            for i, j, k in np.ndindex(got.shape):
                direct = cs.char_sum_S(cs.SCharParams(m1, int(m2[k]), int(n[i, 0, 0]), int(h[j, 0]), q))
                assert abs(got[i, j, k] - direct) < 1e-9 * q

    def test_large_arguments_do_not_wrap(self):
        # products like cbar * h * b would pass 2^63 before reduction mod p
        big = np.array([2 ** 62 + 5, 2 ** 62 - 7])
        for m1 in (1, 3, 5, 15):
            got = cs.char_sum_S_factored(m1, big, big[:, None], big[::-1], 3, 5)
            for i, j in np.ndindex(got.shape):
                m2, n, h = (int(v) % 15 for v in (big[j], big[i], big[::-1][j]))
                assert abs(got[i, j] - cs.char_sum_S(cs.SCharParams(m1, m2, n, h, 15))) < 1e-9 * 15

    @pytest.mark.parametrize(
        "big",
        [
            np.uint64(2 ** 63 + 5),
            np.array([2 ** 64 - 1, 2 ** 63], dtype=np.uint64),
            2 ** 63 + 5,
            2 ** 70 + 3,
            -(2 ** 70),
        ],
        ids=["uint64", "uint64_array", "2_63", "2_70", "minus_2_70"],
    )
    def test_arguments_past_int64_reduce_first(self, big):
        # a uint64 past 2^63 wrapped in the int64 cast, and a Python int past
        # 2^63 was refused as an object array
        q = 35
        small = big % q if isinstance(big, int) else (big % q).astype(np.int64)
        for m1 in (1, 5, 7, q):
            for slot in range(3):
                args, reduced = [2, 3, 4], [2, 3, 4]
                args[slot], reduced[slot] = big, small
                got = cs.char_sum_S_factored(m1, *args, 5, 7)
                assert np.array_equal(got, cs.char_sum_S_factored(m1, *reduced, 5, 7))

    def test_scalar_call_returns_complex(self):
        for m1 in (1, 3, 5, 15):
            assert type(cs.char_sum_S_factored(m1, 2, 1, 4, 3, 5)) is complex

    def test_block_memory_is_linear_in_each_axis(self):
        # a (24, 24, 24) block at p ~ 100: the (n, h, m2, b) product would be
        # 16 * 24^3 * 100 bytes ~ 22 MB; the contraction stores ~1 MB operands
        n = np.arange(1, 25)[:, None, None]
        h = np.arange(1, 25)[:, None]
        m2 = np.arange(1, 25)
        cs.char_sum_S_factored(1, m2, n, h, 97, 101)  # warm the Kloosterman rows
        tracemalloc.start()
        try:
            cs.char_sum_S_factored(1, m2, n, h, 97, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_census_matches_scalar_loop(self):
        fam = cs.SCensusFamily(primes=(3, 5, 7), m2_max=4, n_max=5, h_max=4)
        got = cs.bound_census(fam).records
        want = scalar_census_s(fam)
        assert len(got) == len(want)
        for r, w in zip(got, want):
            assert list(r) == list(w)
            assert {k: type(v) for k, v in r.items()} == {
                **{k: int for k in ("q1", "q2", "m1", "m2", "n", "h")},
                **{k: float for k in ("abs_sum", "normalizer", "ratio")},
            }
            assert [r[k] for k in ("q1", "q2", "m1", "m2", "n", "h", "normalizer")] == [
                w[k] for k in ("q1", "q2", "m1", "m2", "n", "h", "normalizer")
            ]
            assert r["abs_sum"] == pytest.approx(w["abs_sum"], rel=1e-12, abs=0)
            assert r["ratio"] == pytest.approx(w["ratio"], rel=1e-12, abs=0)


def oracle_unit_sum(h, n, m2, q1, q2):
    """sum over units a, b mod q2 of e_q2(q1bar a h - q1bar abar n + b abar + m2 bbar)."""
    q1b = pow(q1, -1, q2)
    total = 0j
    for a in range(1, q2):
        for b in range(1, q2):
            ab, bb = pow(a, -1, q2), pow(b, -1, q2)
            total += eq(q2, q1b * a * h - q1b * ab * n + b * ab + m2 * bb)
    return total


def unit_sum_q2(m2, n, h, q1, q2):
    """The mod-q2 factor of S at m1 = q1, from the production evaluator.

    char_sum_S_factored(q1, ...) is this factor times S(q2bar h, -q2bar n; q1),
    which for q1 in {2, 3} is +-1 or one of {2, -1}, never zero, so dividing
    it out is exact up to rounding.
    """
    assert q1 in (2, 3)
    q2b = pow(q2, -1, q1)
    k1 = cs._kloosterman(q1, q2b * h % q1, -q2b * n % q1)
    return cs.char_sum_S_factored(q1, m2, n, h, q1, q2) / k1


class TestAdolphsonSperber:
    def test_brute_force(self):
        assert abs(unit_sum_q2(1, 1, 1, 3, 5) - oracle_unit_sum(1, 1, 1, 3, 5)) < 1e-10

    def test_grid_matches_scalar(self):
        h = np.array([0, 1, 5])[:, None]
        n = np.array([1, 6])
        grid = unit_sum_q2(2, n, h, 3, 7)
        for i, j in np.ndindex(grid.shape):
            assert abs(grid[i, j] - oracle_unit_sum(h[i, 0], n[j], 2, 3, 7)) < 1e-9

    def test_generic_census(self):
        # Exhaustive over (h, n, m2) mod q2 with h, n, m2 nonzero: the
        # observed normalized max is ~2.93, so 4*q2 (the Newton-polygon
        # volume bound) is the frozen census ceiling.
        worst = 0.0
        for q2 in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 53, 97):
            for q1 in (2, 3):
                if q1 == q2:
                    continue
                r = np.arange(1, q2)
                grid = np.abs(unit_sum_q2(r, r[:, None, None], r[:, None], q1, q2))
                worst = max(worst, grid.max() / q2)
        assert worst <= 4.0
        assert worst > 2.0  # the constant genuinely exceeds 2 (observed 2.93)

    def test_degenerate_scale(self):
        # degenerate tuples stay below the q2^{3/2} fallback
        for q2 in (5, 13, 31):
            for m2 in (q2, 2 * q2):
                v = unit_sum_q2(m2, 1, 1, 2, q2)
                assert abs(v - oracle_unit_sum(1, 1, m2, 2, q2)) < 1e-9
                assert abs(v) <= q2 ** 1.5 + 1e-9


def oracle_s_alpha(n, h, q, alphas):
    """S(1, alpha, n, h; q) for each alpha given, straight from the definition:
    sum over units a of e_q(a h - abar n) * sum over units x of
    e_q(abar x + alpha xbar), with units and inverses from math.gcd and pow."""
    units = np.array([a for a in range(q) if math.gcd(a, q) == 1], dtype=np.int64)
    inv = np.array([pow(int(a), -1, q) for a in units], dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    outer = roots[(units * h - inv * n) % q]
    abx = (inv[:, None] * units[None, :]) % q  # [a, x] = abar x
    return np.array(
        [outer @ roots[(abx + alpha * inv[None, :]) % q].sum(axis=1) for alpha in alphas]
    )


class TestAlphaTable:
    """S(1, alpha, n, h; q1 q2) for every alpha, as char_sum_T consumes it."""

    def test_matches_scalar(self):
        t = cs.char_sum_S_factored(1, np.arange(15), 2, 3, 3, 5)
        for alpha in (0, 1, 7, 14):
            direct = cs.char_sum_S(cs.SCharParams(1, alpha, 2, 3, 15))
            assert abs(t[alpha] - direct) < 1e-9

    @pytest.mark.parametrize("q", [15, 35, 221])
    def test_matches_oracle_every_alpha(self, q):
        (q1, _), (q2, _) = factorize(q)
        for n, h in [(1, 1), (2, 3), (4, 0)]:
            got = cs.char_sum_S_factored(1, np.arange(q), n, h, q1, q2)
            assert np.abs(got - oracle_s_alpha(n, h, q, range(q))).max() < 1e-9 * q

    def test_matches_oracle_seeded_alpha_large_q(self):
        q = 1591  # 37 * 43
        alphas = np.random.default_rng(5).integers(0, q, 8)
        got = cs.char_sum_S_factored(1, alphas, 3, 2, 37, 43)
        assert np.abs(got - oracle_s_alpha(3, 2, q, alphas)).max() < 1e-9 * q

    def test_alpha_factor_is_the_crt_split(self):
        # S(1, alpha; q1 q2) = A_q1(alpha mod q1) A_q2(alpha mod q2)
        q1, q2, n, h = 7, 11, 3, 5
        a1 = cs._alpha_factor(q1, q2, n, h)
        a2 = cs._alpha_factor(q2, q1, n, h)
        alpha = np.arange(q1 * q2)
        want = cs.char_sum_S_factored(1, alpha, n, h, q1, q2)
        assert np.abs(a1[alpha % q1] * a2[alpha % q2] - want).max() < 1e-9 * q1 * q2

    def test_alpha_factor_read_only_and_keyed_by_residue(self):
        a = cs._alpha_factor(13, 17, 4, 6)
        assert not a.flags.writeable
        assert a.shape == (13,)
        # T at (n, h) and at (n + Q, h - Q) reads the same cached factors
        q = 13 * 19 * 17
        cs.char_sum_T(tparams(4, 2, 6, 13, 19, 17))
        before = cs._alpha_factor.cache_info()
        cs.char_sum_T(tparams(4 + q, 2, 6 - q, 13, 19, 17))
        after = cs._alpha_factor.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 4


class TestTCharSum:
    def test_brute_force_oracle(self):
        got = cs.char_sum_T(tparams(1, 1, 1, 3, 5, 7))
        expect = oracle_T(1, 1, 1, 3, 5, 7)
        assert abs(got - expect) < 1e-6 * abs(expect)

    def test_vanishes_diagonal_m_coprime(self):
        for (q1, q2, n, m, h) in [(3, 7, 1, 1, 1), (5, 11, 2, 3, 1), (3, 13, 1, 2, 2)]:
            p = tparams(n, m, h, q1, q1, q2)
            v = abs(cs.char_sum_T(p))
            assert v < cs.char_sum_T_tolerance(p)

    def test_vanishes_offdiag_gcd(self):
        for (q1, q1t, q2, n, m, h) in [(3, 5, 7, 1, 3, 1), (3, 5, 11, 2, 5, 1), (5, 7, 11, 1, 35, 2)]:
            p = tparams(n, m, h, q1, q1t, q2)
            v = abs(cs.char_sum_T(p))
            assert v < cs.char_sum_T_tolerance(p)

    def test_nonvanishing_diagonal_multiple(self):
        v = abs(cs.char_sum_T(tparams(2, 3, 1, 3, 3, 7)))
        assert v > 1.0

    def test_nonvanishing_exceeds_tolerance(self):
        # the vanishing-law tolerance is far below a genuine nonzero value
        p = tparams(2, 3, 1, 3, 3, 7)
        assert abs(cs.char_sum_T(p)) > 1e6 * cs.char_sum_T_tolerance(p)

    @given(st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=10, deadline=None)
    def test_periodicity_in_h(self, n, h):
        q1, q1t, q2 = 3, 5, 7
        q = q1 * q1t * q2
        a = cs.char_sum_T(tparams(n, 1, h, q1, q1t, q2))
        b = cs.char_sum_T(tparams(n, 1, h + q, q1, q1t, q2))
        assert abs(a - b) < 1e-6 * max(1.0, abs(a))

    def test_hermitian_symmetry_diagonal(self):
        for m in (3, 6, 9):
            a = cs.char_sum_T(tparams(1, m, 1, 3, 3, 7))
            b = cs.char_sum_T(tparams(1, -m, 1, 3, 3, 7))
            assert abs(abs(a) - abs(b)) < 1e-6 * max(1.0, abs(a))


class TestTArrayM:
    """char_sum_T on an int array of m: the scalar values, bit for bit."""

    @pytest.mark.parametrize("q1,q1t,q2", [(3, 5, 7), (7, 5, 2), (5, 5, 13), (11, 11, 2)])
    @pytest.mark.parametrize("n,h", [(1, 1), (4, 0)])
    def test_matches_scalar_calls(self, q1, q1t, q2, n, h):
        # negative m, m = 0 and m = 0 mod q1 (the diagonal's nonzero ones)
        ms = np.array([-2 * q1, -7, -1, 0, 1, 2, q1, 3 * q1, q1 * q1t * q2 + 1, 40])
        got = cs.char_sum_T(tparams(n, ms, h, q1, q1t, q2))
        want = np.array([cs.char_sum_T(tparams(n, int(m), h, q1, q1t, q2)) for m in ms])
        assert got.shape == ms.shape
        assert got.tobytes() == want.tobytes()

    def test_scalar_returns_complex(self):
        assert type(cs.char_sum_T(tparams(1, 2, 1, 3, 5, 7))) is complex
        assert type(cs.char_sum_T(tparams(1, np.int64(2), 1, 3, 5, 7))) is complex

    def test_unsigned_array(self):
        got = cs.char_sum_T(tparams(1, np.array([2, 4], dtype=np.uint64), 1, 3, 5, 7))
        assert got.tobytes() == cs.char_sum_T(tparams(1, np.array([2, 4]), 1, 3, 5, 7)).tobytes()

    @pytest.mark.parametrize("q1,q1t,q2", [(3, 5, 7), (5, 5, 13)])
    def test_m_beyond_int64(self, q1, q1t, q2):
        # T has period q1 q1t q2 in m; a Python int past 2^63 reduces first
        q = q1 * q1t * q2
        for m in (2 ** 70 + 5, q1 * (2 ** 70 + 5), -(2 ** 70)):
            assert cs.char_sum_T(tparams(2, m, 1, q1, q1t, q2)) == cs.char_sum_T(tparams(2, m % q, 1, q1, q1t, q2))


# diagonal and off-diagonal triples, the primes 2 and 3 included
SWEEP_TRIPLES = [
    (2, 3, 5), (3, 2, 5), (2, 2, 3), (3, 3, 2), (5, 7, 2), (7, 5, 3), (5, 5, 13),
    (7, 11, 13), (13, 11, 7), (11, 11, 2), (13, 13, 7), (3, 13, 11),
]


class TestTAgainstAlphaSum:
    """char_sum_T against the full alpha-sum over q1 q1t q2 (direct_t)."""

    @pytest.mark.parametrize("q1,q1t,q2", SWEEP_TRIPLES)
    def test_sweep(self, q1, q1t, q2):
        ms = list(range(-2, 13)) + [q1, q2, q1 * q1t]
        vanishing = 0
        for n in (0, 1, 3):
            for h in (0, 1, 3):
                for m in ms:
                    p = tparams(n, m, h, q1, q1t, q2)
                    got, want = cs.char_sum_T(p), direct_t(n, m, h, q1, q1t, q2)
                    tol = cs.char_sum_T_tolerance(p)
                    if abs(want) < tol:
                        vanishing += 1
                        assert abs(got) < tol
                    else:
                        assert abs(got - want) <= 1e-9 * abs(want)
        # both branches ran: the vanishing laws and genuine values
        assert 0 < vanishing < 9 * len(ms)

    @pytest.mark.parametrize(
        "n,m,h,q1,q1t,q2", [(1, 2, 1, 101, 103, 211), (2, 101, 1, 101, 101, 211), (1, 3, 2, 101, 101, 211)]
    )
    def test_hundreds(self, n, m, h, q1, q1t, q2):
        p = tparams(n, m, h, q1, q1t, q2)
        got, want = cs.char_sum_T(p), direct_t(n, m, h, q1, q1t, q2)
        if q1 == q1t and m % q1:
            assert got == 0 and abs(want) < cs.char_sum_T_tolerance(p)
        else:
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_memory_is_linear_in_the_primes(self):
        # the full alpha-sum held length-q1 q1t q2 arrays: 159 MB here
        for q in (101, 103, 211):
            kloosterman_table(q)
        cs._alpha_factor.cache_clear()
        tracemalloc.start()
        try:
            cs.char_sum_T(tparams(1, 2, 1, 101, 103, 211))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestClosedForms:
    def crt_product(self, p):
        return (
            cs.t1_closed_form(p, "q1")
            * cs.t1_closed_form(p, "q1t")
            * cs.t2_sum(p.n, p.m, p.h, p.q1, p.q1t, p.q2)
        )

    @pytest.mark.parametrize(
        "n,m,h,q1,q1t,q2",
        [(1, 1, 1, 3, 5, 7), (2, 4, 3, 3, 5, 7), (3, 2, 4, 5, 7, 11), (1, 8, 2, 3, 7, 11)],
    )
    def test_crt_identity(self, n, m, h, q1, q1t, q2):
        p = tparams(n, m, h, q1, q1t, q2)
        direct = cs.char_sum_T(p)
        prod = self.crt_product(p)
        assert abs(direct - prod) < 1e-6 * max(1.0, abs(direct))

    def test_crt_sweep_small(self):
        # all prime triples with q1*q1t*q2 <= 3000 from a small pool
        pool = [3, 5, 7, 11, 13]
        rng = np.random.default_rng(11)
        for i, q1 in enumerate(pool):
            for q1t in pool[i + 1 :]:
                for q2 in (7, 11, 13, 17):
                    if q2 in (q1, q1t) or q1 * q1t * q2 > 3000:
                        continue
                    for _ in range(3):
                        n, h = (int(v) for v in rng.integers(1, 30, 2))
                        m = int(rng.integers(1, 30))
                        if math.gcd(m, q1 * q1t) != 1:
                            continue
                        p = tparams(n, m, h, q1, q1t, q2)
                        direct = cs.char_sum_T(p)
                        prod = self.crt_product(p)
                        assert abs(direct - prod) <= 1e-6 * max(1.0, abs(direct))

    def test_t1_zero_when_gcd(self):
        p = tparams(1, 3, 1, 3, 5, 7)
        assert cs.t1_closed_form(p, "q1") == 0j

    def test_t1_periodic_in_h(self):
        a = cs.t1_closed_form(tparams(1, 1, 2, 3, 5, 7), "q1")
        b = cs.t1_closed_form(tparams(1, 1, 2 + 3, 3, 5, 7), "q1")
        assert abs(a - b) < 1e-9

    @pytest.mark.parametrize(
        "big", [np.uint64(2 ** 63 + 5), 2 ** 70 + 3, -(2 ** 70)], ids=["uint64", "2_70", "minus_2_70"]
    )
    def test_t1_takes_any_integer_n_and_h(self, big):
        # a uint64 n raised OverflowError in -q2bar * n
        for n, h in [(big, 2), (1, big)]:
            for which in ("q1", "q1t"):
                got = cs.t1_closed_form(tparams(n, 2, h, 3, 5, 7), which)
                assert got == cs.t1_closed_form(tparams(int(n) % 105, 2, int(h) % 105, 3, 5, 7), which)

    def test_t1_matches_crt_factor(self):
        # extract the q1 factor by dividing T by the other two factors
        p = tparams(1, 1, 1, 3, 5, 7)
        direct = cs.char_sum_T(p)
        others = cs.t1_closed_form(p, "q1t") * cs.t2_sum(p.n, p.m, p.h, p.q1, p.q1t, p.q2)
        assert abs(direct / others - cs.t1_closed_form(p, "q1")) < 1e-6

    @pytest.mark.parametrize("big", [2 ** 62 + 3, 2 ** 63 + 5, -(2 ** 70)], ids=["2_62", "2_63", "minus_2_70"])
    def test_t2_reduces_before_multiplying(self, big):
        # an unreduced n, m or h wrapped or overflowed in the int64 phases
        for n, m, h in [(1, 2, big), (big, 2, 3), (1, big, 3)]:
            got = cs.t2_sum(n, m, h, P(3), P(5), P(7))
            assert got == cs.t2_sum(n % 7, m % 7, h % 7, P(3), P(5), P(7))

    def test_t2_weil_ceiling(self):
        # |T2| <= q2^3 always; <= 4 q2^{5/2} off the degenerate locus
        for q2 in (7, 11, 13, 17):
            for m in range(1, 8):
                v = abs(cs.t2_sum(1, m, 1, P(3), P(5), P(q2)))
                assert v <= q2 ** 3 + 1e-6
                if m % q2 != 0:
                    assert v <= 4.0 * q2 ** 2.5


class TestBoundCensus:
    def test_s_family_small(self):
        fam = cs.SCensusFamily(primes=(3, 5, 7), m2_max=4, n_max=4, h_max=4)
        rep = cs.bound_census(fam)
        assert rep.records
        assert rep.summary["max_ratio"] <= 8.0

    def test_t_family_vanishing_fraction(self):
        fam = cs.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=10)
        rep = cs.bound_census(fam)
        assert rep.summary["vanish_checked"] > 0
        assert rep.summary["vanish_passed"] == rep.summary["vanish_checked"]

    @pytest.mark.parametrize("diagonal", [False, True], ids=["offdiag", "diag"])
    def test_t_census_matches_scalar_loop(self, diagonal):
        fam = cs.TCensusFamily(q1_primes=(3, 5, 7), q2_primes=(11, 13), m_max=6, diagonal=diagonal)
        rep = cs.bound_census(fam)
        want, checked, passed = scalar_census_t(fam)
        got = rep.records
        assert len(got) == len(want) > 0
        for r, w in zip(got, want):
            assert list(r) == list(w)
            assert [r[k] for k in ("q1", "q1t", "q2", "n", "m", "h")] == [
                w[k] for k in ("q1", "q1t", "q2", "n", "m", "h")
            ]
            for k in ("abs_sum", "normalizer", "ratio"):
                assert r[k] == pytest.approx(w[k], rel=1e-12, abs=0)
        assert (rep.summary["vanish_checked"], rep.summary["vanish_passed"]) == (checked, passed)
        assert checked == passed
        assert (checked == 0) == diagonal  # the vanishing laws are off the diagonal only

    def test_empty_family(self):
        fam = cs.SCensusFamily(primes=(), m2_max=0, n_max=0, h_max=0)
        rep = cs.bound_census(fam)
        assert rep.records == []
        assert "max_ratio" not in rep.summary

    def test_zero_length_blocks(self):
        # each (q1, q2, m1) block is empty; the scalar q1, q2, m1 must not
        # broadcast to a row
        rep = cs.bound_census(cs.SCensusFamily(primes=(5, 7), h_max=0))
        assert rep.records == []
        assert [json.loads(line) for line in rep.to_jsonl().splitlines()] == [
            {"summary": {"n_records": 0}, "config_hash": rep.config_hash}
        ]

    @pytest.mark.parametrize("empty", [{"h_values": ()}, {"m_max": 0}], ids=["no_h", "no_m"])
    @pytest.mark.parametrize("diagonal", [False, True])
    def test_zero_length_t_blocks(self, empty, diagonal):
        # no (n, h) pair appends a block, or each appends an empty one
        rep = cs.bound_census(cs.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), diagonal=diagonal, **empty))
        assert rep.records == []
        assert [json.loads(line) for line in rep.to_jsonl().splitlines()] == [
            {"summary": {"n_records": 0, "vanish_checked": 0, "vanish_passed": 0}, "config_hash": rep.config_hash}
        ]

    def test_s_report_memory(self):
        # the benchmark's S family: 86,016 rows, 15.6 MB of JSON lines
        fam = cs.SCensusFamily(primes=(11, 13, 17, 19, 23, 29, 31), m2_max=8, n_max=8, h_max=8)
        tracemalloc.start()
        try:
            rep = cs.bound_census(fam)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = rep.to_jsonl()
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert held < 10_000_000
        assert peak < 3 * len(text)

    def test_progress_is_logged_at_debug_only(self, caplog):
        s_fam = cs.SCensusFamily(primes=(3, 5, 7), m2_max=2, n_max=2, h_max=2)
        t_fam = cs.TCensusFamily(q1_primes=(3, 5), q2_primes=(7, 11), m_max=3)
        with caplog.at_level(logging.INFO, logger="shiftconv"):
            quiet = [cs.bound_census(f).to_jsonl() for f in (s_fam, t_fam)]
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="shiftconv"):
            loud = [cs.bound_census(f).to_jsonl() for f in (s_fam, t_fam)]
        assert loud == quiet
        lines = [r.getMessage() for r in caplog.records if r.name == "shiftconv.charsums"]
        # one line per ordered prime pair of S, one per unordered T triple
        assert [line.split(":")[0] for line in lines] == [
            *(f"S census (q1, q2) = ({a}, {b})" for a in (3, 5, 7) for b in (3, 5, 7) if a != b),
            "T census (q1, q1t, q2) = (3, 5, 7)",
            "T census (q1, q1t, q2) = (3, 5, 11)",
        ]
        s_rows, t_rows = (json.loads(text.splitlines()[-1])["summary"]["n_records"] for text in loud)
        assert f": {s_rows} rows, " in lines[5] and f": {t_rows} rows, " in lines[-1]

    @pytest.mark.parametrize(
        "family,expected",
        [
            (cs.SCensusFamily(primes=(3, 5), m2_max=2, n_max=2, h_max=2), "c5dda30413aa27a5"),
            (cs.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=10), "513a8521a3cb9363"),
            (cs.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=10, diagonal=True), "936fe33e8317485a"),
        ],
    )
    def test_config_hash_golden(self, family, expected):
        # reports are keyed by this hash; a change re-keys every stored report
        assert cs.bound_census(family).config_hash == expected

    def test_jsonl_has_hash(self):
        fam = cs.SCensusFamily(primes=(3, 5), m2_max=2, n_max=2, h_max=2)
        rep = cs.bound_census(fam)
        lines = [json.loads(line) for line in rep.to_jsonl().splitlines()]
        assert len(lines) == len(rep.records) + 1
        assert all(line["config_hash"] == rep.config_hash for line in lines)
