"""Unit tests for exact arithmetic, against independent brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_kloosterman, divisors, ramanujan_sum
from shiftconv import arith
from shiftconv.errors import EmptyRange, InvalidDivisor, OutOfRange

PRIMES_TO_60 = [p for p in range(2, 61) if all(p % d for d in range(2, p))]


def brute_phi(q):
    return sum(1 for a in range(q) if math.gcd(a, q) == 1) if q > 1 else 1


def brute_ramanujan(q, n):
    s = sum(
        np.exp(2j * np.pi * a * n / q) for a in range(q) if math.gcd(a, q) == 1
    )
    return s if q > 1 else 1.0 + 0j


def kl(a, b, p):
    """S(a, b; p) read from the production row as K[a b], for a a unit mod the prime p."""
    assert a % p != 0
    return arith.kloosterman_table(p)[a * b % p]


def direct_kloosterman_grid(q):
    """S(a, b; q) at every (a, b) mod q: the sum over the units x of
    e_q(a x) e_q(b xbar) as a product of two q x phi(q) matrices."""
    x = np.array([v for v in range(q) if math.gcd(v, q) == 1])
    xb = np.array([pow(int(v), -1, q) for v in x])
    r = np.arange(q)[:, None]
    return np.exp(2j * np.pi * (r * x % q) / q) @ np.exp(2j * np.pi * (r * xb % q) / q).T


def brute_is_prime(p):
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


class TestFactorize:
    @staticmethod
    def check(n):
        pairs = arith.factorize(n)
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes))
        assert all(brute_is_prime(p) and e >= 1 for p, e in pairs)
        assert math.prod(p**e for p, e in pairs) == n

    def test_every_n_up_to_5000(self):
        for n in range(1, 5001):
            self.check(n)

    @pytest.mark.parametrize("n", [2**31 - 1, 2**31])
    def test_near_2_pow_31(self, n):
        self.check(n)


class TestEulerPhi:
    def test_examples(self):
        assert arith.euler_phi(1) == 1
        assert arith.euler_phi(12) == brute_phi(12) == 4

    @pytest.mark.parametrize("p", [2, 3, 31, 97])
    def test_prime(self, p):
        assert arith.euler_phi(p) == p - 1

    @given(st.integers(1, 2000))
    @settings(max_examples=60)
    def test_unit_count_oracle(self, q):
        assert arith.euler_phi(q) == brute_phi(q)


class TestRamanujanSum:
    def test_q_one(self):
        assert ramanujan_sum(1, 17) == 1

    def test_direct_sum_oracle(self):
        assert ramanujan_sum(3, 1) == -1
        assert abs(brute_ramanujan(3, 1) - (-1)) < 1e-12

    def test_divisor_mobius_example(self):
        # d | gcd(4,6) in {1,2}: 1*mu(6) + 2*mu(3) = 1 - 2 = -1
        assert ramanujan_sum(6, 4) == -1

    def test_n_zero_gives_phi(self):
        assert ramanujan_sum(12, 0) == arith.euler_phi(12)

    @given(st.integers(1, 120), st.integers(-120, 120))
    @settings(max_examples=80)
    def test_matches_exponential_sum(self, q, n):
        assert abs(ramanujan_sum(q, n) - brute_ramanujan(q, n)) < 1e-9

    def test_bound_census(self):
        # |c_q(n)| <= sum_{d | (n,q)} d, exhaustively at small scale
        for q in range(1, 201):
            for n in range(-200, 201, 7):
                bound = sum(divisors(math.gcd(abs(n), q)))
                assert abs(ramanujan_sum(q, n)) <= bound


class TestUnitInverses:
    def test_every_inverse_at_1000003(self):
        p = 1_000_003
        inv = arith.unit_inverses(p)
        assert inv.shape == (p,) and inv.dtype == np.int64 and inv[0] == 0
        assert (np.arange(1, p) * inv[1:] % p == 1).all()

    def test_matches_pow_at_seeded_values(self):
        p = 1_000_003
        a = np.random.default_rng(17).integers(1, p, 1000)
        assert arith.unit_inverses(p)[a].tolist() == [pow(int(v), -1, p) for v in a]

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
    def test_small_primes(self, p):
        assert arith.unit_inverses(p).tolist() == [0] + [pow(a, -1, p) for a in range(1, p)]

    @pytest.mark.parametrize("table", [arith.unit_inverses, arith.kloosterman_table])
    @pytest.mark.parametrize(
        "p,error", [(0, OutOfRange), (1, OutOfRange), (3_037_000_501, OutOfRange), (15, InvalidDivisor)]
    )
    def test_rejects_p_outside_the_primes_it_holds(self, table, p, error):
        # 3,037,000,500 is the largest p with (p - 1)^2 below 2^63
        with pytest.raises(error):
            table(p)

    @pytest.mark.parametrize("table", [arith.unit_inverses, arith.kloosterman_table])
    def test_bound_is_checked_before_allocating(self, table):
        # one int64 array of length 3,037,000,501 would take 24 GB
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                table(3_037_000_501)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestKloosterman:
    def test_empty_modulus(self):
        # S(a, b; 1) = 1 is the empty product of the oracle and char_sum_S;
        # the row exists only at a prime
        assert brute_kloosterman(5, 9, 1) == 1.0 + 0j
        with pytest.raises(OutOfRange):
            arith.kloosterman_table(1)

    def test_brute_force_example(self):
        assert abs(kl(1, 1, 3) - (-1.0)) < 1e-12
        assert abs(brute_kloosterman(1, 1, 3) - (-1.0)) < 1e-12

    @given(st.sampled_from(PRIMES_TO_60), st.integers(0, 80))
    @settings(max_examples=60)
    def test_degenerates_to_ramanujan(self, p, a):
        # S(a, 0; p) = c_p(a); the row reads it for a unit a
        assume(a % p != 0)
        assert abs(kl(a, 0, p) - ramanujan_sum(p, a)) < 1e-9

    @given(st.sampled_from(PRIMES_TO_60), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80)
    def test_symmetry(self, p, a, b):
        # the row read at (a, b) is the direct sum at (b, a)
        assume(a % p != 0)
        assert abs(kl(a, b, p) - brute_kloosterman(b, a, p)) < 1e-9

    def test_real_valued(self):
        for p in PRIMES_TO_60:
            assert np.abs(arith.kloosterman_table(p).imag).max() < 1e-9

    def test_multiplicativity(self):
        # S(a,b;q1 q2) = S(a q2bar^2, b; q1) S(a q1bar^2, b; q2), (q1,q2)=1:
        # the composite side term by term, the prime factors from the row
        rng = np.random.default_rng(7)
        for q1, q2 in [(2, 3), (3, 5), (5, 13), (7, 11), (11, 13), (13, 61), (29, 31)]:
            q = q1 * q2
            units = [x for x in range(q) if math.gcd(x, q) == 1]
            for _ in range(4):
                a = int(rng.choice(units))
                b = int(rng.integers(0, q))
                lhs = brute_kloosterman(a, b, q)
                r1 = kl(a * pow(q2, -2, q1), b, q1)
                r2 = kl(a * pow(q1, -2, q2), b, q2)
                assert abs(lhs - r1 * r2) < 1e-7

    def test_table_matches_scalar(self):
        for q in (2, 3, 5, 13):
            for a in (1, q - 1):
                for b in (0, 2):
                    assert abs(kl(a, b, q) - brute_kloosterman(a, b, q)) < 1e-10

    def test_table_matches_brute_force_at_211(self):
        q = 211
        for a, b in np.random.default_rng(211).integers(1, q, (12, 2)):
            assert abs(kl(int(a), int(b), q) - brute_kloosterman(int(a), int(b), q)) < 1e-9

    @pytest.mark.parametrize("q", [2, 3, 5, 211])
    def test_row_is_every_sum_with_a_unit(self, q):
        # K[a b] = S(a, b; q) at every (a, b) with a a unit; term by term
        # below q = 211, and there (44,310 pairs) by the matrix sum, with
        # K[c] = S(1, c; q) term by term at every c
        row = arith.kloosterman_table(q)
        assert row.shape == (q,)
        units = np.arange(1, q)
        got = row[units[:, None] * np.arange(q) % q]
        if q < 211:
            want = [[brute_kloosterman(int(a), b, q) for b in range(q)] for a in units]
        else:
            assert np.abs(row - [brute_kloosterman(1, c, q) for c in range(q)]).max() < 1e-9
            want = direct_kloosterman_grid(q)[units]
        assert np.abs(got - want).max() < 1e-9

    def test_row_memory_is_linear(self):
        # the q x q table it replaced peaked at 40.7 MB here
        arith.unit_inverses(1009)
        tracemalloc.start()
        try:
            arith.kloosterman_table.__wrapped__(1009)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_weil_bound_small(self):
        # |S(a, b; p)| <= 2 sqrt(p) for a, b units: K at the units
        for p in (3, 5, 7, 11, 13):
            row = arith.kloosterman_table(p)
            assert np.abs(row[1:]).max() <= 2.0 * np.sqrt(p) + 1e-9


@pytest.mark.parametrize("table", [arith.unit_inverses, arith.kloosterman_table])
def test_cached_tables_are_read_only(table):
    # a write would change every later caller's result
    t = table(7)
    with pytest.raises(ValueError):
        t += 0


@pytest.mark.parametrize("table", [arith.unit_inverses, arith.kloosterman_table])
def test_cached_tables_take_numpy_integers(table):
    # pow(a, -1, np.int64(q)) raised TypeError inside unit_inverses
    assert np.array_equal(table(np.int64(11)), table(11))


class TestPrimesInDyadic:
    def test_sieve_examples(self):
        assert arith.primes_in_dyadic(10, 1) == (11, 13, 17, 19)
        assert arith.primes_in_dyadic(10, 11) == (13, 17, 19)
        assert arith.primes_in_dyadic(2, 1) == (2, 3)

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            arith.primes_in_dyadic(2, 6)  # excludes both 2 and 3

    def test_zero_shift_excludes_nothing(self):
        assert arith.primes_in_dyadic(3, 0) == (3, 5)

    @given(st.integers(2, 400))
    @settings(max_examples=40)
    def test_against_sieve(self, Q):
        sieve = np.ones(2 * Q + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int((2 * Q) ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        expect = [p for p in range(Q, 2 * Q + 1) if sieve[p]]
        assert arith.primes_in_dyadic(Q, 1) == tuple(expect)

    # every Q to 60, then spot sizes to 10^4 (primes, powers of two and
    # their neighbours); exclude 0, 1 and composites whose primes lie in, or
    # straddle, the segments
    SIEVE_QS = [*range(2, 61), 97, 128, 255, 256, 257, 1000, 1024, 2003, 4095, 4096, 7919, 9973, 10_000]

    @pytest.mark.parametrize("Q", SIEVE_QS)
    def test_sieve_matches_trial_division(self, Q):
        primes = [p for p in range(Q, 2 * Q + 1) if arith.is_prime(p)]  # the trial-division list
        for exclude in (0, 1, 6, 2 * 3 * 5 * 7 * 11 * 13, math.prod(primes[::2]), primes[0] * primes[-1] * 4):
            expect = tuple(p for p in primes if exclude == 0 or exclude % p != 0)
            if expect:
                assert arith.primes_in_dyadic(Q, exclude) == expect
            else:
                with pytest.raises(EmptyRange):
                    arith.primes_in_dyadic(Q, exclude)

    @pytest.mark.parametrize(
        "lo,hi", [(2, 1), (2, 0), (2, -1), (7, 3), (2, 2), (3, 3), (4, 4), (10, 9), (2, 100), (90, 97), (7919, 7919)]
    )
    def test_primes_between_edges(self, lo, hi):
        got = arith.primes_between(lo, hi)
        assert got == [p for p in range(lo, hi + 1) if arith.is_prime(p)]
        assert all(type(p) is int for p in got)


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 5, 97, 7919, 2**31 - 1])
    def test_primes(self, n):
        assert arith.is_prime(n)

    # Carmichael numbers (561, 1105, 1729, 41041) and strong pseudoprimes to
    # base 2 (2047, 3277, 4033) and to bases 2, 3, 5, 7 (3215031751)
    @pytest.mark.parametrize(
        "n", [0, 1, 4, 100, 7917, 2**31, 561, 1105, 1729, 2047, 3277, 4033, 41041, 3215031751]
    )
    def test_composites(self, n):
        assert not arith.is_prime(n)

    def test_prime_modulus_rejects_composite(self):
        with pytest.raises(InvalidDivisor):
            arith.PrimeModulus(15)
