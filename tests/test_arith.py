"""Unit tests for exact arithmetic, against independent brute-force oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_kloosterman, divisors, ramanujan_sum
from shiftconv import arith
from shiftconv.errors import EmptyRange, InvalidDivisor


def brute_phi(q):
    return sum(1 for a in range(q) if math.gcd(a, q) == 1) if q > 1 else 1


def brute_ramanujan(q, n):
    s = sum(
        np.exp(2j * np.pi * a * n / q) for a in range(q) if math.gcd(a, q) == 1
    )
    return s if q > 1 else 1.0 + 0j


def kl(a, b, q):
    """S(a, b; q) read from the production row as K[a b], for a a unit mod q."""
    assert math.gcd(a, q) == 1
    return arith.kloosterman_table(q)[a * b % q]


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


class TestKloosterman:
    def test_empty_modulus(self):
        assert kl(5, 9, 1) == 1.0 + 0j

    def test_brute_force_example(self):
        assert abs(kl(1, 1, 3) - (-1.0)) < 1e-12
        assert abs(brute_kloosterman(1, 1, 3) - (-1.0)) < 1e-12

    @given(st.integers(2, 80), st.integers(0, 80))
    @settings(max_examples=60)
    def test_degenerates_to_ramanujan(self, q, a):
        # S(a, 0; q) = c_q(a); the row reads it for a unit a
        assume(math.gcd(a, q) == 1)
        assert abs(kl(a, 0, q) - ramanujan_sum(q, a)) < 1e-9

    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80)
    def test_symmetry(self, q, a, b):
        # the row read at (a, b) is the direct sum at (b, a)
        assume(math.gcd(a, q) == 1)
        assert abs(kl(a, b, q) - brute_kloosterman(b, a, q)) < 1e-9

    def test_real_valued(self):
        for q in range(1, 61):
            assert np.abs(arith.kloosterman_table(q).imag).max() < 1e-9

    def test_multiplicativity(self):
        # S(a,b;q1 q2) = S(a q2bar^2, b; q1) S(a q1bar^2, b; q2), (q1,q2)=1
        rng = np.random.default_rng(7)
        pairs = [(3, 5), (4, 9), (7, 8), (5, 13), (9, 11), (16, 25), (27, 35)]
        for q1, q2 in pairs:
            if q1 * q2 > 1000:
                continue
            for _ in range(4):
                a = int(rng.choice(arith.unit_residues(q1 * q2)))
                b = int(rng.integers(0, q1 * q2))
                lhs = kl(a, b, q1 * q2)
                r1 = kl(a * pow(q2, -2, q1), b, q1)
                r2 = kl(a * pow(q1, -2, q2), b, q2)
                assert abs(lhs - r1 * r2) < 1e-7

    def test_table_matches_scalar(self):
        for q in (1, 5, 12, 15):
            for a in (1, q - 1):
                for b in (0, 2):
                    assert abs(kl(a, b, q) - brute_kloosterman(a, b, q)) < 1e-10

    def test_table_matches_brute_force_at_211(self):
        q = 211
        for a, b in np.random.default_rng(211).integers(1, q, (12, 2)):
            assert abs(kl(int(a), int(b), q) - brute_kloosterman(int(a), int(b), q)) < 1e-9

    @pytest.mark.parametrize("q", [1, 5, 12, 15, 211])
    def test_row_is_every_sum_with_a_unit(self, q):
        # K[a b] = S(a, b; q) at every (a, b) with a a unit; term by term
        # below q = 211, and there (44,310 pairs) by the matrix sum, with
        # K[c] = S(1, c; q) term by term at every c
        row = arith.kloosterman_table(q)
        assert row.shape == (q,)
        units = arith.unit_residues(q)
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
            assert np.abs(row[arith.unit_residues(p)]).max() <= 2.0 * np.sqrt(p) + 1e-9


@pytest.mark.parametrize("table", [arith.unit_residues, arith.unit_inverses, arith.kloosterman_table])
def test_cached_tables_are_read_only(table):
    # a write would change every later caller's result
    t = table(7)
    with pytest.raises(ValueError):
        t += 0


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
