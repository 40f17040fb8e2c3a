"""Unit tests for exact arithmetic, against independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    """S(a, b; q) read from the production table."""
    return arith.kloosterman_table(q)[a % q, b % q]


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
    def test_degenerates_to_ramanujan(self, q, b):
        assert abs(kl(0, b, q) - ramanujan_sum(q, b)) < 1e-9

    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80)
    def test_symmetry(self, q, a, b):
        assert abs(kl(a, b, q) - kl(b, a, q)) < 1e-9

    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=80)
    def test_real_valued(self, q, a, b):
        assert abs(kl(a, b, q).imag) < 1e-9

    def test_multiplicativity(self):
        # S(a,b;q1 q2) = S(a q2bar^2, b; q1) S(a q1bar^2, b; q2), (q1,q2)=1
        rng = np.random.default_rng(7)
        pairs = [(3, 5), (4, 9), (7, 8), (5, 13), (9, 11), (16, 25), (27, 35)]
        for q1, q2 in pairs:
            if q1 * q2 > 1000:
                continue
            for _ in range(4):
                a, b = map(int, rng.integers(0, q1 * q2, 2))
                lhs = kl(a, b, q1 * q2)
                r1 = kl(a * pow(q2, -2, q1), b, q1)
                r2 = kl(a * pow(q1, -2, q2), b, q2)
                assert abs(lhs - r1 * r2) < 1e-7

    def test_table_matches_scalar(self):
        for q in (1, 5, 12, 15):
            t = arith.kloosterman_table(q)
            for a in (0, 1, q - 1):
                for b in (0, 2):
                    assert abs(t[a % q, b % q] - brute_kloosterman(a, b, q)) < 1e-10

    def test_table_matches_brute_force_at_211(self):
        q = 211
        t = arith.kloosterman_table(q)
        for a, b in np.random.default_rng(211).integers(0, q, (12, 2)):
            assert abs(t[a, b] - brute_kloosterman(int(a), int(b), q)) < 1e-9

    def test_weil_bound_small(self):
        for p in (3, 5, 7, 11, 13):
            t = arith.kloosterman_table(p)
            units = arith.unit_residues(p)
            sub = np.abs(t[np.ix_(units, units)])
            assert sub.max() <= 2.0 * np.sqrt(p) + 1e-9


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
