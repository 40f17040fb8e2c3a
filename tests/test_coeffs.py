"""Coefficient-table tests: eta-product integers, Hecke structure, lift oracle."""

import functools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gl3_first_row_by_primes, kronecker_delta_integers

from shiftconv import coeffs
from shiftconv.arith import primes_between
from shiftconv.errors import InsufficientBase, OutOfRange, UnsupportedWeight

# First integer coefficients of the weight-12 form (classical, hand-checkable
# via a(mn) = a(m)a(n) for coprime m,n and a(p^2) = a(p)^2 - p^11).
KNOWN_A = {
    1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
    8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944,
    13: -577738, 14: 401856, 15: 1217160, 16: 987136, 17: -6905934,
    18: 2727432, 19: 10661420, 20: -7109760, 24: 21288960, 25: -25499225,
}


def oracle_delta_integers(N):
    """a(1..N) from Euler's pentagonal series, independent of coeffs.

    prod(1 - q^n) = sum over k in Z of (-1)^k q^{k(3k-1)/2}; its 24th power
    is built by 24 sparse x dense products of exact integers, with neither
    Jacobi's identity nor Kronecker substitution.  a(n) is the coefficient
    of q^{n-1}.
    """
    pentagonal = [(k * (3 * k - 1) // 2, -1 if k % 2 else 1) for k in range(-N, N + 1)]
    pentagonal = [(g, s) for g, s in pentagonal if g < N]
    power = np.array([1] + [0] * (N - 1), dtype=object)
    for _ in range(24):
        nxt = np.array([0] * N, dtype=object)
        for g, s in pentagonal:
            nxt[g:] += s * power[: N - g]
        power = nxt
    return [0] + power.tolist()


@functools.lru_cache(maxsize=None)
def fixed_width_reference(N):
    return kronecker_delta_integers(N)


def hecke_inequality_check(table, q1, m2):
    """|lam(m2,q1)|^2 <= 2 |lam(m2,1)|^2 |lam(q1,1)|^2 + 2 |lam(m2/q1,1)|^2.

    The last term drops out when q1 does not divide m2.
    """
    lhs = table.lam(m2, q1) ** 2
    rhs = 2.0 * table.lam(m2, 1) ** 2 * table.lam(q1, 1) ** 2
    if m2 % q1 == 0:
        rhs += 2.0 * table.lam(m2 // q1, 1) ** 2
    return lhs <= rhs + 1e-9 * (1.0 + abs(rhs))


def limb_values(limbs, bits):
    """The integers sum_k limbs[k] 2^(bits k) held column by column."""
    return [sum(int(d) << bits * k for k, d in enumerate(col)) for col in limbs.T]


# values for the limb round trip, given the largest |c| a width allows
CODEC_CASES = {
    "extremes": lambda top: [top, -top, top, -top],
    "extremes_between_zeros": lambda top: [-top, 0, 0, top, 0],
    "all_zero": lambda top: [0] * 6,
    "seeded_random": lambda top: [random.Random(7).randrange(-top, top + 1) for _ in range(50)],
}


@pytest.fixture(scope="module")
def gl2():
    return coeffs.build_gl2_table(12, 4000)


@pytest.fixture(scope="module")
def gl2_50k():
    return coeffs.build_gl2_table(12, 50_000)


@pytest.fixture(scope="module")
def gl3(gl2):
    return coeffs.build_gl3_sym2_table(gl2, 4000)


class TestGL2:
    def test_known_integers(self, gl2):
        for n, a in KNOWN_A.items():
            assert gl2.integer_values[n] == a

    def test_matches_pentagonal_oracle(self):
        got = coeffs.weight12_integer_coefficients(1000)
        want = oracle_delta_integers(1000)
        assert all(type(a) is int for a in want)
        assert got == want

    @pytest.mark.parametrize("N", [1, 2, 3, 1000, 6000, 20_000])
    def test_matches_fixed_width_reference(self, N):
        got = coeffs.weight12_integer_coefficients(N)
        assert got == fixed_width_reference(N)

    def test_slot_widths_bound_every_kept_coefficient(self, monkeypatch):
        # per squaring: max |c_n| <= B = sum a_i^2 < 2^(L K - 2), K the least
        # such limb count, and L = 15 bits at N = 6000
        seen = []
        square = coeffs._square

        def spy(limbs, M, bits, K):
            out = square(limbs, M, bits, K)
            B = sum(v * v for v in limb_values(limbs, bits))
            seen.append((B, bits, K, max(abs(v) for v in limb_values(out, bits))))
            return out

        monkeypatch.setattr(coeffs, "_square", spy)
        assert coeffs.weight12_integer_coefficients(6000) == fixed_width_reference(6000)
        assert [(bits, K) for _, bits, K, _ in seen] == [(15, 2), (15, 3), (15, 6)]
        for B, bits, K, top in seen:
            assert top <= B < 2 ** (bits * K - 2) and B >= 2 ** (bits * (K - 1) - 2)

    def test_too_narrow_last_slot_fails_the_reference(self, monkeypatch):
        # mutation check: one limb fewer in the last squaring.  At N = 1000 the
        # last square takes 4 limbs of 17 bits and max |a(n)| >= 2^55, so 3
        # limbs cut coefficients, and the reference comparison must catch it.
        # (At N = 6000, B < 2^78 while max |a(n)| < 2^70: a spare limb.)
        counts = []
        square = coeffs._square

        def one_fewer_last(limbs, M, bits, K):
            counts.append((bits, K))
            return square(limbs, M, bits, K - 1 if len(counts) == 3 else K)

        monkeypatch.setattr(coeffs, "_square", one_fewer_last)
        got = coeffs.weight12_integer_coefficients(1000)
        assert counts[-1] == (17, 4)
        assert max(abs(a) for a in fixed_width_reference(1000)) >= 2 ** 55
        assert got != fixed_width_reference(1000)

    @pytest.mark.parametrize("bits", [9, 12, 15, 17])
    def test_limb_count_is_the_least_that_holds(self, bits):
        # K is the least count with bound < 2^(bits K - 2), and K limbs carry
        # +-bound at that edge back exactly
        for K in range(1, 5):
            top = 2 ** (bits * K - 2) - 1
            assert coeffs._limb_count(top, bits) == K and coeffs._limb_count(top + 1, bits) == K + 1
            values = [top, -top, 0]
            diagonals = [np.array([(v >> bits * k) & (2 ** bits - 1) for v in values]) for k in range(K - 1)]
            diagonals.append(np.array([v >> bits * (K - 1) for v in values]))
            assert limb_values(coeffs._carry(diagonals, bits, K), bits) == values

    def test_too_wide_limbs_raise_before_any_transform(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("transform started")

        limb_bits = coeffs._limb_bits
        monkeypatch.setattr(coeffs, "_limb_bits", lambda N, M, top: limb_bits(N, M, top) + 1)
        monkeypatch.setattr(np.fft, "rfft", fail)
        monkeypatch.setattr(np.fft, "irfft", fail)
        for N in (1, 1000, 6000):
            with pytest.raises(FloatingPointError):
                coeffs.weight12_integer_coefficients(N)

    def test_rounding_residual_above_a_quarter_raises(self, monkeypatch):
        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: irfft(*args, **kwargs) + 0.3)
        with pytest.raises(FloatingPointError):
            coeffs.weight12_integer_coefficients(1000)

    @pytest.mark.parametrize("N", [1, 2, 3, 1000, 6000, 20_000, 100_000, 3_000_000])
    def test_limb_width_keeps_the_rounding_bound(self, N):
        # the chosen width holds the bound at the largest limb count, one more bit does not
        M = 1 << (2 * N - 2).bit_length()
        series = coeffs._eta_cube_terms(N)
        top = N * int(series @ series) ** 2
        bits = coeffs._limb_bits(N, M, top)
        assert coeffs._rounding_bound(N, M, bits, coeffs._limb_count(top, bits)) < 0.25
        assert coeffs._rounding_bound(N, M, bits + 1, coeffs._limb_count(top, bits + 1)) >= 0.25
        assert bits >= 12 or N > 6000

    def test_lambda_one(self, gl2):
        assert gl2.lam(1) == 1.0

    def test_lambda_two(self, gl2):
        assert gl2.lam(2) == pytest.approx(-24 / 2 ** 5.5, abs=1e-12)
        assert gl2.lam(2) == pytest.approx(-0.530330, abs=1e-6)

    def test_multiplicativity_example(self, gl2):
        assert gl2.lam(6) == pytest.approx(gl2.lam(2) * gl2.lam(3), rel=1e-12)

    @given(st.integers(2, 60), st.integers(2, 60))
    @settings(max_examples=60)
    def test_multiplicativity(self, gl2, m, n):
        if np.gcd(m, n) != 1:
            return
        assert gl2.lam(m * n) == pytest.approx(gl2.lam(m) * gl2.lam(n), rel=1e-10, abs=1e-12)

    def test_hecke_recursion_residual(self, gl2):
        for p in (2, 3, 5, 7, 11, 13):
            j = 1
            while p ** (j + 1) <= gl2.N:
                resid = abs(
                    gl2.lam(p ** (j + 1))
                    - gl2.lam(p) * gl2.lam(p ** j)
                    + gl2.lam(p ** (j - 1))
                )
                assert resid < 1e-10
                j += 1

    def test_deligne_bound(self, gl2):
        for p in range(2, gl2.N + 1):
            if coeffs.np.all([p % d for d in range(2, int(p ** 0.5) + 1)]):
                assert abs(gl2.lam(p)) <= 2.0 + 1e-12

    def test_unsupported_weight(self):
        with pytest.raises(UnsupportedWeight):
            coeffs.build_gl2_table(16, 10)

    def test_out_of_range(self, gl2):
        with pytest.raises(OutOfRange):
            gl2.lam(gl2.N + 1)

    def test_numpy_integers_accepted(self, gl2):
        small = coeffs.build_gl2_table(12, np.int64(30))
        assert type(small.N) is int
        assert small.integer_values == gl2.integer_values[:31]
        assert gl2.lam(np.int64(6)) == gl2.lam(6)
        assert coeffs.rankin_selberg_average(gl2, np.int64(100)) == coeffs.rankin_selberg_average(gl2, 100)
        gl3 = coeffs.build_gl3_sym2_table(gl2, np.int32(30))
        assert type(gl3.N) is int
        assert gl3.lam(np.int64(2), np.uint8(3)) == gl3.lam(2, 3)

    def test_slot_limit_raises_before_encoding(self, monkeypatch):
        def fail(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(coeffs, "_eta_cube_terms", fail)
        monkeypatch.setattr(coeffs, "_square", fail)
        with pytest.raises(OutOfRange):
            coeffs.weight12_integer_coefficients(3_000_001)


    @pytest.mark.parametrize(
        "kind,bits",
        # 128-bit ids are the bare case names, so existing test ids stay stable
        [pytest.param(k, b, id=k if b == 128 else f"{k}_{b}") for b in (24, 48, 80, 128) for k in CODEC_CASES],
    )
    def test_slot_codec_round_trips(self, kind, bits):
        # values of up to `bits` bits, as unsigned 15-bit diagonals with a
        # signed top one, carried into balanced 15-bit limbs and back
        values, width = CODEC_CASES[kind](2 ** (bits - 1) - 1), 15
        K = coeffs._limb_count(2 ** (bits - 1) - 1, width)
        diagonals = [np.array([(v >> width * k) & (2 ** width - 1) for v in values]) for k in range(K - 1)]
        diagonals.append(np.array([v >> width * (K - 1) for v in values]))
        limbs = coeffs._carry(diagonals, width, K)
        assert np.abs(limbs).max() <= 2 ** (width - 1)
        assert limb_values(limbs, width) == values


class TestGL3:
    def test_normalization(self, gl3):
        assert gl3.lam(1, 1) == 1.0

    def test_lift_at_two(self, gl3, gl2):
        expect = gl2.lam(2) ** 2 - 1.0
        assert gl3.lam(1, 2) == pytest.approx(expect, rel=1e-12)
        assert gl3.lam(1, 2) == pytest.approx(-0.718750, abs=1e-6)

    def test_self_duality_example(self, gl3):
        assert gl3.lam(2, 1) == gl3.lam(1, 2)

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=80)
    def test_self_duality(self, gl3, m1, m2):
        if m1 * m2 > gl3.N:
            return
        assert gl3.lam(m1, m2) == pytest.approx(gl3.lam(m2, m1), rel=1e-10, abs=1e-12)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=60)
    def test_multiplicativity_coprime_supports(self, gl3, a1, a2, b1, b2):
        if np.gcd(a1 * a2, b1 * b2) != 1 or a1 * b1 * a2 * b2 > gl3.N:
            return
        lhs = gl3.lam(a1 * b1, a2 * b2)
        rhs = gl3.lam(a1, a2) * gl3.lam(b1, b2)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_jacobi_trudi_oracle(self, gl3, gl2):
        # lam(p^r, p^s) = H_{r+s} H_s - H_{r+s+1} H_{s-1} (H_{-1} = 0), H_k from
        # the Satake parameters: checks lam's self-duality and Hecke relation
        for p in (2, 3, 5, 7, 13, 61):
            kmax = 0
            while p ** (kmax + 1) <= gl3.N:
                kmax += 1
            H = coeffs.sym2_local_expansion(gl2.lam(p), kmax + 1)
            H = np.append(H, 0.0)  # so H[-1] = 0
            for r in range(kmax + 1):
                for s in range(kmax + 1 - r):
                    want = H[r + s] * H[s] - H[r + s + 1] * H[s - 1]
                    assert gl3.lam(p ** r, p ** s) == pytest.approx(want, rel=0, abs=1e-9)

    def test_first_row_matches_lam(self, gl3):
        # lam(1, n) is the row itself: the Hecke sum has the one term d = 1
        lam = np.array([gl3.lam(1, n) for n in range(1, gl3.N + 1)])
        assert np.array_equal(gl3.first_row[1:], lam)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 25, 6000, 50_000])  # 25 = 5^2 keeps 5 in the loop
    def test_first_row_is_bit_identical_to_the_prime_by_prime_sieve(self, gl2_50k, N):
        got = coeffs.build_gl3_sym2_table(gl2_50k, N).first_row
        want = gl3_first_row_by_primes(gl2_50k.values, N)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_large_primes_square_by_product(self):
        # at every prime p > sqrt(N), lam(1, p) = c c - (c (c - 1) + 0.0) 1.0
        # with c = v v - 1, v = lambda2(p), in Python floats; with glibc's
        # pow, v ** 2 in place of v * v misses at 7 of these 9,527 primes
        N = 100_000
        gl2 = coeffs.build_gl2_table(12, N)
        row = coeffs.build_gl3_sym2_table(gl2, N).first_row
        primes = [p for p in primes_between(2, N) if p * p > N]
        assert len(primes) == 9527
        for p in primes:
            v = gl2.lam(p)
            c = v * v - 1.0
            assert row[p] == c * c - (c * (c - 1.0) + 0.0) * 1.0, p

    def test_insufficient_base(self, gl2):
        with pytest.raises(InsufficientBase):
            coeffs.build_gl3_sym2_table(gl2, gl2.N + 1)

    def test_first_row_is_read_only(self, gl3):
        # lam reads the row; a write would change every later lam
        with pytest.raises(ValueError):
            gl3.first_row[2] = 0.0
        assert gl3.lam(1, 2) == pytest.approx(-0.718750, abs=1e-6)

    def test_table_holds_only_its_first_row(self, gl2):
        tracemalloc.start()
        try:
            table = coeffs.build_gl3_sym2_table(gl2, 4000)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1.5 * table.first_row.nbytes


class TestRankinSelberg:
    def test_x_one(self, gl3):
        assert coeffs.rankin_selberg_average(gl3, 1) == 1.0

    def test_band_at_1000(self, gl3):
        v = coeffs.rankin_selberg_average(gl3, 1000)
        assert 0.1 < v < 10.0

    def test_gl2_band(self, gl2):
        v = coeffs.rankin_selberg_average(gl2, 1000)
        assert 0.1 < v < 10.0

    def test_no_growth_trend(self, gl3):
        # normalized averages on a dyadic grid should not trend like x^0.2
        xs = 2 ** np.arange(5, 12)
        vals = np.array([coeffs.rankin_selberg_average(gl3, int(x)) for x in xs])
        slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
        assert abs(slope) < 0.2

    def test_out_of_range(self, gl3):
        with pytest.raises(OutOfRange):
            coeffs.rankin_selberg_average(gl3, gl3.N + 1)


class TestHeckeInequality:
    def test_example_coprime(self, gl3):
        assert hecke_inequality_check(gl3, 2, 3)

    def test_example_divisible(self, gl3):
        assert hecke_inequality_check(gl3, 2, 2)

    def test_reduces_to_trivial(self, gl3):
        # m2 = 1: |lam(1,q1)|^2 <= 2 |lam(q1,1)|^2 by self-duality
        assert hecke_inequality_check(gl3, 5, 1)

    def test_sweep(self, gl3):
        for q1 in (2, 3, 5, 7, 11):
            for m2 in range(1, 200):
                if q1 * m2 <= gl3.N:
                    assert hecke_inequality_check(gl3, q1, m2)
