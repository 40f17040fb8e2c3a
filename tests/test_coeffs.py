"""Coefficient-table tests: eta-product integers, Hecke structure, lift oracle."""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kronecker_delta_integers

from shiftconv import coeffs
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


# slot contents for the codec round trip, given the largest |c| a width allows
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
        # per squaring: max |c_n| <= B = sum a_i^2 < 2^(w-1), w the least whole-byte width
        seen = []
        encode, decode = coeffs._encode, coeffs._decode

        def spy_encode(series, bits):
            seen.append([sum(c * c for c in series), bits])
            return encode(series, bits)

        def spy_decode(value, length, bits):
            out = decode(value, length, bits)
            seen[-1].append(max(abs(c) for c in out))
            return out

        monkeypatch.setattr(coeffs, "_encode", spy_encode)
        monkeypatch.setattr(coeffs, "_decode", spy_decode)
        assert coeffs.weight12_integer_coefficients(6000) == fixed_width_reference(6000)
        assert [bits for _, bits, _ in seen] == [24, 48, 80]
        for b, bits, top in seen:
            assert top <= b < 2 ** (bits - 1) <= 2 ** 8 * b

    def test_too_narrow_last_slot_fails_the_reference(self, monkeypatch):
        # mutation check: at N = 6000 the last width is 80 bits and max |a(n)|
        # < 2^70, so 72-bit slots still decode; 64-bit slots overflow, and the
        # reference comparison must catch it
        widths = []
        slot_bits = coeffs._slot_bits

        def narrow_last(series):
            widths.append(slot_bits(series))
            return 64 if len(widths) == 3 else widths[-1]

        monkeypatch.setattr(coeffs, "_slot_bits", narrow_last)
        got = coeffs.weight12_integer_coefficients(6000)
        assert widths == [24, 48, 80]
        assert got != fixed_width_reference(6000)

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
            raise AssertionError("encoding started")

        monkeypatch.setattr(coeffs, "_eta_cube_terms", fail)
        monkeypatch.setattr(coeffs, "_encode", fail)
        with pytest.raises(OutOfRange):
            coeffs.weight12_integer_coefficients(3_000_001)


    @pytest.mark.parametrize(
        "kind,bits",
        # 128-bit ids are the bare case names, so existing test ids stay stable
        [pytest.param(k, b, id=k if b == 128 else f"{k}_{b}") for b in (24, 48, 80, 128) for k in CODEC_CASES],
    )
    def test_slot_codec_round_trips(self, kind, bits):
        values = CODEC_CASES[kind](2 ** (bits - 1) - 1)
        value = coeffs._encode(values, bits)
        assert value == sum(c << (bits * i) for i, c in enumerate(values))
        assert coeffs._decode(value, len(values), bits) == values


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

    def test_euler_factor_oracle(self, gl3, gl2):
        # h_k from the recursion must match the direct local expansion
        for p in (2, 3, 5, 7, 13):
            h = gl3.h_tables[p]
            oracle = coeffs.sym2_local_expansion(gl2.lam(p), len(h) - 1)
            assert np.allclose(h, oracle, atol=1e-9)

    def test_first_row_matches_lam(self, gl3):
        # the prime-power sieve and lam's factorization are separate paths
        lam = np.array([gl3.lam(1, n) for n in range(1, gl3.N + 1)])
        np.testing.assert_allclose(gl3.first_row[1:], lam, rtol=1e-12, atol=0)

    def test_insufficient_base(self, gl2):
        with pytest.raises(InsufficientBase):
            coeffs.build_gl3_sym2_table(gl2, gl2.N + 1)

    def test_h_tables_are_read_only(self, gl3):
        # lam reads these tables; a write would change every later lam
        with pytest.raises(TypeError):
            gl3.h_tables[2] = None
        with pytest.raises(ValueError):
            gl3.h_tables[2][0] = 0.0
        assert gl3.lam(1, 2) == pytest.approx(-0.718750, abs=1e-6)


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
