"""Circle-method approximant tests: construction, evaluation, Parseval."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from oracles import divisors, exact_l2_error, ramanujan_sum, windowed_partial_sum
from shiftconv import circle
from shiftconv.arith import euler_phi
from shiftconv.errors import OutOfRange, OverlappingRanges


@pytest.fixture(scope="module")
def small_set():
    return circle.build_moduli_set(3, 11, 1)


def units(q):
    """The units a mod q, ascending, one gcd at a time."""
    return [a for a in range(q) if math.gcd(a, q) == 1]


def brute_counts(ms, delta, xs):
    """Number of units a/q, over every member q, within circular distance
    delta of each x in [0, 1), one fraction at a time."""
    count = np.zeros(len(xs))
    for q1, q2, q in ms.members:
        for a in units(q):
            d = np.abs(xs - a / q)
            count += (np.minimum(d, 1.0 - d) <= delta)
    return count


def oracle_tail(A, n_max):
    """The tail majorant of l2_error summed over every pair of (member,
    divisor) pairs, 16 |Q|^2 terms in exact integer lcm arithmetic."""
    divisor_lists = [(1, q1, q2, q) for q1, q2, q in A.moduli.members]
    tail = 0.0
    for da in divisor_lists:
        for db in divisor_lists:
            for d1 in da:
                for d2 in db:
                    lcm = d1 * d2 // math.gcd(d1, d2)
                    tail += d1 * d2 * circle._multiples_tail(n_max, lcm)
    return tail * 2.0 * (1.0 / (2.0 * np.pi * A.delta * A.moduli.L)) ** 2


def row_loop_tail(A, n_max):
    """The tail majorant of l2_error as one lcm row of divisor values at a
    time, in the order of d: the summation order l2_error keeps, so its
    tail_bound must equal this bit for bit."""
    d, mult = np.unique(np.insert(np.array(A.moduli.members), 0, 1, axis=1), return_counts=True)
    w = (d * mult).astype(float)
    tail = 0.0
    for di, wi in zip(d, w):
        lcm = (di // np.gcd(di, d)) * d.astype(float)
        tail += wi * float(np.sum(w * circle._multiples_tail(n_max, lcm)))
    return tail * 2.0 * (1.0 / (2.0 * np.pi * A.delta * A.moduli.L)) ** 2


def sinc_partial(A, n_max):
    """The partial sum of l2_error in one pass over every n <= n_max, each
    a_n with np.sinc."""
    ns = np.arange(1, n_max + 1)
    an = circle._ramanujan_rows(A.moduli, 1, n_max) / A.moduli.L * np.sinc(2.0 * ns * A.delta)
    return 2.0 * float(np.sum(an * an))


class TestModuliSet:
    def test_example(self, small_set):
        q1s = sorted({m[0] for m in small_set.members})
        q2s = sorted({m[1] for m in small_set.members})
        assert q1s == [3, 5]
        assert q2s == [11, 13, 17, 19]
        assert len(small_set.members) == 8

    def test_h_exclusion(self):
        ms = circle.build_moduli_set(3, 11, 3)
        assert sorted({m[0] for m in ms.members}) == [5]

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingRanges):
            circle.build_moduli_set(3, 5, 1)

    def test_L_consistent(self, small_set):
        assert small_set.L == sum(euler_phi(q) for _, _, q in small_set.members)

    def test_members_sorted_unique(self, small_set):
        ms = list(small_set.members)
        assert ms == sorted(set(ms))

    def test_stores_only_prime_sets(self, small_set):
        assert [f.name for f in dataclasses.fields(small_set)] == ["Q1", "Q2", "P1", "P2"]
        assert small_set.P1 == (3, 5) and small_set.P2 == (11, 13, 17, 19)
        for name in ("members", "L"):
            with pytest.raises(AttributeError):
                setattr(small_set, name, None)


class TestApproximantEval:
    def test_isolated_spike(self):
        # single-modulus family: Q1=2 -> {2,3}, Q2=7 -> {7,...}; build a
        # one-member set by exclusion
        ms = circle.build_moduli_set(2, 7, 3 * 11 * 13)  # keeps q1=2, q2=7
        assert len(ms.members) == 1
        q = ms.members[0][2]
        delta = 1.0 / (4 * q * q / 8.0)  # inside the allowed window, < 1/(2q^2)
        A = circle.Approximant(moduli=ms, delta=delta)
        x = 1.0 / q  # a/q with a=1
        expect = 1.0 / (2 * delta * euler_phi(q))
        assert circle.approximant_eval(A, x) == pytest.approx(expect, rel=1e-12)

    def test_zero_far_from_fractions(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1e-4)
        # x halfway between consecutive fractions with tiny delta
        assert circle.approximant_eval(A, 0.5 + 1.0 / (2 * 33 * 39)) >= 0.0
        assert circle.approximant_eval(A, np.pi / 7 % 1.0) == 0.0

    def test_nonnegative_and_mass_one(self, small_set):
        Q = small_set.max_modulus
        A = circle.Approximant(moduli=small_set, delta=1.0 / Q)
        xs = np.linspace(0, 1, 20011)[:-1]
        vals = circle.approximant_eval(A, xs)
        assert (vals >= 0).all()
        assert np.mean(vals) == pytest.approx(1.0, abs=5e-2)

    @pytest.mark.parametrize("delta", [1.0 / 132, 1e-4])  # 132 = max_modulus
    def test_matches_brute_force_count(self, small_set, delta):
        A = circle.Approximant(moduli=small_set, delta=delta)
        m = 20011  # odd: no midpoint lies exactly delta from a fraction
        xs = (np.arange(m) + 0.5) / m
        want = brute_counts(small_set, delta, xs) / (2.0 * delta * small_set.L)
        assert np.array_equal(circle.approximant_eval(A, xs), want)

    @pytest.mark.parametrize("delta", [1.0 / 132, 1e-4])
    def test_array_matches_scalar_calls(self, small_set, delta):
        A = circle.Approximant(moduli=small_set, delta=delta)
        xs = np.concatenate([(np.arange(2001) + 0.5) / 2001, np.sqrt(np.arange(2, 200)) - 3.0])
        got = circle.approximant_eval(A, xs)
        scalars = [circle.approximant_eval(A, float(x)) for x in xs]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(got, np.array(scalars))
        assert circle.approximant_eval(A, xs.reshape(-1, 1)).shape == (len(xs), 1)

    @pytest.mark.parametrize("delta", [1.0 / 132, 1e-4])
    def test_period_one(self, small_set, delta):
        A = circle.Approximant(moduli=small_set, delta=delta)
        xs = np.concatenate([[np.pi / 7 % 1.0], np.sqrt(np.arange(2, 400)) % 1.0])
        # keep points whose distance to every interval end exceeds the
        # rounding of x + k
        d = np.abs(xs[:, None] - np.concatenate([np.divide(units(q), q) for *_, q in small_set.members]))
        xs = xs[(np.abs(np.minimum(d, 1.0 - d) - delta) > 1e-9).all(axis=1)]
        assert len(xs) > 300 and brute_counts(small_set, delta, xs).any()
        base = circle.approximant_eval(A, xs)
        for k in (-2, -1, 1, 3):
            assert np.array_equal(circle.approximant_eval(A, xs + k), base)

    def test_delta_window_enforced(self, small_set):
        with pytest.raises(OutOfRange):
            circle.Approximant(moduli=small_set, delta=1.0)


class TestFourierCoeff:
    def test_a0_exact(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        assert circle.fourier_coeff(A, 0) == 1.0 + 0j

    def test_conjugate_symmetry_and_real(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        # multiples of each member prime and of the members: at -n the
        # sieve's offset must land on the same multiples as at n
        multiples = [p * k for p in small_set.P1 + small_set.P2 for k in (1, 2, 7)]
        members = [q for *_, q in small_set.members] + [3 * 5 * 11 * 13 * 17 * 19]
        for n in (1, 5, 33, 100, *multiples, *members):
            an = circle.fourier_coeff(A, n)
            am = circle.fourier_coeff(A, -n)
            assert an.imag == 0.0
            assert an == np.conj(am)

    def test_numpy_integers_accepted(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        for n in (0, 15, -33):
            assert circle.fourier_coeff(A, np.int64(n)) == circle.fourier_coeff(A, n)
        assert circle.l2_error(A, np.int64(20000)) == circle.l2_error(A, 20000)

    def test_quadrature_oracle(self, small_set):
        # a_n must equal the direct integral of I~(x) e(-n x)
        Q = small_set.max_modulus
        A = circle.Approximant(moduli=small_set, delta=1.0 / Q)
        m = 400_000
        xs = (np.arange(m) + 0.5) / m
        ivals = brute_counts(small_set, A.delta, xs) / (2 * A.delta * small_set.L)
        for n in (1, 7, 40):
            direct = np.mean(ivals * np.exp(-2j * np.pi * n * xs))
            assert abs(circle.fourier_coeff(A, n) - direct) < 2e-3

    def test_trivial_bound(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        for n in (1, 6, 33, 95):
            bound = sum(
                sum(d for d in divisors(math.gcd(n, q))) for _, _, q in small_set.members
            ) / small_set.L
            assert abs(circle.fourier_coeff(A, n)) <= bound + 1e-12

    def test_tail_decay_bound(self, small_set):
        # for |n| > 1/delta the coefficient obeys the 1/(2 pi n delta) form
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        n = int(3 / A.delta)
        bound = sum(
            sum(d for d in divisors(math.gcd(n, q))) for _, _, q in small_set.members
        ) / small_set.L / (2 * np.pi * n * A.delta) * np.pi
        assert abs(circle.fourier_coeff(A, n)) <= bound + 1e-12


class TestL2Error:
    @pytest.mark.parametrize(
        "N,D",
        [(100, 1), (100, 7), (100, 100), (100, 101), (100, 1000), (1, 2),
         (100, np.array([1.0, 7.0, 100.0, 101.0, 1000.0]))],
    )
    def test_multiples_tail_bounds_brute_force(self, N, D):
        # sum over N < n <= M with D | n; the rest of the tail only adds mass
        M = 10 ** 6
        brute = []
        for d in np.atleast_1d(D):
            ns = np.arange((N // d + 1) * d, M + 1, d, dtype=float)
            brute.append(float(np.sum(1.0 / (ns * ns))))
        assert np.all(circle._multiples_tail(N, D) >= np.array(brute))

    @pytest.mark.parametrize("Q1,Q2,h", [(3, 11, 1), (5, 23, 1), (3, 11, 3)])
    def test_tail_matches_pair_oracle(self, Q1, Q2, h):
        ms = circle.build_moduli_set(Q1, Q2, h)
        A = circle.Approximant(moduli=ms, delta=1.0 / ms.max_modulus)
        n_max = int(500 / A.delta)
        assert circle.l2_error(A, n_max).tail_bound == pytest.approx(oracle_tail(A, n_max), rel=1e-12)

    # (Q1, Q2, h, e) with delta = Q^e; h drops primes from the sets: 11, 13
    # from [10, 20] and 61, 67 from [60, 120], or 37 and 211
    TAIL_CASES = {
        "30-200": (30, 200, 1, -1.0),
        "3-11": (3, 11, 1, -1.0),
        "5-23": (5, 23, 1, -1.0),
        "10-60": (10, 60, 1, -1.0),
        "3-11-delta_Q^-1.5": (3, 11, 1, -1.5),
        "5-23-delta_Q^-1.5": (5, 23, 1, -1.5),
        "10-60-delta_Q^-1.5": (10, 60, 1, -1.5),
        "10-60-h_11.13.61.67": (10, 60, 11 * 13 * 61 * 67, -1.0),
        "10-60-h_11.13.61.67-delta_Q^-1.5": (10, 60, 11 * 13 * 61 * 67, -1.5),
        "30-200-h_37.211": (30, 200, 37 * 211, -1.0),
    }

    @pytest.mark.parametrize("Q1,Q2,h,e", TAIL_CASES.values(), ids=TAIL_CASES.keys())
    def test_tail_equals_row_loop(self, Q1, Q2, h, e):
        ms = circle.build_moduli_set(Q1, Q2, h)
        A = circle.Approximant(moduli=ms, delta=float(ms.max_modulus) ** e)
        n_max = int(50 / A.delta)
        assert circle.l2_error(A, n_max).tail_bound == row_loop_tail(A, n_max)

    @pytest.mark.parametrize("N", [1, 100, 1_200_000, 2**40 + 15, 2**52 - 3])
    def test_multiples_tail_floor_is_exact(self, N):
        # K = floor(N / D) against Python's integer floor division, at D
        # that divide N, lie one off a divisor or a multiple, and reach the
        # largest D with N + D < 2^53
        ds = {1, 2, 3, 7, N - 1, N, N + 1, 2 * N - 1, 2 * N + 1, 2**53 - 1 - N}
        ds |= {N // k + j for k in (2, 3, 7, 1000, 99991) for j in (-1, 0, 1)}
        ds = sorted(d for d in ds if 1 <= d and N + d < 2**53)
        K = np.array([N // d for d in ds], dtype=float)
        D = np.array(ds, dtype=float)
        want = np.where(K > 0, 1.0 / np.maximum(K, 1), math.pi**2 / 6.0) / (D * D)
        assert np.array_equal(circle._multiples_tail(N, D), want)

    # n_max below one window, inside the second, at two full windows and
    # one past them, and at eight (2^17) and one past; at delta = Q^-1.5
    # the period 1/delta of the sine is not an integer, so no window starts
    # at the same phase
    @pytest.mark.parametrize("e", [-1.0, -1.5])
    @pytest.mark.parametrize(
        "n_max",
        [
            circle._L2_CHUNK - 1, 20000, 2 * circle._L2_CHUNK, 2 * circle._L2_CHUNK + 1,
            8 * circle._L2_CHUNK, 8 * circle._L2_CHUNK + 1,
        ],
    )
    @pytest.mark.parametrize("Q1,Q2", [(3, 11), (5, 23)])
    def test_partial_matches_sinc(self, Q1, Q2, e, n_max):
        ms = circle.build_moduli_set(Q1, Q2, 1)
        A = circle.Approximant(moduli=ms, delta=float(ms.max_modulus) ** e)
        assert e == -1.0 or 1.0 / A.delta != int(1.0 / A.delta)
        assert circle.l2_error(A, n_max).partial == pytest.approx(sinc_partial(A, n_max), rel=1e-13)

    # the benchmark's set, and n_max below one window, at three and 5 past
    # three; delta = Q^-1.5 starts no two windows at the same phase
    WINDOW_CASES = {
        "30-200-1.2e6": (30, 200, -1.0, 1_200_000),
        **{
            f"{Q1}-{Q2}-Q^{e}-{name}": (Q1, Q2, e, n_max)
            for Q1, Q2 in [(3, 11), (5, 23)]
            for e in (-1.0, -1.5)
            for name, n_max in [
                ("below", circle._L2_CHUNK - 1),
                ("multiple", 3 * circle._L2_CHUNK),
                ("multiple+5", 3 * circle._L2_CHUNK + 5),
            ]
        },
    }

    @pytest.mark.parametrize("Q1,Q2,e,n_max", WINDOW_CASES.values(), ids=WINDOW_CASES.keys())
    def test_partial_equals_window_loop(self, Q1, Q2, e, n_max):
        # the reused buffers change no rounding: bit for bit the plain loop
        # at the same window size, and within 1e-15 of it at 2^16 n
        ms = circle.build_moduli_set(Q1, Q2, 1)
        A = circle.Approximant(moduli=ms, delta=float(ms.max_modulus) ** e)
        partial = circle.l2_error(A, n_max).partial
        assert partial == windowed_partial_sum(A, n_max, circle._L2_CHUNK)
        assert partial == pytest.approx(windowed_partial_sum(A, n_max, 1 << 16), rel=1e-15)

    def test_fields_are_python_floats(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        est = circle.l2_error(A, 20000)
        assert type(est.partial) is float and type(est.tail_bound) is float

    def test_rows_match_ramanujan_sums(self, small_set):
        ns = np.arange(-200, 2001)
        want = [sum(ramanujan_sum(q, int(n)) for _, _, q in small_set.members) for n in ns]
        assert np.array_equal(circle._ramanujan_rows(small_set, -200, len(ns)), want)

    # lo = 1, 7 and 10^6 + 3 are multiples of no member prime, so the first
    # multiple of each prime lies inside the window or past it
    @pytest.mark.parametrize("lo", [0, 1, 7, 10**6 + 3])
    @pytest.mark.parametrize("count", [0, 1, 500])
    def test_rows_on_windows(self, small_set, lo, count):
        want = [sum(ramanujan_sum(q, n) for _, _, q in small_set.members) for n in range(lo, lo + count)]
        got = circle._ramanujan_rows(small_set, lo, count)
        assert got.shape == (count,)
        assert np.array_equal(got, want)

    def test_partial_sum_across_chunks(self, small_set):
        # three full chunks and 5 more n, against one sum over every member
        # with c_q(n) looked up by n mod q; at delta = Q^-2 every a_n up to
        # n_max is far above the rounding of the sum, so a lost or repeated
        # n at a chunk edge shows
        A = circle.Approximant(moduli=small_set, delta=float(small_set.max_modulus) ** -2)
        n_max = 3 * circle._L2_CHUNK + 5
        ns = np.arange(1, n_max + 1)
        total = np.zeros(n_max)
        for *_, q in small_set.members:
            total += np.array([ramanujan_sum(q, r) for r in range(q)], dtype=float)[ns % q]
        an = total / small_set.L * np.sinc(2.0 * ns * A.delta)
        want = 2.0 * float(np.sum(an * an))
        assert circle.l2_error(A, n_max).partial == pytest.approx(want, rel=1e-12)

    @staticmethod
    def l2_peak(n_max):
        """tracemalloc peak of l2_error on the benchmark's set: 224 members,
        264 distinct divisor values, delta = 1/24000."""
        ms = circle.build_moduli_set(30, 200, 1)
        A = circle.Approximant(moduli=ms, delta=1.0 / ms.max_modulus)
        tracemalloc.start()
        try:
            circle.l2_error(A, n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # (Q1, Q2, e) with delta = Q^e
    EXACT_CASES = {
        "3-11": (3, 11, -1.0),
        "5-23": (5, 23, -1.0),
        "10-60": (10, 60, -1.0),
        "30-200": (30, 200, -1.0),
        "10-60-delta_Q^-1.5": (10, 60, -1.5),
    }

    @pytest.mark.parametrize("Q1,Q2,e", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_exact_value_is_bracketed(self, Q1, Q2, e):
        # the closed-form sum over every n lies between the partial sum and
        # partial + tail_bound; the majorant is 4.8x to 15.8x the true tail here
        ms = circle.build_moduli_set(Q1, Q2, 1)
        A = circle.Approximant(moduli=ms, delta=float(ms.max_modulus) ** e)
        est = circle.l2_error(A, int(50 / A.delta))
        exact = exact_l2_error(A)
        assert est.partial < exact <= est.partial + est.tail_bound
        assert est.tail_bound < 20 * (exact - est.partial)

    def test_exact_value_at_30_200(self):
        ms = circle.build_moduli_set(30, 200, 1)
        A = circle.Approximant(moduli=ms, delta=1.0 / ms.max_modulus)
        assert exact_l2_error(A) == pytest.approx(0.0012320081802888, rel=1e-13)

    def test_exact_value_matches_quadrature(self, small_set):
        # the midpoint rule on 66,000 points, independent of the closed form
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        assert exact_l2_error(A) == pytest.approx(circle.quadrature_l2_error(A, A.delta / 500.0), rel=1e-3)

    def test_quadrature_cap_is_checked_before_allocating(self, small_set):
        # one point past the cap; the largest grid above has 66,000 points
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        assert 10 * 66_000 < circle._QUADRATURE_MAX_POINTS
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange):
                circle.quadrature_l2_error(A, 1.0 / (circle._QUADRATURE_MAX_POINTS + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_memory_is_chunk_sized(self):
        # n_max = 1.2e6 in 2^14-n chunks: at most 8 float arrays of one
        # window are alive at once, the tail included
        assert self.l2_peak(1_200_000) < 8 * 8 * circle._L2_CHUNK

    def test_memory_fits_a_window(self):
        # the sin/cos tables and the four rows of one 2^14-n window are
        # 768 kB; they are freed before the tail, so its blocks add nothing
        assert self.l2_peak(1_200_000) < 1_000_000

    def test_tail_memory_is_blocked(self):
        # one window of 24,001 n: a whole 264 x 264 lcm matrix (2.9 MB
        # peak) would outgrow 8 arrays of the window, blocks of rows do not
        n_max = 24_001
        assert self.l2_peak(n_max) < 8 * 8 * n_max

    def test_matches_grid_quadrature(self, small_set):
        Q = small_set.max_modulus
        A = circle.Approximant(moduli=small_set, delta=1.0 / Q)
        est = circle.l2_error(A, int(20000 / A.delta))
        grid = circle.quadrature_l2_error(A, A.delta / 50.0)
        assert est.value == pytest.approx(grid, rel=0.01)

    def test_requires_nmax_past_1_over_delta(self, small_set):
        A = circle.Approximant(moduli=small_set, delta=1.0 / small_set.max_modulus)
        with pytest.raises(OutOfRange):
            circle.l2_error(A, 10)

    def test_bound_shape(self, small_set):
        Q = small_set.max_modulus
        for e in (-1.0, -1.5, -2.0):
            delta = float(Q) ** e
            A = circle.Approximant(moduli=small_set, delta=delta)
            est = circle.l2_error(A, int(500 / delta))
            bound = 8 * Q * Q * np.log(Q) / (delta * small_set.L ** 2)
            assert est.value <= bound

    def test_delta_monotonicity(self, small_set):
        # wider intervals (delta = Q^-1) beat the narrow extreme (Q^-2)
        Q = small_set.max_modulus
        wide = circle.Approximant(moduli=small_set, delta=1.0 / Q)
        narrow = circle.Approximant(moduli=small_set, delta=float(Q) ** -2)
        e_wide = circle.l2_error(wide, int(500 * Q)).value
        e_narrow = circle.l2_error(narrow, int(500 * Q * Q)).value
        assert e_wide < e_narrow

    def test_more_moduli_helps(self):
        # same anchors, same delta: the 8-member set beats a 2-member subset
        big = circle.build_moduli_set(3, 11, 1)
        small = circle.build_moduli_set(3, 11, 5 * 13 * 17 * 19)  # q1 in {3}, q2 in {11}
        delta = 1.0 / big.max_modulus
        e_big = circle.l2_error(circle.Approximant(big, delta), int(500 / delta)).value
        e_small = circle.l2_error(circle.Approximant(small, delta), int(500 / delta)).value
        assert e_big < e_small


class TestCensus:
    def test_census_rows(self):
        rep = circle.l2_error_census([(3, 11), (3, 13)], [-1.0, -2.0])
        assert len(rep.records) == 4
        assert rep.summary["max_ratio"] <= 8.0
        for row in rep.records:
            assert 0.0 < row["density"] < 1.0

    def test_config_hash_covers_n_max_factor(self):
        # n_max_factor sets the partial sum's length, so the error it reports
        short, long = (circle.l2_error_census([(3, 11)], [-1.0], n_max_factor=f) for f in (20.0, 500.0))
        assert short.records[0]["error"] != long.records[0]["error"]
        assert short.config_hash != long.config_hash

    def test_one_shot_iterables_match_lists(self):
        # a consumed iterator once left a report with no rows
        anchors, exps = [(3, 11), (3, 13)], [-1.0, -1.5]
        want = circle.l2_error_census(anchors, exps, n_max_factor=20.0)
        got = circle.l2_error_census(iter(anchors), (e for e in exps), n_max_factor=20.0)
        assert got.config_hash == want.config_hash
        assert got.records == want.records and len(got.records) == 4

    def test_progress_is_logged_at_debug(self, caplog):
        args = ([(3, 11), (3, 13)], [-1.0, -1.5])
        quiet = circle.l2_error_census(*args, n_max_factor=20.0).to_jsonl()
        with caplog.at_level(logging.DEBUG, logger="shiftconv.circle"):
            loud = circle.l2_error_census(*args, n_max_factor=20.0).to_jsonl()
        assert loud == quiet
        # one line per anchor, with the rows written so far
        assert [r.getMessage().split(" members, ")[1].split(",")[0] for r in caplog.records] == ["2 rows", "4 rows"]
