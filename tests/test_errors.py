"""Bad input fails at the boundary with a ShiftconvError subclass."""

import numpy as np
import pytest

from shiftconv import arith, charsums, circle, coeffs
from shiftconv.errors import EmptyRange, InvalidDivisor, OutOfRange, OverlappingRanges, ShiftconvError
from shiftconv.reports import ExperimentReport

P = arith.PrimeModulus


def _approximant(delta):
    return circle.Approximant(moduli=circle.build_moduli_set(3, 11, 1), delta=delta)


def _wide_approximant():
    ms = circle.ModuliSet(Q1=2, Q2=12_000_000, P1=(3,), P2=(12_000_017,))
    return circle.Approximant(moduli=ms, delta=8.0 / ms.max_modulus)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: coeffs.weight12_integer_coefficients(0), OutOfRange),
        (lambda: coeffs.weight12_integer_coefficients(2.5), OutOfRange),
        (lambda: coeffs.build_gl2_table(12, 20.0), OutOfRange),
        (lambda: coeffs.build_gl3_sym2_table(coeffs.build_gl2_table(12, 30), 20.5), OutOfRange),
        (lambda: coeffs.build_gl2_table(12, 10).lam(2.5), OutOfRange),
        (lambda: coeffs.build_gl3_sym2_table(coeffs.build_gl2_table(12, 10), 10).lam(1, 2.5), OutOfRange),
        (lambda: coeffs.rankin_selberg_average(coeffs.build_gl2_table(12, 20), 10.9), OutOfRange),
        (lambda: arith.factorize(0), OutOfRange),
        (lambda: arith.euler_phi(0), OutOfRange),
        (lambda: arith.primes_in_dyadic(1, 1), OutOfRange),
        (lambda: _approximant(1.0), OutOfRange),
        (lambda: circle.l2_error(_approximant(1.0 / 132), 10), OutOfRange),
        (lambda: circle.l2_error(_approximant(1.0 / 132), 2640000.0), OutOfRange),
        (lambda: circle.fourier_coeff(_approximant(1.0 / 132), 2.5), OutOfRange),
        (lambda: coeffs.build_gl3_sym2_table(coeffs.build_gl2_table(12, 10), -3), OutOfRange),
        (lambda: coeffs.build_gl3_sym2_table(coeffs.build_gl2_table(12, 10), 0), OutOfRange),
        (lambda: arith.kloosterman_table(0), OutOfRange),
        (lambda: P(15), InvalidDivisor),
        (lambda: P(3.0), OutOfRange),
        (lambda: charsums.TCharParams(n=1, m=1, h=1, q1=P(3), q1t=P(5), q2=P(5)), InvalidDivisor),
        (lambda: charsums.TCharParams(n=1, m=1, h=1, q1=P(3), q1t=P(3), q2=P(3)), InvalidDivisor),
        (
            lambda: charsums.t1_closed_form(
                charsums.TCharParams(n=1, m=1, h=1, q1=P(3), q1t=P(5), q2=P(7)), "q2"
            ),
            OutOfRange,
        ),
        (
            lambda: ExperimentReport(["a", "b"], {}).add(a=np.arange(2), b=np.arange(3)),
            OutOfRange,
        ),
        (lambda: charsums.char_sum_S_factored(1, 2.5, 1, 1, 3, 5), OutOfRange),
        (lambda: charsums.char_sum_S_factored(1, 2, np.array([1.0, 2.0]), 1, 3, 5), OutOfRange),
        (lambda: charsums.char_sum_S_factored(5.0, 1, 1, 1, 5, 7), OutOfRange),
        (lambda: charsums.t2_sum(1, 2, 1.5, P(3), P(5), P(7)), OutOfRange),
        (lambda: charsums.SCharParams(1, 2.5, 1, 1, 15), OutOfRange),
        (lambda: charsums.TCharParams(n=1.5, m=1, h=1, q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (
            lambda: charsums.bound_census(
                charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=2, n_values=(1.5,))
            ),
            OutOfRange,
        ),
        (lambda: charsums.TCharParams(n=1, m=np.array([1.0, 2.0]), h=1, q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (lambda: charsums.TCharParams(n=np.array([1.0, 2.0]), m=1, h=1, q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (lambda: charsums.TCharParams(n=1, m=1, h=np.array([1, 2.5]), q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (lambda: charsums.TCharParams(n=np.arange(2), m=np.arange(3), h=1, q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (lambda: charsums.char_sum_S_factored(1, np.arange(3), np.arange(2), 1, 3, 5), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(3, 5), m2_max=2.5), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(3.0, 5)), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(3, 15)), InvalidDivisor),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=2.0), OutOfRange),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7.0,)), OutOfRange),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 9), q2_primes=(7,)), InvalidDivisor),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), h_values=(1, 2.5)), OutOfRange),
        (lambda: arith.factorize(6.0), OutOfRange),
        (lambda: arith.is_prime(3.0), OutOfRange),
        (lambda: arith.euler_phi(7.5), OutOfRange),
        (lambda: arith.primes_in_dyadic(10.5, 1), OutOfRange),
        (lambda: arith.primes_in_dyadic(10, 1.0), OutOfRange),
        (lambda: circle.build_moduli_set(3, 11.0, 1), OutOfRange),
        (lambda: arith.unit_inverses(7.0), OutOfRange),
        (lambda: arith.kloosterman_table(2.5), OutOfRange),
        # an untyped cache would answer 7.0 from the entry for np.int64(7)
        (lambda: (arith.kloosterman_table(np.int64(7)), arith.kloosterman_table(7.0)), OutOfRange),
        (lambda: coeffs.build_gl2_table(12.0, 10), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], [-1.0], n_max_factor=float("nan")), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], [-1.0], n_max_factor=float("inf")), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], [-1.0], n_max_factor=0.0), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], [-1.0], n_max_factor=-50), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), 0), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), -1e-3), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), float("inf")), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), float("nan")), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), float("nan")), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), float("-inf")), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), np.array([0.25, np.nan])), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(5, 5, 7)), InvalidDivisor),
        (lambda: charsums.TCensusFamily(q1_primes=(5, 5, 7), q2_primes=(11,)), InvalidDivisor),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7, 11, 7)), InvalidDivisor),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), 1 + 2j), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), "0.5"), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), None), OutOfRange),
        (lambda: circle.approximant_eval(_approximant(1.0 / 132), np.array([0.1 + 1j])), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), "0.01"), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), 0.01 + 0j), OutOfRange),
        (lambda: _approximant("0.01"), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], [-1.0], n_max_factor="5"), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11)], ["a"]), OutOfRange),
        (
            lambda: charsums.t1_closed_form(
                charsums.TCharParams(n=1, m=np.array([1, 2, 3]), h=1, q1=P(3), q1t=P(5), q2=P(7))
            ),
            OutOfRange,
        ),
        (
            lambda: charsums.t1_closed_form(
                charsums.TCharParams(n=1, m=np.array([2]), h=1, q1=P(3), q1t=P(5), q2=P(7)), "q1t"
            ),
            OutOfRange,
        ),
        (lambda: circle.ModuliSet(Q1=3, Q2=5, P1=(3, 5), P2=(5, 7)), OverlappingRanges),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(4, 5), P2=(11,)), InvalidDivisor),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(), P2=(11,)), EmptyRange),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(3,), P2=()), EmptyRange),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(5, 3), P2=(11,)), InvalidDivisor),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(3, 3), P2=(11,)), InvalidDivisor),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(3, 7), P2=(11,)), InvalidDivisor),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(3,), P2=(5,)), InvalidDivisor),
        (lambda: circle.ModuliSet(Q1=3.0, Q2=11, P1=(3,), P2=(11,)), OutOfRange),
        (lambda: circle.ModuliSet(Q1=3, Q2=11, P1=(3.0,), P2=(11,)), OutOfRange),
        (lambda: circle.l2_error_census([(3, 11, 5)], [-1.0]), OutOfRange),
        (lambda: circle.l2_error_census([(3,)], [-1.0]), OutOfRange),
        (lambda: circle.l2_error_census([3], [-1.0]), OutOfRange),
        # Q = 4 * 2 * 12,000,000, so every n_max >= 1/delta = Q/8 meets Q^2 > 2^53
        (lambda: circle.l2_error(_wide_approximant(), 12_000_000), OutOfRange),
        (lambda: arith.primes_between(0, 10), OutOfRange),
        (lambda: arith.primes_between(-3, 3), OutOfRange),
        (lambda: arith.primes_between(2.0, 10), OutOfRange),
        (lambda: charsums.char_sum_S_factored((), 1, 1, 1, 3, 5), ShiftconvError),
        (lambda: charsums.TCharParams(n=1, m=1, h=1, q1=3, q1t=P(5), q2=P(7)), InvalidDivisor),
        (lambda: charsums.TCharParams(n=1, m=1, h=1, q1=P(3), q1t=5, q2=P(7)), InvalidDivisor),
        (lambda: charsums.TCharParams(n=1, m=1, h=1, q1=P(3), q1t=P(5), q2=7), InvalidDivisor),
        (lambda: charsums.SCensusFamily(primes=(3, 5), m2_max=-2), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(3, 5), n_max=-1), OutOfRange),
        (lambda: charsums.SCensusFamily(primes=(3, 5), h_max=-1), OutOfRange),
        (lambda: charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=-1), OutOfRange),
        # past the grid cap: numpy's bare ValueError at 1e-300, an inf point count at 5e-324
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), 1e-300), OutOfRange),
        (lambda: circle.quadrature_l2_error(_approximant(1.0 / 132), 5e-324), OutOfRange),
    ],
    ids=[
        "weight12_N_below_1",
        "weight12_N_not_integer",
        "gl2_table_N_not_integer",
        "gl3_table_N_not_integer",
        "gl2_lam_n_not_integer",
        "gl3_lam_m2_not_integer",
        "rankin_selberg_x_not_integer",
        "factorize_n_below_1",
        "euler_phi_q_below_1",
        "primes_in_dyadic_Q_below_2",
        "approximant_delta_window",
        "l2_error_n_max_below_1_over_delta",
        "l2_error_n_max_not_integer",
        "fourier_coeff_n_not_integer",
        "gl3_table_N_negative",
        "gl3_table_N_zero",
        "kloosterman_table_q_below_1",
        "prime_modulus_composite",
        "prime_modulus_not_integer",
        "t_params_q2_is_q1t",
        "t_params_q2_is_q1",
        "t1_closed_form_which_unknown",
        "report_block_lengths_differ",
        "s_factored_m2_not_integer",
        "s_factored_n_float_array",
        "s_factored_m1_not_integer",
        "t2_sum_h_not_integer",
        "s_params_m2_not_integer",
        "t_params_n_not_integer",
        "t_census_n_not_integer",
        "t_params_m_float_array",
        "t_params_n_float_array",
        "t_params_h_float_array",
        "t_params_shapes_do_not_broadcast",
        "s_factored_shapes_do_not_broadcast",
        "s_family_m2_max_not_integer",
        "s_family_prime_not_integer",
        "s_family_prime_composite",
        "t_family_m_max_not_integer",
        "t_family_prime_not_integer",
        "t_family_prime_composite",
        "t_family_h_not_integer",
        "factorize_n_not_integer",
        "is_prime_n_not_integer",
        "euler_phi_q_not_integer",
        "primes_in_dyadic_Q_not_integer",
        "primes_in_dyadic_exclude_not_integer",
        "build_moduli_set_Q2_not_integer",
        "unit_inverses_q_not_integer",
        "kloosterman_table_q_not_integer",
        "kloosterman_table_q_float_after_numpy_int",
        "gl2_table_k_not_integer",
        "l2_census_n_max_factor_nan",
        "l2_census_n_max_factor_inf",
        "l2_census_n_max_factor_zero",
        "l2_census_n_max_factor_negative",
        "quadrature_step_zero",
        "quadrature_step_negative",
        "quadrature_step_inf",
        "quadrature_step_nan",
        "approximant_eval_x_nan",
        "approximant_eval_x_inf",
        "approximant_eval_x_array_with_nan",
        "s_family_prime_repeated",
        "t_family_q1_prime_repeated",
        "t_family_q2_prime_repeated",
        "approximant_eval_x_complex",
        "approximant_eval_x_string",
        "approximant_eval_x_none",
        "approximant_eval_x_complex_array",
        "quadrature_step_string",
        "quadrature_step_complex",
        "approximant_delta_string",
        "l2_census_n_max_factor_string",
        "l2_census_delta_exponent_string",
        "t1_closed_form_m_array",
        "t1_closed_form_m_length_one_array",
        "moduli_set_segments_overlap",
        "moduli_set_P1_composite",
        "moduli_set_P1_empty",
        "moduli_set_P2_empty",
        "moduli_set_P1_descending",
        "moduli_set_P1_repeated",
        "moduli_set_P1_prime_outside_segment",
        "moduli_set_P2_prime_of_other_segment",
        "moduli_set_Q1_not_integer",
        "moduli_set_P1_prime_not_integer",
        "l2_census_anchor_triple",
        "l2_census_anchor_single",
        "l2_census_anchor_not_sequence",
        "l2_error_tail_past_2_pow_53",
        "primes_between_lo_zero",
        "primes_between_lo_negative",
        "primes_between_lo_not_integer",
        "s_factored_m1_empty_tuple",
        "t_params_q1_int",
        "t_params_q1t_int",
        "t_params_q2_int",
        "s_family_m2_max_negative",
        "s_family_n_max_negative",
        "s_family_h_max_negative",
        "t_family_m_max_negative",
        "quadrature_step_past_grid_cap",
        "quadrature_step_subnormal",
    ],
)
def test_bad_input_raises_package_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call,name",
    [
        (lambda: charsums.char_sum_S_factored(1, 1, 1, 1, 3.0, 5), "q1"),
        (lambda: charsums.char_sum_S_factored(1, 1, 1, 1, 3, 5.0), "q2"),
        (lambda: arith.primes_between(2, 10.0), "hi"),
    ],
    ids=["s_factored_q1_float", "s_factored_q2_float", "primes_between_hi_float"],
)
def test_non_integer_error_names_the_argument(call, name):
    with pytest.raises(OutOfRange, match=f"^{name} must be an integer"):
        call()


def test_package_errors_are_value_errors():
    # callers that catch ValueError keep working
    assert issubclass(ShiftconvError, ValueError)
