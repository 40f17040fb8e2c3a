"""Bad input fails at the boundary with a ShiftconvError subclass."""

import numpy as np
import pytest

from shiftconv import arith, charsums, circle, coeffs
from shiftconv.errors import InvalidDivisor, OutOfRange, ShiftconvError
from shiftconv.reports import ExperimentReport

P = arith.PrimeModulus


def _approximant(delta):
    return circle.Approximant(moduli=circle.build_moduli_set(3, 11, 1), delta=delta)


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
        (lambda: charsums.SCharParams(1, 2.5, 1, 1, 15), OutOfRange),
        (lambda: charsums.TCharParams(n=1.5, m=1, h=1, q1=P(3), q1t=P(5), q2=P(7)), OutOfRange),
        (
            lambda: charsums.bound_census(
                charsums.TCensusFamily(q1_primes=(3, 5), q2_primes=(7,), m_max=2, n_values=(1.5,))
            ),
            OutOfRange,
        ),
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
        "s_params_m2_not_integer",
        "t_params_n_not_integer",
        "t_census_n_not_integer",
    ],
)
def test_bad_input_raises_package_error(call, error):
    with pytest.raises(error):
        call()


def test_package_errors_are_value_errors():
    # callers that catch ValueError keep working
    assert issubclass(ShiftconvError, ValueError)
