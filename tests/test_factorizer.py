"""Tests for the operator factorizations and their compatibility conditions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kdvbwaves import (
    ParameterDomainError,
    ReducedParams,
    Sign,
    factorize_compound,
    factorize_kdvb,
)
from kdvbwaves.cli import _linspace
from kdvbwaves.factorizer import verify_factorization


# ---------------------------------------------------------------------------
# KdVB case


def test_kdvb_reference_coefficients():
    fact = factorize_kdvb(0.0, Sign.MINUS)
    assert fact.A == pytest.approx(-math.sqrt(2.0 / 3.0))
    assert fact.B == pytest.approx(0.4)
    assert fact.p == pytest.approx(0.24)
    assert fact.k == 0.0


def test_kdvb_velocity_and_constant_track_delta():
    fact = factorize_kdvb(1.0, Sign.PLUS)
    assert fact.p == pytest.approx(2.24)
    assert fact.k == pytest.approx(2.24 - 1.0)


def test_kdvb_displaced_coefficient_is_universal():
    # p - 2*delta must equal 6/25 no matter what delta is
    for delta in (-2.0, 0.0, 1.0, 3.7):
        fact = factorize_kdvb(delta, Sign.MINUS)
        assert fact.p - 2.0 * fact.delta == pytest.approx(6.0 / 25.0, abs=1e-15)


@given(
    delta=st.floats(min_value=-10.0, max_value=10.0),
    U=st.floats(min_value=1e-3, max_value=10.0),
    sign=st.sampled_from([Sign.PLUS, Sign.MINUS]),
)
def test_kdvb_conditions_hold_pointwise(delta, U, sign):
    fact = factorize_kdvb(delta, sign)
    product = fact.f1_at(U) * fact.f2_at(U) - fact.F_at(U) / U
    closure = fact.f2_at(U) + fact.f1U_prime_at(U) - 1.0
    assert abs(product) < 1e-12
    assert abs(closure) < 1e-12


def test_kdvb_both_signs_give_same_scalars():
    minus = factorize_kdvb(0.3, Sign.MINUS)
    plus = factorize_kdvb(0.3, Sign.PLUS)
    assert minus.A == -plus.A
    assert (minus.B, minus.p, minus.k) == (plus.B, plus.p, plus.k)


# ---------------------------------------------------------------------------
# compound case


def test_compound_reference_coefficients():
    fact = factorize_compound(ReducedParams(p=0.0, q=2.0), Sign.PLUS)
    assert fact.A == pytest.approx(1.0)
    assert fact.B == pytest.approx(2.0 / 3.0)
    assert fact.C == pytest.approx(1.0 / 9.0)
    assert fact.k == pytest.approx(-1.0 / 27.0)


def test_compound_rejects_q_zero_and_negative():
    with pytest.raises(ParameterDomainError):
        factorize_compound(ReducedParams(p=0.0, q=0.0), Sign.PLUS)
    with pytest.raises(ParameterDomainError, match="requires q > 0 for a real branch"):
        factorize_compound(ReducedParams(p=0.0, q=-1.0), Sign.PLUS)


@pytest.mark.parametrize("p, q", [
    (1e300, 1e-300),  # A**3 underflows to 0 (a ZeroDivisionError before)
    (1.0, 5e-324),    # q / 2 underflows: A = 0
    (1.0, 1e250),     # A**3 overflows (an OverflowError before)
    (1.0, 1e-200),    # k overflows
    (1e300, 1e-100),  # (2 - 9p) / A overflows: C is infinite
])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_compound_coefficients_out_of_float_range_are_domain_errors(p, q, sign):
    with pytest.raises(ParameterDomainError, match="float range"):
        factorize_compound(ReducedParams(p=p, q=q), sign)


def test_compound_keeps_large_finite_coefficients():
    fact = factorize_compound(ReducedParams(p=1e300, q=2.0), Sign.PLUS)
    assert fact.A == 1.0 and all(map(math.isfinite, (fact.B, fact.C, fact.k)))


# factorize's compound sample grid: 8 x 8 points of the square [-3, 3]^2, none near 0
_COMPOUND_SAMPLES = [complex(a, b) for a in _linspace(-3.0, 3.0, 8) for b in _linspace(-3.0, 3.0, 8)
                     if abs(complex(a, b)) > 1e-3]


@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_compound_product_residual_at_huge_p_is_rounding(sign):
    # factorize --eq compound --p 1e300 --q 1 reports a product residual of
    # 4.598e+284: an absolute residual next to |F(U)/U| of about 1e300.  At
    # each sample it is within 4 ulps of |F(U)/U| (3.1 at worst on the minus
    # branch, 2.1 on the plus branch), while C off by a relative 1e-9 is far
    # outside
    fact = factorize_compound(ReducedParams(p=1e300, q=1.0), sign)
    wrong = dataclasses.replace(fact, C=fact.C * (1.0 + 1e-9))

    def ulps(f, U):
        quotient = f.F_at(U) / U
        return abs(f.f1_at(U) * f.f2_at(U) - quotient) / math.ulp(abs(quotient))

    assert len(_COMPOUND_SAMPLES) == 64
    assert max(ulps(fact, U) for U in _COMPOUND_SAMPLES) <= 4.0
    assert min(ulps(wrong, U) for U in _COMPOUND_SAMPLES) > 1e3


@given(
    p=st.floats(min_value=-2.0, max_value=2.0),
    q=st.floats(min_value=0.1, max_value=4.0),
    re=st.floats(min_value=-10.0, max_value=10.0),
    im=st.floats(min_value=-10.0, max_value=10.0),
    sign=st.sampled_from([Sign.PLUS, Sign.MINUS]),
)
def test_compound_conditions_hold_for_complex_u(p, q, re, im, sign):
    U = complex(re, im)
    if abs(U) < 1e-3:
        U = U + 1.0
    fact = factorize_compound(ReducedParams(p=p, q=q), sign)
    product = fact.f1_at(U) * fact.f2_at(U) - fact.F_at(U) / U
    closure = fact.f2_at(U) + fact.f1U_prime_at(U) - 1.0
    assert abs(product) < 1e-10 * max(1.0, abs(U) ** 2)
    assert abs(closure) < 1e-12


def test_compound_f1_rejects_zero():
    fact = factorize_compound(ReducedParams(p=0.0, q=2.0), Sign.PLUS)
    with pytest.raises(ParameterDomainError):
        fact.f1_at(0.0)


# ---------------------------------------------------------------------------
# verify_factorization plumbing


def test_verify_factorization_reports_max_over_samples():
    fact = factorize_kdvb(0.0, Sign.MINUS)
    check = verify_factorization(
        fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, [0.5, 1.0, 2.0]
    )
    assert check.max_product < 1e-14
    assert check.max_closure < 1e-14


def test_verify_factorization_rejects_zero_sample():
    fact = factorize_kdvb(0.0, Sign.MINUS)
    with pytest.raises(ParameterDomainError):
        verify_factorization(fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, [1.0, 0.0])


def test_verify_factorization_rejects_empty_samples():
    fact = factorize_kdvb(0.0, Sign.MINUS)
    with pytest.raises(ParameterDomainError):
        verify_factorization(fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, [])


def test_verify_factorization_catches_a_broken_derivative():
    # feeding a wrong closed-form derivative must show up in the closure residual
    fact = factorize_kdvb(0.0, Sign.MINUS)
    check = verify_factorization(
        fact.f1_at, fact.f2_at, fact.F_at, lambda U: fact.f1U_prime_at(U) + 0.05, [1.0, 4.0]
    )
    assert check.max_closure == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("build", [
    lambda: factorize_kdvb(math.nan, Sign.MINUS),
    lambda: factorize_kdvb(-math.inf, Sign.PLUS),
    lambda: factorize_compound(ReducedParams(p=math.nan, q=2.0), Sign.PLUS),
    lambda: factorize_compound(ReducedParams(p=0.0, q=math.inf), Sign.MINUS),
    lambda: factorize_compound(ReducedParams(p=math.inf, q=math.nan), Sign.MINUS),
    # ints beyond the float range ended in a bare OverflowError
    lambda: factorize_kdvb(10**400, Sign.PLUS),
    lambda: factorize_compound(ReducedParams(p=-(10**400), q=2.0), Sign.PLUS),
    lambda: factorize_compound(ReducedParams(p=0.0, q=10**400), Sign.MINUS),
])
def test_non_finite_coefficients_are_domain_errors(build):
    with pytest.raises(ParameterDomainError, match="must be finite"):
        build()


@pytest.mark.parametrize("delta", [1e200, -1e200, 1e308, -1.7976931348623157e308])
@pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
def test_kdvb_delta_whose_p_or_k_overflows_is_a_domain_error(delta, sign):
    # k = p*delta - delta**2 is inf - inf = nan at |delta| = 1e200; p = inf at 1e308
    with pytest.raises(ParameterDomainError, match="float range"):
        factorize_kdvb(delta, sign)


def test_kdvb_keeps_large_finite_coefficients():
    fact = factorize_kdvb(1e150, Sign.MINUS)
    assert math.isfinite(fact.p) and math.isfinite(fact.k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [np.int64(2**62), 2**62, np.int64(-3), np.float64(0.1), 0.1],
                         ids=repr)
def test_kdvb_computes_with_the_float_of_delta(delta):
    # np.int64 squared in k = p*delta - delta**2 overflowed with a RuntimeWarning; a float
    # keeps its bits
    fact = factorize_kdvb(delta, Sign.PLUS)
    assert type(fact.delta) is float and fact.delta == float(delta)
    assert (fact.p, fact.k) == (2.0 * fact.delta + 6.0 / 25.0,
                                fact.p * fact.delta - fact.delta * fact.delta)


@pytest.mark.parametrize("nan_at", [0, 1, 2])
def test_verify_factorization_keeps_a_nan_residual(nan_at):
    # max(0.0, nan) is 0.0: a NaN residual must not read as an exact factorization
    fact = factorize_kdvb(0.0, Sign.MINUS)
    samples = [0.5, 1.0, 2.0]

    def f1(U):
        return math.nan if U == samples[nan_at] else fact.f1_at(U)

    check = verify_factorization(f1, fact.f2_at, fact.F_at, fact.f1U_prime_at, samples)
    assert math.isnan(check.max_product) and check.max_closure < 1e-14
