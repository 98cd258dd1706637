"""Tests for the physical <-> reduced coefficient and coordinate maps."""

import math

import pytest
from hypothesis import given, strategies as st

from kdvbwaves import (
    ParameterDomainError,
    PhysicalParams,
    ReducedParams,
    reduce,
    to_physical_amplitude,
    to_reduced_coordinate,
)


def test_reduce_known_values():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)
    red = reduce(params)
    assert red.p == pytest.approx(-0.08, abs=1e-15)
    assert red.q == pytest.approx(4.0 / 27.0, abs=1e-15)
    assert red.theta0 == 0j
    assert red.delta is None and red.k is None


def test_reduce_q_zero_for_plain_kdvb():
    params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
    red = reduce(params)
    assert red.q == 0.0
    assert red.p == pytest.approx(0.2 / 36.0)


def test_amplitude_map_example():
    # (2*mu^2/(alpha*s)) * w  =  (2*25/2) * 3/50  =  3/2
    params = PhysicalParams(s=1.0, mu=5.0, alpha=2.0, beta=0.0, v=0.0)
    assert to_physical_amplitude(3.0 / 50.0, params) == pytest.approx(1.5)


def test_phase_constant_maps_through_reduction():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0, xi0=4.0 + 2j)
    red = reduce(params)
    assert red.theta0 == (4.0 + 2j) * 0.5


@pytest.mark.parametrize("bad", ["s", "mu", "alpha"])
def test_zero_coefficients_rejected(bad):
    kwargs = dict(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.0)
    kwargs[bad] = 0.0
    with pytest.raises(ParameterDomainError):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("bad", ["s", "mu", "alpha", "beta", "v", "xi0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_physical_coefficients_rejected(bad, value):
    kwargs = dict(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.0, xi0=0j)
    kwargs[bad] = complex(0.0, value) if bad == "xi0" else value
    with pytest.raises(ParameterDomainError, match=bad):
        PhysicalParams(**kwargs)


@pytest.mark.parametrize("coefficients", [
    dict(s=1.0, mu=1e-300, alpha=1.0, beta=0.0, v=0.0),  # mu**2 underflows to 0
    dict(s=1e-300, mu=1e300, alpha=1.0, beta=0.0, v=0.0),  # mu**2 overflows
    dict(s=1.0, mu=1.0, alpha=1e200, beta=1.0, v=0.0),  # alpha**2 overflows
    dict(s=1e-300, mu=1.0, alpha=1e-100, beta=1.0, v=0.0),  # s*alpha**2 underflows to 0
    dict(s=1e10, mu=1.0, alpha=1.0, beta=0.0, v=1e300),  # p overflows to inf
    dict(s=1e-300, mu=1e10, alpha=1.0, beta=0.0, v=0.0, xi0=1e300),  # theta0 overflows
], ids=repr)
def test_reduction_leaving_the_float_range_is_a_domain_error(coefficients):
    with pytest.raises(ParameterDomainError, match="float range"):
        reduce(PhysicalParams(**coefficients))


def test_beta_zero_is_legal():
    PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.0)


def test_params_are_frozen():
    params = PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.0)
    with pytest.raises(AttributeError):
        params.v = 2.0
    red = ReducedParams(p=0.0, q=0.0)
    with pytest.raises(AttributeError):
        red.p = 1.0


nonzero = st.floats(min_value=0.1, max_value=50.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)
bounded = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(s=nonzero, mu=nonzero, alpha=nonzero, v=bounded, x=bounded, t=bounded)
def test_coordinate_maps_are_inverse(s, mu, alpha, v, x, t):
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=0.0, v=v)
    theta = to_reduced_coordinate(x, t, params)
    back = (s / mu) * theta + v * t  # x = (s/mu)*theta + v*t + xi0, with xi0 = 0
    assert back == pytest.approx(x, abs=1e-9 * max(1.0, abs(x), abs(v * t)))


@given(s=nonzero, mu=nonzero, alpha=nonzero, w=bounded)
def test_amplitude_maps_are_inverse(s, mu, alpha, w):
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=0.0, v=0.0)
    u = to_physical_amplitude(w, params)
    back = (alpha * s / (2.0 * mu**2)) * u  # w = (alpha*s/(2*mu^2))*u
    assert back == pytest.approx(w, rel=1e-12, abs=1e-12)


@given(s=nonzero, mu=nonzero, alpha=nonzero, beta=bounded, v=bounded)
def test_reduced_p_matches_definition(s, mu, alpha, beta, v):
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    red = reduce(params)
    assert red.p == pytest.approx(v * s / mu**2, rel=1e-12, abs=1e-300)
    assert red.q == pytest.approx(
        4.0 * beta * mu**2 / (3.0 * s * alpha**2), rel=1e-12, abs=1e-300
    )


def test_coordinate_map_carries_imaginary_phase():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=1.0, beta=0.0, v=0.0, xi0=5j * math.pi)
    theta = to_reduced_coordinate(3.0, 0.0, params)
    assert theta.real == pytest.approx(1.5)
    assert theta.imag == pytest.approx(-2.5 * math.pi)
