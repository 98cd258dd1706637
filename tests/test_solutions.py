"""Tests for the closed-form families, their jets, and the phase sweep."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kdvbwaves import (
    Family,
    ParameterDomainError,
    PhaseSweep,
    PhysicalParams,
    PoleError,
    ReducedParams,
    Sign,
    UnsupportedDomainError,
    compound_discriminant_root,
    compound_solution,
    compound_solution_from_physical,
    constant_solution,
    eval_compound,
    eval_compound_physical,
    eval_kdvb_physical,
    eval_rational,
    eval_rational_physical,
    eval_solution,
    eval_solution_physical,
    eval_universal,
    evaluate_grid,
    kdvb_solution_from_physical,
    locked_rational_velocity,
    physical_discriminant_root,
    physical_jet,
    rational_solution,
    rational_solution_from_physical,
    reduce,
    solution_jet,
    sweep_rows,
    to_physical_amplitude,
    to_reduced_coordinate,
    universal_solution,
)
from kdvbwaves.solutions import POLE_TOL

FIG7 = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)


# ---------------------------------------------------------------------------
# universal (plain KdVB) families


def test_regular_kink_reference_values():
    assert eval_universal(Family.KDVB_REGULAR, 0.0) == pytest.approx(3.0 / 50.0)
    # tails: 0 on the left, (3/50)*4 = 6/25 on the right
    assert abs(eval_universal(Family.KDVB_REGULAR, -200.0)) < 1e-15
    assert eval_universal(Family.KDVB_REGULAR, 200.0) == pytest.approx(0.24, abs=1e-15)


def test_regular_kink_tail_convergence_rate():
    # the right tail closes its last 1e-8 gap only around theta ~ 90
    assert abs(eval_universal(Family.KDVB_REGULAR, 50.0) - 0.24) < 1e-4
    assert abs(eval_universal(Family.KDVB_REGULAR, 90.0) - 0.24) < 1e-8


def test_real_infinite_coordinates_give_the_asymptotes():
    # the scalar evaluators used to die in round(nan) here
    inf = math.inf
    for fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        for theta0 in (0j, 0.4j, 5j * math.pi):
            assert eval_universal(fam, inf, theta0) == pytest.approx(6.0 / 25.0, abs=1e-15)
            assert abs(eval_universal(fam, -inf, theta0)) < 1e-15
    rp = ReducedParams(p=1.0, q=1.0, theta0=0.3j)
    root, b = compound_discriminant_root(1.0, 1.0), 1.0 / (3.0 * math.sqrt(2.0))
    for fam, sign in ((Family.COMPOUND_TANH_PLUS, 1.0), (Family.COMPOUND_TANH_MINUS, -1.0)):
        for end in (1.0, -1.0):
            value = eval_compound(fam, end * inf, rp)
            assert value == pytest.approx(-1.0 / 3.0 + sign * b * (1.0 + end * root), abs=1e-15)
    # NaN has no asymptote: a domain error, not a silent NaN
    with pytest.raises(ParameterDomainError):
        eval_universal(Family.KDVB_REGULAR, math.nan)
    with pytest.raises(ParameterDomainError):
        eval_compound(Family.COMPOUND_TANH_PLUS, math.nan, rp)


@pytest.mark.parametrize("xi0", [0j, 0.3j, complex(0.5, -0.7)])
def test_physical_infinite_coordinates_give_the_asymptotes(xi0):
    # the direct physical formulas used to die in round(nan) here: Im z became NaN
    inf, nan = math.inf, math.nan
    kdvb = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=xi0)
    c = 3.0 * 6.0**2 / 25.0
    for fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        assert eval_kdvb_physical(fam, inf, 0.7, kdvb) == pytest.approx(0.2 + 2.0 * c, abs=1e-14)
        assert eval_kdvb_physical(fam, -inf, 0.7, kdvb) == pytest.approx(0.2 - 2.0 * c, abs=1e-14)
    compound = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04, xi0=xi0)
    root, amp = physical_discriminant_root(compound), 1.0 / math.sqrt(6.0 * 2.0 * 2.0)
    for fam, sign in ((Family.COMPOUND_TANH_PLUS, 1.0), (Family.COMPOUND_TANH_MINUS, -1.0)):
        for end in (1.0, -1.0):
            expected = -3.0 / 4.0 + sign * amp * (1.0 + end * root)
            assert eval_compound_physical(fam, end * inf, 0.25, compound) == pytest.approx(
                expected, abs=1e-14)
    # NaN has no asymptote: a domain error, not a ValueError from round(nan)
    for fam, params, evaluate in ((Family.KDVB_REGULAR, kdvb, eval_kdvb_physical),
                                  (Family.KDVB_SINGULAR, kdvb, eval_kdvb_physical),
                                  (Family.COMPOUND_TANH_MINUS, compound, eval_compound_physical)):
        for x, t in ((nan, 0.0), (0.0, nan), (inf, inf if params.v > 0 else -inf)):
            with pytest.raises(ParameterDomainError, match="must not be NaN"):
                evaluate(fam, x, t, params)
    # also where the degenerate kink (D = 0) is constant in the coordinate
    flat = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-25.0 / 24.0, xi0=xi0)
    assert physical_discriminant_root(flat) == 0.0
    with pytest.raises(ParameterDomainError, match="must not be NaN"):
        eval_compound_physical(Family.COMPOUND_TANH_PLUS, nan, 0.0, flat)
    with pytest.raises(ParameterDomainError, match="must not be NaN"):
        eval_compound(Family.COMPOUND_TANH_PLUS, nan, ReducedParams(p=-1.0 / 6.0, q=1.0))


def test_non_finite_constructor_inputs_are_domain_errors():
    nan, inf = math.nan, math.inf
    for build in (
        lambda: universal_solution(Family.KDVB_REGULAR, theta0=complex(0.0, nan)),
        lambda: universal_solution(Family.KDVB_SINGULAR, delta=inf),
        lambda: compound_solution(Family.COMPOUND_TANH_PLUS, nan, 1.0),
        lambda: compound_solution(Family.COMPOUND_TANH_MINUS, 1.0, inf),
        lambda: compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0, theta0=-inf),
        lambda: rational_solution(Family.RATIONAL_PLUS, nan, 1.0),
        lambda: rational_solution(Family.RATIONAL_MINUS, 0.5, inf),
    ):
        with pytest.raises(ParameterDomainError, match="must be finite"):
            build()
    sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2))
    with pytest.raises(ParameterDomainError, match="must be finite"):
        evaluate_grid(sol, np.zeros(3), nan)


def test_singular_solution_value_and_pole():
    assert eval_universal(Family.KDVB_SINGULAR, 1.0) == pytest.approx(7.3040372724671894)
    with pytest.raises(PoleError) as err:
        eval_universal(Family.KDVB_SINGULAR, 0.0)
    assert err.value.location == pytest.approx(0.0)


def test_pole_location_respects_phase_shift():
    with pytest.raises(PoleError) as err:
        eval_universal(Family.KDVB_SINGULAR, 3.0, 3.0)
    assert err.value.location == pytest.approx(3.0)


def test_phase_shift_identity_tanh_to_coth():
    # shifting the phase constant by 5*i*pi turns the regular kink singular
    for theta in (-7.3, -1.0, 0.9, 4.0, 26.0):
        lhs = eval_universal(Family.KDVB_REGULAR, theta, 5j * math.pi)
        rhs = eval_universal(Family.KDVB_SINGULAR, theta, 0j)
        assert abs(lhs - rhs) < 1e-13


def test_complex_phase_midpoint_value():
    # theta0 = -2.5*i*pi: U(0) = (3/50)*(1 + tanh(i*pi/4))^2 = (3/50)*(1+i)^2 = 0.12i
    val = eval_universal(Family.KDVB_REGULAR, 0.0, -2.5j * math.pi)
    assert val == pytest.approx(0.12j, abs=1e-14)


def test_kdvb_physical_equals_transformed_reduced():
    # independent spellings: direct physical formula vs amplitude-mapped U
    params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.35)
    for fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        for x in (-2.0, -0.5, 1.1, 3.0):
            theta = to_reduced_coordinate(x, 0.7, params)
            expected = params.v / params.alpha + to_physical_amplitude(
                eval_universal(fam, theta) - 3.0 / 25.0, params
            )
            assert eval_kdvb_physical(fam, x, 0.7, params) == pytest.approx(expected, abs=1e-12)


def test_universal_solution_constructor_locks_k():
    sol = universal_solution(Family.KDVB_REGULAR, delta=1.5)
    assert sol.reduced.p == pytest.approx(2.0 * 1.5 + 0.24)
    assert sol.reduced.k == pytest.approx(sol.reduced.p * 1.5 - 1.5**2)
    assert sol.sign is Sign.MINUS


def test_universal_constructor_rejects_wrong_family():
    with pytest.raises(ParameterDomainError):
        universal_solution(Family.COMPOUND_TANH_PLUS)


def test_kdvb_solution_from_physical_recovers_delta():
    params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
    sol = kdvb_solution_from_physical(Family.KDVB_REGULAR, params)
    p = reduce(params).p
    assert sol.reduced.delta == pytest.approx((p - 0.24) / 2.0)


# ---------------------------------------------------------------------------
# compound families


def test_discriminant_root_known_value():
    # p = 1, q = 1: 18 + 6 - 3 = 21
    assert compound_discriminant_root(1.0, 1.0) == pytest.approx(math.sqrt(21.0))


def test_discriminant_snaps_to_zero_near_degeneracy():
    q = 4.0 / 27.0
    p = (1.0 - 2.0 / q) / 6.0  # exact degeneracy in real arithmetic
    assert compound_discriminant_root(p, q) == 0.0
    assert compound_discriminant_root(p * (1.0 + 1e-14), q) == 0.0


def test_discriminant_rejects_oscillatory_regime():
    with pytest.raises(UnsupportedDomainError):
        compound_discriminant_root(-10.0, 1.0)


def test_physical_discriminant_matches_reduced_route():
    root_physical = physical_discriminant_root(FIG7)
    red = reduce(FIG7)
    assert root_physical == pytest.approx(compound_discriminant_root(red.p, red.q), rel=1e-13)


def test_locked_velocity_zeroes_the_discriminant():
    params = PhysicalParams(
        s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7)
    )
    assert physical_discriminant_root(params) == 0.0


def test_compound_kink_midpoint_and_tails():
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    D = sol.Delta
    b = 1.0 / (3.0 * math.sqrt(2.0))
    mid = eval_compound(Family.COMPOUND_TANH_PLUS, 0.0, sol.reduced)
    assert mid == pytest.approx(-1.0 / 3.0 + b)
    left = eval_compound(Family.COMPOUND_TANH_PLUS, -400.0, sol.reduced)
    right = eval_compound(Family.COMPOUND_TANH_PLUS, 400.0, sol.reduced)
    assert left == pytest.approx(-1.0 / 3.0 + b * (1.0 - D), abs=1e-14)
    assert right == pytest.approx(-1.0 / 3.0 + b * (1.0 + D), abs=1e-14)


def test_compound_minus_is_mirror_of_plus():
    rp = ReducedParams(p=0.5, q=2.0)
    for theta in (-3.0, 0.0, 2.5):
        plus = eval_compound(Family.COMPOUND_TANH_PLUS, theta, rp)
        minus = eval_compound(Family.COMPOUND_TANH_MINUS, theta, rp)
        assert (plus + minus) == pytest.approx(-2.0 / (3.0 * rp.q), abs=1e-14)


def test_compound_theta0_is_a_translation():
    rp0 = ReducedParams(p=1.0, q=1.0)
    rp2 = ReducedParams(p=1.0, q=1.0, theta0=2.0)
    for theta in (-1.0, 0.4, 3.3):
        assert eval_compound(Family.COMPOUND_TANH_PLUS, theta + 2.0, rp2) == pytest.approx(
            eval_compound(Family.COMPOUND_TANH_PLUS, theta, rp0), abs=1e-14
        )


def test_compound_physical_equals_transformed_reduced():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0, xi0=-0.6)
    red = reduce(params)
    for fam in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS):
        for x in (-4.0, 0.0, 2.2):
            theta = to_reduced_coordinate(x, 0.25, params)
            expected = to_physical_amplitude(
                eval_compound(fam, theta, ReducedParams(p=red.p, q=red.q)), params
            )
            assert eval_compound_physical(fam, x, 0.25, params) == pytest.approx(
                expected, abs=1e-12
            )


def test_compound_rejects_bad_domains():
    with pytest.raises(ParameterDomainError):
        compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 0.0)
    with pytest.raises(UnsupportedDomainError):
        compound_solution(Family.COMPOUND_TANH_PLUS, -10.0, 1.0)  # oscillatory
    with pytest.raises(ParameterDomainError):
        compound_solution(Family.KDVB_REGULAR, 1.0, 1.0)
    with pytest.raises(UnsupportedDomainError):
        eval_compound_physical(
            Family.COMPOUND_TANH_PLUS, 0.0, 0.0,
            PhysicalParams(s=-2.0, mu=1.0, alpha=3.0, beta=2.0, v=-10.0),
        )


# ---------------------------------------------------------------------------
# rational / constant families and branch pairing


def test_rational_reference_value():
    # q = 1/2: A = 1/2, constant part -(3/2)/(3/2) = -1
    val = eval_rational(Family.RATIONAL_PLUS, 1.0, 0.5, 1.0)
    assert val == pytest.approx(-(1.0 / 0.5) / (0.5 + 1.0) - 1.0)


def test_rational_pole_raises_with_location():
    with pytest.raises(PoleError) as err:
        eval_rational(Family.RATIONAL_PLUS, -0.5, 0.5, 1.0)
    assert err.value.location == pytest.approx(-0.5)


def test_constant_family_values_by_branch():
    q = 0.5
    plus = constant_solution(Sign.PLUS, q)
    minus = constant_solution(Sign.MINUS, q)
    assert eval_solution(plus, 0.0) == pytest.approx(-1.0)  # -(1.5)/(6*0.25)
    assert eval_solution(minus, 0.0) == pytest.approx(-(-0.5 + 1.0) / (6.0 * 0.25))


def test_constant_family_rejects_nonzero_k0():
    with pytest.raises(ParameterDomainError):
        rational_solution(Family.CONSTANT, 0.5, 1.0)
    with pytest.raises(ParameterDomainError):
        eval_rational(Family.CONSTANT, 0.0, 0.5, 1.0)


def test_rational_locks_p_to_q():
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0)
    assert sol.reduced.p == pytest.approx((1.0 - 4.0) / 6.0)
    assert sol.Delta == 0.0


def test_degenerate_limit_pairing_is_opposite_signed():
    # the plus kink collapses onto the A = -sqrt(q/2) constant, not the
    # A = +sqrt(q/2) one; quadratic in the discriminant root
    q = 0.5
    p0 = (1.0 - 2.0 / q) / 6.0
    paired = eval_rational(Family.CONSTANT, 0.0, q, 0.0, Sign.MINUS)
    unpaired = eval_rational(Family.CONSTANT, 0.0, q, 0.0, Sign.PLUS)
    for root in (0.1, 0.02):
        rp = ReducedParams(p=p0 + root * root / 18.0, q=q)
        val = eval_compound(Family.COMPOUND_TANH_PLUS, 1.0, rp)
        assert abs(val - paired) < 1.0 * root**2
        assert abs(val - unpaired) > 0.1
    minus_paired = eval_rational(Family.CONSTANT, 0.0, q, 0.0, Sign.PLUS)
    for root in (0.1, 0.02):
        rp = ReducedParams(p=p0 + root * root / 18.0, q=q)
        val = eval_compound(Family.COMPOUND_TANH_MINUS, 1.0, rp)
        assert abs(val - minus_paired) < 1.0 * root**2


def test_rational_physical_requires_locked_velocity():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-1.0)
    with pytest.raises(ParameterDomainError):
        rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    with pytest.raises(ParameterDomainError):
        eval_rational_physical(Family.RATIONAL_PLUS, 0.0, 0.0, params, 1.0)


def test_rational_physical_matches_manual_exact_spelling():
    # hand-spelled closed form with the rational term weighted by s:
    #   u = -(alpha/(2 beta))*(1 + eps) - 6*alpha*s*k0/(2*beta*s + k0*sqrt(6*s*beta*alpha^2)*X)
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    eps = mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2))
    k0 = 1.0
    for x, t in ((3.0, 0.0), (5.5, 0.4), (9.0, -1.0)):
        X = x - v * t
        manual = -(alpha / (2.0 * beta)) * (1.0 + eps) - 6.0 * alpha * s * k0 / (
            2.0 * beta * s + k0 * math.sqrt(6.0 * s * beta * alpha**2) * X
        )
        got = eval_rational_physical(Family.RATIONAL_PLUS, x, t, params, k0)
        assert got == pytest.approx(manual, rel=1e-12)


def test_rational_physical_k0_zero_is_the_constant():
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    eps = mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2))
    val = eval_rational_physical(Family.RATIONAL_PLUS, 7.0, 2.0, params, 0.0)
    assert val == pytest.approx(-(alpha / (2.0 * beta)) * (1.0 + eps), rel=1e-14)


RATIONAL_K0 = ((Family.RATIONAL_PLUS, 1.0), (Family.RATIONAL_MINUS, -2.0))


def test_rational_infinite_theta_gives_the_constant():
    # the reduced rational evaluator used to return nan+nanj here
    q, inf, nan = 0.5, math.inf, math.nan
    for fam, k0 in RATIONAL_K0:
        A = (1.0 if fam is Family.RATIONAL_PLUS else -1.0) * math.sqrt(q / 2.0)
        const = -(A + 1.0) / (6.0 * A * A)
        sol = rational_solution(fam, q, k0)
        for theta in (inf, -inf, complex(inf, 1.0), complex(0.5, -inf)):
            assert eval_rational(fam, theta, q, k0) == const
            assert eval_solution(sol, theta) == const
        for theta in (nan, complex(0.0, nan), complex(inf, nan)):
            with pytest.raises(ParameterDomainError, match="must not be NaN"):
                eval_rational(fam, theta, q, k0)
            with pytest.raises(ParameterDomainError, match="must not be NaN"):
                eval_solution(sol, theta)
    # the constant member has no asymptote to reach, but NaN is still no coordinate
    assert eval_rational(Family.CONSTANT, inf, q, 0.0) == -1.0
    with pytest.raises(ParameterDomainError, match="must not be NaN"):
        eval_rational(Family.CONSTANT, nan, q, 0.0)


@pytest.mark.parametrize("xi0", [0j, 0.3j, complex(0.5, -0.7)])
def test_rational_physical_infinite_coordinates_give_the_constant(xi0):
    # eval_rational_physical used to return nan+nanj here: theta = mu*(x - v*t - xi0)/s
    # is a complex product, so an infinite x made its imaginary part NaN
    inf, nan = math.inf, math.nan
    v = locked_rational_velocity(PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=0.0))
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=v, xi0=xi0)
    assert v < 0  # so x = t = +inf is x - v*t = +inf, and x = inf, t = -inf is NaN
    q = reduce(params).q
    for fam, k0 in RATIONAL_K0:
        A = (1.0 if fam is Family.RATIONAL_PLUS else -1.0) * math.sqrt(q / 2.0)
        const = -(3.0 / (2.0 * 2.0)) * (A + 1.0)
        sol = rational_solution_from_physical(fam, params, k0)
        for x, t in ((inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf), (inf, inf), (1e308, 0.5)):
            assert eval_rational_physical(fam, x, t, params, k0) == pytest.approx(const, abs=1e-15)
            assert eval_solution_physical(sol, x, t) == pytest.approx(const, abs=1e-15)
        # far out, but finite: the formula itself, approaching the constant
        assert abs(eval_rational_physical(fam, 1e8, 0.0, params, k0) - const) < 1e-7
        for x, t in ((nan, 0.0), (0.0, nan), (inf, -inf)):
            with pytest.raises(ParameterDomainError, match="must not be NaN"):
                eval_rational_physical(fam, x, t, params, k0)
            with pytest.raises(ParameterDomainError, match="must not be NaN"):
                eval_solution_physical(sol, x, t)
    constant = constant_solution(Sign.MINUS, q, physical=params)
    with pytest.raises(ParameterDomainError, match="must not be NaN"):
        eval_solution_physical(constant, nan, 0.0)
    assert eval_solution_physical(constant, -inf, 0.0) == eval_solution_physical(constant, 0.0, 0.0)


def test_wave_solution_records_epsilon_and_k0():
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    sol = rational_solution_from_physical(Family.RATIONAL_MINUS, params, -2.0)
    assert sol.k0 == -2.0
    assert sol.epsilon == pytest.approx(mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2)))
    kdvb = universal_solution(
        Family.KDVB_REGULAR, physical=PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.24)
    )
    assert kdvb.epsilon is None  # beta*s = 0 has no epsilon


# ---------------------------------------------------------------------------
# dispatchers


def test_eval_solution_dispatch_agrees_with_family_evaluators():
    cases = [
        (universal_solution(Family.KDVB_REGULAR), 1.3),
        (universal_solution(Family.KDVB_SINGULAR), 2.0),
        (compound_solution(Family.COMPOUND_TANH_MINUS, 1.0, 1.0), -0.7),
        (rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0), 2.0),
        (constant_solution(Sign.MINUS, 2.0), 5.0),
    ]
    for sol, theta in cases:
        direct = eval_solution(sol, theta)
        assert cmath.isfinite(direct)
    reg = universal_solution(Family.KDVB_REGULAR, theta0=1j)
    assert eval_solution(reg, 0.5) == eval_universal(Family.KDVB_REGULAR, 0.5, 1j)


def test_eval_solution_physical_requires_coefficients():
    sol = universal_solution(Family.KDVB_REGULAR)
    with pytest.raises(ParameterDomainError):
        eval_solution_physical(sol, 0.0, 0.0)


def test_physical_dispatch_agrees_with_direct_formulas():
    sol = compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, FIG7)
    assert eval_solution_physical(sol, 1.0, 0.5) == eval_compound_physical(
        Family.COMPOUND_TANH_PLUS, 1.0, 0.5, FIG7
    )


# ---------------------------------------------------------------------------
# analytic jets vs finite differences
#
# each derivative order is checked against a five-point stencil of the order
# below it, so a sign or factor slip in any closed-form derivative surfaces.


def _fd5(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def _jet_at(sol, theta):
    """solution_jet at one reduced coordinate, as four Python complexes."""
    jet, pole = solution_jet(sol, theta)
    assert not pole
    return [complex(d) for d in jet]


@pytest.mark.parametrize("family", [Family.KDVB_REGULAR, Family.KDVB_SINGULAR])
def test_universal_jet_matches_finite_differences(family):
    theta0 = 0.4j
    sol = universal_solution(family, theta0=theta0)
    h = 1e-3
    for theta in (-6.0, 1.0, 2.7, 11.0):
        U, U1, U2, U3 = _jet_at(sol, theta)
        assert abs(U - eval_universal(family, theta, theta0)) < ULPS * EPS * max(1.0, abs(U))
        fd1 = _fd5(lambda th: eval_universal(family, th, theta0), theta, h)
        fd2 = _fd5(lambda th: _jet_at(sol, th)[1], theta, h)
        fd3 = _fd5(lambda th: _jet_at(sol, th)[2], theta, h)
        assert abs(U1 - fd1) < 1e-9 * max(1.0, abs(U1))
        assert abs(U2 - fd2) < 1e-9 * max(1.0, abs(U2))
        assert abs(U3 - fd3) < 1e-9 * max(1.0, abs(U3))


def test_compound_jet_matches_finite_differences():
    rp = ReducedParams(p=1.0, q=1.0)
    fam = Family.COMPOUND_TANH_PLUS
    sol = compound_solution(fam, rp.p, rp.q)
    h = 1e-3
    for theta in (-2.0, 0.3, 1.9):
        U, U1, U2, U3 = _jet_at(sol, theta)
        fd1 = _fd5(lambda th: eval_compound(fam, th, rp), theta, h)
        fd2 = _fd5(lambda th: _jet_at(sol, th)[1], theta, h)
        fd3 = _fd5(lambda th: _jet_at(sol, th)[2], theta, h)
        assert abs(U1 - fd1) < 1e-8
        assert abs(U2 - fd2) < 1e-8
        assert abs(U3 - fd3) < 1e-7


def test_rational_jet_matches_finite_differences():
    fam, q, k0 = Family.RATIONAL_PLUS, 0.5, 1.0
    sol = rational_solution(fam, q, k0)
    h = 1e-4
    for theta in (0.5, 2.0, 7.0):
        U, U1, U2, U3 = _jet_at(sol, theta)
        fd1 = _fd5(lambda th: eval_rational(fam, th, q, k0), theta, h)
        fd2 = _fd5(lambda th: _jet_at(sol, th)[1], theta, h)
        assert abs(U1 - fd1) < 1e-8 * max(1.0, abs(U1))
        assert abs(U2 - fd2) < 1e-8 * max(1.0, abs(U2))
        assert U3 == pytest.approx(6.0 * k0**4 / (0.5 * (0.5 + k0 * theta) ** 4))


def test_solution_jet_displaces_kdvb_families():
    w, w1, _, _ = _jet_at(universal_solution(Family.KDVB_REGULAR, delta=2.0), 1.0)
    U, U1, _, _ = _jet_at(universal_solution(Family.KDVB_REGULAR), 1.0)
    assert w == pytest.approx(U + 2.0)
    assert w1 == U1


@given(theta=st.floats(min_value=-15.0, max_value=15.0))
@settings(max_examples=40)
def test_regular_jet_derivative_property(theta):
    # U = (3/50)(1+T)^2 must satisfy U' = (1/5)(1+T)(1-T^2)*(3/50)... i.e.
    # d/dtheta with T' = (1-T^2)/10; checked against the stencil
    _, U1, _, _ = _jet_at(universal_solution(Family.KDVB_REGULAR), theta)
    fd = _fd5(lambda th: eval_universal(Family.KDVB_REGULAR, th), theta, 1e-3)
    assert abs(U1 - fd) < 1e-9


def _all_families():
    """One reduced and one physical solution per family, each with a pole in range."""
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7))
    kdvb = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.3)
    return [
        (universal_solution(Family.KDVB_REGULAR, theta0=-5j * math.pi, delta=0.7),
         kdvb_solution_from_physical(Family.KDVB_REGULAR, kdvb)),
        (universal_solution(Family.KDVB_SINGULAR, theta0=0.2),
         kdvb_solution_from_physical(Family.KDVB_SINGULAR, kdvb)),
        (compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0, theta0=1j * math.pi),
         compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, FIG7)),
        (compound_solution(Family.COMPOUND_TANH_MINUS, 0.5, 2.0),
         compound_solution_from_physical(Family.COMPOUND_TANH_MINUS, FIG7)),
        (rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0),
         rational_solution_from_physical(Family.RATIONAL_PLUS, locked, 1.0)),
        (rational_solution(Family.RATIONAL_MINUS, 0.5, -2.0),
         rational_solution_from_physical(Family.RATIONAL_MINUS, locked, 0.5)),
        (constant_solution(Sign.MINUS, 0.5),
         rational_solution_from_physical(Family.CONSTANT, locked, 0.0, Sign.MINUS)),
    ]


@pytest.mark.parametrize("index", range(7))
def test_jets_share_the_kernel_values_and_pole_masks(index):
    # the jet's value channel and mask are evaluate_grid's, bit for bit: in
    # reduced coordinates w = U + delta, in physical ones u itself
    sol, phys = _all_families()[index]
    theta = np.concatenate([np.linspace(-30.0, 30.0, 241), [-0.5, 0.0, 0.5, 1.0, -1.0]])
    (w, *slopes), pole = solution_jet(sol, theta)
    values, grid_pole = evaluate_grid(sol, theta)
    assert np.array_equal(pole, grid_pole)
    assert np.array_equal(w[~pole], values[~pole] + (sol.reduced.delta or 0.0))
    assert all(np.isnan(d[pole]).all() for d in (w, *slopes))
    x = np.linspace(-10.0, 10.0, 241)
    for t in (0.0, 0.4):
        (u, ux, uxx, uxxx, ut), pole = physical_jet(phys, x, t)
        values, grid_pole = evaluate_grid(phys, x, t)
        assert np.array_equal(pole, grid_pole)
        assert np.array_equal(u[~pole], values[~pole])
        assert np.array_equal(ut[~pole], -phys.physical.v * ux[~pole])


@pytest.mark.parametrize("index", range(7))
def test_physical_jet_is_the_chain_rule_image(index):
    _, phys = _all_families()[index]
    pp = phys.physical
    x, t, h = np.linspace(-7.3, 7.9, 37), 0.3, 1e-4
    (u, ux, uxx, uxxx, _), pole = physical_jet(phys, x, t)
    ok = ~pole
    shifted = [physical_jet(phys, x + k * h, t)[0] for k in (-2, -1, 1, 2)]
    derivatives = (u, ux, uxx, uxxx)
    for n, upper in enumerate(derivatives[1:]):
        m2, m1, p1, p2 = (s[n] for s in shifted)
        fd = (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)
        assert np.all(np.abs(upper - fd)[ok] < 1e-6 * np.maximum(1.0, np.abs(upper[ok])))
    # scalar coordinates give 0-d results
    (u0, *_), pole0 = physical_jet(phys, 0.11, 0.2)
    assert u0.shape == () and pole0.shape == ()
    assert np.isclose(u0, eval_solution_physical(phys, 0.11, 0.2), rtol=1e-13, atol=1e-13 * abs(pp.v))


# ---------------------------------------------------------------------------
# phase sweep


def test_phase_sweep_validates_inputs():
    with pytest.raises(ParameterDomainError):
        PhaseSweep(0.0, 1.0, 1)
    with pytest.raises(ParameterDomainError):
        PhaseSweep(1.0, 0.0, 5)
    for a_min, a_max in ((-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ParameterDomainError, match="finite span"):
            PhaseSweep(a_min, a_max, 3)  # a_values() would be NaN
    sweep = PhaseSweep(-5.0, 0.0, 51)
    a = sweep.a_values()
    assert a[0] == -5.0 and a[-1] == 0.0 and len(a) == 51


def test_sweep_surface_shapes_and_flags():
    theta = np.linspace(-10.0, 10.0, 21)  # includes 0
    surface = sweep_rows(Family.KDVB_SINGULAR, np.array([0.0]), theta)
    assert surface.re.shape == (1, 21)
    mid = 10  # theta == 0 is a pole of the singular family
    assert surface.pole[0, mid]
    assert math.isnan(surface.re[0, mid]) and math.isnan(surface.im[0, mid])
    assert not surface.pole[0, 0]


def test_sweep_a0_slice_is_real_and_matches_regular():
    theta = np.linspace(-40.0, 40.0, 81)
    surface = sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), theta)
    assert np.all(surface.im[0] == 0.0)
    expected = [eval_universal(Family.KDVB_REGULAR, th).real for th in theta]
    assert np.allclose(surface.re[0], expected, atol=1e-15)


def test_sweep_a_minus5_slice_matches_singular_family():
    theta = np.linspace(-40.0, 40.0, 81)  # even spacing, no exact 0
    surface = sweep_rows(Family.KDVB_REGULAR, np.array([-5.0]), theta)
    for j, th in enumerate(theta):
        if surface.pole[0, j]:
            continue
        expected = eval_universal(Family.KDVB_SINGULAR, th)
        assert surface.re[0, j] == pytest.approx(expected.real, abs=1e-10)
        assert abs(surface.im[0, j] - expected.imag) < 1e-10


def test_intermediate_phase_grows_a_pocket():
    # left tail of the a = -2.5 slice dips below its asymptote and comes
    # back: the spatial derivative changes sign there, unlike at a = 0
    theta = np.linspace(-40.0, 0.0, 201)
    flat = sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), theta)
    pocket = sweep_rows(Family.KDVB_REGULAR, np.array([-2.5]), theta)
    d_flat = np.diff(flat.re[0])
    d_pocket = np.diff(pocket.re[0])
    assert np.all(d_flat > -1e-15)
    assert np.any(d_pocket > 1e-12) and np.any(d_pocket < -1e-12)


def test_sweep_rejects_empty_grids():
    with pytest.raises(ParameterDomainError):
        sweep_rows(Family.KDVB_REGULAR, np.array([]), np.array([0.0]))
    with pytest.raises(ParameterDomainError):
        sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), np.array([]))


# ---------------------------------------------------------------------------
# array kernel against the scalar evaluators
#
# numpy's complex tanh and cmath's differ in the last bit, and the physical
# path rounds the coordinate map in another order than the direct formulas,
# so values agree to a few ulp of their scale, not bit for bit.  The scale of
# a point is the larger of its own magnitude and the tails' magnitude.

ULPS = 16
EPS = np.finfo(float).eps
# tails at |coordinate| = 800; the cases below put a pole on a node of the
# 0.1-step grid (theta = 0, 3, 2, -0.5; x = 0.5, -0.1, 2, 1, 1)
KERNEL_GRID = np.concatenate([[-800.0], np.linspace(-40.0, 40.0, 801), [800.0]])


def _reduced_kernel_cases():
    root = compound_discriminant_root(1.0, 1.0)
    return {
        "regular": universal_solution(Family.KDVB_REGULAR),
        "regular-2.5ipi": universal_solution(Family.KDVB_REGULAR, theta0=-2.5j * math.pi),
        "regular+5ipi": universal_solution(Family.KDVB_REGULAR, theta0=5j * math.pi),
        "singular": universal_solution(Family.KDVB_SINGULAR, theta0=3.0),
        "compound-plus": compound_solution(
            Family.COMPOUND_TANH_PLUS, 1.0, 1.0, theta0=2.0 - 3j * math.pi / root),
        "compound-minus": compound_solution(
            Family.COMPOUND_TANH_MINUS, 1.0, 1.0, theta0=-2.5j * math.pi),
        "compound-degenerate": compound_solution(Family.COMPOUND_TANH_PLUS, -0.5, 0.5),
        "rational-plus": rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0),
        "rational-minus": rational_solution(Family.RATIONAL_MINUS, 0.5, 2.0),
        "constant": constant_solution(Sign.MINUS, 0.5),
    }


def _physical_kernel_cases():
    kdvb = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.5)
    steep = PhysicalParams(s=0.5, mu=30.0, alpha=2.0, beta=0.0, v=0.1, xi0=-0.1)
    root = physical_discriminant_root(FIG7)
    shifted = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04,
                             xi0=2.0 - 3j * math.pi * 2.0 / root)
    A = math.sqrt(reduce(FIG7).q / 2.0)
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0,
                            v=locked_rational_velocity(FIG7), xi0=1.0 + 2.0 * A)
    degenerate = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-25.0 / 24.0)
    coeffs = dict(s=0.5, mu=2.0, alpha=3.0, beta=2.0)  # mu/s = 4
    A_steep = math.sqrt(reduce(PhysicalParams(v=0.0, **coeffs)).q / 2.0)
    locked_steep = PhysicalParams(v=locked_rational_velocity(PhysicalParams(v=0.0, **coeffs)),
                                  xi0=1.0 + 0.25 * A_steep, **coeffs)
    return {
        "regular": kdvb_solution_from_physical(Family.KDVB_REGULAR, kdvb),
        "singular": kdvb_solution_from_physical(Family.KDVB_SINGULAR, kdvb),
        "singular-steep": kdvb_solution_from_physical(Family.KDVB_SINGULAR, steep),
        "compound-plus": compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, shifted),
        "compound-minus": compound_solution_from_physical(Family.COMPOUND_TANH_MINUS, FIG7),
        "compound-degenerate": compound_solution_from_physical(
            Family.COMPOUND_TANH_PLUS, degenerate),
        "rational-plus": rational_solution_from_physical(Family.RATIONAL_PLUS, locked, 1.0),
        "rational-minus": rational_solution_from_physical(Family.RATIONAL_MINUS, locked, -2.0),
        "rational-steep": rational_solution_from_physical(Family.RATIONAL_PLUS, locked_steep, 1.0),
        "constant": rational_solution_from_physical(Family.CONSTANT, locked, 0.0, Sign.MINUS),
    }


KERNEL_CASES = [("reduced", name) for name in _reduced_kernel_cases()] + [
    ("physical", name) for name in _physical_kernel_cases()]


def _kernel_and_reference(mode, name, grid):
    """((values, pole) of evaluate_grid, (values, pole) of the scalar evaluator) on grid.

    The scalar pole set is where the scalar call raises PoleError; the
    kernel runs with every warning turned into an error.
    """
    if mode == "reduced":
        sol = _reduced_kernel_cases()[name]
        t, call = None, lambda c: eval_solution(sol, c)
    else:
        sol = _physical_kernel_cases()[name]
        t, call = 0.0, lambda c: eval_solution_physical(sol, c, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_grid(sol, grid, t)
    values, pole = [], []
    for c in grid.tolist():
        try:
            values.append(call(c))
        except PoleError:
            values.append(complex(math.nan, math.nan))
            pole.append(True)
        else:
            pole.append(False)
    return got, (np.array(values), np.array(pole))


@pytest.mark.parametrize("mode, name", KERNEL_CASES)
def test_array_kernel_matches_scalar(mode, name):
    (values, pole), (want, want_pole) = _kernel_and_reference(mode, name, KERNEL_GRID)
    assert np.array_equal(pole, want_pole)
    assert np.all(np.isnan(values.real[pole])) and np.all(np.isnan(values.imag[pole]))
    scale = np.maximum(np.abs(want[~pole]), max(abs(want[0]), abs(want[-1])))
    assert np.all(np.abs(values[~pole] - want[~pole]) <= ULPS * EPS * scale)


def test_array_kernel_cases_put_nodes_on_poles():
    with_pole = {"regular+5ipi", "singular", "compound-plus", "rational-plus"}
    for name, sol in _reduced_kernel_cases().items():
        assert evaluate_grid(sol, KERNEL_GRID)[1].any() == (name in with_pole), name
    with_pole = {"singular", "singular-steep", "compound-plus", "rational-plus", "rational-steep"}
    for name, sol in _physical_kernel_cases().items():
        assert evaluate_grid(sol, KERNEL_GRID, 0.0)[1].any() == (name in with_pole), name


# (mode, case, pole location, POLE_TOL measured in the grid coordinate): the
# tolerance is POLE_TOL * max(1, |dz/dx|) in the argument z of tanh/coth,
# and POLE_TOL in theta for the rational family in either mode
POLE_EDGES = [
    ("reduced", "singular", 3.0, 10.0 * POLE_TOL),  # z = theta/10
    ("reduced", "compound-plus", 2.0, 6.0 * POLE_TOL / math.sqrt(21.0)),  # z = D*theta/6
    ("reduced", "rational-plus", -0.5, POLE_TOL),
    ("physical", "singular-steep", -0.1, POLE_TOL),  # dz/dx = 6: x tol 6e-9 * 10s/mu
    ("physical", "rational-plus", 1.0, 2.0 * POLE_TOL),  # theta = mu*x/s, s/mu = 2
    ("physical", "rational-steep", 1.0, 0.25 * POLE_TOL),  # s/mu = 1/4, still unscaled
]


@pytest.mark.parametrize("mode, name, pole, tol", POLE_EDGES)
def test_array_kernel_pole_tolerance_matches_scalar(mode, name, pole, tol):
    grid = pole + tol * np.array([-2.0, -0.5, 0.5, 2.0])
    (_, got), (_, want) = _kernel_and_reference(mode, name, grid)
    assert got.tolist() == want.tolist() == [False, True, True, False]


def test_array_kernel_physical_mode_requires_coefficients():
    with pytest.raises(ParameterDomainError):
        evaluate_grid(universal_solution(Family.KDVB_REGULAR), KERNEL_GRID, 0.0)
