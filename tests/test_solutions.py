"""Tests for the closed-form families, their jets, and the phase sweep."""

import functools
import importlib.util
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kdvbwaves import (
    Family,
    ParameterDomainError,
    PhysicalParams,
    Sign,
    compound_solution,
    compound_solution_from_physical,
    eval_solution,
    eval_solution_physical,
    evaluate_grid,
    kdvb_solution_from_physical,
    locked_rational_velocity,
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
from kdvbwaves import solutions as solutions_module
from kdvbwaves.solutions import (
    _COMPOUND_FAMILIES,
    _KDVB_FAMILIES,
    POLE_TOL,
    compound_discriminant_root,
    reduce_kdvb_phase,
)
from kdvbwaves.verify import (
    _compound_formula,
    _kdvb_formula,
    _physical_formula,
    physical_discriminant_root,
)

FIG7 = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)


# ---------------------------------------------------------------------------
# 50-digit reference
#
# A third spelling of the reduced closed forms, in mpmath at 50 digits, for
# the tests that hold the array kernels to a reference in reduced
# coordinates.  Its pole set applies evaluate_grid's tolerance to the exact
# distance from the pole.  (Physical coordinates are held to verify's direct
# physical formulas, the finite-difference oracle.)


def _near_hyperbolic_pole(z, offset, tol):
    n = mpmath.nint(z.imag / mpmath.pi - offset)
    return abs(z - 1j * mpmath.pi * (n + offset)) < tol


def _reference(sol, theta):
    """(U(theta) rounded to a complex, on_pole) of a reduced solution; U is None on a pole."""
    fam = sol.family
    with mpmath.workdps(50):
        d = mpmath.mpc(theta) - mpmath.mpc(sol.reduced.theta0)
        if fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
            singular = fam is Family.KDVB_SINGULAR
            z = d / 10
            if _near_hyperbolic_pole(z, 0 if singular else 0.5, POLE_TOL):
                return None, True
            T = mpmath.coth(z) if singular else mpmath.tanh(z)
            U = mpmath.mpf(3) / 50 * (1 + T) ** 2
        elif fam in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS):
            q, D = mpmath.mpf(sol.reduced.q), mpmath.mpf(sol.Delta)
            b = (1 if fam is Family.COMPOUND_TANH_PLUS else -1) / (3 * mpmath.sqrt(2 * q))
            z = D * d / 6
            if _near_hyperbolic_pole(z, 0.5, POLE_TOL * max(1, D / 6)):
                return None, True
            U = -1 / (3 * q) + b * (1 + D * mpmath.tanh(z))
        else:
            sign = {Family.RATIONAL_PLUS: 1, Family.RATIONAL_MINUS: -1}.get(fam, sol.sign.factor)
            A, k0 = sign * mpmath.sqrt(mpmath.mpf(sol.reduced.q) / 2), mpmath.mpf(sol.k0 or 0.0)
            if k0 and abs(d + A / k0) < POLE_TOL:
                return None, True
            U = -(k0 / A) / (A + k0 * d) - (A + 1) / (6 * A**2)
        return complex(U), False


def _reference_value(sol, theta):
    value, on_pole = _reference(sol, theta)
    assert not on_pole
    return value


@functools.cache
def _closed_forms():
    """perfbench/closed_forms.py: the benchmark's 30-digit closed forms and their error bound."""
    path = Path(__file__).parents[1] / "perfbench" / "closed_forms.py"
    spec = importlib.util.spec_from_file_location("closed_forms", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reduced_bound(sol, theta, u):
    """closed_forms' bound on a compound or rational value u at a real theta, theta0 = 0.

    It is taken of the terms' scale, |u| and |dU/dtheta| * |theta|.
    """
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        if sol.family in _COMPOUND_FAMILIES:
            q, D = mpmath.mpf(sol.reduced.q), mpmath.mpf(sol.Delta)
            b = 1 / (3 * mpmath.sqrt(2 * q))
            T = mpmath.tanh(D * theta / 6)
            scale, slope = 1 / (3 * q) + b * (1 + D), b * D**2 * (1 - T * T) / 6
        else:
            A = sol.sign.factor * mpmath.sqrt(mpmath.mpf(sol.reduced.q) / 2)
            k0 = mpmath.mpf(sol.k0)
            g = A + k0 * theta
            scale, slope = abs((A + 1) / (6 * A * A)) + abs(k0 / A / g), k0 * k0 / (A * g * g)
        return _closed_forms()._bound(scale, u, abs(slope) * abs(theta))


def test_values_pinned_by_the_cli_tests_match_the_reference():
    # each finite cell that tests/test_cli.py pins by literal for evaluate and sweep, with
    # the solution its argv builds and the (theta, U) its row prints; pinned from the
    # program's own output, the rational cell held -0.56903559372884904, 1.9e14 bounds off
    kink = compound_solution(Family.COMPOUND_TANH_PLUS, 0.5, 2.0)
    rational = rational_solution(Family.RATIONAL_PLUS, 1.0, -1e308)
    cells = [(kink, -1e308, -0.5), (kink, -5.0000000000000001e307, -0.5), (kink, 1e154, 0.5),
             (rational, -2.5, -0.0033501687796110291)]
    off = []
    for sol, theta, value in cells:
        u = _reference_value(sol, theta)
        if not abs(value - u) <= _reduced_bound(sol, theta, u):
            off.append((sol.family, theta, value, u))
    # the sweep's row at a = 1e15 and theta = -1: a is taken by its exact period 10
    u, bound = _closed_forms().kdvb_reduced(False, -1.0, math.fmod(1e15, 10.0))
    assert off == [] and abs(0.048635863194158913 - complex(u)) <= bound


# ---------------------------------------------------------------------------
# universal (plain KdVB) families


def test_regular_kink_reference_values():
    regular = universal_solution(Family.KDVB_REGULAR)
    assert eval_solution(regular, 0.0) == pytest.approx(3.0 / 50.0)
    # tails: 0 on the left, (3/50)*4 = 6/25 on the right
    assert abs(eval_solution(regular, -200.0)) < 1e-15
    assert eval_solution(regular, 200.0) == pytest.approx(0.24, abs=1e-15)


def test_regular_kink_tail_convergence_rate():
    # the right tail closes its last 1e-8 gap only around theta ~ 90
    regular = universal_solution(Family.KDVB_REGULAR)
    assert abs(eval_solution(regular, 50.0) - 0.24) < 1e-4
    assert abs(eval_solution(regular, 90.0) - 0.24) < 1e-8


@pytest.mark.parametrize("index", range(7))
def test_non_finite_coordinates_are_domain_errors(index):
    # an infinite or NaN coordinate has neither a value nor a pole flag: every
    # entry point raises, and none emits a RuntimeWarning on the way
    sol, phys = _all_families()[index]
    inf, nan = math.inf, math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (inf, -inf, nan, complex(0.5, inf), complex(0.5, nan), complex(inf, nan)):
            for call in (lambda: eval_solution(sol, theta),
                         lambda: evaluate_grid(sol, np.array([0.0, theta])),
                         lambda: solution_jet(sol, np.array([theta, 1.0]))):
                with pytest.raises(ParameterDomainError, match="theta - theta0 must be finite"):
                    call()
        for x, t in ((inf, 0.0), (-inf, 0.4), (nan, 0.0), (0.0, inf), (0.0, nan), (inf, -inf)):
            for call in (lambda: eval_solution_physical(phys, x, t),
                         lambda: evaluate_grid(phys, np.array([0.0, x]), t),
                         lambda: physical_jet(phys, np.array([x, 1.0]), t)):
                with pytest.raises(ParameterDomainError, match="must be finite"):
                    call()


def test_overflowing_coordinate_map_is_a_domain_error():
    # mu/s = 600 takes x = 1e306 past the float range: this used to give NaN
    # values with pole flag 0 and a RuntimeWarning
    sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=600.0, alpha=1.0, beta=0.0, v=0.2))
    x = np.linspace(1e306, 2e306, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match="must be finite"):
            evaluate_grid(sol, x, 0.0)
        with pytest.raises(ParameterDomainError, match="must be finite"):
            physical_jet(sol, x, 0.0)
        (u,), pole = evaluate_grid(sol, x[:1] / 1e4, 0.0)  # 6e304 still maps
        assert not pole and u == pytest.approx(0.2 + 2.0 * 3.0 * 600.0**2 / 25.0)


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


def test_phase_too_coarse_to_place_a_pole_is_a_domain_error():
    # Im z = Im(theta0)/10 (KdVB) or Delta*Im(theta0)/6 (compound); past
    # 2**23 the float spacing there, 2**-29, exceeds POLE_TOL = 1e-9
    root = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0).Delta
    for build, scale in (
        (lambda th: universal_solution(Family.KDVB_REGULAR, theta0=th), 10.0),
        (lambda th: universal_solution(Family.KDVB_SINGULAR, theta0=th), 10.0),
        (lambda th: compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0, theta0=th), 6.0 / root),
        (lambda th: compound_solution(Family.COMPOUND_TANH_MINUS, 1.0, 1.0, theta0=th), 6.0 / root),
    ):
        build(complex(1e300, 2.0**22 * scale))  # Re theta0 does not move Im z
        for im in (2.0**23 * scale * 1.0001, -1e300):
            with pytest.raises(ParameterDomainError, match="pole tolerance"):
                build(complex(0.0, im))
    # the degenerate kink (Delta = 0) has no theta dependence to resolve
    flat = compound_solution(Family.COMPOUND_TANH_PLUS, (1.0 - 2.0 / 1.0) / 6.0, 1.0, theta0=1e300j)
    assert flat.Delta == 0.0


def test_singular_solution_value_and_pole():
    singular = universal_solution(Family.KDVB_SINGULAR)
    assert eval_solution(singular, 1.0) == pytest.approx(7.3040372724671894)
    assert eval_solution(singular, 0.0) is None


def test_pole_location_respects_phase_shift():
    # every coordinate within the tolerance of the shifted pole has no value
    sol = universal_solution(Family.KDVB_SINGULAR, theta0=3.0)
    for theta in (3.0, 3.0 + 5.0 * POLE_TOL, 3.0 - 5.0 * POLE_TOL):  # z = (theta - 3)/10
        assert eval_solution(sol, theta) is None
    phys = kdvb_solution_from_physical(
        Family.KDVB_SINGULAR, PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.3))
    for x in (0.38, 0.38 + POLE_TOL):  # pole at x = v*t + xi0; z = 0.6*(x - 0.38)
        assert eval_solution_physical(phys, x, 0.4) is None


def test_phase_shift_identity_tanh_to_coth():
    # shifting the phase constant by 5*i*pi turns the regular kink singular
    shifted = universal_solution(Family.KDVB_REGULAR, theta0=5j * math.pi)
    singular = universal_solution(Family.KDVB_SINGULAR)
    for theta in (-7.3, -1.0, 0.9, 4.0, 26.0):
        assert abs(eval_solution(shifted, theta) - eval_solution(singular, theta)) < 1e-13


def test_complex_phase_midpoint_value():
    # theta0 = -2.5*i*pi: U(0) = (3/50)*(1 + tanh(i*pi/4))^2 = (3/50)*(1+i)^2 = 0.12i
    val = eval_solution(universal_solution(Family.KDVB_REGULAR, theta0=-2.5j * math.pi), 0.0)
    assert val == pytest.approx(0.12j, abs=1e-14)


def test_kdvb_physical_equals_transformed_reduced():
    # independent spellings: verify's direct physical formula vs amplitude-mapped U
    params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.35)
    for fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        for x in (-2.0, -0.5, 1.1, 3.0):
            theta = to_reduced_coordinate(x, 0.7, params)
            expected = params.v / params.alpha + to_physical_amplitude(
                eval_solution(universal_solution(fam), theta) - 3.0 / 25.0, params
            )
            assert _kdvb_formula(fam, params)(x, 0.7) == pytest.approx(expected, abs=1e-12)


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
    with pytest.raises(ParameterDomainError, match="oscillatory regime"):
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


@pytest.mark.parametrize("p, q", [(1.5e307, 2.0), (-1.5e307, 2.0), (0.5, 1e-310)])
def test_discriminant_that_leaves_the_float_range_is_a_domain_error(p, q):
    # 18p or 6/q overflows, so square and scale are both inf, and inf <= 1e-13 * inf
    # snapped the root to 0: a constant that solves nothing
    with pytest.raises(ParameterDomainError, match=r"18p \+ 6/q - 3 must be finite"):
        compound_discriminant_root(p, q)
    with pytest.raises(ParameterDomainError, match=r"18p \+ 6/q - 3 must be finite"):
        compound_solution(Family.COMPOUND_TANH_PLUS, p, q)
    # below the bound the root is the plain square root: 6/q - 3 = 0 at q = 2
    assert compound_discriminant_root(1e306, 2.0) == math.sqrt(18.0 * 1e306)


def test_physical_discriminant_that_leaves_the_float_range_is_a_domain_error():
    # v*s/mu^2 = 1.5e307 and q = 2: the physical route snapped the same way
    params = PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=1.5, v=1.5e307)
    with pytest.raises(ParameterDomainError, match="float range"):
        physical_discriminant_root(params)
    with pytest.raises(ParameterDomainError, match=r"18p \+ 6/q - 3 must be finite"):
        compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, params)


@pytest.mark.parametrize("params, error, message", [
    # mu**2 overflows, and underflows to 0: a bare OverflowError and ZeroDivisionError
    (PhysicalParams(s=1.0, mu=1e200, alpha=1.0, beta=1.0, v=1.0), ParameterDomainError,
     "the discriminant leaves the float range"),
    (PhysicalParams(s=1.0, mu=1e-200, alpha=1.0, beta=1.0, v=1.0), ParameterDomainError,
     "the discriminant leaves the float range"),
    (PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=0.0, v=1.0), ParameterDomainError,
     "compound families require beta != 0"),
    (PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-5.0), ParameterDomainError,
     "negative discriminant: no real compound kink at this velocity"),
], ids=["mu-squared-overflows", "mu-squared-underflows", "beta-zero", "negative-square"])
def test_physical_discriminant_root_outside_its_domain(params, error, message):
    with pytest.raises(error, match=message):
        physical_discriminant_root(params)


def test_compound_kink_midpoint_and_tails():
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    D = sol.Delta
    b = 1.0 / (3.0 * math.sqrt(2.0))
    assert eval_solution(sol, 0.0) == pytest.approx(-1.0 / 3.0 + b)
    left, right = eval_solution(sol, -400.0), eval_solution(sol, 400.0)
    assert left == pytest.approx(-1.0 / 3.0 + b * (1.0 - D), abs=1e-14)
    assert right == pytest.approx(-1.0 / 3.0 + b * (1.0 + D), abs=1e-14)


def test_compound_minus_is_mirror_of_plus():
    plus = compound_solution(Family.COMPOUND_TANH_PLUS, 0.5, 2.0)
    minus = compound_solution(Family.COMPOUND_TANH_MINUS, 0.5, 2.0)
    for theta in (-3.0, 0.0, 2.5):
        total = eval_solution(plus, theta) + eval_solution(minus, theta)
        assert total == pytest.approx(-2.0 / (3.0 * 2.0), abs=1e-14)


def test_compound_theta0_is_a_translation():
    at0 = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    at2 = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0, theta0=2.0)
    for theta in (-1.0, 0.4, 3.3):
        want = eval_solution(at0, theta)
        assert eval_solution(at2, theta + 2.0) == pytest.approx(want, abs=1e-14)


def test_compound_physical_equals_transformed_reduced():
    # independent spellings: verify's direct physical formula vs amplitude-mapped U
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0, xi0=-0.6)
    red = reduce(params)
    for fam in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS):
        for x in (-4.0, 0.0, 2.2):
            theta = to_reduced_coordinate(x, 0.25, params)
            expected = to_physical_amplitude(
                eval_solution(compound_solution(fam, red.p, red.q), theta), params
            )
            assert _compound_formula(fam, params)(x, 0.25) == pytest.approx(expected, abs=1e-12)


def test_compound_rejects_bad_domains():
    with pytest.raises(ParameterDomainError):
        compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 0.0)
    with pytest.raises(ParameterDomainError, match="oscillatory regime"):
        compound_solution(Family.COMPOUND_TANH_PLUS, -10.0, 1.0)
    with pytest.raises(ParameterDomainError):
        compound_solution(Family.KDVB_REGULAR, 1.0, 1.0)
    # the physical constructor holds every rejection verify's direct formula relies on
    negative_q = PhysicalParams(s=-2.0, mu=1.0, alpha=3.0, beta=2.0, v=-10.0)
    with pytest.raises(ParameterDomainError, match="oscillatory regime|q > 0"):
        compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, negative_q)
    for fam in _COMPOUND_FAMILIES:
        with pytest.raises(ParameterDomainError, match="q != 0"):  # beta = 0
            compound_solution_from_physical(fam, replace(FIG7, beta=0.0))
        for s, beta in ((-2.0, 2.0), (2.0, -2.0)):  # beta*s < 0
            for v in (-10.0, -0.04, 10.0):
                with pytest.raises(ParameterDomainError, match="oscillatory regime|q > 0"):
                    compound_solution_from_physical(fam, replace(FIG7, s=s, beta=beta, v=v))


# ---------------------------------------------------------------------------
# rational / constant families and branch pairing


def test_rational_reference_value():
    # q = 1/2: A = 1/2, constant part -(3/2)/(3/2) = -1
    val = eval_solution(rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0), 1.0)
    assert val == pytest.approx(-(1.0 / 0.5) / (0.5 + 1.0) - 1.0)


def test_rational_pole_has_no_value():
    assert eval_solution(rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0), -0.5) is None


def test_constant_family_values_by_branch():
    q = 0.5
    plus = rational_solution(Family.CONSTANT, q, 0.0, Sign.PLUS)
    minus = rational_solution(Family.CONSTANT, q, 0.0, Sign.MINUS)
    assert eval_solution(plus, 0.0) == pytest.approx(-1.0)  # -(1.5)/(6*0.25)
    assert eval_solution(minus, 0.0) == pytest.approx(-(-0.5 + 1.0) / (6.0 * 0.25))


def test_constant_family_rejects_nonzero_k0():
    with pytest.raises(ParameterDomainError):
        rational_solution(Family.CONSTANT, 0.5, 1.0)
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7))
    for sign in Sign:
        with pytest.raises(ParameterDomainError, match="k0 = 0 member"):
            rational_solution_from_physical(Family.CONSTANT, locked, 1.0, sign)


@pytest.mark.parametrize("s, mu, alpha, beta", [
    (2.0, 1.0, 1e300, 1.0),  # alpha**2 overflows
    (1e-154, 1e300, 1.0, 1.0),  # mu**2 overflows
    (1e-10, 1e154, 1.0, 1.0),  # mu**2/(6s) overflows to inf
    (1e-10, 1e154, 1e154, 1e-10),  # inf - inf is NaN
    (2.0, 1.0, 3.0, 0.0),  # alpha**2/(4*beta) divides by zero: no cubic term, no lock
], ids=repr)
def test_locked_velocity_out_of_float_range_is_a_domain_error(s, mu, alpha, beta):
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=0.0)
    with pytest.raises(ParameterDomainError, match="float range" if beta else "require beta != 0"):
        locked_rational_velocity(params)


@pytest.mark.parametrize("family, k0", [(Family.RATIONAL_PLUS, 1e308),
                                        (Family.RATIONAL_MINUS, -1e308),
                                        (Family.RATIONAL_PLUS, -1e308)])
def test_rational_k0_whose_weight_overflows_is_a_domain_error(family, k0):
    # A = +-sqrt(q/2) = +-0.5, so k0/A overflows
    with pytest.raises(ParameterDomainError, match="float range"):
        rational_solution(family, 0.5, k0)
    assert rational_solution(family, 0.5, k0 / 4.0).k0 == k0 / 4.0


@pytest.mark.parametrize("k0", [1.2e77, -2e77, 1e200, -1e308 / 4.0])
def test_rational_jet_whose_k0_to_the_fourth_overflows_is_a_domain_error(k0):
    # k0**4 leaves the float range above |k0| ~ 1.16e77; it used to raise OverflowError
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7))
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, k0)
    phys = rational_solution_from_physical(Family.RATIONAL_PLUS, locked, k0)
    with pytest.raises(ParameterDomainError, match=r"k0\*\*4 must be finite"):
        solution_jet(sol, np.array([1.0]))
    with pytest.raises(ParameterDomainError, match=r"k0\*\*4 must be finite"):
        physical_jet(phys, np.array([1.0]), 0.0)
    # below the bound the jet keeps its bits: with A = 1/2, g = A + k0*theta
    # rounds to k0 at theta = 1, and the jet is (-1/A - 1, 1/A, -2/A, 6/A) to rounding
    (w, *slopes), pole = solution_jet(rational_solution(Family.RATIONAL_PLUS, 0.5, 1e76), 1.0)
    assert not pole and [complex(d) for d in (w, *slopes)] == [
        -3.0, 1.9999999999999998, -4.0, 12.000000000000004]
    jet, pole = physical_jet(rational_solution_from_physical(Family.RATIONAL_PLUS, locked, 1e76),
                             np.array([1.0]), 0.0)
    assert not pole.any() and all(np.isfinite(d).all() for d in jet)


@pytest.mark.parametrize("k0, theta", [(1e77, 1.0), (-1e77, 1.0)])
def test_rational_jet_that_leaves_the_float_range_off_the_poles_is_a_domain_error(k0, theta):
    # 6*k0**4 overflows at k0 = 1e77 (g**4 too: inf/inf); it used to give NaN cells with
    # pole False and numpy RuntimeWarnings
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7))
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, k0)
    phys = rational_solution_from_physical(Family.RATIONAL_PLUS, locked, k0)
    x = 2.0 * theta  # theta = mu*(x - v*t)/s at t = 0
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        solution_jet(sol, np.array([theta]))
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        physical_jet(phys, np.array([x]), 0.0)
    # the values stay finite: -3 at theta = 1
    values, pole = evaluate_grid(sol, np.array([theta]))
    assert not pole.any() and np.isfinite(values).all()


@pytest.mark.filterwarnings("error")
def test_rational_values_where_k0_times_zeta_overflows_match_the_reference():
    # g = A + k0*zeta leaves the float range off the poles, and the value is taken divided
    # through by k0: the first cell was the constant alone, -0.56903559372884904, and the
    # second NaN + NaN*i with pole False, after a RuntimeWarning
    v = locked_rational_velocity(PhysicalParams(s=2.0, mu=3.0, alpha=-1.0, beta=1.0, v=0.0))
    locked = PhysicalParams(s=2.0, mu=3.0, alpha=-1.0, beta=1.0, v=v, xi0=1e200 - math.pi * 1j)
    for sol, theta in (
        (rational_solution(Family.RATIONAL_PLUS, 1.0, -1e308), -2.5),
        (rational_solution_from_physical(Family.RATIONAL_MINUS, locked, 1e308, Sign.MINUS), 3.0),
    ):
        (value,), (pole,) = evaluate_grid(sol, np.array([theta]))
        assert not pole and abs(value - _reference_value(sol, theta)) < ULPS * EPS


@pytest.mark.filterwarnings("error")
def test_rational_cells_where_k0_times_zeta_overflows_at_a_scalar_coordinate():
    # a scalar coordinate gives 0-d arrays: the mend took the far cells by item assignment,
    # a TypeError on the numpy scalar the 0-d quotient is
    value, pole = evaluate_grid(rational_solution(Family.RATIONAL_PLUS, 1.0, -1e308), -2.5)
    assert not pole and abs(value - -0.0033501687796111553) < ULPS * EPS


def _reference_rational_jet(sol, zeta):
    """(w, w', w'', w''') of a rational solution at a shifted coordinate zeta, at 50 digits."""
    with mpmath.workdps(50):
        A = sol.sign.factor * mpmath.sqrt(mpmath.mpf(sol.reduced.q) / 2)
        k0 = mpmath.mpf(sol.k0)
        g = A + k0 * mpmath.mpc(zeta)
        return [-(k0 / A) / g - (A + 1) / (6 * A**2), k0**2 / (A * g**2),
                -2 * k0**3 / (A * g**3), 6 * k0**4 / (A * g**4)]


def _reference_rational_physical_jet(sol, x, t):
    """(u, u_x, u_xx, u_xxx, u_t) of a physical rational solution at (x, t), at 50 digits."""
    pp = sol.physical
    with mpmath.workdps(50):
        s, mu, alpha, v = (mpmath.mpf(c) for c in (pp.s, pp.mu, pp.alpha, pp.v))
        zeta = mu * (mpmath.mpf(x) - v * mpmath.mpf(t) - mpmath.mpc(pp.xi0)) / s
        amp, m = 2 * mu**2 / (alpha * s), mu / s
        u = [amp * m**n * d for n, d in enumerate(_reference_rational_jet(sol, zeta))]
        return [*u, -v * u[1]]


def _within_ulps(got, want):
    """Each complex of ``got`` within ULPS ulps of the mpmath value of ``want`` (a zero: exact)."""
    want = [complex(w) for w in want]
    return all(abs(complex(g) - w) <= ULPS * EPS * abs(w) for g, w in zip(got, want, strict=True))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k0, coordinate", [(1e76, 1e300), (1e76, -1e300), (-1e76, 1e300),
                                            (1e70, 1e300), (1e70, -1e300)], ids=repr)
def test_rational_jet_where_k0_times_zeta_overflows_matches_the_reference(k0, coordinate):
    # g = A + k0*zeta leaves the float range off the poles, and the slopes are taken divided
    # through by k0**n: they were NaN (a complex g = inf in g**n), so both jets raised a
    # ParameterDomainError, though the value is finite and every slope underflows to zero
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, k0)
    for theta in (coordinate, np.array([coordinate, 1.0])):  # a scalar and a grid
        jet, pole = solution_jet(sol, theta)
        assert not np.any(pole)
        for cell, at in enumerate(np.atleast_1d(theta)):
            got = [np.atleast_1d(d)[cell] for d in jet]
            assert _within_ulps(got, _reference_rational_jet(sol, at))
    # the physical jet at the locked velocity, at a real and a complex phase
    for xi0 in (0j, complex(0.5, -0.7)):
        locked = replace(FIG7, v=locked_rational_velocity(FIG7), xi0=xi0)
        phys = rational_solution_from_physical(Family.RATIONAL_PLUS, locked, k0)
        jet, pole = physical_jet(phys, coordinate, 0.25)
        want = _reference_rational_physical_jet(phys, coordinate, 0.25)
        assert not pole and _within_ulps(jet, want)
        assert complex(jet[0]) == complex(evaluate_grid(phys, coordinate, 0.25)[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q, theta", [(0.5, 1e10), (8.0, 1.1e7)], ids=repr)
def test_rational_jet_where_a_power_of_a_finite_g_overflows_matches_the_reference(q, theta):
    # g = A + k0*zeta is finite, but g**4 (q = 0.5: the complex power is inf + NaN*i) or
    # A*g**4 (q = 8, A = 2) leaves the float range, and the slopes are taken divided
    # through by k0**n: the first raised a ParameterDomainError, the second gave a third
    # slope of 0.0
    sol = rational_solution(Family.RATIONAL_PLUS, q, 1e70)
    jet, pole = solution_jet(sol, np.array([theta, 1.0]))
    assert not pole.any()
    for cell, at in enumerate((theta, 1.0)):
        assert _within_ulps([d[cell] for d in jet], _reference_rational_jet(sol, at))
    # the physical jet at the locked velocity: theta = mu*x/s = x/2 at t = 0
    locked = replace(FIG7, v=locked_rational_velocity(FIG7))
    phys = rational_solution_from_physical(Family.RATIONAL_PLUS, locked, 1e70)
    jet, pole = physical_jet(phys, 2.0 * theta, 0.0)
    assert not pole and _within_ulps(jet, _reference_rational_physical_jet(phys, 2.0 * theta, 0.0))


@pytest.mark.filterwarnings("error")
def test_rational_pole_distance_that_overflows_is_no_pole():
    # A/k0 is about 2.4e299, so theta + A/k0 overflows in the pole search: the cell was
    # right, after a RuntimeWarning
    sol = rational_solution(Family.RATIONAL_PLUS, 1e200, 3e-200)
    theta = 1.7976931348623157e308
    (value,), (pole,) = evaluate_grid(sol, np.array([theta]))
    reference = _reference_value(sol, theta)
    assert not pole and abs(value - reference) < ULPS * EPS * abs(reference)


@pytest.mark.parametrize("s, mu", [(1.0, 1e110), (1e-110, 1.0)])
def test_physical_jet_whose_chain_rule_scale_overflows_is_a_domain_error(s, mu):
    # (mu/s)**3 leaves the float range: this raised OverflowError from a Python float power
    sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=s, mu=mu, alpha=1.0, beta=0.0, v=0.2))
    with pytest.raises(ParameterDomainError, match=r"\(mu/s\)\*\*3 must be finite"):
        physical_jet(sol, np.array([0.0]), 0.0)


@pytest.mark.filterwarnings("error")
def test_physical_values_that_leave_the_float_range_are_a_domain_error():
    # the amplitude 2*mu^2/(alpha*s) = 2e160 times w = U + delta ~ 1e150 overflows; the
    # values were inf with pole False, after a RuntimeWarning
    sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=1.0, alpha=1e-160, beta=0.0, v=2e150))
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        evaluate_grid(sol, np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        eval_solution_physical(sol, 0.0, 0.0)
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        physical_jet(sol, np.array([0.0]), 0.0)
    # reduced values of the same solution stay finite: U + delta is 1e150
    assert np.isfinite(evaluate_grid(sol, np.array([0.0, 1.0]))[0]).all()


@pytest.mark.filterwarnings("error")
def test_reduced_values_that_leave_the_float_range_are_a_domain_error(monkeypatch):
    # a stand-in kernel that gives inf at every cell: reduced mode and the sweep passed
    # the cells off the poles on as inf with pole False; physical mode already raised
    kernel, slopes, sign = solutions_module._FAMILIES[Family.KDVB_SINGULAR]

    def infinite(sol, zeta, rate):
        values, pole, T = kernel(sol, zeta, rate)
        return np.full(values.shape, complex(math.inf, 0.0)), pole, T

    monkeypatch.setitem(solutions_module._FAMILIES, Family.KDVB_SINGULAR,
                        (infinite, slopes, sign))
    sol = universal_solution(Family.KDVB_SINGULAR)
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        evaluate_grid(sol, np.array([0.0, 1.0]))
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        sweep_rows(Family.KDVB_SINGULAR, np.array([0.0]), np.array([0.0, 1.0]))
    # the pole cell alone is flagged, whatever the kernel gave there
    values, pole = evaluate_grid(sol, np.array([0.0]))
    assert pole.all() and np.isnan(values).all()


@pytest.mark.filterwarnings("error")
def test_compound_jet_whose_root_power_overflows_is_a_domain_error():
    # Delta = sqrt(18p + ...) ~ 4.2e150, so Delta**3 overflows: a bare OverflowError from
    # a Python float power, in both jets
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1e300, 2.0)
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        solution_jet(sol, np.array([1.0, -3.0]))
    phys = compound_solution_from_physical(
        Family.COMPOUND_TANH_PLUS, PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=1.5, v=1e300))
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        physical_jet(phys, np.array([1.0]), 0.0)


@pytest.mark.filterwarnings("error")
def test_rational_jet_on_a_pole_whose_stand_in_underflows_warns_nothing():
    # the pole cell's stand-in g = A ~ 7e-78 makes A*g**4 underflow to 0, and the
    # division by it warned "divide by zero encountered in divide"
    sol = rational_solution(Family.RATIONAL_PLUS, 1e-154, 1.0)
    jet, pole = solution_jet(sol, np.array([1e-310]))
    assert pole.tolist() == [True] and all(np.isnan(d).all() for d in jet)


def test_rational_locks_p_to_q():
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0)
    assert sol.reduced.p == pytest.approx((1.0 - 4.0) / 6.0)
    assert sol.Delta == 0.0


def test_rational_constructor_rejects_a_family_that_is_not_rational():
    with pytest.raises(ParameterDomainError, match="not a rational-type family"):
        rational_solution(Family.KDVB_REGULAR, 0.5, 1.0)


def test_degenerate_limit_pairing_is_opposite_signed():
    # the plus kink collapses onto the A = -sqrt(q/2) constant, not the
    # A = +sqrt(q/2) one; quadratic in the discriminant root
    q = 0.5
    p0 = (1.0 - 2.0 / q) / 6.0
    paired = eval_solution(rational_solution(Family.CONSTANT, q, 0.0, Sign.MINUS), 0.0)
    unpaired = eval_solution(rational_solution(Family.CONSTANT, q, 0.0, Sign.PLUS), 0.0)
    for root in (0.1, 0.02):
        kink = compound_solution(Family.COMPOUND_TANH_PLUS, p0 + root * root / 18.0, q)
        val = eval_solution(kink, 1.0)
        assert abs(val - paired) < 1.0 * root**2
        assert abs(val - unpaired) > 0.1
    minus_paired = eval_solution(rational_solution(Family.CONSTANT, q, 0.0, Sign.PLUS), 0.0)
    for root in (0.1, 0.02):
        kink = compound_solution(Family.COMPOUND_TANH_MINUS, p0 + root * root / 18.0, q)
        assert abs(eval_solution(kink, 1.0) - minus_paired) < 1.0 * root**2


def test_rational_physical_requires_locked_velocity():
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-1.0)
    with pytest.raises(ParameterDomainError):
        rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    # the constructor holds every rejection verify's direct formula relies on, each a
    # ParameterDomainError (exit 2 in the CLI), at the locked velocity and off it
    for fam in (Family.RATIONAL_PLUS, Family.RATIONAL_MINUS, Family.CONSTANT):
        k0 = 0.0 if fam is Family.CONSTANT else 1.0
        with pytest.raises(ParameterDomainError, match="locked velocity"):
            rational_solution_from_physical(fam, params, k0)
        for s, beta in ((2.0, 0.0), (2.0, -2.0), (-2.0, 2.0), (-2.0, -2.0)):
            off = replace(params, s=s, beta=beta)
            off = replace(off, v=locked_rational_velocity(off)) if beta else off
            with pytest.raises(ParameterDomainError, match="beta > 0 and s > 0"):
                rational_solution_from_physical(fam, off, k0)


def test_rational_physical_matches_manual_exact_spelling():
    # hand-spelled closed form with the rational term weighted by s:
    #   u = -(alpha/(2 beta))*(1 + eps) - 6*alpha*s*k0/(2*beta*s + k0*sqrt(6*s*beta*alpha^2)*X)
    # against the product and verify's direct formula
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    eps = mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2))
    k0 = 1.0
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, k0)
    oracle = _physical_formula(sol)
    for x, t in ((3.0, 0.0), (5.5, 0.4), (9.0, -1.0)):
        X = x - v * t
        manual = -(alpha / (2.0 * beta)) * (1.0 + eps) - 6.0 * alpha * s * k0 / (
            2.0 * beta * s + k0 * math.sqrt(6.0 * s * beta * alpha**2) * X
        )
        assert eval_solution_physical(sol, x, t) == pytest.approx(manual, rel=1e-12)
        assert oracle(x, t) == pytest.approx(manual, rel=1e-12)


def test_rational_physical_k0_zero_is_the_constant():
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    eps = mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2))
    const = -(alpha / (2.0 * beta)) * (1.0 + eps)
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, 0.0)
    assert eval_solution_physical(sol, 7.0, 2.0) == pytest.approx(const, rel=1e-14)
    assert _physical_formula(sol)(7.0, 2.0) == pytest.approx(const, rel=1e-14)


def test_wave_solution_records_k0_and_its_physical_coefficients():
    s, mu, alpha, beta = 2.0, 1.0, 3.0, 2.0
    v = mu**2 / (6.0 * s) - alpha**2 / (4.0 * beta)
    params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v)
    sol = rational_solution_from_physical(Family.RATIONAL_MINUS, params, -2.0)
    assert sol.k0 == -2.0 and sol.physical is params
    kdvb = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=0.0, v=0.24))
    assert kdvb.k0 is None and kdvb.physical.v == 0.24
    assert universal_solution(Family.KDVB_REGULAR).physical is None


_OFF_LOCK = PhysicalParams(s=1.0, mu=1.0, alpha=1.0, beta=1.0, v=5.0)


@pytest.mark.parametrize("build", [
    lambda: universal_solution(Family.KDVB_REGULAR, 0j, 3.0, physical=_OFF_LOCK),
    lambda: compound_solution(Family.COMPOUND_TANH_PLUS, -0.08, 4.0 / 27.0, physical=FIG7),
    lambda: rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0, physical=_OFF_LOCK),
    lambda: rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS, physical=_OFF_LOCK),
], ids=["universal", "compound", "rational", "constant"])
def test_reduced_constructors_take_no_physical_coefficients(build):
    # physical= attached coefficients unchecked: the rational solution above
    # had an analytic PDE residual of 4.5 under _OFF_LOCK, which is off its
    # locked velocity; rational_solution_from_physical rejects the same input
    with pytest.raises(TypeError):
        build()


_LOCKED_XI0 = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(FIG7),
                             xi0=0.2 + 0.3j)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_from_physical_solution_is_the_reduction_of_its_coefficients(family):
    # every reduced field a *_from_physical constructor fixes comes from reduce()
    # of the coefficients it attaches; a rational solution used to keep theta0 = 0
    # whatever xi0, so its reduced mode disagreed with its physical map
    if family in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=0.3 - 0.1j)
        sol = kdvb_solution_from_physical(family, params)
    elif family in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS):
        params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04, xi0=0.4 + 0.2j)
        sol = compound_solution_from_physical(family, params)
    else:
        k0 = 0.0 if family is Family.CONSTANT else 1.5
        sol = rational_solution_from_physical(family, _LOCKED_XI0, k0, Sign.MINUS)
    red = reduce(sol.physical)
    assert sol.reduced.p == pytest.approx(red.p, rel=1e-12, abs=1e-15)
    assert (sol.reduced.q, sol.reduced.theta0) == (red.q, red.theta0)
    # so reduced mode at theta = mu*(x - v*t)/s is the physical map at (x, t)
    pp, x, t = sol.physical, np.array([-1.3, 0.7, 2.9]), 0.25
    u, _ = evaluate_grid(sol, x, t)
    w, _ = evaluate_grid(sol, pp.mu * (x - pp.v * t) / pp.s)
    want = to_physical_amplitude(w + (sol.reduced.delta or 0.0), pp)
    assert np.allclose(u, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", _KDVB_FAMILIES, ids=lambda f: f.value)
def test_kdvb_from_physical_rejects_a_nonzero_beta(family):
    # it returned the beta = 0 kink, which does not solve the compound PDE beta = 2 describes
    params = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=2.0, v=0.2)
    with pytest.raises(ParameterDomainError, match="require beta = 0"):
        kdvb_solution_from_physical(family, params)


# ---------------------------------------------------------------------------
# scalar entry points


@pytest.mark.parametrize("index", range(7))
def test_scalar_entry_points_are_evaluate_grid_at_one_point(index):
    sol, phys = _all_families()[index]
    for theta in (1.3, -0.7, 2.0 + 0.25j):
        (want,), pole = evaluate_grid(sol, np.array([theta]))
        assert not pole and eval_solution(sol, theta) == want
    for x, t in ((1.1, 0.0), (-2.5, 0.4)):
        (want,), pole = evaluate_grid(phys, np.array([x]), t)
        assert not pole and eval_solution_physical(phys, x, t) == want


def test_eval_solution_physical_requires_coefficients():
    sol = universal_solution(Family.KDVB_REGULAR)
    with pytest.raises(ParameterDomainError):
        eval_solution_physical(sol, 0.0, 0.0)


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
        assert abs(U - _reference_value(sol, theta)) < ULPS * EPS * max(1.0, abs(U))
        fd1 = _fd5(lambda th: _reference_value(sol, th), theta, h)
        fd2 = _fd5(lambda th: _jet_at(sol, th)[1], theta, h)
        fd3 = _fd5(lambda th: _jet_at(sol, th)[2], theta, h)
        assert abs(U1 - fd1) < 1e-9 * max(1.0, abs(U1))
        assert abs(U2 - fd2) < 1e-9 * max(1.0, abs(U2))
        assert abs(U3 - fd3) < 1e-9 * max(1.0, abs(U3))


def test_compound_jet_matches_finite_differences():
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    h = 1e-3
    for theta in (-2.0, 0.3, 1.9):
        U, U1, U2, U3 = _jet_at(sol, theta)
        fd1 = _fd5(lambda th: _reference_value(sol, th), theta, h)
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
        fd1 = _fd5(lambda th: _reference_value(sol, th), theta, h)
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
    regular = universal_solution(Family.KDVB_REGULAR)
    _, U1, _, _ = _jet_at(regular, theta)
    fd = _fd5(lambda th: _reference_value(regular, th), theta, 1e-3)
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
        (rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.MINUS),
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
    oracle = _physical_formula(phys)(0.11, 0.2)
    assert np.isclose(u0, oracle, rtol=1e-13, atol=1e-13 * abs(pp.v))


# ---------------------------------------------------------------------------
# blocks

_BLOCK = solutions_module._CELLS_PER_KERNEL
_PIECE = 9_999  # odd, so coprime to the block: no piece edge falls on a block edge


def _bits(values, pole):
    """(values, pole) as bytes and shapes, for a bit-for-bit comparison."""
    return values.shape, pole.shape, values.tobytes(), pole.tobytes()


def _one_call(sol, grid, t=None):
    """evaluate_grid with a block as big as ``grid``: one kernel call on the whole of it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solutions_module, "_CELLS_PER_KERNEL", np.size(grid))
        return evaluate_grid(sol, grid, t)


def _by_pieces(sol, cells, t=None):
    """evaluate_grid over consecutive _PIECE-cell pieces of the flat ``cells``, concatenated."""
    pieces = [evaluate_grid(sol, cells[lo:lo + _PIECE], t) for lo in range(0, cells.size, _PIECE)]
    return np.concatenate([v for v, _ in pieces]), np.concatenate([p for _, p in pieces])


def _pole_coordinate(sol, physical):
    """A grid coordinate on a pole of _all_families()'s solution at t = 0, or None.

    kdvb-regular's reduced phase -5i*pi puts a pole at theta = 0, kdvb-singular's
    are at theta0 = 0.2 and at x = xi0; a rational one is at zeta = -A/k0, with
    theta0 = 0 (reduced) or x = s*zeta/mu (physical, xi0 = 0).
    """
    if sol.family is Family.KDVB_REGULAR:
        return None if physical else 0.0
    if sol.family is Family.KDVB_SINGULAR:
        return sol.physical.xi0.real if physical else sol.reduced.theta0.real
    if sol.family in (Family.RATIONAL_PLUS, Family.RATIONAL_MINUS):
        zeta = -sol.sign.factor * math.sqrt(sol.reduced.q / 2.0) / sol.k0
        return sol.physical.s * zeta / sol.physical.mu if physical else zeta
    return None


@pytest.mark.parametrize("physical", [False, True], ids=["reduced", "physical"])
@pytest.mark.parametrize("index", range(7))
def test_a_grid_in_blocks_gives_the_bits_of_its_pieces_and_of_one_call(index, physical):
    # sizes about the block edge; pole cells on each side of the first edge, where it falls
    sol = _all_families()[index][physical]
    t = 0.0 if physical else None
    pole_at = _pole_coordinate(sol, physical)
    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        grid = np.linspace(-30.0, 30.0, size)
        if pole_at is not None:
            grid[_BLOCK - 2:_BLOCK + 1] = pole_at
        values, pole = evaluate_grid(sol, grid, t)
        assert _bits(values, pole) == _bits(*_by_pieces(sol, grid, t))
        assert _bits(values, pole) == _bits(*_one_call(sol, grid, t))
        if pole_at is not None:
            assert pole[_BLOCK - 2:_BLOCK + 1].all() and np.isnan(values[_BLOCK - 2:]).any()


def test_blocks_of_a_two_dimensional_grid_and_of_a_zero_dimensional_one():
    sol = _all_families()[1][0]
    grid = np.linspace(-30.0, 30.0, 7 * (_BLOCK // 2 + 1))
    grid[_BLOCK] = _pole_coordinate(sol, False)
    grid = grid.reshape(7, -1)
    values, pole = evaluate_grid(sol, grid)
    assert values.shape == pole.shape == grid.shape and pole.any()
    assert _bits(values.reshape(-1), pole.reshape(-1)) == _bits(*_by_pieces(sol, grid.reshape(-1)))
    # a 0-d grid is one row of one cell: the one-cell grid's bits, and so eval_solution's,
    # also at a complex phase, where numpy's scalar complex arithmetic, which 0-d results
    # would take, differs from its array arithmetic in the last bit of some KdVB values
    phased = [universal_solution(fam, theta0=1j * a * math.pi)
              for fam, a in [(Family.KDVB_REGULAR, -2.5), (Family.KDVB_SINGULAR, -1.1)]]
    solutions = [(s, None) for s in phased] + [
        (s, t) for pair in _all_families() for s, t in zip(pair, (None, 0.25))]
    for sol, t in solutions:
        for x in np.linspace(-12.3, 12.9, 100):
            value, flag = evaluate_grid(sol, np.float64(x), t)
            assert value.shape == flag.shape == ()
            assert _bits(value.reshape(1), flag.reshape(1)) == _bits(
                *evaluate_grid(sol, np.array([x]), t))
            point = eval_solution(sol, x) if t is None else eval_solution_physical(sol, x, t)
            assert (point is None) == bool(flag)
            assert point is None or np.complex128(point).tobytes() == value.tobytes()


@pytest.mark.filterwarnings("error")
def test_the_rational_far_branch_in_one_block_only():
    # k0*zeta overflows where |zeta| > 1.8e8: in the second of three blocks only
    sol = rational_solution(Family.RATIONAL_PLUS, 0.5, 1e300)
    grid = np.linspace(-1.0, 1.0, 2 * _BLOCK + 1)
    grid[_BLOCK + 5:_BLOCK + 499] = np.linspace(-1e10, 1e10, 494)
    values, pole = evaluate_grid(sol, grid)
    assert _bits(values, pole) == _bits(*_by_pieces(sol, grid))
    assert _bits(values, pole) == _bits(*_one_call(sol, grid))
    assert np.isfinite(values[~pole]).all() and not pole[_BLOCK + 5:_BLOCK + 499].any()


@pytest.mark.parametrize("thetas", [801, _BLOCK + 1], ids=["rows-in-a-block", "rows-over-blocks"])
def test_a_sweep_in_blocks_gives_the_bits_of_its_pieces(thetas):
    # more cells than a block: each block forms its own theta - theta0
    a = np.linspace(-5.0, 0.0, 101 if thetas == 801 else 3)
    theta = np.linspace(-40.0, 40.0, thetas)
    values, pole = sweep_rows(Family.KDVB_REGULAR, a, theta)
    assert values.shape == (a.size, thetas) and pole[0].any()
    cells = (theta - 1j * math.pi * reduce_kdvb_phase(a)[:, None]).reshape(-1)
    flat = values.reshape(-1), pole.reshape(-1)
    assert _bits(*flat) == _bits(*_by_pieces(universal_solution(Family.KDVB_REGULAR), cells))


@pytest.mark.filterwarnings("error")
def test_a_coordinate_error_anywhere_comes_before_a_value_error():
    # the amplitude overflows at every cell: a non-finite x in the last block is still the
    # error, as from one call over the whole grid
    sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=1.0, alpha=1e-160, beta=0.0, v=2e150))
    grid = np.zeros(2 * _BLOCK + 1)
    with pytest.raises(ParameterDomainError, match="float range at a point off the poles"):
        evaluate_grid(sol, grid, 0.0)
    grid[-1] = math.nan
    with pytest.raises(ParameterDomainError, match="theta = mu.* must be finite at every point"):
        evaluate_grid(sol, grid, 0.0)


def test_the_kernel_sees_whole_rows_of_a_block_or_pieces_of_one_row(monkeypatch):
    kernel, slopes, sign = solutions_module._FAMILIES[Family.KDVB_REGULAR]
    shapes = []

    def counting(sol, zeta, rate):
        shapes.append(zeta.shape)
        return kernel(sol, zeta, rate)

    monkeypatch.setitem(solutions_module._FAMILIES, Family.KDVB_REGULAR, (counting, slopes, sign))
    sol = universal_solution(Family.KDVB_REGULAR)
    phys = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2))
    # the values, both jets, and a physical jet whose t broadcasts against x
    inputs = [lambda shape: evaluate_grid(sol, np.zeros(shape)),
              lambda shape: solution_jet(sol, np.zeros(shape)),
              lambda shape: physical_jet(phys, np.zeros(shape), 0.5),
              lambda shape: physical_jet(phys, np.zeros(shape[-1:]), np.zeros((*shape[:-1], 1)))]
    for shape, calls in [((), [(1, 1)]), ((0,), [(1, 0)]), ((_BLOCK + 1,), [(1, _BLOCK), (1, 1)]),
                         ((3, 5, 2000), [(4, 2000)] * 3 + [(3, 2000)])]:
        for evaluate in inputs:
            shapes.clear()
            evaluate(shape)
            assert shapes == calls
    shapes.clear()
    sweep_rows(Family.KDVB_REGULAR, np.linspace(-5.0, 0.0, 51), np.linspace(-40.0, 40.0, 401))
    assert shapes == [(20, 401), (20, 401), (11, 401)]  # figure 5's sweep
    shapes.clear()
    sweep_rows(Family.KDVB_REGULAR, np.linspace(-5.0, 0.0, 3), np.linspace(-40.0, 40.0, 20_001))
    assert shapes == [(1, _BLOCK), (1, _BLOCK), (1, 20_001 - 2 * _BLOCK)] * 3


def test_a_scalar_jet_is_the_cell_of_a_grid_bit_for_bit():
    # a 0-d coordinate is one (1, 1) block; the jets took it unblocked, in numpy's scalar
    # complex arithmetic, and 512 of these 7,100 components differed from the grid's cell
    phased = [universal_solution(fam, theta0=1j * a * math.pi)
              for fam, a in [(Family.KDVB_REGULAR, -2.5), (Family.KDVB_SINGULAR, -1.1)]]
    coordinates = np.random.default_rng(5).uniform(-60.0, 60.0, 100)
    jets = [lambda c, sol=sol: solution_jet(sol, c) for sol in phased] + [
        jet for sol, phys in _all_families()
        for jet in (lambda c, sol=sol: solution_jet(sol, c),
                    lambda c, phys=phys: physical_jet(phys, c, 0.25))]
    for jet in jets:
        grid, pole = jet(coordinates)
        for i, c in enumerate(coordinates):
            cell, flag = jet(c)
            assert all(d.shape == () for d in cell) and flag == pole[i]
            assert [d.tobytes() for d in cell] == [d[i].tobytes() for d in grid]


@pytest.mark.parametrize("jet", ["solution", "physical"])
def test_a_jet_holds_a_block_of_temporaries_above_what_it_returns(jet):
    # the 100,000-point jets trace 1.28 and 1.51 MiB above their components and mask;
    # computed on the whole grid they traced 10.7 and 9.2 MiB above them
    phys = _all_families()[4][1]
    x = np.linspace(-3.0, 3.0, 100_000)
    call = (lambda: solution_jet(phys, x)) if jet == "solution" else (
        lambda: physical_jet(phys, x, 0.0))
    call()  # the imports and first calls are done
    tracemalloc.start()
    try:
        components, pole = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(d.nbytes for d in components) - pole.nbytes <= 2 * 2**20


# ---------------------------------------------------------------------------
# phase sweep


def test_sweep_surface_shapes_and_flags():
    theta = np.linspace(-10.0, 10.0, 21)  # includes 0
    values, pole = sweep_rows(Family.KDVB_SINGULAR, np.array([0.0]), theta)
    assert values.shape == pole.shape == (1, 21)
    mid = 10  # theta == 0 is a pole of the singular family
    assert pole[0, mid]
    assert math.isnan(values[0, mid].real) and math.isnan(values[0, mid].imag)
    assert not pole[0, 0]


def test_sweep_a0_slice_is_real_and_matches_regular():
    theta = np.linspace(-40.0, 40.0, 81)
    values, _ = sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), theta)
    assert np.all(values[0].imag == 0.0)
    regular = universal_solution(Family.KDVB_REGULAR)
    expected = [_reference_value(regular, th).real for th in theta]
    assert np.allclose(values[0].real, expected, atol=1e-15)


def test_sweep_a_minus5_slice_matches_singular_family():
    theta = np.linspace(-40.0, 40.0, 81)  # even spacing, no exact 0
    values, pole = sweep_rows(Family.KDVB_REGULAR, np.array([-5.0]), theta)
    singular = universal_solution(Family.KDVB_SINGULAR)
    for j, th in enumerate(theta):
        if pole[0, j]:
            continue
        expected = eval_solution(singular, th)
        assert values[0, j].real == pytest.approx(expected.real, abs=1e-10)
        assert abs(values[0, j].imag - expected.imag) < 1e-10


def test_intermediate_phase_grows_a_pocket():
    # left tail of the a = -2.5 slice dips below its asymptote and comes
    # back: the spatial derivative changes sign there, unlike at a = 0
    theta = np.linspace(-40.0, 0.0, 201)
    flat, _ = sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), theta)
    pocket, _ = sweep_rows(Family.KDVB_REGULAR, np.array([-2.5]), theta)
    d_flat = np.diff(flat[0].real)
    d_pocket = np.diff(pocket[0].real)
    assert np.all(d_flat > -1e-15)
    assert np.any(d_pocket > 1e-12) and np.any(d_pocket < -1e-12)


def test_kdvb_phase_is_reduced_by_its_exact_period():
    inf, nan = math.inf, math.nan
    a = np.array([1e15, -20.0, 1e16 + 2.0, -7.5, 1.7976931348623157e308, -0.0, inf, -inf, nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduced = reduce_kdvb_phase(a)
    assert reduced[:6].tolist() == [0.0, 0.0, 2.0, -7.5, 8.0, 0.0]
    assert all(math.copysign(1.0, r) == 1.0 for r in reduced[[0, 1, 5]])  # never -0.0
    assert reduced[6] == inf and reduced[7] == -inf and math.isnan(reduced[8])  # passed through
    assert float(reduce_kdvb_phase(-20.0)) == 0.0


def test_sweep_reduces_a_by_its_period():
    # theta0 = i*a*pi: the sweep used to multiply the raw a by pi, so a = 1e15
    # gave a complex profile where the a = 0 kink is real
    theta = np.linspace(-40.0, 40.0, 81)
    for a, period_rep in ((1e15, 0.0), (-20.0, 0.0), (1e16 + 2.0, 2.0), (-1e300, 0.0)):
        got = sweep_rows(Family.KDVB_SINGULAR, np.array([a, 0.5]), theta)
        want = sweep_rows(Family.KDVB_SINGULAR, np.array([period_rep, 0.5]), theta)
        for g, w in zip(got, want):  # values, then pole
            assert np.array_equal(g, w, equal_nan=True)


def test_sweep_rejects_empty_grids():
    with pytest.raises(ParameterDomainError):
        sweep_rows(Family.KDVB_REGULAR, np.array([]), np.array([0.0]))
    with pytest.raises(ParameterDomainError):
        sweep_rows(Family.KDVB_REGULAR, np.array([0.0]), np.array([]))


# ---------------------------------------------------------------------------
# array kernel against the scalar references
#
# In reduced coordinates the reference is the 50-digit spelling above.  In
# physical coordinates it is verify's direct physical formula: cmath's
# complex tanh and numpy's differ in the last bit, and the formula rounds the
# coordinate map in another order than the kernel path.  So values agree to a
# few ulp of their scale, not bit for bit.  The scale of a point is the
# larger of its own magnitude and the tails' magnitude.

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
        "constant": rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.MINUS),
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
    """((values, pole) of evaluate_grid, (values, pole) of the reference) on grid.

    The reference pole set is where the 50-digit spelling finds a pole
    (reduced) or where verify's direct formula returns None (physical);
    the kernel runs with every warning turned into an error.
    """
    if mode == "reduced":
        sol = _reduced_kernel_cases()[name]
        t, call = None, lambda c: _reference(sol, c)
    else:
        sol = _physical_kernel_cases()[name]
        t, formula = 0.0, _physical_formula(sol)

        def call(c):
            value = formula(c, 0.0)
            return value, value is None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_grid(sol, grid, t)
    values, pole = [], []
    for c in grid.tolist():
        value, on_pole = call(c)
        values.append(complex(math.nan, math.nan) if on_pole else value)
        pole.append(on_pole)
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


# ---------------------------------------------------------------------------
# every input ends in a finite value, a pole flag or a domain error

# zeros, units, plain values, and magnitudes at and past the edges of the float range
_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5, 0.1, 1e308, -1e308, 1.5e307, -1.5e307,
          1e154, -1e154, 1e-154, 1e200, 1e-200, 1e100, 7e77, 1e-310, 5e-324]


def _edge_solution(family, physical, c, locked, sign):
    """A solution of ``family`` from the values c: reduced, or physical with k0 = c[7].

    The reduced constructors take c[0], c[1] and a phase c[2] + i*pi*c[3].  The
    physical ones take (s, mu, alpha, beta, v) = c[:5] and xi0 = c[5] + i*pi*c[6];
    ``locked`` moves v to the rational families' locked velocity.
    """
    kdvb, compound = family in _KDVB_FAMILIES, family in _COMPOUND_FAMILIES
    if not physical:
        phase = complex(c[2], math.pi * c[3])
        if kdvb:
            return universal_solution(family, theta0=phase, delta=c[0])
        if compound:
            return compound_solution(family, c[0], c[1], theta0=phase)
        if family is Family.CONSTANT:
            return rational_solution(family, c[0], 0.0, sign)
        return rational_solution(family, c[0], c[1])
    params = PhysicalParams(*c[:5], xi0=complex(c[5], math.pi * c[6]))
    if kdvb:
        return kdvb_solution_from_physical(family, params)
    if compound:
        return compound_solution_from_physical(family, params)
    if locked:
        params = PhysicalParams(*c[:4], locked_rational_velocity(params), params.xi0)
    return rational_solution_from_physical(
        family, params, 0.0 if family is Family.CONSTANT else c[7], sign)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(list(Family)), physical=st.booleans(),
       c=st.lists(st.sampled_from(_EDGES), min_size=8, max_size=8), locked=st.booleans(),
       sign=st.sampled_from(list(Sign)), grid=st.lists(st.sampled_from(_EDGES), min_size=3,
                                                        max_size=3), t=st.sampled_from(_EDGES))
# an amplitude that overflows off the poles, an 18p that overflows the discriminant (reduced
# and physical), a compound jet whose Delta**3 overflows, and a rational pole whose stand-in
# underflows in the jet: each used to give inf, a wrong value, an OverflowError or a warning
@example(Family.KDVB_REGULAR, True, [1.0, 1.0, 1e-160, 0.0, 2e150, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [0.0, 1.0, 0.5], 0.0)
@example(Family.COMPOUND_TANH_PLUS, False, [1.5e307, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [-1.0, 0.0, 1.0], 0.0)
@example(Family.COMPOUND_TANH_PLUS, True, [1.0, 1.0, 1.0, 1.5, 1.5e307, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [-1.0, 0.0, 1.0], 0.0)
@example(Family.COMPOUND_TANH_PLUS, False, [1e300, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [1.0, -3.0, 0.0], 0.0)
@example(Family.RATIONAL_PLUS, False, [1e-154, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [1e-310, 0.0, 1.0], 0.0)
# a k0 = 0 jet whose A*g**4 overflows has no divided-through form: it must not divide by k0
@example(Family.RATIONAL_PLUS, False, [1e200, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], False,
         Sign.PLUS, [0.0, 0.0, 0.0], 0.0)
def test_every_solution_is_finite_off_the_poles_or_a_domain_error(
        family, physical, c, locked, sign, grid, t):
    grid = np.array(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sol = _edge_solution(family, physical, c, locked, sign)
        except ParameterDomainError:
            return
        evaluators = [lambda: evaluate_grid(sol, grid), lambda: solution_jet(sol, grid)]
        if physical:
            evaluators += [lambda: evaluate_grid(sol, grid, t), lambda: physical_jet(sol, grid, t)]
        for evaluate in evaluators:
            try:
                values, pole = evaluate()
            except ParameterDomainError:
                continue
            for d in values if isinstance(values, tuple) else (values,):
                assert (np.isfinite(d) | pole).all()
