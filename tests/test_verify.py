"""Tests for the residual, oracle, and audit machinery."""

import cmath
import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from kdvbwaves import (
    Family,
    ParameterDomainError,
    PhysicalParams,
    ReducedParams,
    Sign,
    WaveSolution,
    compound_solution,
    compound_solution_from_physical,
    eval_solution,
    factorize_compound,
    kdvb_solution_from_physical,
    locked_rational_velocity,
    rational_solution,
    rational_solution_from_physical,
    reduce,
    residual_pde,
    universal_solution,
    verification_suite,
)
from kdvbwaves import verify as verify_module
from kdvbwaves.factorizer import CompoundFactorization, KdvbFactorization
from kdvbwaves.verify import (
    BLOWUP_THRESHOLD,
    SCOPES,
    _compound_formula,
    _kdvb_formula,
    _physical_formula,
    _physical_samples,
    _rational_formula,
    _report,
    _rk4,
    check_first_integral_consistency,
    oracle_integrate_bernoulli,
    oracle_integrate_riccati,
    physical_discriminant_root,
    rational_form_audit,
    residual_first_integral,
)

GRID = np.linspace(-50.0, 50.0, 200)
KDVB_PROBE = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
COMPOUND_PROBE = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0)


# ---------------------------------------------------------------------------
# first-integral residual


def test_first_integral_residual_vanishes_for_all_families():
    sols = [
        universal_solution(Family.KDVB_REGULAR),
        universal_solution(Family.KDVB_REGULAR, delta=3.7),
        universal_solution(Family.KDVB_SINGULAR),
        compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0),
        compound_solution(Family.COMPOUND_TANH_MINUS, 0.5, 2.0),
        rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0),
        rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS),
    ]
    for sol in sols:
        report = residual_first_integral(sol, GRID)
        assert report.max_abs < 1e-9, sol.family


def test_first_integral_excludes_poles_with_a_count():
    sol = universal_solution(Family.KDVB_SINGULAR)
    grid = np.linspace(-10.0, 10.0, 21)  # hits the pole at exactly 0
    report = residual_first_integral(sol, grid)
    assert report.n_poles == 1
    assert report.n_samples == 20
    assert report.max_abs < 1e-9


def test_first_integral_detects_perturbation():
    sol = universal_solution(Family.KDVB_REGULAR)
    clean = residual_first_integral(sol, GRID).max_abs
    dirty = residual_first_integral(sol, GRID, scale=1.01).max_abs
    assert dirty > 1e-5
    assert dirty > 1e3 * max(clean, 1e-300)


def test_first_integral_needs_an_integration_constant():
    # every constructor fixes k; a solution built by hand may leave it None
    sol = WaveSolution(Family.KDVB_REGULAR, ReducedParams(p=0.24, q=0.0), Sign.MINUS)
    with pytest.raises(ParameterDomainError, match="solution has no integration constant k"):
        residual_first_integral(sol, GRID)


@given(
    value=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    n=st.integers(min_value=1, max_value=500),
)
def test_constant_residual_reports_its_value_at_the_first_point(value, n):
    report = _report(np.full(n, value), np.arange(n, dtype=float), np.zeros(n, bool))
    assert report.max_abs == value
    assert (report.n_samples, report.worst_point) == (n, 0j)


def test_reducer_skips_poles_and_reports_the_first_worst_point():
    residual = np.array([1.0, -3.0, np.nan, 3.0, 2.0])
    pole = np.array([False, False, True, False, False])
    report = _report(residual, np.arange(5.0) + 1j, pole, "w")
    assert report.max_abs == 3.0
    assert (report.worst_point, report.n_samples, report.n_poles) == (1 + 1j, 4, 1)
    assert report.warning == "w"


def test_reducer_reports_a_nan_residual_as_the_maximum():
    # like verify_factorization: a NaN residual can never pass a tolerance
    residual = np.array([1.0, np.nan, 5.0, np.nan])
    report = _report(residual, np.arange(4.0) + 1j, np.zeros(4, bool))
    assert math.isnan(report.max_abs)
    assert (report.worst_point, report.n_samples) == (1 + 1j, 4)


def test_all_pole_grid_is_an_error():
    sol = universal_solution(Family.KDVB_SINGULAR)
    with pytest.raises(ParameterDomainError):
        residual_first_integral(sol, [0.0])


@pytest.mark.parametrize("reduce_empty", [
    lambda sol, phys: residual_first_integral(sol, []),
    lambda sol, phys: check_first_integral_consistency(sol, []),
    lambda sol, phys: residual_pde(phys, [], mode="fd"),
    lambda sol, phys: residual_pde(phys, [], mode="analytic"),
], ids=["first-integral", "consistency", "pde-fd", "pde-analytic"])
def test_empty_grid_is_an_error_that_names_it(reduce_empty):
    # no grid point is not a grid of poles
    sol = universal_solution(Family.KDVB_SINGULAR)
    phys = compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, COMPOUND_PROBE)
    with pytest.raises(ParameterDomainError, match="^empty grid; nothing to verify$"):
        reduce_empty(sol, phys)


# ---------------------------------------------------------------------------
# direct physical formulas (the finite-difference oracle)


@pytest.mark.parametrize("xi0", [0j, 0.3j, complex(0.5, -0.7)])
def test_physical_samples_reject_a_node_without_a_finite_theta(xi0):
    # the sampler takes the product's domain: a NaN or infinite coordinate, or one
    # whose theta = mu*(x - v*t - xi0)/s overflows, has no value and no pole flag
    inf, nan = math.inf, math.nan
    kdvb = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2, xi0=xi0)
    compound = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04, xi0=xi0)
    for sol in (kdvb_solution_from_physical(Family.KDVB_REGULAR, kdvb),
                kdvb_solution_from_physical(Family.KDVB_SINGULAR, kdvb),
                compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, compound),
                compound_solution_from_physical(Family.COMPOUND_TANH_MINUS, compound)):
        for x, t in ((nan, 0.0), (0.0, nan), (inf, 0.7), (-inf, 0.7), (0.0, inf), (inf, inf),
                     (inf, -inf)):
            with pytest.raises(ParameterDomainError, match="must be finite"):
                _physical_samples(sol, np.array([0.0, x]), np.array([0.0, t]))
        # mu/s = 6 takes x = 1e308 out of the float range; mu/s = 1/2 keeps it
        far = np.array([1e308, -1e308])
        if sol.family in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
            with pytest.raises(ParameterDomainError, match="must be finite"):
                _physical_samples(sol, far, np.zeros(2))
    # the asymptotes, at the farthest nodes whose theta is finite
    c = 3.0 * 6.0**2 / 25.0
    for fam in (Family.KDVB_REGULAR, Family.KDVB_SINGULAR):
        values, pole = _physical_samples(kdvb_solution_from_physical(fam, kdvb),
                                         np.array([1e307, -1e307]), np.full(2, 0.7))
        assert not pole.any()
        assert values == pytest.approx([0.2 + 2.0 * c, 0.2 - 2.0 * c], abs=1e-14)
        assert _kdvb_formula(fam, kdvb)(1e307, 0.7) == values[0]
    root, amp = physical_discriminant_root(compound), 1.0 / math.sqrt(6.0 * 2.0 * 2.0)
    for fam, sign in ((Family.COMPOUND_TANH_PLUS, 1.0), (Family.COMPOUND_TANH_MINUS, -1.0)):
        values, pole = _physical_samples(compound_solution_from_physical(fam, compound),
                                         np.array([1e308, -1e308]), np.full(2, 0.25))
        assert not pole.any()
        expected = [-3.0 / 4.0 + sign * amp * (1.0 + end * root) for end in (1.0, -1.0)]
        assert values == pytest.approx(expected, abs=1e-14)
        assert _compound_formula(fam, compound)(-1e308, 0.25) == values[1]
    # also where the degenerate kink (D = 0) is constant in the coordinate
    flat = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-25.0 / 24.0, xi0=xi0)
    assert physical_discriminant_root(flat) == 0.0
    for x in (nan, inf):
        with pytest.raises(ParameterDomainError, match="must be finite"):
            _physical_samples(compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, flat),
                              np.array([x]), np.array([0.0]))


RATIONAL_K0 = ((Family.RATIONAL_PLUS, 1.0), (Family.RATIONAL_MINUS, -2.0))


@pytest.mark.parametrize("xi0", [0j, 0.3j, complex(0.5, -0.7)])
def test_rational_physical_samples_reject_a_node_without_a_finite_theta(xi0):
    # theta = mu*(x - v*t - xi0)/s is a complex product, so an infinite x makes
    # it non-finite whatever its real part does: a domain error, as in the product
    inf, nan = math.inf, math.nan
    v = locked_rational_velocity(PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=0.0))
    params = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=v, xi0=xi0)
    assert v < 0  # so x = t = +inf is x - v*t = +inf, and x = inf, t = -inf is NaN
    q = reduce(params).q
    for fam, k0 in RATIONAL_K0:
        A = (1.0 if fam is Family.RATIONAL_PLUS else -1.0) * math.sqrt(q / 2.0)
        const = -(3.0 / (2.0 * 2.0)) * (A + 1.0)
        sol = rational_solution_from_physical(fam, params, k0)
        direct, dispatched = _rational_formula(fam, params, k0, Sign.PLUS), _physical_formula(sol)
        # far out, but finite: the formula itself, approaching the constant
        for x, t in ((1e308, 0.5),):
            assert direct(x, t) == pytest.approx(const, abs=1e-15)
            assert dispatched(x, t) == pytest.approx(const, abs=1e-15)
            assert _physical_samples(sol, np.array([x]), np.array([t]))[0][0] == direct(x, t)
        assert abs(direct(1e8, 0.0) - const) < 1e-7
        for x, t in ((nan, 0.0), (0.0, nan), (inf, 0.0), (-inf, 0.0), (0.0, inf), (0.0, -inf),
                     (inf, inf), (inf, -inf)):
            with pytest.raises(ParameterDomainError, match="must be finite"):
                _physical_samples(sol, np.array([x]), np.array([t]))
    flat = rational_solution_from_physical(Family.CONSTANT, params, 0.0, Sign.MINUS)
    for x in (nan, -inf):
        with pytest.raises(ParameterDomainError, match="must be finite"):
            _physical_samples(flat, np.array([x]), np.array([0.0]))
    constant = _physical_formula(flat)
    assert constant(-1e308, 0.0) == constant(0.0, 0.0)


def test_physical_dispatch_agrees_with_direct_formulas():
    fig7 = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)
    sol = compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, fig7)
    assert _physical_formula(sol)(1.0, 0.5) == _compound_formula(
        Family.COMPOUND_TANH_PLUS, fig7)(1.0, 0.5)
    # a solution without physical coefficients never reaches the formulas: the FD residual
    # rejects it first
    with pytest.raises(ParameterDomainError, match="physically-anchored"):
        residual_pde(universal_solution(Family.KDVB_REGULAR), [(0.0, 0.0)], mode="fd")


# ---------------------------------------------------------------------------
# PDE residual


def test_pde_residual_fd_and_analytic_agree():
    sol = kdvb_solution_from_physical(Family.KDVB_REGULAR, KDVB_PROBE)
    grid = [(x, 0.3) for x in np.linspace(-3.0, 3.0, 21)]
    fd = residual_pde(sol, grid, h=1e-3, mode="fd")
    an = residual_pde(sol, grid, mode="analytic")
    assert fd.max_abs < 1e-5
    assert an.max_abs < 1e-9


def test_pde_residual_vanishes_for_a_compound_solution():
    sol = compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, COMPOUND_PROBE)
    grid = [(x, 0.0) for x in np.linspace(-2.0, 2.0, 11)]
    report = residual_pde(sol, grid, mode="analytic")
    assert report.max_abs < 1e-9


def test_pde_residual_convergence_is_second_order():
    sol = compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, COMPOUND_PROBE)
    grid = [(x, 0.3) for x in np.linspace(-3.0, 3.0, 21)]
    maxes = [residual_pde(sol, grid, h=h, mode="fd").max_abs for h in (1e-2, 5e-3, 2.5e-3)]
    assert 3.5 < maxes[0] / maxes[1] < 4.5
    assert 3.5 < maxes[1] / maxes[2] < 4.5


def test_pde_residual_warns_on_coarse_step():
    sol = kdvb_solution_from_physical(Family.KDVB_REGULAR, KDVB_PROBE)
    # kink width 10*s/mu = 5/3; h = 1 under-resolves it
    report = residual_pde(sol, [(0.0, 0.0)], h=1.0, mode="fd")
    assert report.warning is not None and "coarse" in report.warning
    fine = residual_pde(sol, [(0.0, 0.0)], h=1e-3, mode="fd")
    assert fine.warning is None


def test_pde_residual_detects_perturbation():
    sol = kdvb_solution_from_physical(Family.KDVB_REGULAR, KDVB_PROBE)
    grid = [(x, 0.0) for x in np.linspace(-3.0, 3.0, 21)]
    clean = residual_pde(sol, grid, mode="analytic").max_abs
    dirty = residual_pde(sol, grid, mode="analytic", scale=1.01).max_abs
    assert dirty > 1e3 * max(clean, 1e-300)


# (x, t) where theta = mu*(x - v*t - xi0)/s of KDVB_PROBE (mu/s = 6) is not finite
_NO_THETA = [(math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 0.0), (1e308, 0.0)]


def test_pde_residual_requires_physical_anchor():
    sol = universal_solution(Family.KDVB_REGULAR)
    with pytest.raises(ParameterDomainError):
        residual_pde(sol, [(0.0, 0.0)])
    anchored = kdvb_solution_from_physical(Family.KDVB_REGULAR, KDVB_PROBE)
    with pytest.raises(ParameterDomainError):
        residual_pde(anchored, [(0.0, 0.0)], mode="nonsense")
    for h in (-1e-3, 0.0, math.inf, math.nan, 1e200, 10**400):  # 1e200**3 overflows
        with pytest.raises(ParameterDomainError, match="step"):
            residual_pde(anchored, [(0.0, 0.0)], h=h, mode="fd")
    # h is read as float(h): a Fraction (whose format has no "g" before Python 3.12) and an
    # int64 whose cube overflows int64 give the report of the float they round to
    for h in (Fraction(1, 2), np.int64(2**62)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = residual_pde(anchored, [(0.0, 0.0), (1.0, 0.5)], h=h, mode="fd")
        want = residual_pde(anchored, [(0.0, 0.0), (1.0, 0.5)], h=float(h), mode="fd")
        assert repr(got) == repr(want) and "coarse" in got.warning
    # no residual where theta is not finite: an asymptote there would let a
    # non-solution pass (scale=1.01 reads 5.3e-9 at the asymptote, 0.216 at x = 0)
    for xt in _NO_THETA:
        with pytest.raises(ParameterDomainError, match="must be finite"):
            residual_pde(anchored, [(0.0, 0.0), xt], mode="fd", scale=1.01)


_FINITE_THETA = [(1e307, 0.0), (0.0, 1e300), (-3.0, 0.5)]


@pytest.mark.parametrize("xt", _NO_THETA + _FINITE_THETA)
@pytest.mark.parametrize("family", [Family.KDVB_REGULAR, Family.KDVB_SINGULAR,
                                    Family.COMPOUND_TANH_PLUS])
def test_pde_residual_fd_raises_exactly_where_analytic_raises(family, xt):
    # one domain for both modes: theta finite at every point (every FD node)
    compound = family is Family.COMPOUND_TANH_PLUS
    sol = (compound_solution_from_physical(family, COMPOUND_PROBE) if compound
           else kdvb_solution_from_physical(family, KDVB_PROBE))
    outcomes = []
    for mode in ("fd", "analytic"):
        try:
            residual_pde(sol, [xt], mode=mode)
        except ParameterDomainError as exc:
            outcomes.append(str(exc))
        else:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1]
    # mu/s = 6 takes x = 1e308 out of the float range, COMPOUND_PROBE's mu/s = 1/2 does not
    assert (outcomes[0] is None) == (xt in _FINITE_THETA or compound and xt == (1e308, 0.0))


def test_beta_zero_pde_residual_drops_the_cubic_term():
    # with beta = 0 the compound operator reduces to the plain one exactly:
    # check the residual against a hand-built four-term evaluation
    sol = kdvb_solution_from_physical(Family.KDVB_REGULAR, KDVB_PROBE)
    from kdvbwaves import physical_jet

    (u, ux, uxx, uxxx, ut), _ = physical_jet(sol, 0.7, 0.1)
    manual = ut - KDVB_PROBE.s * uxxx + KDVB_PROBE.mu * uxx + KDVB_PROBE.alpha * u * ux
    report = residual_pde(sol, [(0.7, 0.1)], mode="analytic")
    assert report.max_abs == pytest.approx(abs(manual), abs=1e-18)


# ---------------------------------------------------------------------------
# structural consistency of the two third-order transcriptions


def test_consistency_holds_for_solutions_and_non_solutions():
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    exact = check_first_integral_consistency(sol, GRID)
    assert exact.max_abs < 1e-9
    # a scaled (non-solution) w still satisfies the identity
    scaled = check_first_integral_consistency(sol, GRID, scale=1.3)
    assert scaled.max_abs < 1e-9


# ---------------------------------------------------------------------------
# Runge-Kutta oracle


def test_bernoulli_oracle_reproduces_regular_kink():
    traj = oracle_integrate_bernoulli(Sign.MINUS, 3.0 / 50.0, (0.0, 40.0), 0.01)
    assert not traj.blew_up
    assert abs(traj.endpoint - eval_solution(universal_solution(Family.KDVB_REGULAR), 40.0)) < 1e-6


def test_bernoulli_oracle_order_is_four():
    target = eval_solution(universal_solution(Family.KDVB_REGULAR), 10.0)
    errs = [
        abs(oracle_integrate_bernoulli(Sign.MINUS, 3.0 / 50.0, (0.0, 10.0), h).endpoint - target)
        for h in (0.5, 0.25)
    ]
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_bernoulli_plus_branch_blows_up():
    traj = oracle_integrate_bernoulli(Sign.PLUS, 0.5, (0.0, 40.0), 0.01)
    assert traj.blew_up
    assert traj.thetas[-1] < 40.0  # truncated before the end of the span
    assert len(traj.thetas) == len(traj.values)


def test_bernoulli_oracle_validates_inputs():
    with pytest.raises(ParameterDomainError):
        oracle_integrate_bernoulli(Sign.MINUS, -1.0, (0.0, 1.0), 0.1)
    with pytest.raises(ParameterDomainError):
        oracle_integrate_bernoulli(Sign.MINUS, 1.0, (0.0, 1.0), 0.0)
    with pytest.raises(ParameterDomainError):
        oracle_integrate_bernoulli(Sign.MINUS, 1.0, (1.0, 1.0), 0.1)


@pytest.mark.parametrize("span, step, message", [
    ((0.0, 1.0), math.nan, "must be finite"),  # was a bare ValueError from round(nan)
    ((0.0, 1.0), math.inf, "must be finite"),
    ((0.0, math.inf), 0.1, "must be finite"),  # was a bare OverflowError from round(inf)
    ((-math.inf, 1.0), 0.1, "must be finite"),
    ((math.nan, 1.0), 0.1, "must be finite"),
    ((0.0, 1e308), 1e-308, "leaves the float range"),  # span/step overflows
    ((-1e308, 1e308), 1.0, "leaves the float range"),  # the span itself overflows
], ids=repr)
def test_oracle_mesh_that_is_not_finite_is_a_domain_error(span, step, message):
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    fact = factorize_compound(sol.reduced, sol.sign)
    with pytest.raises(ParameterDomainError, match=message):
        oracle_integrate_riccati(fact, 0.1, span, step)
    with pytest.raises(ParameterDomainError, match=message):
        oracle_integrate_bernoulli(Sign.MINUS, 0.1, span, step)


def test_riccati_oracle_reproduces_compound_kink():
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    fact = factorize_compound(sol.reduced, sol.sign)
    traj = oracle_integrate_riccati(fact, eval_solution(sol, 0.0), (0.0, 10.0), 0.005)
    assert abs(traj.endpoint - eval_solution(sol, 10.0)) < 1e-6


def test_riccati_oracle_diverges_off_the_paired_branch():
    # integrating the kink's initial value with the WRONG branch coefficients
    # must not track the closed form: the pairing is load-bearing
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    wrong_sign = Sign.PLUS if sol.sign is Sign.MINUS else Sign.MINUS
    fact = factorize_compound(sol.reduced, wrong_sign)
    traj = oracle_integrate_riccati(fact, eval_solution(sol, 0.0), (0.0, 10.0), 0.005)
    gap = abs(traj.endpoint - eval_solution(sol, 10.0))
    assert traj.blew_up or gap > 1e-2


def test_riccati_constant_is_an_equilibrium():
    sol = rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS)
    fact = factorize_compound(sol.reduced, sol.sign)
    U0 = -1.0  # the plus-branch constant at q = 1/2
    traj = oracle_integrate_riccati(fact, U0, (0.0, 20.0), 0.01)
    assert np.max(np.abs(traj.values - U0)) < 1e-12


def _reference_rk4(rhs, y0, span, step):
    """Textbook four-stage RK4, spelled as the oracle first was: the bits _rk4 must keep."""
    t0, t1 = span
    n = max(1, round((t1 - t0) / step))
    h = (t1 - t0) / n
    thetas, values, y = [t0], [complex(y0)], complex(y0)
    blew_up = False
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        thetas.append(t0 + (i + 1) * h)
        values.append(y)
        if not (cmath.isfinite(y) and abs(y) <= BLOWUP_THRESHOLD):
            blew_up = True
            break
    return np.array(thetas), np.array(values, dtype=complex), blew_up


def _assert_same_bits(traj, reference):
    thetas, values, blew_up = reference
    assert traj.blew_up is blew_up
    assert traj.thetas.dtype == thetas.dtype and traj.values.dtype == values.dtype
    assert np.array_equal(traj.thetas.view(np.uint64), thetas.view(np.uint64))
    assert np.array_equal(traj.values.view(np.uint64), values.view(np.uint64))


def _riccati_rhs(fact):
    """U' = A*U^2 + B*U + C of ``fact``, spelled as the textbook reference evaluates it."""
    return lambda U: fact.A * U * U + fact.B * U + fact.C


_INF, _NAN = math.inf, math.nan
# the kink, rational and constant branches of the suite, plus coefficients
# large enough to overflow within one step
_RICCATI = [
    factorize_compound(compound_solution_from_physical(fam, PhysicalParams(
        s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)).reduced, sign)
    for fam in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS)
    for sign in (Sign.MINUS, Sign.PLUS)
] + [
    factorize_compound(rational_solution(Family.RATIONAL_MINUS, 0.5, -1.0).reduced, Sign.MINUS),
    factorize_compound(rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS).reduced, Sign.PLUS),
    CompoundFactorization(A=1e200, B=1.0, C=0.0, p=0.0, q=1.0, k=0.0, sign=Sign.PLUS),
    CompoundFactorization(A=0.0, B=1e308, C=-1.0, p=0.0, q=1.0, k=0.0, sign=Sign.PLUS),
]
_RICCATI_RUNS = [
    (0.3, (0.0, 10.0), 0.005),
    (complex(0.1, -0.7), (-0.0, 3.0), 0.013),  # theta_0 keeps its sign
    (-1.2, (0, 10), 0.3),  # integer span
    (5.0, (2.5, 2.6), 1.0),  # one step longer than the span asks
    (1e6, (0.0, 20.0), 0.01),  # grows past the guard and truncates
    (_INF, (0.0, 1.0), 0.25),
    (_NAN, (0.0, 1.0), 0.25),
    (complex(_INF, _NAN), (0.0, 1.0), 0.25),
    (complex(1.0, _INF), (0.0, 1.0), 0.25),
]


@pytest.mark.parametrize("run", _RICCATI_RUNS, ids=repr)
@pytest.mark.parametrize("which", range(len(_RICCATI)))
def test_riccati_oracle_matches_textbook_rk4_bit_for_bit(which, run):
    fact = _RICCATI[which]
    U0, span, step = run
    _assert_same_bits(
        oracle_integrate_riccati(fact, U0, span, step),
        _reference_rk4(_riccati_rhs(fact), U0, span, step),
    )


@pytest.mark.parametrize("sign", [Sign.MINUS, Sign.PLUS])
@pytest.mark.parametrize("run", [
    (3.0 / 50.0, (0.0, 40.0), 0.01),
    (0.5, (0.0, 40.0), 0.01),  # the plus branch truncates at blow-up
    (3.0 / 50.0, (0.0, 10.0), 0.5),
    (3.0 / 50.0, (-0.0, 10.0), 0.25),
    (3.0, (-5.0, 7.0), 0.013),
    (0.5, (0.0, 1e300), 1e300),  # one step overflows to NaN
    (_INF, (0.0, 1.0), 0.5),
], ids=repr)
def test_bernoulli_oracle_matches_textbook_rk4_bit_for_bit(sign, run):
    U0, span, step = run
    a = sign.factor * math.sqrt(2.0 / 3.0)
    reference = _reference_rk4(lambda U: a * U * cmath.sqrt(U) + 0.4 * U, U0, span, step)
    _assert_same_bits(oracle_integrate_bernoulli(sign, U0, span, step), reference)


def test_reference_runs_reach_blow_up_and_non_finite_states():
    # the bit-for-bit cases above cover truncation and every non-finite state kind
    runs = [_reference_rk4(_riccati_rhs(fact), *run) for fact in _RICCATI for run in _RICCATI_RUNS]
    assert any(blew and len(th) < 100 and np.isfinite(v[-1]) for th, v, blew in runs)
    last = [v[-1] for _, v, blew in runs if blew]
    assert any(np.isnan(u.real) and np.isnan(u.imag) for u in last)
    states = [u for _, v, _ in runs for u in v]
    assert any(np.isinf(u.real) and u.imag == 0 for u in states)
    assert any(np.isinf(u.real) and np.isnan(u.imag) for u in states)


# _rk4 runs a start whose imaginary part is exactly +0.0 in Python floats and
# redoes in complex any float step that lands on zero, leaves the finite range
# or raises ValueError.  The cases below pin that every such run still gives
# the textbook complex run's bits.  A Riccati flow with C = -0.0 and A < 0 has
# an equilibrium at zero whose sign a float step gets wrong from U0 = -0.0.
_ZERO_EQUILIBRIA = [
    CompoundFactorization(A=A, B=B, C=-0.0, p=0.0, q=1.0, k=0.0, sign=Sign.MINUS)
    for A, B in ((-1.0, 0.5), (-4.75, 1e-147))
]
_SMALLEST_NORMAL = 2.2250738585072014e-308
_REAL_STARTS = [
    np.float64(0.3), np.complex128(-1.2), np.complex128(complex(0.4, 0.0)), 0.0, -0.0,
    5e-324, -5e-324, 3.3 * _SMALLEST_NORMAL, -1e-310, 1,
]


def _state_types(y0):
    """The types of every state _rk4 hands its step map, on a linear flow."""
    seen = set()

    def advance(U):  # one Euler step of U' = 0.5*U + 0.25
        seen.add(type(U))
        return U + 0.125 * (0.5 * U + 0.25)

    _rk4(advance, y0, 0.0, 8, 0.125)
    return seen


@pytest.mark.parametrize("y0", [np.float64(0.3), np.complex128(0.3), 0.3, 3, complex(0.3, 0.0),
                                np.complex128(complex(-2.0, 0.0)), -0.0], ids=repr)
def test_real_start_runs_on_python_floats(y0):
    # a numpy scalar state would be slower than complex: the float path must be float
    assert _state_types(y0) == {float}


@pytest.mark.parametrize("y0", [complex(0.3, -0.0), np.complex128(complex(0.3, -0.0)),
                                complex(0.3, 1e-300), complex(0.0, -0.0)], ids=repr)
def test_start_off_the_real_axis_stays_complex(y0):
    # an imaginary part of -0.0 is not +0.0: the reference keeps it in values[0]
    assert _state_types(y0) == {complex}


@pytest.mark.parametrize("run", [((0.0, 10.0), 0.005), ((-0.0, 3.0), 0.013), ((0.0, 1.0), 0.25)],
                         ids=repr)
@pytest.mark.parametrize("U0", _REAL_STARTS + [complex(0.3, -0.0), complex(-0.0, -0.0)], ids=repr)
@pytest.mark.parametrize("which", range(len(_RICCATI) + len(_ZERO_EQUILIBRIA)))
def test_riccati_real_starts_match_textbook_rk4_bit_for_bit(which, U0, run):
    fact = (_RICCATI + _ZERO_EQUILIBRIA)[which]
    span, step = run
    _assert_same_bits(
        oracle_integrate_riccati(fact, U0, span, step),
        _reference_rk4(_riccati_rhs(fact), U0, span, step),
    )


def test_zero_equilibrium_keeps_the_complex_sign_of_zero():
    # float steps from -0.0 stay at -0.0, the complex reference moves to +0.0:
    # the first step lands on zero, so it is redone in complex
    fact = _ZERO_EQUILIBRIA[0]
    traj = oracle_integrate_riccati(fact, -0.0, (0.0, 1.0), 0.5)
    assert not traj.blew_up and np.all(traj.values == 0.0)
    assert [math.copysign(1.0, u.real) for u in traj.values] == [-1.0, 1.0, 1.0]
    _assert_same_bits(traj, _reference_rk4(_riccati_rhs(fact), -0.0, (0.0, 1.0), 0.5))


def _bernoulli_reference(sign, U0, span, step):
    a = sign.factor * math.sqrt(2.0 / 3.0)
    return _reference_rk4(lambda U: a * U * cmath.sqrt(U) + 0.4 * U, U0, span, step)


@pytest.mark.parametrize("sign", [Sign.MINUS, Sign.PLUS])
@pytest.mark.parametrize("U0", [np.float64(3.0 / 50.0), 5e-324, 1e-310, _SMALLEST_NORMAL,
                                3.3 * _SMALLEST_NORMAL, 1e300], ids=repr)
def test_bernoulli_real_starts_match_textbook_rk4_bit_for_bit(sign, U0):
    # the tiny starts grow through the subnormals and the smallest normals
    for span, step in (((0.0, 40.0), 0.01), ((0.0, 200.0), 0.5)):
        _assert_same_bits(oracle_integrate_bernoulli(sign, U0, span, step),
                          _bernoulli_reference(sign, U0, span, step))


def test_bernoulli_negative_stage_switches_to_complex_mid_run():
    # step 8's stages go negative while every state stays positive: math.sqrt
    # raises, the step is redone with cmath.sqrt, and the run goes on in complex
    span, step = (0.0, 277.5), 23.125
    traj = oracle_integrate_bernoulli(Sign.MINUS, 1e-5, span, step)
    _assert_same_bits(traj, _bernoulli_reference(Sign.MINUS, 1e-5, span, step))
    first_complex = int(np.flatnonzero(traj.values.imag)[0])
    assert first_complex == 8 and len(traj.values) == 13 and not traj.blew_up
    assert np.all(np.isfinite(traj.values)) and np.all(traj.values.real > 0)


_SPANS = st.tuples(
    st.floats(-10.0, 10.0), st.floats(1e-3, 50.0), st.integers(1, 300)
).map(lambda t: ((t[0], t[0] + t[1]), t[1] / t[2])).filter(lambda r: r[0][1] > r[0][0])


@settings(deadline=None, max_examples=150)
@given(
    fact=st.sampled_from(_RICCATI + _ZERO_EQUILIBRIA),
    U0=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 5e-324]),
    run=_SPANS,
)
def test_riccati_real_starts_match_textbook_rk4_property(fact, U0, run):
    span, step = run
    _assert_same_bits(oracle_integrate_riccati(fact, U0, span, step),
                      _reference_rk4(_riccati_rhs(fact), U0, span, step))


@settings(deadline=None, max_examples=150)
@given(
    sign=st.sampled_from([Sign.MINUS, Sign.PLUS]),
    U0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=True),
    run=_SPANS,
)
def test_bernoulli_real_starts_match_textbook_rk4_property(sign, U0, run):
    span, step = run
    _assert_same_bits(oracle_integrate_bernoulli(sign, U0, span, step),
                      _bernoulli_reference(sign, U0, span, step))


# A float step that returns its own state is a fixed point of the step map,
# and _rk4 fills the rest of the run with that state.  On an exact equilibrium
# of a Riccati flow, C = -(A*U0*U0 + B*U0) so that rhs(U0) is exactly 0, that
# happens at the first step; the run must still be the textbook run.
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                            -1e-300, 1e-154, 1e154, -1e154, 1e300, -1e300, 1.7976931348623157e308])


@settings(deadline=None, max_examples=200)
@given(A=st.floats(allow_nan=False, allow_infinity=False) | _EXTREME,
       B=st.floats(allow_nan=False, allow_infinity=False) | _EXTREME,
       U0=st.floats(allow_nan=False, allow_infinity=False) | _EXTREME,
       run=_SPANS)
def test_riccati_equilibria_match_textbook_rk4_property(A, B, U0, run):
    C = -(A * U0 * U0 + B * U0)
    assume(math.isfinite(C))
    fact = CompoundFactorization(A=A, B=B, C=C, p=0.0, q=1.0, k=0.0, sign=Sign.PLUS)
    assert _riccati_rhs(fact)(U0) == 0.0
    span, step = run
    _assert_same_bits(oracle_integrate_riccati(fact, U0, span, step),
                      _reference_rk4(_riccati_rhs(fact), U0, span, step))


# Each oracle hands _rk4 one whole RK4 step, its right-hand side inline.  At
# any state that step must be one textbook four-call step of the equation,
# bit for bit: at a float state in float arithmetic (the Bernoulli step with
# math.sqrt, raising ValueError where a stage goes negative), at complex(U)
# with cmath.sqrt.  A float step that _rk4 keeps (nonzero and bounded) must
# also be the complex step's real part, with an imaginary part of +0.0.
def _one_step(rhs, y, h):
    """One textbook four-call RK4 step, spelled as _reference_rk4's."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _advance(integrate, *args):
    """(advance, h): the step map an oracle call hands _rk4, and its step size."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify_module, "_rk4", lambda advance, y0, t0, n, h: built.append((advance, h)))
        integrate(*args)
    return built[0]


def _bits(z):
    return type(z), struct.pack("<dd", z.real, z.imag)


def _assert_textbook_step(advance, h, U, float_rhs, complex_rhs):
    if type(U) is float:
        try:
            got = advance(U)
        except ValueError:
            with pytest.raises(ValueError):
                _one_step(float_rhs, U, h)
        else:
            assert _bits(got) == _bits(_one_step(float_rhs, U, h))
            if got != 0.0 and abs(got) <= BLOWUP_THRESHOLD:
                assert _bits(complex(got)) == _bits(_one_step(complex_rhs, complex(U), h))
        U = complex(U)
    assert _bits(advance(U)) == _bits(_one_step(complex_rhs, U, h))


def _bernoulli_rhs(sign, sqrt):
    a = sign.factor * math.sqrt(2.0 / 3.0)
    return lambda U: a * U * sqrt(U) + 0.4 * U


_STATE_PARTS = st.floats() | _EXTREME
_STATES = _STATE_PARTS | st.builds(complex, _STATE_PARTS, _STATE_PARTS)
# the state before step 8 of test_bernoulli_negative_stage_switches_to_complex_mid_run
_NEGATIVE_STAGE_RUN = (Sign.MINUS, 1e-5, (0.0, 277.5), 23.125)
_NEGATIVE_STAGE_STATE = float(_bernoulli_reference(*_NEGATIVE_STAGE_RUN)[1][7].real)


@settings(deadline=None, max_examples=300)
@given(fact=st.sampled_from(_RICCATI + _ZERO_EQUILIBRIA), U=_STATES, run=_SPANS)
def test_riccati_step_is_one_textbook_rk4_step_property(fact, U, run):
    advance, h = _advance(oracle_integrate_riccati, fact, 0.3, *run)
    _assert_textbook_step(advance, h, U, _riccati_rhs(fact), _riccati_rhs(fact))


@settings(deadline=None, max_examples=300)
@given(sign=st.sampled_from([Sign.MINUS, Sign.PLUS]), U=_STATES, run=_SPANS)
@example(sign=Sign.MINUS, U=_NEGATIVE_STAGE_STATE, run=_NEGATIVE_STAGE_RUN[2:])
def test_bernoulli_step_is_one_textbook_rk4_step_property(sign, U, run):
    advance, h = _advance(oracle_integrate_bernoulli, sign, 1.0, *run)
    _assert_textbook_step(advance, h, U, _bernoulli_rhs(sign, math.sqrt),
                          _bernoulli_rhs(sign, cmath.sqrt))


def test_bernoulli_float_step_with_a_negative_stage_raises():
    # every state of that run is positive, but this step's stages are not; the
    # property's explicit example holds the complex step to the textbook's
    sign, _, span, step = _NEGATIVE_STAGE_RUN
    advance, _ = _advance(oracle_integrate_bernoulli, sign, 1.0, span, step)
    assert _NEGATIVE_STAGE_STATE > 0.0
    with pytest.raises(ValueError):
        advance(_NEGATIVE_STAGE_STATE)


def _counting_rk4(calls):
    """_rk4 whose step map appends (state, next state) to ``calls`` at every call."""
    def rk4(advance, *args):
        def counted(U):
            y = advance(U)
            calls.append((U, y))
            return y
        return _rk4(counted, *args)
    return rk4


def test_constant_equilibrium_check_computes_one_step(monkeypatch):
    # 2,000 steps, of which the first returns the start
    calls = []
    monkeypatch.setattr(verify_module, "_rk4", _counting_rk4(calls))
    (check,) = [c for c in verification_suite(scope="constant").checks if "equilibrium" in c.name]
    assert check.passed and check.max_abs == 0.0
    assert len(calls) == 1 and calls[0][0] == calls[0][1]


def test_run_that_converges_onto_a_float_fixed_point_stops_there(monkeypatch):
    # U' = 1 - U from 0.3 settles on a float next to 1 after 73 of its 400 steps
    fact = CompoundFactorization(A=0.0, B=-1.0, C=1.0, p=0.0, q=1.0, k=0.0, sign=Sign.PLUS)
    calls = []
    monkeypatch.setattr(verify_module, "_rk4", _counting_rk4(calls))
    traj = oracle_integrate_riccati(fact, 0.3, (0.0, 200.0), 0.5)
    assert len(traj.values) == 401 and abs(traj.values[-1] - 1.0) <= 2.0**-52
    assert len(calls) == 73
    _assert_same_bits(traj, _reference_rk4(_riccati_rhs(fact), 0.3, (0.0, 200.0), 0.5))


# ---------------------------------------------------------------------------
# rational-form audit


def test_audit_flags_the_published_variants():
    params = PhysicalParams(
        s=2.0, mu=1.0, alpha=3.0, beta=2.0,
        v=locked_rational_velocity(COMPOUND_PROBE),
    )
    findings = {f.name: f for f in rational_form_audit(params)}
    assert findings["locked-velocity-form"].verdict == "CONSISTENT"
    assert findings["locked-velocity-form"].measured < 1e-9
    assert findings["mu-weighted-variant"].verdict == "DISCREPANT"
    assert findings["mu-weighted-variant"].measured > 1e-3
    assert findings["epsilon-variant"].verdict == "DISCREPANT"
    assert findings["epsilon-equals-mu-weighted"].verdict == "CONSISTENT"
    assert findings["epsilon-variant-velocity"].verdict == "DISCREPANT"


def test_audit_variants_coincide_when_mu_equals_s():
    base = PhysicalParams(s=2.0, mu=2.0, alpha=3.0, beta=2.0, v=0.0)
    params = PhysicalParams(
        s=2.0, mu=2.0, alpha=3.0, beta=2.0, v=locked_rational_velocity(base)
    )
    findings = {f.name: f for f in rational_form_audit(params)}
    assert findings["mu-weighted-variant"].verdict == "CONSISTENT"
    assert findings["epsilon-variant"].verdict == "CONSISTENT"
    # the velocity spelling is still off by 1/beta even at mu == s
    assert findings["epsilon-variant-velocity"].verdict == "DISCREPANT"


def test_audit_rejects_degenerate_inputs():
    bad = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=-2.0, v=0.0)
    with pytest.raises(ParameterDomainError):
        rational_form_audit(bad)


# ---------------------------------------------------------------------------
# suite plumbing


def test_suite_all_scope_passes():
    result = verification_suite(scope="all")
    assert result.all_passed
    assert len(result.checks) > 30
    assert result.audit == []


def test_suite_scope_filters_checks():
    result = verification_suite(scope="factorization")
    assert result.all_passed
    names = [c.name for c in result.checks]
    assert all("factorization" in n for n in names)


def test_a_factorization_whose_conditions_are_nan_fails_its_check(monkeypatch):
    # verify_factorization reports a NaN residual as NaN; the check then folded the
    # factorizations with max(), which drops a NaN unless it comes first, and passed
    # at 4.440892e-16
    monkeypatch.setattr(KdvbFactorization, "F_at", lambda self, U: complex(math.nan, 0.0))
    checks = {c.name: c for c in verification_suite(scope="factorization").checks}
    kdvb = checks["factorization-kdvb-conditions"]
    assert math.isnan(kdvb.max_abs) and not kdvb.passed
    assert checks["factorization-compound-conditions"].passed


def test_suite_audit_only_in_compound_rational_scope():
    result = verification_suite(scope="compound-rational")
    assert result.all_passed
    assert len(result.audit) == 5


def test_suite_perturbation_of_the_factorization_scope_is_rejected():
    # it checks no closed form: a perturbation there passed every check, a control that
    # cannot fail; scope all still reads it
    with pytest.raises(ParameterDomainError, match="^scope factorization scales no closed form"):
        verification_suite(scope="factorization", perturb=0.01)
    assert verification_suite(scope="factorization", perturb=0.0).all_passed


def test_suite_unknown_scope_rejected():
    with pytest.raises(ParameterDomainError):
        verification_suite(scope="everything")
    assert "all" in SCOPES


def test_blocks_follow_the_scopes():
    # SCOPES is spelled from Family, not read off _BLOCKS: each block is selected by its own
    # scope, in SCOPES' order, and by no scope but that and the shared last one
    blocks = verify_module._BLOCKS
    assert [scopes[0] for scopes, _ in blocks] == list(SCOPES[1:-1])
    assert all(scopes[1:] in ((), (SCOPES[-1],)) for scopes, _ in blocks)


def test_suite_impossible_tolerance_fails():
    # the constant family's residuals are exactly 0.0 and would pass even
    # this, so use a scope whose residuals are merely tiny
    result = verification_suite(scope="kdvb-regular", tolerance=1e-20)
    assert not result.all_passed


def test_suite_perturbation_fails_residual_checks():
    result = verification_suite(scope="kdvb-regular", perturb=0.01)
    failed = {c.name for c in result.checks if not c.passed}
    assert "first-integral kdvb-regular" in failed
    assert "pde-analytic kdvb-regular" in failed
    # the structural identity holds for any smooth function, perturbed or not
    assert "derivative-consistency kdvb-regular" not in failed


_CONSTRUCTORS = (
    "universal_solution", "kdvb_solution_from_physical", "compound_solution",
    "compound_solution_from_physical", "rational_solution", "rational_solution_from_physical",
)


def test_factorization_scope_builds_no_solution(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the factorization scope built a solution")

    for name in _CONSTRUCTORS:
        monkeypatch.setattr(verify_module, name, refuse)
    result = verification_suite(scope="factorization")
    assert result.all_passed and len(result.checks) == 2


def test_family_scope_builds_only_its_own_solutions(monkeypatch):
    families = []

    def recording(constructor):
        def build(family, *args, **kwargs):
            families.append(family)
            return constructor(family, *args, **kwargs)
        return build

    for name in _CONSTRUCTORS:
        monkeypatch.setattr(verify_module, name, recording(getattr(verify_module, name)))
    assert verification_suite(scope="kdvb-singular").all_passed
    # every constructor takes the family first, the constant's (rational_solution) too
    assert families and set(families) == {Family.KDVB_SINGULAR}
