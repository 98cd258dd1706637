"""Independent verification of the closed forms.

Three mutually independent error channels:

1. Residuals of the governing equations, on arrays: the closed form's
   array jet (first integral, third-order form, analytic PDE), or
   finite-difference stencils over arrays sampled from the direct physical
   formula of the solution, point by point, not from the array kernels.
   The direct formulas (_physical_formula and its per-family parts) are the
   second spelling of the closed forms, kept here as the oracle: scalar
   cmath code with its own pole search, its own branch A and its own
   discriminant root (physical_discriminant_root, spelled in physical
   coefficients), independent of the kernels in solutions and of the maps
   in params.  A formula reads only the solution's physical coefficients,
   family, k0 and branch, and relies on the constructors' domain checks.
   It is built once per solution, so each sample pays only for its own
   argument, pole distance, tanh and value, or returns None at a pole.
   Analytic and FD modes of the PDE residual are separate code paths on
   purpose; their disagreement is itself a test failure.  One reducer
   (_report) turns every residual array and its pole mask into a
   ResidualReport; the residuals are computed with numpy's overflow and
   invalid warnings off, since a non-finite residual is a FAIL.

2. A classical fixed-step Runge-Kutta oracle for the compatible first-order
   equations (Bernoulli and Riccati): one scalar driver (_rk4) that calls,
   once per step, a whole RK4 step (advance) built by each equation's
   oracle with its right-hand side inline and its step constants computed
   once.  The oracle knows nothing about the closed forms, so agreement is
   evidence, not tautology.  The Bernoulli runs are compared at their
   endpoint, the Riccati runs at every step: a kink's saturated endpoint
   cannot tell a wrong width.

3. A structural identity: d/dtheta of the first-integral expression must
   reproduce the third-order form for ANY smooth w, solution or not.  The
   two sides are transcribed independently (distributed vs factored), so a
   transcription slip in either formula shows up as disagreement.

The module also hosts the rational-form audit: the physical rational family
admits several published-style algebraic spellings whose mutual consistency
is measured here rather than assumed (see rational_form_audit).  The named
check suite (verification_suite) is one ordered table of per-family blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterDomainError
from .factorizer import (
    _COMPOUND_FAMILIES,
    _KDVB_FAMILIES,
    SCOPES,
    CompoundFactorization,
    Family,
    Sign,
    _max_residual,
    factorize_compound,
    factorize_kdvb,
    verify_factorization,
)
from .params import PhysicalParams, ReducedParams
from .solutions import (
    _DISCRIMINANT_SNAP,
    POLE_TOL,
    WaveSolution,
    compound_solution,
    compound_solution_from_physical,
    evaluate_grid,
    kdvb_solution_from_physical,
    locked_rational_velocity,
    physical_jet,
    rational_solution,
    rational_solution_from_physical,
    solution_jet,
    universal_solution,
)

BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    worst_point: complex
    n_samples: int
    n_poles: int = 0
    warning: str | None = None


def _report(
    residual: np.ndarray,
    points: np.ndarray,
    pole: np.ndarray,
    warning: str | None = None,
) -> ResidualReport:
    """Statistics of |residual| over the points off the pole mask.

    The worst point is the first maximum.  A NaN residual counts as the
    maximum: the worst point is the first NaN, and max_abs is NaN, which
    passes no tolerance.  An empty grid, or one whose every point is a pole,
    raises ParameterDomainError.
    """
    if pole.size == 0:
        raise ParameterDomainError("empty grid; nothing to verify")
    keep = ~pole
    n = int(np.count_nonzero(keep))
    if n == 0:
        raise ParameterDomainError("every grid point sat on a pole; nothing to verify")
    r, points = np.abs(residual[keep]), points[keep]
    i = int(np.argmax(r))
    return ResidualReport(
        max_abs=float(r[i]),
        worst_point=complex(points[i]),
        n_samples=n,
        n_poles=pole.size - n,
        warning=warning,
    )


def residual_first_integral(
    sol: WaveSolution, theta_grid: Sequence[complex], scale: float = 1.0
) -> ResidualReport:
    """Residual of w'' - w' + (p*w - w^2 - q*w^3) - k over a grid.

    ``scale`` multiplies the closed form (and hence its derivatives); 1.0
    checks the solution itself, anything else builds a deliberate
    non-solution for negative-control tests.  Grid points on poles are
    flagged and excluded from the statistics.
    """
    p, q, k = sol.reduced.p, sol.reduced.q, sol.reduced.k
    if k is None:
        raise ParameterDomainError("solution has no integration constant k")
    theta = np.asarray(theta_grid)
    jet, pole = solution_jet(sol, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is a FAIL
        w, w1, w2, _ = (scale * d for d in jet)
        residual = w2 - w1 + (p * w - w * w - q * w**3) - k
    return _report(residual, theta, pole)


def _pde_terms(
    params: PhysicalParams,
    u: np.ndarray, ux: np.ndarray, uxx: np.ndarray, uxxx: np.ndarray, ut: np.ndarray,
) -> np.ndarray:
    return (
        ut
        - params.s * uxxx
        + params.mu * uxx
        + params.alpha * u * ux
        + params.beta * u * u * ux
    )


def _kink_width(sol: WaveSolution) -> float | None:
    pp = sol.physical
    if sol.family in _KDVB_FAMILIES:
        return abs(10.0 * pp.s / pp.mu)
    if sol.Delta:  # compound kink; Delta == 0 or None has no width scale
        return abs(6.0 * pp.s / (pp.mu * sol.Delta))
    return None


# ---------------------------------------------------------------------------
# direct physical formulas: the finite-difference oracle
#
# A second spelling of each closed form, independent of the array kernels
# in solutions: scalar cmath arithmetic on the physical coordinates, with
# its own pole search.  A formula returns None at a pole and the asymptote at
# an infinite x (rational: x or t); _physical_samples rejects a NaN x - v*t.


def _nearest_pole(im: float, offset: float) -> complex:
    """Pole i*pi*(n + offset) nearest to a point of imaginary part im.

    offset 1/2 for tanh, 0 for coth.  It depends on Im z only, so a formula
    whose Im z is fixed finds it once.
    """
    return complex(0.0, math.pi * (round(im / math.pi - offset) + offset))


def physical_discriminant_root(params: PhysicalParams) -> float:
    """sqrt(18*v*s/mu^2 + 9*s*alpha^2/(2*beta*mu^2) - 3) with zero-snap.

    Spelled in physical coefficients on purpose: it gives a second route to
    the same number as compound_discriminant_root(reduce(params)).
    """
    if params.beta == 0:
        raise ParameterDomainError("compound families require beta != 0")
    try:
        a = 18.0 * params.v * params.s / params.mu**2
        b = 9.0 * params.s * params.alpha**2 / (2.0 * params.beta * params.mu**2)
    except (OverflowError, ZeroDivisionError):  # a square that overflows or underflows to 0
        a = b = math.inf
    square, scale = a + b - 3.0, abs(a) + abs(b) + 3.0
    if not math.isfinite(scale):  # else inf <= inf would snap it to 0
        raise ParameterDomainError("the discriminant leaves the float range: it must be finite")
    if abs(square) <= _DISCRIMINANT_SNAP * scale:
        return 0.0
    if square < 0:
        raise ParameterDomainError("negative discriminant: no real compound kink at this velocity")
    return math.sqrt(square)


def _kdvb_formula(family: Family, params: PhysicalParams) -> Callable[..., complex | None]:
    """u = v/alpha + (3*mu^2/(25*alpha*s)) * {[1 + T(mu*(x - v*t - xi0)/(10*s))]^2 - 2}.

    T = tanh, or coth for the singular family.
    """
    s, mu, alpha, v, xi0 = params.s, params.mu, params.alpha, params.v, params.xi0
    xi0_re, ten_s = xi0.real, 10.0 * s
    im_z = -mu * xi0.imag / ten_s
    singular = family is Family.KDVB_SINGULAR
    pole = _nearest_pole(im_z, 0.0 if singular else 0.5)
    tol = POLE_TOL * max(1.0, abs(mu / ten_s))
    base, amp = v / alpha, 3.0 * mu**2 / (25.0 * alpha * s)

    def u(x: float, t: float) -> complex | None:
        d = x - v * t - xi0_re  # by parts: a real infinite x keeps Im z finite
        z = complex(mu * d / ten_s, im_z)
        if abs(z - pole) < tol:
            return None
        T = 1.0 / cmath.tanh(z) if singular else cmath.tanh(z)
        return base + amp * ((1.0 + T) ** 2 - 2.0)

    return u


def _compound_formula(family: Family, params: PhysicalParams) -> Callable[..., complex | None]:
    """u = -alpha/(2*beta) +- (mu/sqrt(6*beta*s)) * [1 + D*tanh(mu*D*(x - v*t - xi0)/(6*s))]."""
    s, mu, alpha, beta, v, xi0 = (
        params.s, params.mu, params.alpha, params.beta, params.v, params.xi0
    )
    root = physical_discriminant_root(params)
    amp = mu / math.sqrt(6.0 * beta * s)
    if family is Family.COMPOUND_TANH_MINUS:
        amp = -amp
    xi0_re, base = xi0.real, -alpha / (2.0 * beta)
    mu_root, six_s = mu * root, 6.0 * s
    im_z = -mu * root * xi0.imag / six_s
    pole = _nearest_pole(im_z, 0.5)
    tol = POLE_TOL * max(1.0, abs(mu_root / six_s))

    def u(x: float, t: float) -> complex | None:
        d = x - v * t - xi0_re  # by parts: a real infinite x keeps Im z finite
        if root == 0.0:
            return base + amp
        z = complex(mu_root * d / six_s, im_z)
        if abs(z - pole) < tol:
            return None
        return base + amp * (1.0 + root * cmath.tanh(z))

    return u


def _rational_formula(
    family: Family, params: PhysicalParams, k0: float, sign: Sign
) -> Callable[..., complex | None]:
    """u = -(alpha/(2*beta))*(A + 1) - (2*mu^2/(alpha*s)) * (k0/A)/(A + k0*theta).

    theta = mu*(x - v*t - xi0)/s and A = +-sqrt(q/2), the branch taken from
    the family for rational-plus/minus and from ``sign`` for the constant.
    """
    s, mu, alpha, v, xi0 = params.s, params.mu, params.alpha, params.v, params.xi0
    if family is not Family.CONSTANT:
        sign = Sign.PLUS if family is Family.RATIONAL_PLUS else Sign.MINUS
    q = 4.0 * params.beta * mu**2 / (3.0 * s * alpha**2)
    A = sign.factor * math.sqrt(q / 2.0)
    const = -(alpha / (2.0 * params.beta)) * (A + 1.0)
    flat, weight, amp = complex(const), -(k0 / A), 2.0 * mu**2 / (alpha * s)
    theta_pole = -A / k0 if k0 else math.nan  # the constant member has no pole

    def u(x: float, t: float) -> complex | None:
        if k0 == 0:
            return flat
        theta = mu * (x - v * t - xi0) / s
        if not cmath.isfinite(theta):  # an infinite x or t: the asymptote
            return flat
        if abs(theta - theta_pole) < POLE_TOL:
            return None
        return const + amp * (weight / (A + k0 * theta))

    return u


def _physical_formula(sol: WaveSolution) -> Callable[..., complex | None]:
    """The direct physical formula of a solution, as a scalar function u(x, t).

    The dispatch on the family selects the formula, which reads only the
    physical coefficients, family, k0 and branch, and relies on the
    constructors' domain checks.  What depends on the solution alone is
    computed here, once: the discriminant root, amplitudes and base value,
    Im z, its nearest pole and the pole tolerance (for the rational families,
    q and the branch A).  Per point the formula computes only x - v*t - Re xi0,
    z, the pole distance, tanh and the value, or None at a pole.  Hoisted
    factors keep the order of operations of the formula as written
    (mu*root*d/(6s) stays (mu*root)*d/(6s), never d*(mu*root/(6s))), because
    the finite-difference stencils magnify a one-ulp change.
    """
    f = sol.family
    if f in _KDVB_FAMILIES:
        return _kdvb_formula(f, sol.physical)
    if f in _COMPOUND_FAMILIES:
        return _compound_formula(f, sol.physical)
    return _rational_formula(f, sol.physical, sol.k0 or 0.0, sol.sign)


def _physical_samples(sol: WaveSolution, x: np.ndarray, t: np.ndarray):
    """(values, pole) of the solution's direct physical formula at each (x, t).

    The formula is built once per call (_physical_formula) and evaluated
    point by point on purpose: this keeps the finite-difference channel
    independent of the array kernels.  A NaN x - v*t is a ParameterDomainError,
    and a pole (the formula's None) a flag with the value NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf is the asymptote; inf - inf is not
        if np.isnan(x - sol.physical.v * t).any():
            raise ParameterDomainError("x - v*t must not be NaN")
    u, nan = _physical_formula(sol), complex(math.nan, math.nan)
    values = [u(xi, ti) for xi, ti in zip(x.tolist(), t.tolist())]
    pole = np.array([value is None for value in values], bool)
    return np.array([nan if value is None else value for value in values], complex), pole


def residual_pde(
    sol: WaveSolution,
    xt_grid: Sequence[tuple[float, float]],
    h: float = 1e-3,
    mode: str = "fd",
    scale: float = 1.0,
) -> ResidualReport:
    """PDE residual u_t - s*u_xxx + mu*u_xx + alpha*u*u_x + beta*u^2*u_x.

    mode "fd": five-point central stencils over the direct physical formulas,
    sampled at the nine nodes around each point; fourth-order in
    u_x/u_xx/u_t and second-order in u_xxx (so the observed convergence is
    O(h^2)).  A point counts as a pole when any of its nodes is one.
    mode "analytic": the chain-rule jet (physical_jet).  A warning is
    attached when h under-resolves the kink width.
    """
    pp = sol.physical
    if pp is None:
        raise ParameterDomainError("PDE residual needs a physically-anchored solution")
    if mode not in ("fd", "analytic"):
        raise ParameterDomainError(f"unknown residual mode: {mode!r}")
    if mode == "fd" and h <= 0:
        raise ParameterDomainError("finite-difference step must be positive")

    warning = None
    width = _kink_width(sol)
    if mode == "fd" and width is not None and h > width / 10.0:
        warning = (
            f"step h={h:g} is coarse relative to the kink width {width:g}; "
            "finite-difference truncation may dominate"
        )

    xt = np.asarray(xt_grid, dtype=float).reshape(-1, 2)
    x, t = xt[:, 0], xt[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is a FAIL
        if mode == "analytic":
            jet, pole = physical_jet(sol, x, t)
            u, ux, uxx, uxxx, ut = (scale * d for d in jet)
        else:
            values, pole = _physical_samples(
                sol,
                np.concatenate([x - 2 * h, x - h, x, x + h, x + 2 * h, x, x, x, x]),
                np.concatenate([t, t, t, t, t, t - 2 * h, t - h, t + h, t + 2 * h]),
            )
            um2, um1, u0, up1, up2, tm2, tm1, tp1, tp2 = scale * values.reshape(9, -1)
            pole = pole.reshape(9, -1).any(axis=0)
            u = u0
            ux = (-up2 + 8 * up1 - 8 * um1 + um2) / (12 * h)
            uxx = (-up2 + 16 * up1 - 30 * u0 + 16 * um1 - um2) / (12 * h * h)
            uxxx = (up2 - 2 * up1 + 2 * um1 - um2) / (2 * h**3)
            ut = (-tp2 + 8 * tp1 - 8 * tm1 + tm2) / (12 * h)
        residual = _pde_terms(pp, u, ux, uxx, uxxx, ut)
    return _report(residual, x + 1j * t, pole, warning)


def check_first_integral_consistency(
    sol: WaveSolution, theta_grid: Sequence[complex], scale: float = 1.0
) -> ResidualReport:
    """Agreement of two transcriptions of the third-order form.

    Differentiating the first integral gives, after the chain rule,
        w''' - w'' + p*w' - 2*w*w' - 3*q*w^2*w'        (distributed)
    which must equal the factored spelling
        w''' - w'' + (p - 2*w - 3*q*w^2)*w'            (grouped)
    for every smooth w, whether or not it solves anything.  Both sides use
    the same analytic jet; what is independent is the transcription of the
    coefficient structure, which is exactly what this check pins down.
    """
    p, q = sol.reduced.p, sol.reduced.q
    theta = np.asarray(theta_grid)
    jet, pole = solution_jet(sol, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual is a FAIL
        w, w1, w2, w3 = (scale * d for d in jet)
        lhs = w3 - w2 + p * w1 - 2.0 * w * w1 - 3.0 * q * w * w * w1
        rhs = w3 - w2 + (p - 2.0 * w - 3.0 * q * w * w) * w1
        residual = lhs - rhs
    return _report(residual, theta, pole)


# ---------------------------------------------------------------------------
# Runge-Kutta oracle


@dataclass(frozen=True)
class Trajectory:
    thetas: np.ndarray
    values: np.ndarray
    blew_up: bool

    @property
    def endpoint(self) -> complex:
        return complex(self.values[-1])


def _mesh(span: tuple[float, float], step: float) -> tuple[float, int, float]:
    """(t0, n, h) of a run over span: its start, its step count and the step that fits."""
    t0, t1 = span
    if not all(map(math.isfinite, (t0, t1, step))):
        raise ParameterDomainError("integration span and step must be finite")
    if step <= 0:
        raise ParameterDomainError("integration step must be positive")
    if not t1 > t0:
        raise ParameterDomainError("integration span must be increasing")
    count = (t1 - t0) / step
    if not math.isfinite(count):
        raise ParameterDomainError(
            f"integration span {span!r} over step {step!r} leaves the float range")
    n = max(1, round(count))
    return t0, n, (t1 - t0) / n


def _rk4(
    advance: Callable[[complex], complex], y0: complex, t0: float, n: int, h: float
) -> Trajectory:
    """n RK4 steps of size h from y0 at t0, one advance call each, stopped by the blow-up guard.

    advance(y) is one whole classical RK4 step of the oracle's equation,
    built by the oracle with the right-hand side inline.  It must be a pure
    function of the state and take float arithmetic on a float state.

    A start on the real axis (imaginary part exactly +0.0) runs in Python
    float arithmetic, which is about 2x faster than complex; any other start
    runs in complex.  While every stage stays finite, an all-complex run
    keeps the imaginary part of its state at +0.0 and of its stages at +-0,
    so its real parts are the float run's bit for bit, up to the sign of a
    zero.  That sign reaches the state only through a step that lands on
    zero.  So a float step that lands on zero, leaves the finite range, trips
    the guard, or raises ValueError (a float stage the equation refuses,
    e.g. a negative radicand) is redone in complex from complex(y), and the
    run stays complex from there.  Every value is the all-complex run's, bit
    for bit.

    A float step that passes those checks and returns its own state
    (advance(y) == y, so y is nonzero, finite and bounded, and the two have
    the same bits) has reached a fixed point of the step map.  Every later
    step would return y again, so the run fills the remaining values with y
    and stops: an exact equilibrium costs one call, and the values, thetas
    and blew_up are those of the full run.  A complex run never stops early.
    """
    limit = BLOWUP_THRESHOLD
    y = complex(y0)
    values = [y]
    append = values.append
    if y.imag == 0.0 and math.copysign(1.0, y.imag) > 0.0:
        y = values[0] = y.real  # a Python float: numpy scalar arithmetic is slower than complex
        for _ in range(n):
            try:
                y_next = advance(y)
            except ValueError:
                break
            if not abs(y_next) <= limit or y_next == 0.0:  # NaN and +-inf are unbounded
                break
            if y_next == y:  # a fixed point: every later state is y
                values += [y] * (n + 1 - len(values))
                break
            y = y_next
            append(y)
        y = complex(y)  # a float step that broke off is redone in complex
    bounded = True
    for _ in range(n + 1 - len(values)):
        y = advance(y)
        append(y)
        if not abs(y) <= limit:  # False also for NaN, +-inf and complex(inf, nan)
            bounded = False
            break
    # theta_i = t0 + i*h, with theta_0 = t0 itself (t0 + 0.0 would turn -0.0 into 0.0)
    thetas = np.concatenate(([t0], t0 + np.arange(1, len(values)) * h))
    if type(values[-1]) is float:  # a float run: widening the float array is exact and quicker
        return Trajectory(thetas, np.array(values, float).astype(complex), False)
    return Trajectory(thetas, np.array(values, dtype=complex), not bounded)


def oracle_integrate_bernoulli(
    sign: Sign, U0: float, theta_span: tuple[float, float], step: float
) -> Trajectory:
    """RK4 trajectory of U' = sign*sqrt(2/3)*U^(3/2) + (2/5)*U.

    Restricted to U0 > 0 real, where the kink families live; the fractional
    power uses the principal branch should the state wander off the positive
    axis mid-integration.  Each step takes math.sqrt on a float state, which
    gives cmath.sqrt's bits from 8 times the smallest normal double up
    (below that, U*sqrt(U) underflows to zero either way), and cmath.sqrt on
    a complex one.  A negative float stage makes math.sqrt raise ValueError,
    and _rk4 redoes the step in complex.
    """
    if not (isinstance(U0, (int, float)) and U0 > 0):
        raise ParameterDomainError("Bernoulli oracle requires a real U0 > 0")
    a = sign.factor * math.sqrt(2.0 / 3.0)
    t0, n, h = _mesh(theta_span, step)
    half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k1 is (0.5 * h) * k1

    def advance(U: complex) -> complex:
        sqrt = math.sqrt if type(U) is float else cmath.sqrt
        k1 = a * U * sqrt(U) + 0.4 * U
        V = U + half * k1
        k2 = a * V * sqrt(V) + 0.4 * V
        V = U + half * k2
        k3 = a * V * sqrt(V) + 0.4 * V
        V = U + h * k3
        k4 = a * V * sqrt(V) + 0.4 * V
        return U + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _rk4(advance, U0, t0, n, h)


def oracle_integrate_riccati(
    fact: CompoundFactorization,
    U0: complex,
    theta_span: tuple[float, float],
    step: float,
) -> Trajectory:
    """RK4 trajectory of the compatible Riccati equation U' = A*U^2 + B*U + C.

    Each step spells the right-hand side inline, with A, B and C read once.
    """
    A, B, C = fact.A, fact.B, fact.C
    t0, n, h = _mesh(theta_span, step)
    half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k1 is (0.5 * h) * k1

    def advance(U: complex) -> complex:
        k1 = A * U * U + B * U + C
        V = U + half * k1
        k2 = A * V * V + B * V + C
        V = U + half * k2
        k3 = A * V * V + B * V + C
        V = U + h * k3
        k4 = A * V * V + B * V + C
        return U + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _rk4(advance, U0, t0, n, h)


# ---------------------------------------------------------------------------
# rational-form audit


@dataclass(frozen=True)
class AuditFinding:
    name: str
    verdict: str  # "CONSISTENT" or "DISCREPANT"
    measured: float
    detail: str


def _shifted_reciprocal_pde_residual(
    params: PhysicalParams,
    offset: float,
    c: float,
    d: float,
    e: float,
    x_grid: Sequence[float],
    t: float,
) -> float:
    """Analytic PDE residual of u = offset + c/(d + e*(x - v*t - xi0)).

    Every candidate spelling of the physical rational solution has this
    shape, so one exact derivative computation covers them all.
    """
    x = np.asarray(x_grid)
    g = d + e * (x - params.v * t - params.xi0)
    near = np.abs(g) < 1e-6
    g = np.where(near, 1.0, g)
    u = offset + c / g
    ux = -c * e / g**2
    uxx = 2.0 * c * e**2 / g**3
    uxxx = -6.0 * c * e**3 / g**4
    ut = c * e * params.v / g**2
    residual = _pde_terms(params, u, ux, uxx, uxxx, ut)
    return _report(residual, x, near).max_abs


def rational_form_audit(params: PhysicalParams) -> list[AuditFinding]:
    """Measure which spellings of the physical rational solution are exact.

    Candidates, all sharing the constant part -(alpha/(2*beta))*(1 + eps):

    * locked-velocity form -- the exact image of the reduced rational
      solution: rational term -6*alpha*s / (2*beta*s + sqrt(6*s*beta*alpha^2)*X).
    * mu-weighted variant -- same shape with mu where the exact form has s:
      -6*alpha*mu / (2*beta*mu + sqrt(6*s*beta*alpha^2)*X).
    * epsilon variant -- -(alpha/(2*beta)) * 6*eps / (eps + X) with
      eps = mu*sqrt(2*beta/(3*s*alpha^2)).
    * epsilon-variant velocity -- v = (alpha/(2*beta))^2 * (eps^2 - 1),
      against the locked v = mu^2/(6*s) - alpha^2/(4*beta).

    Each finding reports a measured number, so the verdicts are evidence,
    not opinion.  Uses the plus branch (A = +sqrt(q/2)) with k0 = 1, which
    the rational terms above are written at; requires mu > 0 so that
    eps = +sqrt(q/2).
    """
    if not (params.beta > 0 and params.s > 0 and params.mu > 0):
        raise ParameterDomainError("audit requires beta > 0, s > 0, mu > 0")
    s, mu, alpha, beta = params.s, params.mu, params.alpha, params.beta
    v_lock = locked_rational_velocity(params)
    pp = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=v_lock, xi0=params.xi0)
    eps = mu * math.sqrt(2.0 * beta / (3.0 * s * alpha**2))
    offset = -(alpha / (2.0 * beta)) * (1.0 + eps)
    root6 = math.sqrt(6.0 * s * beta * alpha**2)

    # sampling: to the right of the pole of the plus branch
    x, t = np.linspace(2.0, 12.0, 41), 0.7

    def finding(name: str, measured: float, threshold: float, detail: str) -> AuditFinding:
        verdict = "CONSISTENT" if measured < threshold else "DISCREPANT"
        return AuditFinding(name=name, verdict=verdict, measured=measured, detail=detail)

    def residual(c: float, d: float, e: float) -> float:
        return _shifted_reciprocal_pde_residual(pp, offset, c, d, e, x, t)

    # mutual identity of the two non-exact spellings (they should coincide)
    X = x - pp.v * t
    g_mu, g_eps = 2.0 * beta * mu + root6 * X, eps + X
    near = np.minimum(np.abs(g_mu), np.abs(g_eps)) < 1e-6
    u_mu = offset - 6.0 * alpha * mu / np.where(near, 1.0, g_mu)
    u_eps = offset - (alpha / (2.0 * beta)) * 6.0 * eps / np.where(near, 1.0, g_eps)
    gap = float(np.max(np.abs(u_mu - u_eps)[~near], initial=0.0))
    v_eps = (alpha / (2.0 * beta)) ** 2 * (eps**2 - 1.0)
    return [
        finding("locked-velocity-form",
                residual(-6.0 * alpha * s, 2.0 * beta * s, root6), 1e-9,
                "exact image of the reduced rational solution; PDE residual should vanish"),
        finding("mu-weighted-variant",
                residual(-6.0 * alpha * mu, 2.0 * beta * mu, root6), 1e-9,
                "rational term weighted by mu instead of s; algebraically equal to the "
                "exact form only when mu == s or k0 == 0"),
        # epsilon variant: -(alpha/(2 beta)) * 6 eps / (eps + X)
        finding("epsilon-variant",
                residual(-(alpha / (2.0 * beta)) * 6.0 * eps, eps, 1.0), 1e-9,
                "epsilon-parameterized spelling; PDE residual measured directly"),
        finding("epsilon-equals-mu-weighted", gap, 1e-10,
                "the two alternate spellings are one and the same function"),
        finding("epsilon-variant-velocity", abs(v_eps - v_lock), 1e-12 * max(1.0, abs(v_lock)),
                f"(alpha/(2 beta))^2*(eps^2 - 1) = {v_eps!r} vs locked velocity {v_lock!r}; "
                "the two differ by the factor 1/beta, so they agree only at beta = 1"),
    ]


# ---------------------------------------------------------------------------
# the named check suite (consumed by the CLI)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    max_abs: float
    tol: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    checks: list[CheckOutcome]
    audit: list[AuditFinding] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# frozen probe coefficient sets; chosen so truncation error is measurable but
# far from roundoff on the acceptance meshes
_KDVB_PROBE = PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
_COMPOUND_PROBE = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0)
_FIG_COMPOUND = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)
_LOCKED = replace(_COMPOUND_PROBE, v=locked_rational_velocity(_COMPOUND_PROBE))
# the range of the ratio of successive errors of an O(h^2) quantity as h halves
_QUADRATIC, _QUADRATIC_DETAIL = (3.5, 4.5), "ratio must lie in [3.5, 4.5]"


def _xt_grid(x_lo: float, x_hi: float, nx: int, times: Sequence[float]) -> list:
    return [(float(x), float(t)) for t in times for x in np.linspace(x_lo, x_hi, nx)]


_GRID = np.linspace(-50.0, 50.0, 200)
_KINK_XT = _xt_grid(-3.0, 3.0, 21, [0.0, 0.3])


def _first_integral(name: str, sol: WaveSolution, scale: float, theta=_GRID) -> tuple:
    return f"first-integral {name}", residual_first_integral(sol, theta, scale).max_abs, 1e-9


def _consistency(name: str, sol: WaveSolution, scale: float) -> tuple:
    report = check_first_integral_consistency(sol, _GRID, scale)
    return f"derivative-consistency {name}", report.max_abs, 1e-9


def _pde(mode: str, name: str, phys: WaveSolution, xt: list, scale: float) -> tuple:
    report = residual_pde(phys, xt, mode=mode, scale=scale)  # fd at h = 1e-3
    return f"pde-{mode} {name}", report.max_abs, 1e-5 if mode == "fd" else 1e-9


def _riccati(name: str, sol: WaveSolution, end: float = 10.0, step: float = 0.005,
             bound: float = 1e-6, detail: str = "") -> tuple:
    """The RK4 Riccati trajectory from sol at 0 to ``end`` against sol at every step."""
    (u0,), _ = evaluate_grid(sol, np.zeros(1))
    traj = oracle_integrate_riccati(factorize_compound(sol.reduced, sol.sign), u0, (0.0, end), step)
    exact, _ = evaluate_grid(sol, traj.thetas)
    return f"oracle riccati {name}", np.max(np.abs(traj.values - exact)), bound, detail


def _fd_convergence(label: str, phys: WaveSolution, xt: list) -> list[tuple]:
    steps = ("1e-2", "5e-3", "2.5e-3")  # as the check names spell them
    seq = [residual_pde(phys, xt, h=float(h), mode="fd").max_abs for h in steps]
    return [(f"fd-convergence {label} ({steps[i]}/{steps[i + 1]})", seq[i] / seq[i + 1],
             _QUADRATIC, _QUADRATIC_DETAIL) for i in (0, 1)]


def _factorization(scale: float) -> list[tuple]:
    rng = np.random.default_rng(2718)
    real = rng.uniform(0.01, 10.0, 100).tolist()
    z = [complex(a, b) for a, b in zip(*rng.uniform(-10.0, 10.0, (2, 100)))]
    signs = (Sign.MINUS, Sign.PLUS)
    cases = (
        ("kdvb", real, [factorize_kdvb(d, sign) for d in (-2.0, 0.0, 1.0, 3.7) for sign in signs]),
        ("compound", [c for c in z if 0.01 <= abs(c) <= 10.0],
         [factorize_compound(ReducedParams(p=float(p), q=float(q)), sign)
          for p in np.linspace(-2.0, 2.0, 5) for q in np.linspace(0.1, 4.0, 5) for sign in signs]),
    )
    rows = []
    for label, samples, facts in cases:
        worst = 0.0
        for f in facts:
            res = verify_factorization(f.f1_at, f.f2_at, f.F_at, f.f1U_prime_at, samples)
            worst = _max_residual([worst, res.max_product, res.max_closure])  # keeps a NaN
        rows.append((f"factorization-{label}-conditions", worst, 1e-12))
    return rows


def _kdvb_regular(scale: float) -> list[tuple]:
    name, reg = "kdvb-regular", Family.KDVB_REGULAR
    sol, phys = universal_solution(reg), kdvb_solution_from_physical(reg, _KDVB_PROBE)
    fd, analytic = (_pde(mode, name, phys, _KINK_XT, scale) for mode in ("fd", "analytic"))
    # oracle: closed form vs blind integration
    (u40, u10), _ = evaluate_grid(sol, np.array([40.0, 10.0]))
    ends = [oracle_integrate_bernoulli(Sign.MINUS, 3.0 / 50.0, (0.0, end), h).endpoint
            for end, h in ((40.0, 0.01), (10.0, 0.5), (10.0, 0.25))]
    # half-period phase identity between the two universal families
    pts = np.random.default_rng(31).uniform(-40.0, 40.0, 200)
    pts = pts[np.abs(pts) > 0.5]  # keep clear of the shared pole at theta = 0
    shifted, _ = evaluate_grid(universal_solution(reg, theta0=5j * math.pi), pts)
    singular, _ = evaluate_grid(universal_solution(Family.KDVB_SINGULAR), pts)
    return [
        _first_integral(name, sol, scale),
        _consistency(name, sol, scale),
        fd,
        analytic,
        ("pde-mode-agreement kdvb-regular", abs(fd[1] - analytic[1]), 1e-5,
         "finite-difference and analytic residuals must agree to truncation level"),
        ("oracle bernoulli-minus endpoint", abs(ends[0] - u40), 1e-6),
        ("rk4-order bernoulli", abs(ends[1] - u10) / abs(ends[2] - u10), (12.0, 20.0),
         "halving the step must cut the endpoint error ~16x"),
        *_fd_convergence("kdvb", phys, _KINK_XT),
        ("phase-identity regular-to-singular", np.max(np.abs(shifted - singular)), (0.0, 1e-10)),
    ]


def _kdvb_singular(scale: float) -> list[tuple]:
    name, sing = "kdvb-singular", Family.KDVB_SINGULAR
    sol, phys = universal_solution(sing), kdvb_solution_from_physical(sing, _KDVB_PROBE)
    traj = oracle_integrate_bernoulli(Sign.PLUS, 0.5, (0.0, 40.0), 0.01)
    return [
        _first_integral(name, sol, scale),
        _consistency(name, sol, scale),
        # the x grid stays on one side of the pole at x = v*t
        _pde("analytic", name, phys, _xt_grid(1.0, 6.0, 21, [0.0]), scale),
        ("oracle bernoulli-plus blow-up", 0.0 if traj.blew_up else 1.0, (0.0, 0.5),
         "the growing branch must reach the blow-up guard in finite theta"),
    ]


def _compound(family: Family, fd_convergence: bool, scale: float) -> list[tuple]:
    name = family.value
    sol = compound_solution_from_physical(family, _FIG_COMPOUND)
    phys = compound_solution_from_physical(family, _COMPOUND_PROBE)
    # the kink must collapse quadratically onto the branch-paired constant as
    # the discriminant root goes to zero
    q = sol.reduced.q
    p0 = (1.0 - 2.0 / q) / 6.0
    (limit,), _ = evaluate_grid(rational_solution(Family.CONSTANT, q, 0.0, sol.sign), np.zeros(1))
    thetas = np.linspace(-10.0, 10.0, 101)
    kinks = [compound_solution(family, p0 + r * r / 18.0, q) for r in (0.1, 0.05, 0.025)]
    g1, g2, g3 = (np.max(np.abs(evaluate_grid(kink, thetas)[0] - limit)) for kink in kinks)
    return [
        _first_integral(name, sol, scale),
        _consistency(name, sol, scale),
        *(_pde(mode, name, phys, _KINK_XT, scale) for mode in ("fd", "analytic")),
        *(_fd_convergence("compound", phys, _KINK_XT) if fd_convergence else ()),
        _riccati(name, sol),
        (f"degenerate-limit {name}", g1 / g2, _QUADRATIC,
         "gap to the paired constant must shrink quadratically in the root"),
        (f"degenerate-limit {name} (second halving)", g2 / g3, _QUADRATIC, _QUADRATIC_DETAIL),
    ]


def _rational(family: Family, k0: float, scale: float) -> list[tuple]:
    name = family.value
    sol = rational_solution(family, 0.5, k0)
    phys = rational_solution_from_physical(family, _LOCKED, k0)
    return [
        _first_integral(f"{name} k0={k0:g}", sol, scale),
        # the second probe samples the side of its pole away from the origin
        _first_integral(f"{name} k0={-2.0 * k0:g}", rational_solution(family, 0.5, -2.0 * k0),
                        scale, k0 * np.linspace(1.0, 10.0, 200)),
        _consistency(name, sol, scale),
        _riccati(name, sol),
        _pde("analytic", name, phys, _xt_grid(3.0, 9.0, 31, [0.5]), scale),
    ]


def _constant(scale: float) -> list[tuple]:
    sol = rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS)
    phys = rational_solution_from_physical(Family.CONSTANT, _LOCKED, 0.0, Sign.PLUS)
    fd = residual_pde(phys, _xt_grid(-5.0, 5.0, 11, [0.0, 1.0]), h=1e-2, mode="fd")
    return [
        _first_integral("constant", sol, scale),
        ("pde-fd constant", fd.max_abs, 1e-9,
         "a constant solves the PDE at any mesh (stencil roundoff only)"),
        _riccati("constant equilibrium", sol, 20.0, 0.01, 1e-12,
                 "the constant is an equilibrium of the Riccati flow"),
    ]


# The suite in transcript order: the scopes that select a block, and the block.
# A block is a function of the scale 1 + perturb that builds its own solutions
# and returns its checks as rows (name, measured, bound[, detail]).  A float
# bound is a tolerance, which --tolerance replaces; a (lo, hi) bound is a fixed
# range, reported as tol = hi.
_BLOCKS = (
    (("factorization",), _factorization),
    (("kdvb-regular",), _kdvb_regular),
    (("kdvb-singular",), _kdvb_singular),
    (("compound-tanh-plus",), partial(_compound, Family.COMPOUND_TANH_PLUS, True)),
    (("compound-tanh-minus",), partial(_compound, Family.COMPOUND_TANH_MINUS, False)),
    (("rational-plus", "compound-rational"), partial(_rational, Family.RATIONAL_PLUS, 1.0)),
    (("rational-minus", "compound-rational"), partial(_rational, Family.RATIONAL_MINUS, -1.0)),
    (("constant", "compound-rational"), _constant),
)


def _outcome(tolerance, name: str, measured: float, bound, detail: str = "") -> CheckOutcome:
    if not isinstance(bound, tuple):  # a tolerance: no lower end
        bound = (-math.inf, bound if tolerance is None else tolerance)
    (lo, tol), measured = bound, float(measured)
    return CheckOutcome(name, measured, tol, lo <= measured <= tol, detail)


def verification_suite(
    scope: str = "all",
    tolerance: float | None = None,
    perturb: float = 0.0,
) -> SuiteResult:
    """Run the checks of the blocks of _BLOCKS that the scope selects, in order.

    ``tolerance`` replaces every tolerance at once (an unattainable value
    like 1e-20 must fail): the residual, oracle-agreement, factorization and
    equilibrium bounds.  The fixed ranges stay: the ratio checks, the phase
    identity and the blow-up check.  ``perturb`` scales the closed forms by
    1 + perturb before the residual checks, turning them into negative
    controls; the factorization scope has none, so a nonzero perturb there
    is a ParameterDomainError.  A block that raises is one failed check,
    named after it, and the rest still run.  The rational-form audit runs
    only under the compound-rational scope and ignores the perturbation.
    """
    if scope not in SCOPES:
        raise ParameterDomainError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    if not math.isfinite(perturb):
        raise ParameterDomainError(f"perturb must be finite; got {perturb!r}")
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ParameterDomainError(f"tolerance must be finite and >= 0; got {tolerance!r}")
    if perturb and scope == "factorization":
        raise ParameterDomainError("scope factorization scales no closed form: perturb must be 0")
    checks = []
    for scopes, block in _BLOCKS:
        if scope != "all" and scope not in scopes:
            continue
        try:
            checks += [_outcome(tolerance, *row) for row in block(1.0 + perturb)]
        except Exception as exc:  # the input was checked above: this is the product failing
            reason = f"{type(exc).__name__}: {exc}"
            checks.append(_outcome(tolerance, f"block {scopes[0]}", math.nan, 0.0, reason))
    audit = rational_form_audit(_LOCKED) if scope == "compound-rational" else []
    return SuiteResult(checks=checks, audit=audit)
