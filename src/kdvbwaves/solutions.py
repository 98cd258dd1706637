"""Closed-form travelling-wave solution families and their evaluation.

Seven families are implemented, all exact solutions of the reduced ODE
w'' - w' + (p*w - w^2 - q*w^3) = k for their respective parameter locks:

* kdvb-regular / kdvb-singular -- the universal (displacement-independent)
  kink families of the plain KdVB reduction,
      U(theta) = (3/50) * [1 + tanh((theta - theta0)/10)]^2
  with coth in place of tanh for the singular family.  "Universal" because
  imposing p = 2*delta + 6/25 removes every trace of delta from the ODE.

* compound-tanh-plus / compound-tanh-minus -- the kink families of the
  compound reduction,
      U(theta) = -1/(3q) +- (1/(3*sqrt(2q))) * [1 + D*tanh(D*(theta-theta0)/6)],
  where D = sqrt(18p + 6/q - 3) is the square root of the discriminant-like
  combination that governs the family (field name ``Delta``).

* rational-plus / rational-minus -- the degenerate D = 0 families,
      U(theta) = -(k0/A)/(A + k0*theta) - (A+1)/(6A^2),   A = +-sqrt(q/2),
  existing only on the velocity lock 6p = 1 - 2/q.

* constant -- the k0 = 0 member of the rational family, also the D -> 0
  pointwise limit of the compound kinks.

Complex phase constants are fully supported: theta0 = i*a*pi interpolates
between the regular (a = 0) and singular (a = -5) kinks, passing through
genuinely complex-valued solutions, and is what the phase sweep samples.

Branch pairing.  The +- label of the compound kinks and the A = +-sqrt(q/2)
branch of the degenerate families run in OPPOSITE directions: the D -> 0
limit of the plus kink equals the constant built from A = -sqrt(q/2), and
vice versa.  This is the unique pairing that makes the limit claim true; it
is encoded in ``_paired_branch`` and asserted by tests.

Pole policy.  Evaluating exactly on (or numerically within ~1e-9 of) a pole
raises PoleError carrying the pole location; the array kernels behind
evaluate_grid flag those cells in a mask instead, so singular families still
produce plottable grids.

Two evaluation paths.  The scalar eval_* functions are the per-point API.
The direct physical formulas are written once each, as functions
(_physical_formula and its per-family parts) that do the per-solution work
once and return u(x, t); eval_*_physical wrap them for one point, and
verify's finite-difference residual samples the returned formula.  The array
path has one kernel per family (evaluate_grid) and, on the same argument
and pole mask, one array jet: solution_jet gives (w, w', w'', w''') and
physical_jet its chain-rule image, both with the (values, pole) contract of
evaluate_grid.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterDomainError, PoleError, UnsupportedDomainError
from .factorizer import Sign, factorize_compound, factorize_kdvb
from .params import (
    PhysicalParams,
    ReducedParams,
    reduce,
    require_finite,
    to_physical_amplitude,
    to_reduced_coordinate,
)

# Absolute pole-proximity threshold, measured in the argument of tanh/coth
# (or in theta for the rational pole).  Values this close to a pole are
# numerically meaningless garbage, not legitimate large solution values.
POLE_TOL = 1e-9

# Relative threshold for snapping the compound discriminant to exactly zero,
# so that a velocity supplied through a lossy channel (CLI flag, JSON) still
# lands on the degenerate family it was aimed at.
_DISCRIMINANT_SNAP = 1e-13


def _nearest_pole(im: float, offset: float) -> complex:
    """Pole i*pi*(n + offset) nearest to a point of imaginary part im.

    offset 1/2 for tanh, 0 for coth.  It depends on Im z only, so a formula
    whose Im z is fixed finds it once.
    """
    return complex(0.0, math.pi * (round(im / math.pi - offset) + offset))


class Family(enum.Enum):
    """Tags for the closed-form solution families."""

    KDVB_REGULAR = "kdvb-regular"
    KDVB_SINGULAR = "kdvb-singular"
    COMPOUND_TANH_PLUS = "compound-tanh-plus"
    COMPOUND_TANH_MINUS = "compound-tanh-minus"
    RATIONAL_PLUS = "rational-plus"
    RATIONAL_MINUS = "rational-minus"
    CONSTANT = "constant"


_KDVB_FAMILIES = (Family.KDVB_REGULAR, Family.KDVB_SINGULAR)
_COMPOUND_FAMILIES = (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS)
_RATIONAL_FAMILIES = (Family.RATIONAL_PLUS, Family.RATIONAL_MINUS)


@dataclass(frozen=True)
class WaveSolution:
    """A fully parameterized closed-form solution, evaluable anywhere.

    ``sign`` records the branch of the factorization coefficient behind this
    solution (the Bernoulli branch for the KdVB families, the A = +-sqrt(q/2)
    branch otherwise); the constant family needs it because its value depends
    on the branch while its family tag does not carry one.

    ``Delta`` is the square root of the compound discriminant (None for the
    KdVB families), ``k0`` the rational integration constant (None except for
    rational/constant), and ``epsilon`` the convenience mu*sqrt(2*beta/(3*s*alpha^2))
    available whenever physical coefficients with beta*s > 0 are attached.
    """

    family: Family
    reduced: ReducedParams
    sign: Sign
    physical: PhysicalParams | None = None
    Delta: float | None = None
    k0: float | None = None
    epsilon: float | None = None


@dataclass(frozen=True)
class PhaseSweep:
    """Range of the imaginary-phase parameter a in theta0 = i*a*pi."""

    a_min: float
    a_max: float
    steps: int

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ParameterDomainError("phase sweep needs at least 2 steps")
        if not self.a_min < self.a_max:
            raise ParameterDomainError("phase sweep needs a_min < a_max")
        if not math.isfinite(self.a_max - self.a_min):
            raise ParameterDomainError(
                "a_max - a_min overflows: the phase sweep needs a finite span")

    def a_values(self) -> np.ndarray:
        return np.linspace(self.a_min, self.a_max, self.steps)


def compound_discriminant_root(p: float, q: float) -> float:
    """sqrt(18p + 6/q - 3), snapped to 0.0 when the square is float noise.

    Raises UnsupportedDomainError for genuinely negative squares: the
    oscillatory regime has no implemented closed form.
    """
    if q == 0:
        raise ParameterDomainError("compound families require q != 0")
    square = 18.0 * p + 6.0 / q - 3.0
    scale = abs(18.0 * p) + abs(6.0 / q) + 3.0
    if abs(square) <= _DISCRIMINANT_SNAP * scale:
        return 0.0
    if square < 0:
        raise UnsupportedDomainError(
            "18p + 6/q - 3 < 0: oscillatory regime, no real-discriminant solution family"
        )
    return math.sqrt(square)


def _paired_branch(family: Family) -> Sign:
    """Factorization branch that generates a given family.

    The compound plus kink is generated by A = -sqrt(q/2) and the minus kink
    by A = +sqrt(q/2): this opposite pairing is the unique one under which
    the Delta -> 0 limit of each kink reaches the constant built from the
    same branch.  The rational/constant labels follow A directly.
    """
    return {
        Family.KDVB_REGULAR: Sign.MINUS,
        Family.KDVB_SINGULAR: Sign.PLUS,
        Family.COMPOUND_TANH_PLUS: Sign.MINUS,
        Family.COMPOUND_TANH_MINUS: Sign.PLUS,
        Family.RATIONAL_PLUS: Sign.PLUS,
        Family.RATIONAL_MINUS: Sign.MINUS,
    }[family]


def _epsilon_of(params: PhysicalParams) -> float | None:
    if params.beta * params.s <= 0:
        return None
    return params.mu * math.sqrt(2.0 * params.beta / (3.0 * params.s * params.alpha**2))


# ---------------------------------------------------------------------------
# constructors


def universal_solution(
    family: Family,
    theta0: complex = 0j,
    delta: float = 0.0,
    physical: PhysicalParams | None = None,
) -> WaveSolution:
    """Build a KdVB universal kink (regular = tanh, singular = coth)."""
    if family not in _KDVB_FAMILIES:
        raise ParameterDomainError(f"not a KdVB universal family: {family}")
    require_finite(delta=delta, theta0=theta0)
    fact = factorize_kdvb(delta, _paired_branch(family))
    reduced = ReducedParams(p=fact.p, q=0.0, delta=delta, k=fact.k, theta0=theta0)
    eps = _epsilon_of(physical) if physical is not None else None
    return WaveSolution(
        family=family, reduced=reduced, sign=fact.sign, physical=physical, epsilon=eps
    )


def kdvb_solution_from_physical(family: Family, params: PhysicalParams) -> WaveSolution:
    """Universal kink whose displacement is fixed by the physical velocity."""
    base = reduce(params)
    # p = 2*delta + 6/25 inverts to the displacement the velocity demands
    delta = (base.p - 6.0 / 25.0) / 2.0
    return universal_solution(family, theta0=base.theta0, delta=delta, physical=params)


def compound_solution(
    family: Family,
    p: float,
    q: float,
    theta0: complex = 0j,
    physical: PhysicalParams | None = None,
) -> WaveSolution:
    """Build a compound kink for explicit reduced coefficients (p, q)."""
    if family not in _COMPOUND_FAMILIES:
        raise ParameterDomainError(f"not a compound kink family: {family}")
    require_finite(p=p, q=q, theta0=theta0)
    root = compound_discriminant_root(p, q)  # validates q and the regime
    if q < 0:
        raise UnsupportedDomainError("compound kinks require q > 0 for a real amplitude")
    fact = factorize_compound(ReducedParams(p=p, q=q), _paired_branch(family))
    reduced = ReducedParams(p=p, q=q, k=fact.k, theta0=theta0)
    eps = _epsilon_of(physical) if physical is not None else None
    return WaveSolution(
        family=family,
        reduced=reduced,
        sign=fact.sign,
        physical=physical,
        Delta=root,
        epsilon=eps,
    )


def compound_solution_from_physical(family: Family, params: PhysicalParams) -> WaveSolution:
    base = reduce(params)
    return compound_solution(family, base.p, base.q, theta0=base.theta0, physical=params)


def locked_rational_velocity(params: PhysicalParams) -> float:
    """The unique velocity for which the physical rational family exists.

    Follows from the degeneracy condition 6p = 1 - 2/q:
    v = mu^2/(6s) - alpha^2/(4*beta).
    """
    if params.beta == 0:
        raise ParameterDomainError("rational families require beta != 0")
    return params.mu**2 / (6.0 * params.s) - params.alpha**2 / (4.0 * params.beta)


def rational_solution(
    family: Family,
    q: float,
    k0: float,
    physical: PhysicalParams | None = None,
    sign: Sign = Sign.PLUS,
) -> WaveSolution:
    """Build a degenerate rational solution; p is locked to (1 - 2/q)/6.

    ``sign`` picks the A-branch of the constant family only; the rational
    families carry their branch in the family tag.
    """
    if family not in _RATIONAL_FAMILIES and family is not Family.CONSTANT:
        raise ParameterDomainError(f"not a rational-type family: {family}")
    require_finite(q=q, k0=k0)
    if q == 0:
        raise ParameterDomainError("rational families require q != 0")
    if q < 0:
        raise UnsupportedDomainError("rational families require q > 0 for a real branch")
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    p = (1.0 - 2.0 / q) / 6.0
    if family is not Family.CONSTANT:
        sign = _paired_branch(family)
    fact = factorize_compound(ReducedParams(p=p, q=q), sign)
    reduced = ReducedParams(p=p, q=q, k=fact.k, theta0=0j)
    eps = _epsilon_of(physical) if physical is not None else None
    return WaveSolution(
        family=family,
        reduced=reduced,
        sign=sign,
        physical=physical,
        Delta=0.0,
        k0=k0,
        epsilon=eps,
    )


def constant_solution(sign: Sign, q: float, physical: PhysicalParams | None = None) -> WaveSolution:
    """The constant solution -(A+1)/(6A^2) on branch A = sign*sqrt(q/2)."""
    return rational_solution(Family.CONSTANT, q, 0.0, physical=physical, sign=sign)


def rational_solution_from_physical(
    family: Family, params: PhysicalParams, k0: float, sign: Sign = Sign.PLUS
) -> WaveSolution:
    """Physical rational solution; rejects velocities off the degeneracy lock."""
    if not (params.beta > 0 and params.s > 0):
        raise ParameterDomainError(
            "the physical rational family requires beta > 0 and s > 0"
        )
    v_lock = locked_rational_velocity(params)
    if abs(params.v - v_lock) > 1e-12 * max(1.0, abs(v_lock)):
        raise ParameterDomainError(
            f"rational family exists only at the locked velocity "
            f"v = mu^2/(6s) - alpha^2/(4 beta) = {v_lock!r}; got v = {params.v!r}"
        )
    return rational_solution(family, reduce(params).q, k0, physical=params, sign=sign)


# ---------------------------------------------------------------------------
# evaluators


def eval_universal(family: Family, theta: complex, theta0: complex = 0j) -> complex:
    """Evaluate a KdVB universal kink at a (possibly complex) coordinate.

    Regular family: (3/50)*(1 + tanh(z))^2 with z = (theta - theta0)/10.
    Singular family: same with coth.  Raises PoleError within POLE_TOL of a
    pole of the hyperbolic function, reporting the pole's theta-location.
    """
    if family not in _KDVB_FAMILIES:
        raise ParameterDomainError(f"not a KdVB universal family: {family}")
    d = complex(theta) - complex(theta0)
    if cmath.isnan(d):
        raise ParameterDomainError("theta and theta0 must not be NaN")
    z = complex(d.real / 10.0, d.imag / 10.0)  # by parts: a real infinite theta keeps Im z = 0
    singular = family is Family.KDVB_SINGULAR
    pole = _nearest_pole(z.imag, 0.0 if singular else 0.5)
    if abs(z - pole) < POLE_TOL:
        raise PoleError(
            f"universal {family.value} solution has a pole at theta = {theta0 + 10.0 * pole}",
            theta0 + 10.0 * pole,
        )
    T = 1.0 / cmath.tanh(z) if singular else cmath.tanh(z)
    return (3.0 / 50.0) * (1.0 + T) ** 2


def eval_kdvb_physical(
    family: Family, x: float, t: float, params: PhysicalParams
) -> complex:
    """KdVB kink in physical variables.

    u = v/alpha + (3*mu^2/(25*alpha*s)) * {[1 + tanh(mu*(x - v*t - xi0)/(10*s))]^2 - 2}
    with coth for the singular family.  This is the direct formula; agreement
    with the transform of eval_universal is a test oracle, so do not collapse
    the two code paths.  A real x = +-inf gives the asymptote; a NaN x or t
    is a ParameterDomainError.
    """
    return _kdvb_formula(family, params)(x, t)


def _kdvb_formula(family: Family, params: PhysicalParams) -> Callable[[float, float], complex]:
    if family not in _KDVB_FAMILIES:
        raise ParameterDomainError(f"not a KdVB universal family: {family}")
    s, mu, alpha, v, xi0 = params.s, params.mu, params.alpha, params.v, params.xi0
    xi0_re, ten_s = xi0.real, 10.0 * s
    im_z = -mu * xi0.imag / ten_s
    singular = family is Family.KDVB_SINGULAR
    pole = _nearest_pole(im_z, 0.0 if singular else 0.5)
    tol = POLE_TOL * max(1.0, abs(mu / ten_s))
    base, amp = v / alpha, 3.0 * mu**2 / (25.0 * alpha * s)

    def u(x: float, t: float) -> complex:
        d = x - v * t - xi0_re  # by parts, as in eval_universal: Im z stays finite
        if math.isnan(d):
            raise ParameterDomainError("x - v*t must not be NaN")
        z = complex(mu * d / ten_s, im_z)
        if abs(z - pole) < tol:
            x_pole = (ten_s / mu) * pole + v * t + xi0
            raise PoleError(f"pole of the singular kink at x = {x_pole}", x_pole)
        T = 1.0 / cmath.tanh(z) if singular else cmath.tanh(z)
        return base + amp * ((1.0 + T) ** 2 - 2.0)

    return u


def eval_compound(family: Family, theta: complex, reduced: ReducedParams) -> complex:
    """Compound kink at reduced coordinates.

    U = -1/(3q) +- b*[1 + D*tanh(D*(theta - theta0)/6)], b = 1/(3*sqrt(2q)).
    At D = 0 the tanh term vanishes identically and the value is the
    branch-paired constant at every theta.
    """
    if family not in _COMPOUND_FAMILIES:
        raise ParameterDomainError(f"not a compound kink family: {family}")
    q = reduced.q
    root = compound_discriminant_root(reduced.p, q)
    if q < 0:
        raise UnsupportedDomainError("compound kinks require q > 0 for a real amplitude")
    b = 1.0 / (3.0 * math.sqrt(2.0 * q))
    if family is Family.COMPOUND_TANH_MINUS:
        b = -b
    d = complex(theta) - complex(reduced.theta0)
    if cmath.isnan(d):
        raise ParameterDomainError("theta must not be NaN")
    if root == 0.0:
        return -1.0 / (3.0 * q) + b
    z = complex(root * d.real / 6.0, root * d.imag / 6.0)  # by parts, as in eval_universal
    pole = _nearest_pole(z.imag, 0.5)
    if abs(z - pole) < POLE_TOL * max(1.0, root / 6.0):
        theta_pole = reduced.theta0 + 6.0 * pole / root
        raise PoleError(f"compound kink pole at theta = {theta_pole}", theta_pole)
    return -1.0 / (3.0 * q) + b * (1.0 + root * cmath.tanh(z))


def physical_discriminant_root(params: PhysicalParams) -> float:
    """sqrt(18*v*s/mu^2 + 9*s*alpha^2/(2*beta*mu^2) - 3) with zero-snap.

    Spelled in physical coefficients on purpose: it gives a second route to
    the same number as compound_discriminant_root(reduce(params)).
    """
    if params.beta == 0:
        raise ParameterDomainError("compound families require beta != 0")
    square = (
        18.0 * params.v * params.s / params.mu**2
        + 9.0 * params.s * params.alpha**2 / (2.0 * params.beta * params.mu**2)
        - 3.0
    )
    scale = (
        abs(18.0 * params.v * params.s / params.mu**2)
        + abs(9.0 * params.s * params.alpha**2 / (2.0 * params.beta * params.mu**2))
        + 3.0
    )
    if abs(square) <= _DISCRIMINANT_SNAP * scale:
        return 0.0
    if square < 0:
        raise UnsupportedDomainError("negative discriminant: no real compound kink at this velocity")
    return math.sqrt(square)


def eval_compound_physical(
    family: Family, x: float, t: float, params: PhysicalParams
) -> complex:
    """Compound kink in physical variables (direct formula).

    u = -alpha/(2*beta) +- (mu/sqrt(6*beta*s)) * [1 + D*tanh(mu*D*(x - v*t - xi0)/(6*s))]

    A real x = +-inf gives the asymptote; a NaN x or t is a ParameterDomainError.
    """
    return _compound_formula(family, params)(x, t)


def _compound_formula(family: Family, params: PhysicalParams) -> Callable[[float, float], complex]:
    if family not in _COMPOUND_FAMILIES:
        raise ParameterDomainError(f"not a compound kink family: {family}")
    if params.beta == 0:
        raise ParameterDomainError("compound families require beta != 0")
    if params.beta * params.s <= 0:
        raise UnsupportedDomainError("compound kinks require beta*s > 0 (q > 0)")
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

    def u(x: float, t: float) -> complex:
        d = x - v * t - xi0_re  # by parts, as in eval_universal: Im z stays finite
        if math.isnan(d):
            raise ParameterDomainError("x - v*t must not be NaN")
        if root == 0.0:
            return base + amp
        z = complex(mu_root * d / six_s, im_z)
        if abs(z - pole) < tol:
            x_pole = (six_s / mu_root) * pole + v * t + xi0
            raise PoleError(f"compound kink pole at x = {x_pole}", x_pole)
        return base + amp * (1.0 + root * cmath.tanh(z))

    return u


def _rational_branch_A(family: Family, q: float, sign: Sign = Sign.PLUS) -> float:
    if q == 0:
        raise ParameterDomainError("rational families require q != 0")
    if q < 0:
        raise UnsupportedDomainError("rational families require q > 0 for a real branch")
    if family is Family.RATIONAL_PLUS:
        return math.sqrt(q / 2.0)
    if family is Family.RATIONAL_MINUS:
        return -math.sqrt(q / 2.0)
    if family is Family.CONSTANT:
        return sign.factor * math.sqrt(q / 2.0)
    raise ParameterDomainError(f"not a rational-type family: {family}")


def eval_rational(
    family: Family, theta: complex, q: float, k0: float, sign: Sign = Sign.PLUS
) -> complex:
    """Degenerate rational solution at reduced coordinates.

    U = -(k0/A)/(A + k0*theta) - (A+1)/(6A^2) with A = +-sqrt(q/2).  k0 = 0
    collapses to the constant -(A+1)/(6A^2); the ``sign`` argument picks the
    branch only for the Constant family tag, which carries none itself.  An
    infinite theta gives the constant (the asymptote); a NaN theta is a
    ParameterDomainError.
    """
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    A = _rational_branch_A(family, q, sign)
    const = -(A + 1.0) / (6.0 * A * A)
    theta = complex(theta)
    if cmath.isnan(theta):
        raise ParameterDomainError("theta must not be NaN")
    if k0 == 0 or cmath.isinf(theta):
        return complex(const)
    theta_pole = -A / k0
    if abs(theta - theta_pole) < POLE_TOL:
        raise PoleError(f"rational solution pole at theta = {theta_pole}", theta_pole)
    return -(k0 / A) / (A + k0 * theta) + const


def eval_rational_physical(
    family: Family,
    x: float,
    t: float,
    params: PhysicalParams,
    k0: float,
    sign: Sign = Sign.PLUS,
) -> complex:
    """Physical rational solution on the locked velocity.

    Computed as the exact image of the reduced rational solution under the
    amplitude/coordinate maps, which simplifies to

        u = -(alpha/(2*beta))*(A + 1) - (2*mu^2/(alpha*s)) * (k0/A)/(A + k0*theta),

    theta = mu*(x - v*t - xi0)/s and A = +-sqrt(q/2).  For mu > 0 this equals
    -(alpha/(2*beta))*(1 +- eps) minus a rational term weighted by s;
    alternate published-style spellings of that term are provided in the
    verify module's audit, where their consistency is measured rather than
    assumed.  An infinite x or t gives the constant -(alpha/(2*beta))*(A + 1)
    (the asymptote); a NaN x or t is a ParameterDomainError.
    """
    return _rational_formula(family, params, k0, sign)(x, t)


def _rational_formula(
    family: Family, params: PhysicalParams, k0: float, sign: Sign
) -> Callable[[float, float], complex]:
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    if not (params.beta > 0 and params.s > 0):
        raise ParameterDomainError("the physical rational family requires beta > 0 and s > 0")
    v_lock = locked_rational_velocity(params)
    if abs(params.v - v_lock) > 1e-12 * max(1.0, abs(v_lock)):
        raise ParameterDomainError(
            f"rational family exists only at the locked velocity {v_lock!r}; got {params.v!r}"
        )
    A = _rational_branch_A(family, reduce(params).q, sign)
    const = -(params.alpha / (2.0 * params.beta)) * (A + 1.0)
    v, flat, weight = params.v, complex(const), -(k0 / A)
    theta_pole = -A / k0 if k0 else math.nan  # the constant member has no pole

    def u(x: float, t: float) -> complex:
        if math.isnan(x - v * t):
            raise ParameterDomainError("x - v*t must not be NaN")
        if k0 == 0:
            return flat
        theta = to_reduced_coordinate(x, t, params)
        if not cmath.isfinite(theta):  # an infinite x or t: the asymptote
            return flat
        if abs(theta - theta_pole) < POLE_TOL:
            x_pole = (params.s / params.mu) * theta_pole + v * t + params.xi0
            raise PoleError(f"rational solution pole at x = {x_pole}", x_pole)
        return const + to_physical_amplitude(weight / (A + k0 * theta), params)

    return u


def eval_solution(sol: WaveSolution, theta: complex) -> complex:
    """Evaluate any WaveSolution at a reduced coordinate."""
    f = sol.family
    if f in _KDVB_FAMILIES:
        return eval_universal(f, theta, sol.reduced.theta0)
    if f in _COMPOUND_FAMILIES:
        return eval_compound(f, theta, sol.reduced)
    return eval_rational(f, theta, sol.reduced.q, sol.k0 or 0.0, sol.sign)


def eval_solution_physical(sol: WaveSolution, x: float, t: float) -> complex:
    """Evaluate a physically-anchored WaveSolution at (x, t)."""
    return _physical_formula(sol)(x, t)


def _physical_formula(sol: WaveSolution) -> Callable[[float, float], complex]:
    """The direct physical formula of a solution, as a scalar function u(x, t).

    What depends on the solution alone is computed here, once: the family
    and domain checks, the discriminant root, amplitudes and base value,
    Im z, its nearest pole and the pole tolerance (for the rational
    families, the locked-velocity check and the branch A).  Per point the
    formula computes only x - v*t - Re xi0 and its NaN check, z, the pole
    distance, tanh and the value.  Hoisted factors keep the order of
    operations of the formula as written (mu*root*d/(6s) stays
    (mu*root)*d/(6s), never d*(mu*root/(6s))), because the finite-difference
    stencils magnify a one-ulp change.  The eval_*_physical functions
    evaluate the returned formula at one point.
    """
    if sol.physical is None:
        raise ParameterDomainError("solution carries no physical coefficients")
    f = sol.family
    if f in _KDVB_FAMILIES:
        return _kdvb_formula(f, sol.physical)
    if f in _COMPOUND_FAMILIES:
        return _compound_formula(f, sol.physical)
    return _rational_formula(f, sol.physical, sol.k0 or 0.0, sol.sign)


# ---------------------------------------------------------------------------
# array kernels and jets
#
# One kernel per family, on shifted coordinates zeta = theta - theta0.  It
# returns the values, the pole mask and the family's argument: T = tanh or
# coth for the kinks, g = A + k0*zeta for the rational family.  The family's
# slopes differentiate its value polynomial through that argument (tanh and
# coth both satisfy dT/dz = 1 - T^2), so the jet shares the kernel's argument
# and pole mask.  ``rate`` = |d zeta / dx| of the caller's coordinate widens
# the pole tolerance as the scalar evaluators widen it.  Pole cells are
# computed at a stand-in argument off every pole, then overwritten with NaN:
# nothing divides by 0.

_NAN = complex(math.nan, math.nan)


def _hyperbolic_poles(z: np.ndarray, offset: float, tol: float) -> np.ndarray:
    """Mask of z within tol of a pole i*pi*(n + offset): offset 1/2 for tanh, 0 for coth."""
    n = np.round(z.imag / math.pi - offset)
    return np.hypot(z.real, z.imag - math.pi * (n + offset)) < tol


def _kdvb_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    z = zeta / 10.0
    singular = sol.family is Family.KDVB_SINGULAR
    pole = _hyperbolic_poles(z, 0.0 if singular else 0.5, POLE_TOL * max(1.0, rate / 10.0))
    T = np.tanh(np.where(pole, 1.0, z))
    if singular:
        T = 1.0 / T
    return (3.0 / 50.0) * (1.0 + T) ** 2, pole, T


def _kdvb_slopes(sol: WaveSolution, T: np.ndarray):
    """First three derivatives of (3/50)*(1 + T)^2, with dT/dzeta = (1 - T^2)/10."""
    c, S = 3.0 / 50.0, 1.0 - T * T
    return (
        (c / 5.0) * (1.0 + T) * S,
        (c / 50.0) * S * (1.0 - 2.0 * T - 3.0 * T * T),
        (c / 250.0) * S * (6.0 * T**3 + 3.0 * T * T - 4.0 * T - 1.0),
    )


def _compound_b(sol: WaveSolution) -> float:
    b = 1.0 / (3.0 * math.sqrt(2.0 * sol.reduced.q))
    return -b if sol.family is Family.COMPOUND_TANH_MINUS else b


def _compound_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    # at Delta = 0 the argument is 0 everywhere and the value the paired constant
    root = sol.Delta
    z = root * zeta / 6.0
    pole = _hyperbolic_poles(z, 0.5, POLE_TOL * max(1.0, root * rate / 6.0))
    T = np.tanh(np.where(pole, 0.0, z))
    return -1.0 / (3.0 * sol.reduced.q) + _compound_b(sol) * (1.0 + root * T), pole, T


def _compound_slopes(sol: WaveSolution, T: np.ndarray):
    """First three derivatives of b*Delta*T, with T = tanh(Delta*zeta/6)."""
    b, root, S = _compound_b(sol), sol.Delta, 1.0 - T * T
    return (
        b * root**2 * S / 6.0,
        -b * root**3 * T * S / 18.0,
        -b * root**4 * S * (1.0 - 3.0 * T * T) / 108.0,
    )


def _rational_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    A = _rational_branch_A(sol.family, sol.reduced.q, sol.sign)
    k0 = sol.k0 or 0.0
    # absolute in theta whatever the coordinate, as in eval_rational_physical
    pole = np.abs(zeta - (-A / k0)) < POLE_TOL if k0 else np.zeros(zeta.shape, bool)
    g = A + k0 * np.where(pole, 0.0, zeta)
    const = -(A + 1.0) / (6.0 * A * A)  # added, not subtracted: Im stays +0 at k0 = 0
    return -(k0 / A) / g + const, pole, g


def _rational_slopes(sol: WaveSolution, g: np.ndarray):
    """First three derivatives of -(k0/A)/g, with g = A + k0*zeta."""
    A = _rational_branch_A(sol.family, sol.reduced.q, sol.sign)
    k0 = sol.k0 or 0.0
    return k0 * k0 / (A * g * g), -2.0 * k0**3 / (A * g**3), 6.0 * k0**4 / (A * g**4)


def _family_kernel(sol: WaveSolution):
    """(kernel, slopes) of the solution's family."""
    if sol.family in _KDVB_FAMILIES:
        return _kdvb_kernel, _kdvb_slopes
    if sol.family in _COMPOUND_FAMILIES:
        return _compound_kernel, _compound_slopes
    return _rational_kernel, _rational_slopes


def _shifted(sol: WaveSolution, grid, t) -> tuple[np.ndarray, float]:
    """zeta = theta - theta0 on a grid of theta (t None) or of x at times t, and |d zeta/d grid|."""
    if t is None:
        return np.asarray(np.asarray(grid) - sol.reduced.theta0, dtype=complex), 1.0
    pp = sol.physical
    if pp is None:
        raise ParameterDomainError("solution carries no physical coefficients")
    if not np.isfinite(t).all():
        raise ParameterDomainError("time t must be finite")
    zeta = to_reduced_coordinate(np.asarray(grid), t, pp)
    return np.asarray(zeta, dtype=complex), abs(pp.mu / pp.s)


def evaluate_grid(
    sol: WaveSolution, grid: np.ndarray, t: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, pole) of a solution on an array of coordinates, in one pass.

    With ``t`` None, ``grid`` holds reduced coordinates theta and the values
    are U(theta), as eval_solution gives them.  Otherwise it holds physical x
    at time t, and the values are u = to_physical_amplitude(w) at
    theta = to_reduced_coordinate(x, t), with w = U + delta the first-integral
    unknown.  ``pole`` flags the cells where the scalar evaluators raise
    PoleError; their values are NaN + NaN*i.
    """
    zeta, rate = _shifted(sol, grid, t)
    values, pole, _ = _family_kernel(sol)[0](sol, zeta, rate)
    if t is not None:
        values = to_physical_amplitude(values + (sol.reduced.delta or 0.0), sol.physical)
    return np.where(pole, _NAN, values), pole


def _jet(sol: WaveSolution, grid, t):
    zeta, rate = _shifted(sol, grid, t)
    kernel, slopes = _family_kernel(sol)
    U, pole, argument = kernel(sol, zeta, rate)
    jet = (U + (sol.reduced.delta or 0.0), *slopes(sol, argument))
    return tuple(np.where(pole, _NAN, d) for d in jet), pole


def solution_jet(sol: WaveSolution, theta) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((w, w', w'', w'''), pole) of the first-integral unknown at reduced coordinates.

    w = U + delta for the KdVB families and w = U elsewhere; derivatives are
    in theta.  ``theta`` is an array or a scalar (0-d results).  As in
    evaluate_grid, ``pole`` flags the cells on a pole, and every component
    is NaN + NaN*i there.
    """
    return _jet(sol, theta, None)


def physical_jet(sol: WaveSolution, x, t) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((u, u_x, u_xx, u_xxx, u_t), pole) at (x, t), by the chain rule on the jet.

    u = to_physical_amplitude(w(theta)) with theta = to_reduced_coordinate(x, t)
    linear in x and t, so the n-th x-derivative carries (mu/s)^n and
    u_t = -v * u_x (travelling wave).  x and t broadcast; u and ``pole``
    equal evaluate_grid's at time t.
    """
    jet, pole = _jet(sol, x, t)  # raises for a solution without physical coefficients
    pp = sol.physical
    m = pp.mu / pp.s
    u, ux, uxx, uxxx = (to_physical_amplitude(d * m**n, pp) for n, d in enumerate(jet))
    return (u, ux, uxx, uxxx, -pp.v * ux), pole


# ---------------------------------------------------------------------------
# phase sweep


@dataclass(frozen=True)
class SweepSurface:
    """Sampled U(theta, a) surface with per-cell pole flags.

    re/im hold NaN where pole is True; consumers must check the flag before
    trusting the numbers.
    """

    a_values: np.ndarray
    theta: np.ndarray
    re: np.ndarray
    im: np.ndarray
    pole: np.ndarray


def sweep_rows(family: Family, a_values: np.ndarray, theta_grid: np.ndarray) -> SweepSurface:
    """Sample U(theta; theta0 = i*a*pi) over the (a, theta) grid, pole cells flagged.

    At a = 0 the imaginary part vanishes; at a = -5 the regular family equals
    the singular one at real phase (tanh(z - i*pi/2) = coth(z)).
    """
    a_values = np.asarray(a_values, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0 or a_values.size == 0:
        raise ParameterDomainError("sweep grid must be non-empty")
    theta0 = 1j * math.pi * a_values
    values, pole = evaluate_grid(universal_solution(family), theta_grid - theta0[:, None])
    return SweepSurface(
        a_values=a_values, theta=theta_grid, re=values.real, im=values.imag, pole=pole
    )
