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
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, PoleError, UnsupportedDomainError
from .factorizer import Sign, factorize_compound, factorize_kdvb
from .params import (
    PhysicalParams,
    ReducedParams,
    reduce,
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

_SATURATE_RE = 20.0  # |tanh(20)| differs from 1 by ~8.5e-18: one ulp


def stable_tanh(z: complex) -> complex:
    """Complex tanh, saturating explicitly for large |Re z|.

    For |Re z| > 20 the value is computed from exp(-2|Re z|...) directly so
    that arguments with |Re z| > 700 cannot overflow; inside that band the
    library implementation is already well conditioned.
    """
    x = z.real
    if x > _SATURATE_RE:
        e = cmath.exp(-2.0 * z)  # |e| <= exp(-40), no overflow possible
        return (1.0 - e) / (1.0 + e)
    if x < -_SATURATE_RE:
        e = cmath.exp(2.0 * z)
        return (e - 1.0) / (e + 1.0)
    return cmath.tanh(z)


def stable_coth(z: complex) -> complex:
    """Complex coth with the same saturating tail treatment as stable_tanh."""
    x = z.real
    if x > _SATURATE_RE:
        e = cmath.exp(-2.0 * z)
        return (1.0 + e) / (1.0 - e)
    if x < -_SATURATE_RE:
        e = cmath.exp(2.0 * z)
        return (e + 1.0) / (e - 1.0)
    t = cmath.tanh(z)
    if t == 0:  # only reachable if a pole slipped past the distance check
        raise PoleError("coth evaluated exactly on a pole", z)
    return 1.0 / t


def _tanh_pole_distance(z: complex) -> tuple[float, complex]:
    """Distance from z to the nearest pole of tanh (at i*pi*(n + 1/2))."""
    n = round(z.imag / math.pi - 0.5)
    pole = complex(0.0, math.pi * (n + 0.5))
    return abs(z - pole), pole


def _coth_pole_distance(z: complex) -> tuple[float, complex]:
    """Distance from z to the nearest pole of coth (at i*pi*n)."""
    n = round(z.imag / math.pi)
    pole = complex(0.0, math.pi * n)
    return abs(z - pole), pole


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
    z = (complex(theta) - complex(theta0)) / 10.0
    if family is Family.KDVB_REGULAR:
        dist, pole = _tanh_pole_distance(z)
        hyp = stable_tanh
    else:
        dist, pole = _coth_pole_distance(z)
        hyp = stable_coth
    if dist < POLE_TOL:
        raise PoleError(
            f"universal {family.value} solution has a pole at theta = {theta0 + 10.0 * pole}",
            theta0 + 10.0 * pole,
        )
    T = hyp(z)
    return (3.0 / 50.0) * (1.0 + T) ** 2


def eval_kdvb_physical(
    family: Family, x: float, t: float, params: PhysicalParams
) -> complex:
    """KdVB kink in physical variables.

    u = v/alpha + (3*mu^2/(25*alpha*s)) * {[1 + tanh(mu*(x - v*t - xi0)/(10*s))]^2 - 2}
    with coth for the singular family.  This is the direct formula; agreement
    with the transform of eval_universal is a test oracle, so do not collapse
    the two code paths.
    """
    if family not in _KDVB_FAMILIES:
        raise ParameterDomainError(f"not a KdVB universal family: {family}")
    s, mu, alpha, v = params.s, params.mu, params.alpha, params.v
    z = mu * (x - v * t - params.xi0) / (10.0 * s)
    if family is Family.KDVB_REGULAR:
        dist, pole = _tanh_pole_distance(complex(z))
        hyp = stable_tanh
    else:
        dist, pole = _coth_pole_distance(complex(z))
        hyp = stable_coth
    if dist < POLE_TOL * max(1.0, abs(mu / (10.0 * s))):
        x_pole = (10.0 * s / mu) * pole + v * t + params.xi0
        raise PoleError(f"pole of the singular kink at x = {x_pole}", x_pole)
    T = hyp(complex(z))
    return v / alpha + (3.0 * mu**2 / (25.0 * alpha * s)) * ((1.0 + T) ** 2 - 2.0)


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
    if root == 0.0:
        return -1.0 / (3.0 * q) + b
    z = root * (complex(theta) - complex(reduced.theta0)) / 6.0
    dist, pole = _tanh_pole_distance(z)
    if dist < POLE_TOL * max(1.0, root / 6.0):
        theta_pole = reduced.theta0 + 6.0 * pole / root
        raise PoleError(f"compound kink pole at theta = {theta_pole}", theta_pole)
    return -1.0 / (3.0 * q) + b * (1.0 + root * stable_tanh(z))


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
    """
    if family not in _COMPOUND_FAMILIES:
        raise ParameterDomainError(f"not a compound kink family: {family}")
    if params.beta == 0:
        raise ParameterDomainError("compound families require beta != 0")
    if params.beta * params.s <= 0:
        raise UnsupportedDomainError("compound kinks require beta*s > 0 (q > 0)")
    s, mu, alpha, beta, v = params.s, params.mu, params.alpha, params.beta, params.v
    root = physical_discriminant_root(params)
    amp = mu / math.sqrt(6.0 * beta * s)
    if family is Family.COMPOUND_TANH_MINUS:
        amp = -amp
    if root == 0.0:
        return -alpha / (2.0 * beta) + amp
    z = mu * root * (x - v * t - params.xi0) / (6.0 * s)
    dist, pole = _tanh_pole_distance(complex(z))
    if dist < POLE_TOL * max(1.0, abs(mu * root / (6.0 * s))):
        x_pole = (6.0 * s / (mu * root)) * pole + v * t + params.xi0
        raise PoleError(f"compound kink pole at x = {x_pole}", x_pole)
    return -alpha / (2.0 * beta) + amp * (1.0 + root * stable_tanh(complex(z)))


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
    branch only for the Constant family tag, which carries none itself.
    """
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    A = _rational_branch_A(family, q, sign)
    const = -(A + 1.0) / (6.0 * A * A)
    if k0 == 0:
        return complex(const)
    theta_pole = -A / k0
    if abs(complex(theta) - theta_pole) < POLE_TOL:
        raise PoleError(f"rational solution pole at theta = {theta_pole}", theta_pole)
    return -(k0 / A) / (A + k0 * complex(theta)) + const


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
    assumed.
    """
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    if not (params.beta > 0 and params.s > 0):
        raise ParameterDomainError("the physical rational family requires beta > 0 and s > 0")
    v_lock = locked_rational_velocity(params)
    if abs(params.v - v_lock) > 1e-12 * max(1.0, abs(v_lock)):
        raise ParameterDomainError(
            f"rational family exists only at the locked velocity {v_lock!r}; got {params.v!r}"
        )
    base = reduce(params)
    A = _rational_branch_A(family, base.q, sign)
    const = -(params.alpha / (2.0 * params.beta)) * (A + 1.0)
    if k0 == 0:
        return complex(const)
    theta = to_reduced_coordinate(x, t, params)
    theta_pole = -A / k0
    if abs(theta - theta_pole) < POLE_TOL:
        x_pole = (params.s / params.mu) * theta_pole + params.v * t + params.xi0
        raise PoleError(f"rational solution pole at x = {x_pole}", x_pole)
    rational_term = to_physical_amplitude(-(k0 / A) / (A + k0 * theta), params)
    return const + rational_term


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
    if sol.physical is None:
        raise ParameterDomainError("solution carries no physical coefficients")
    f = sol.family
    if f in _KDVB_FAMILIES:
        return eval_kdvb_physical(f, x, t, sol.physical)
    if f in _COMPOUND_FAMILIES:
        return eval_compound_physical(f, x, t, sol.physical)
    return eval_rational_physical(f, x, t, sol.physical, sol.k0 or 0.0, sol.sign)


# ---------------------------------------------------------------------------
# array kernels
#
# One kernel per family, on shifted coordinates zeta = theta - theta0.
# ``rate`` = |d zeta / dx| of the caller's coordinate widens the pole
# tolerance as the scalar evaluators widen it.  Pole cells are computed at a
# stand-in argument off every pole, then overwritten: nothing divides by 0.


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
    return (3.0 / 50.0) * (1.0 + T) ** 2, pole


def _compound_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    q, root = sol.reduced.q, sol.Delta
    b = 1.0 / (3.0 * math.sqrt(2.0 * q))
    if sol.family is Family.COMPOUND_TANH_MINUS:
        b = -b
    if root == 0.0:
        return np.full(zeta.shape, complex(-1.0 / (3.0 * q) + b)), np.zeros(zeta.shape, bool)
    z = root * zeta / 6.0
    pole = _hyperbolic_poles(z, 0.5, POLE_TOL * max(1.0, root * rate / 6.0))
    return -1.0 / (3.0 * q) + b * (1.0 + root * np.tanh(np.where(pole, 0.0, z))), pole


def _rational_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    A = _rational_branch_A(sol.family, sol.reduced.q, sol.sign)
    const = -(A + 1.0) / (6.0 * A * A)
    k0 = sol.k0 or 0.0
    if k0 == 0:
        return np.full(zeta.shape, complex(const)), np.zeros(zeta.shape, bool)
    # absolute in theta whatever the coordinate, as in eval_rational_physical
    pole = np.abs(zeta - (-A / k0)) < POLE_TOL
    return -(k0 / A) / (A + k0 * np.where(pole, 0.0, zeta)) + const, pole


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
    if t is None:
        zeta, rate = np.asarray(grid) - sol.reduced.theta0, 1.0
    else:
        pp = sol.physical
        if pp is None:
            raise ParameterDomainError("solution carries no physical coefficients")
        zeta, rate = to_reduced_coordinate(np.asarray(grid), t, pp), abs(pp.mu / pp.s)
    f = sol.family
    kernel = _kdvb_kernel if f in _KDVB_FAMILIES else (
        _compound_kernel if f in _COMPOUND_FAMILIES else _rational_kernel)
    values, pole = kernel(sol, np.asarray(zeta, dtype=complex), rate)
    if t is not None:
        values = to_physical_amplitude(values + (sol.reduced.delta or 0.0), pp)
    return np.where(pole, complex(math.nan, math.nan), values), pole


# ---------------------------------------------------------------------------
# analytic jets (closed-form derivatives, hand-differentiated)
#
# Both tanh and coth satisfy T' = (1 - T^2) * (argument rate), which is why a
# single polynomial-in-T form covers the regular and singular families.


def universal_jet(
    family: Family, theta: complex, theta0: complex = 0j
) -> tuple[complex, complex, complex, complex]:
    """(U, U', U'', U''') for the universal kinks, derivatives in theta."""
    U = eval_universal(family, theta, theta0)  # reuses the pole check
    z = (complex(theta) - complex(theta0)) / 10.0
    T = stable_tanh(z) if family is Family.KDVB_REGULAR else stable_coth(z)
    c = 3.0 / 50.0
    S = 1.0 - T * T
    U1 = (c / 5.0) * (1.0 + T) * S
    U2 = (c / 50.0) * S * (1.0 - 2.0 * T - 3.0 * T * T)
    U3 = (c / 250.0) * S * (6.0 * T**3 + 3.0 * T * T - 4.0 * T - 1.0)
    return U, U1, U2, U3


def compound_jet(
    family: Family, theta: complex, reduced: ReducedParams
) -> tuple[complex, complex, complex, complex]:
    """(U, U', U'', U''') for the compound kinks."""
    U = eval_compound(family, theta, reduced)
    q = reduced.q
    root = compound_discriminant_root(reduced.p, q)
    b = 1.0 / (3.0 * math.sqrt(2.0 * q))
    if family is Family.COMPOUND_TANH_MINUS:
        b = -b
    if root == 0.0:
        return U, 0j, 0j, 0j
    T = stable_tanh(root * (complex(theta) - complex(reduced.theta0)) / 6.0)
    S = 1.0 - T * T
    U1 = b * root**2 * S / 6.0
    U2 = -b * root**3 * T * S / 18.0
    U3 = -b * root**4 * S * (1.0 - 3.0 * T * T) / 108.0
    return U, U1, U2, U3


def rational_jet(
    family: Family, theta: complex, q: float, k0: float, sign: Sign = Sign.PLUS
) -> tuple[complex, complex, complex, complex]:
    """(U, U', U'', U''') for the rational/constant families."""
    U = eval_rational(family, theta, q, k0, sign)
    if k0 == 0:
        return U, 0j, 0j, 0j
    A = _rational_branch_A(family, q, sign)
    g = A + k0 * complex(theta)
    U1 = k0 * k0 / (A * g * g)
    U2 = -2.0 * k0**3 / (A * g**3)
    U3 = 6.0 * k0**4 / (A * g**4)
    return U, U1, U2, U3


def solution_jet(sol: WaveSolution, theta: complex) -> tuple[complex, complex, complex, complex]:
    """(w, w', w'', w''') of the first-integral unknown for any family.

    For the KdVB families the first-integral variable is the displaced
    w = U + delta; elsewhere w = U.
    """
    f = sol.family
    if f in _KDVB_FAMILIES:
        U, U1, U2, U3 = universal_jet(f, theta, sol.reduced.theta0)
        return U + (sol.reduced.delta or 0.0), U1, U2, U3
    if f in _COMPOUND_FAMILIES:
        return compound_jet(f, theta, sol.reduced)
    return rational_jet(f, theta, sol.reduced.q, sol.k0 or 0.0, sol.sign)


def physical_jet(
    sol: WaveSolution, x: float, t: float
) -> tuple[complex, complex, complex, complex, complex]:
    """(u, u_x, u_xx, u_xxx, u_t) from the closed form, by the chain rule.

    u = (2*mu^2/(alpha*s)) * w(theta(x, t)) with theta linear in x and t, so
    every x-derivative is a power of mu/s and u_t = -v * u_x (travelling wave).
    """
    if sol.physical is None:
        raise ParameterDomainError("solution carries no physical coefficients")
    pp = sol.physical
    theta = to_reduced_coordinate(x, t, pp)
    w, w1, w2, w3 = solution_jet(sol, theta)
    G = 2.0 * pp.mu**2 / (pp.alpha * pp.s)
    m = pp.mu / pp.s
    u = G * w
    ux = G * w1 * m
    uxx = G * w2 * m * m
    uxxx = G * w3 * m**3
    ut = -pp.v * ux
    return u, ux, uxx, uxxx, ut


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
