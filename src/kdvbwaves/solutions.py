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
vice versa.  This is the unique pairing that makes the limit claim true;
the family table ``_FAMILIES`` records it, and tests assert it.

Pole policy.  A pole is part of a singular solution, not an error.  Cells
within ~1e-9 of a pole (POLE_TOL, in the argument of tanh/coth or in theta
for the rational pole) are flagged in a mask with a NaN value, so singular
families still produce plottable grids; the two scalar entry points return
None there instead.  A coordinate whose shifted value theta - theta0 is not
finite is a ParameterDomainError, as is every other input outside the
implemented theory.

Construction.  Every constructor fixes the dependent quantities (k, delta,
the discriminant root, the branch) from the coefficients.  Only the three
*_from_physical constructors attach physical coefficients, after reducing
them, so a WaveSolution never carries coefficients it does not solve.

One evaluation path.  Each family's closed form is written once, as its
array kernel.  evaluate_grid gives the values and the pole mask, and
sweep_rows the same pair over a phase sweep, a big grid in blocks of
_CELLS_PER_BLOCK cells.  On the same argument and mask,
solution_jet gives (w, w', w'', w''') and physical_jet its chain-rule image.
eval_solution and eval_solution_physical are evaluate_grid at one point.
The independent second spelling, the direct physical formulas with their
own discriminant root (physical_discriminant_root), lives in verify as the
oracle its finite-difference residual samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterDomainError
from .factorizer import (_COMPOUND_FAMILIES, _KDVB_FAMILIES, _RATIONAL_FAMILIES, Family, Sign,
                         factorize_compound, factorize_kdvb)
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


def _require_resolvable_phase(im_z: float) -> None:
    """Reject a phase that leaves Im z, the tanh argument's, coarser than POLE_TOL.

    Beyond that the spacing of the floats near Im z is wider than the pole
    tolerance, so neither the value nor the pole flag means anything.
    """
    if math.ulp(im_z) > POLE_TOL:
        raise ParameterDomainError(
            f"the imaginary phase puts |Im z| at {abs(im_z)!r}, where the float spacing "
            f"{math.ulp(im_z):.3g} exceeds the pole tolerance {POLE_TOL:g}"
        )


# Relative threshold for snapping the compound discriminant to exactly zero,
# so that a velocity supplied through a lossy channel (CLI flag, JSON) still
# lands on the degenerate family it was aimed at.
_DISCRIMINANT_SNAP = 1e-13


@dataclass(frozen=True)
class WaveSolution:
    """A fully parameterized closed-form solution, evaluable anywhere.

    ``sign`` records the branch of the factorization coefficient behind this
    solution (the Bernoulli branch for the KdVB families, the A = +-sqrt(q/2)
    branch otherwise); the constant family needs it because its value depends
    on the branch while its family tag does not carry one.

    ``Delta`` is the square root of the compound discriminant (None for the
    KdVB families) and ``k0`` the rational integration constant (None except
    for rational/constant).  ``physical`` holds the coefficients the solution
    was built from; only the *_from_physical constructors set it, after
    deriving every reduced field from them.
    """

    family: Family
    reduced: ReducedParams
    sign: Sign
    physical: PhysicalParams | None = None
    Delta: float | None = None
    k0: float | None = None


def compound_discriminant_root(p: float, q: float) -> float:
    """sqrt(18p + 6/q - 3), snapped to 0.0 when the square is float noise.

    Raises ParameterDomainError for genuinely negative squares: the
    oscillatory regime has no implemented closed form.
    """
    if q == 0:
        raise ParameterDomainError("compound families require q != 0")
    square = 18.0 * p + 6.0 / q - 3.0
    scale = abs(18.0 * p) + abs(6.0 / q) + 3.0
    if not math.isfinite(scale):  # else inf <= inf would snap it to 0
        raise ParameterDomainError(
            f"p = {p!r}, q = {q!r} leave the float range: 18p + 6/q - 3 must be finite")
    if abs(square) <= _DISCRIMINANT_SNAP * scale:
        return 0.0
    if square < 0:
        raise ParameterDomainError(
            "18p + 6/q - 3 < 0: oscillatory regime, no real-discriminant solution family"
        )
    return math.sqrt(square)


# ---------------------------------------------------------------------------
# constructors


def universal_solution(family: Family, theta0: complex = 0j, delta: float = 0.0) -> WaveSolution:
    """Build a KdVB universal kink (regular = tanh, singular = coth)."""
    if family not in _KDVB_FAMILIES:
        raise ParameterDomainError(f"not a KdVB universal family: {family}")
    require_finite(delta=delta, theta0=theta0)
    _require_resolvable_phase(complex(theta0).imag / 10.0)
    fact = factorize_kdvb(delta, _FAMILIES[family][2])
    reduced = ReducedParams(p=fact.p, q=0.0, delta=delta, k=fact.k, theta0=theta0)
    return WaveSolution(family=family, reduced=reduced, sign=fact.sign)


def kdvb_solution_from_physical(family: Family, params: PhysicalParams) -> WaveSolution:
    """Universal kink whose displacement is fixed by the physical velocity."""
    base = reduce(params)
    # p = 2*delta + 6/25 inverts to the displacement the velocity demands
    delta = (base.p - 6.0 / 25.0) / 2.0
    sol = universal_solution(family, theta0=base.theta0, delta=delta)
    return replace(sol, physical=params)


def compound_solution(family: Family, p: float, q: float, theta0: complex = 0j) -> WaveSolution:
    """Build a compound kink for explicit reduced coefficients (p, q)."""
    if family not in _COMPOUND_FAMILIES:
        raise ParameterDomainError(f"not a compound kink family: {family}")
    require_finite(p=p, q=q, theta0=theta0)
    root = compound_discriminant_root(p, q)  # validates q and the regime
    if q < 0:
        raise ParameterDomainError("compound kinks require q > 0 for a real amplitude")
    _require_resolvable_phase(root * complex(theta0).imag / 6.0)
    fact = factorize_compound(ReducedParams(p=p, q=q), _FAMILIES[family][2])
    reduced = ReducedParams(p=p, q=q, k=fact.k, theta0=theta0)
    return WaveSolution(family=family, reduced=reduced, sign=fact.sign, Delta=root)


def compound_solution_from_physical(family: Family, params: PhysicalParams) -> WaveSolution:
    base = reduce(params)
    sol = compound_solution(family, base.p, base.q, theta0=base.theta0)
    return replace(sol, physical=params)


def locked_rational_velocity(params: PhysicalParams) -> float:
    """The unique velocity for which the physical rational family exists.

    Follows from the degeneracy condition 6p = 1 - 2/q:
    v = mu^2/(6s) - alpha^2/(4*beta).  A velocity that leaves the float
    range (a square or quotient that overflows) is a ParameterDomainError.
    """
    if params.beta == 0:
        raise ParameterDomainError("rational families require beta != 0")
    try:
        v = params.mu**2 / (6.0 * params.s) - params.alpha**2 / (4.0 * params.beta)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise ParameterDomainError(
            f"s = {params.s!r}, mu = {params.mu!r}, alpha = {params.alpha!r}, "
            f"beta = {params.beta!r} leave the float range: the locked velocity "
            "mu^2/(6s) - alpha^2/(4*beta) must be finite")
    return v


def rational_solution(family: Family, q: float, k0: float, sign: Sign = Sign.PLUS) -> WaveSolution:
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
        raise ParameterDomainError("rational families require q > 0 for a real branch")
    if family is Family.CONSTANT and k0 != 0:
        raise ParameterDomainError("the constant family is the k0 = 0 member; got k0 != 0")
    p = (1.0 - 2.0 / q) / 6.0
    sign = _FAMILIES[family][2] or sign
    fact = factorize_compound(ReducedParams(p=p, q=q), sign)
    if not math.isfinite(k0 / fact.A):  # the kernel's weight
        raise ParameterDomainError(
            f"k0 = {k0!r} leaves the float range: k0/A with A = {fact.A!r} must be finite")
    reduced = ReducedParams(p=p, q=q, k=fact.k, theta0=0j)
    return WaveSolution(family=family, reduced=reduced, sign=sign, Delta=0.0, k0=k0)


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
    base = reduce(params)
    sol = rational_solution(family, base.q, k0, sign=sign)
    # theta0 = mu*xi0/s, as for the kinks: reduced mode then agrees with the physical map
    reduced = replace(sol.reduced, theta0=base.theta0)
    return replace(sol, reduced=reduced, physical=params)


# ---------------------------------------------------------------------------
# array kernels and jets
#
# One kernel per family, on shifted coordinates zeta = theta - theta0.  It
# returns the values, the pole mask and the family's argument: T = tanh or
# coth for the kinks, the pair (g, zeta) with g = A + k0*zeta for the rational
# family.  The family's slopes differentiate its value polynomial through that
# argument (tanh and coth both satisfy dT/dz = 1 - T^2), so the jet shares the
# kernel's argument and pole mask.  ``rate`` = |d zeta / dx| of the caller's
# coordinate widens the pole tolerance in the argument z of tanh/coth to
# POLE_TOL * max(1, |dz/dx|); the rational pole's stays POLE_TOL in theta.
# Pole cells are computed at a stand-in argument off every pole, then
# overwritten with NaN: nothing divides by 0.

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
    # |Im z| is bounded (_require_resolvable_phase), so only Re z can overflow, to +-inf,
    # and / 6.0 then makes Im z NaN: tanh(+-inf + NaN i) = +-1, the kink's asymptote
    with np.errstate(over="ignore", invalid="ignore"):
        z = root * zeta / 6.0
    pole = _hyperbolic_poles(z, 0.5, POLE_TOL * max(1.0, root * rate / 6.0))
    T = np.tanh(np.where(pole, 0.0, z))
    return -1.0 / (3.0 * sol.reduced.q) + _compound_b(sol) * (1.0 + root * T), pole, T


def _compound_slopes(sol: WaveSolution, T: np.ndarray):
    """First three derivatives of b*Delta*T, with T = tanh(Delta*zeta/6)."""
    b, root, S = _compound_b(sol), np.float64(sol.Delta), 1.0 - T * T  # powers overflow to inf
    return (
        b * root**2 * S / 6.0,
        -b * root**3 * T * S / 18.0,
        -b * root**4 * S * (1.0 - 3.0 * T * T) / 108.0,
    )


def _rational_kernel(sol: WaveSolution, zeta: np.ndarray, rate: float):
    A = sol.sign.factor * math.sqrt(sol.reduced.q / 2.0)
    k0 = sol.k0 or 0.0
    const = -(A + 1.0) / (6.0 * A * A)  # added, not subtracted: Im stays +0 at k0 = 0
    # (k0/A)/g overflows only on a pole cell's stand-in g = A (off the poles |g| is about
    # |k0| * POLE_TOL or more): a NaN cell.  Where k0*zeta overflows, g is not finite
    # (so k0 != 0) and the quotient is taken divided through by k0 instead
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # absolute in theta whatever the coordinate; a distance that overflows is no pole
        pole = np.abs(zeta - (-A / k0)) < POLE_TOL if k0 else np.zeros(zeta.shape, bool)
        g = A + k0 * np.where(pole, 0.0, zeta)
        value = -(k0 / A) / g
        far = ~np.isfinite(g)
        if far.any():  # zeta may be 0-d: no assignment into value
            value = np.where(far, -1.0 / (A * (A / k0 + zeta)), value)
        return value + const, pole, (g, zeta)


def _rational_slopes(sol: WaveSolution, argument: tuple[np.ndarray, np.ndarray]):
    """First three derivatives of -(k0/A)/g, with (g, zeta) the kernel's argument.

    Where A*g**n (n = 2, 3, 4) leaves the float range, for g = A + k0*zeta
    itself or for a power of a finite g, they are taken divided through by
    k0**n, as powers of 1/(A/k0 + zeta), as the kernel takes the value.  A
    k0 whose fourth power leaves the float range (|k0| above about 1.16e77)
    is a ParameterDomainError; so, through the caller's check, is a cell
    whose A*g**n stay finite while 6*k0**4 does not (|k0| above about 7.4e76).
    """
    g, zeta = argument
    A = sol.sign.factor * math.sqrt(sol.reduced.q / 2.0)
    k0 = sol.k0 or 0.0
    try:
        k0_cubed, k0_fourth = k0**3, k0**4
    except OverflowError:
        raise ParameterDomainError(
            f"k0 = {k0!r} leaves the float range of the jet: k0**4 must be finite") from None
    scaled = A * g * g, A * g**3, A * g**4
    slopes = k0 * k0 / scaled[0], -2.0 * k0_cubed / scaled[1], 6.0 * k0_fourth / scaled[2]
    far = ~(np.isfinite(scaled[0]) & np.isfinite(scaled[1]) & np.isfinite(scaled[2]))
    if not (k0 and far.any()):  # k0 = 0 (the constant) has no divided-through form
        return slopes
    r = 1.0 / (A / k0 + zeta)  # not finite on a pole cell, whose g is finite
    divided = r**2 / A, -2.0 * r**3 / A, 6.0 * r**4 / A
    return tuple(np.where(far, f, d) for f, d in zip(divided, slopes))


# Each family's kernel, its slopes and the factorization branch that generates
# it (None for the constant, whose branch is the caller's).  The compound plus
# kink is generated by A = -sqrt(q/2) and the minus kink by A = +sqrt(q/2):
# this opposite pairing is the unique one under which the Delta -> 0 limit of
# each kink reaches the constant built from the same branch.  The rational
# labels follow A directly.
_FAMILIES = {
    Family.KDVB_REGULAR: (_kdvb_kernel, _kdvb_slopes, Sign.MINUS),
    Family.KDVB_SINGULAR: (_kdvb_kernel, _kdvb_slopes, Sign.PLUS),
    Family.COMPOUND_TANH_PLUS: (_compound_kernel, _compound_slopes, Sign.MINUS),
    Family.COMPOUND_TANH_MINUS: (_compound_kernel, _compound_slopes, Sign.PLUS),
    Family.RATIONAL_PLUS: (_rational_kernel, _rational_slopes, Sign.PLUS),
    Family.RATIONAL_MINUS: (_rational_kernel, _rational_slopes, Sign.MINUS),
    Family.CONSTANT: (_rational_kernel, _rational_slopes, None),
}


def _shifted(sol: WaveSolution, grid, t) -> tuple[np.ndarray, float]:
    """zeta = theta - theta0 on a grid of theta (t None) or of x at times t, and |d zeta/d grid|.

    A zeta that is not finite (a coordinate or time that is infinite or NaN,
    or a map that overflows) is a ParameterDomainError: there is no value
    and no pole flag to give.
    """
    pp = sol.physical
    if t is not None and pp is None:
        raise ParameterDomainError("solution carries no physical coefficients")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if t is None:
            zeta, rate, what = np.asarray(grid) - sol.reduced.theta0, 1.0, "theta - theta0"
        else:
            zeta = to_reduced_coordinate(np.asarray(grid), t, pp)
            rate, what = abs(pp.mu / pp.s), "theta = mu*(x - v*t - xi0)/s"
    zeta = np.asarray(zeta, dtype=complex)
    if not np.isfinite(zeta).all():
        raise ParameterDomainError(f"{what} must be finite at every point")
    return zeta, rate


# Cells evaluate_grid and sweep_rows take through a kernel at once.  A kernel
# call's temporaries peak at 65-80 bytes a cell (numpy 2.4), so at this size
# 100,000 points trace at 47 bytes a point, against 89 in one call.  2**15 is
# the smallest power of two above the largest grid of figure and verify (figure
# 5's 51 x 401 sweep), which so keep one call: taking every grid through the
# blocks cost figure 4 % of its time.
_CELLS_PER_BLOCK = 2**15


def evaluate_grid(
    sol: WaveSolution, grid: np.ndarray, t: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, pole) of a solution on an array of coordinates.

    With ``t`` None, ``grid`` holds reduced coordinates theta and the values
    are U(theta).  Otherwise it holds physical x at the time t, a float, and
    the values are u = to_physical_amplitude(w) at theta =
    to_reduced_coordinate(x, t), with w = U + delta the first-integral
    unknown.  ``pole`` flags the cells within the pole tolerance of a pole;
    their values are NaN + NaN*i.  A coordinate whose theta - theta0 is not
    finite is a ParameterDomainError, and so, where every coordinate is
    finite, is a value that leaves the float range at a cell off the poles.
    A grid of more than _CELLS_PER_BLOCK cells goes through the kernel in
    blocks, so the evaluation holds the values and the mask, 17 bytes a
    cell, and one block's temporaries; the bits are those of one call.
    """
    grid = np.asarray(grid)
    if grid.size <= _CELLS_PER_BLOCK:
        values, pole = _kernel_values(sol, grid, t)
        _finite_off_poles(sol, (values,), pole)
        return values, pole
    cells = grid.reshape(-1)
    return _evaluate_blocks(sol, grid.shape, lambda lo, hi: cells[lo:hi], t)


def _kernel_values(sol: WaveSolution, grid: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """(values, pole) of one kernel call on ``grid``, NaN on the poles; not checked for range."""
    # the shifted coordinate and the kernel's argument are freed before the amplitude map
    values, pole = _FAMILIES[sol.family][0](sol, *_shifted(sol, grid, t))[:2]
    if t is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # checked by the caller
            values = to_physical_amplitude(values + (sol.reduced.delta or 0.0), sol.physical)
    return np.where(pole, _NAN, values), pole


def _evaluate_blocks(sol: WaveSolution, shape: tuple, cells, t) -> tuple[np.ndarray, np.ndarray]:
    """evaluate_grid on a grid of ``shape`` whose cells lo..hi-1 in C order are cells(lo, hi).

    The values are checked once every block is made, so a coordinate that is
    not finite is the error anywhere in the grid, as from one call.
    """
    values, pole = np.empty(shape, complex), np.empty(shape, bool)
    out, flags, size = values.reshape(-1), pole.reshape(-1), values.size
    for lo in range(0, size, _CELLS_PER_BLOCK):
        hi = min(lo + _CELLS_PER_BLOCK, size)
        out[lo:hi], flags[lo:hi] = _kernel_values(sol, cells(lo, hi), t)
    _finite_off_poles(sol, (values,), pole)
    return values, pole


def _at_point(sol: WaveSolution, coordinate, t) -> complex | None:
    # a one-cell grid, not a 0-d array: numpy arithmetic on the 0-d results
    # would take its scalar complex division, a last bit off the grid's
    (value,), (pole,) = evaluate_grid(sol, np.array([coordinate]), t)
    return None if pole else complex(value)


def eval_solution(sol: WaveSolution, theta: complex) -> complex | None:
    """U(theta) at one reduced coordinate: evaluate_grid's cell, bit for bit.

    None where evaluate_grid flags the cell as a pole.
    """
    return _at_point(sol, theta, None)


def eval_solution_physical(sol: WaveSolution, x: float, t: float) -> complex | None:
    """u(x, t) of a physically-anchored solution: evaluate_grid's cell, bit for bit.

    None where evaluate_grid flags the cell as a pole.
    """
    return _at_point(sol, x, t)


def _jet(sol: WaveSolution, grid, t):
    zeta, rate = _shifted(sol, grid, t)
    kernel, slopes, _ = _FAMILIES[sol.family]
    U, pole, argument = kernel(sol, zeta, rate)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        jet = tuple(np.where(pole, _NAN, d)
                    for d in (U + (sol.reduced.delta or 0.0), *slopes(sol, argument)))
    return _finite_off_poles(sol, jet, pole), pole


def _finite_off_poles(sol: WaveSolution, jet: tuple, pole: np.ndarray) -> tuple:
    """``jet``, or a ParameterDomainError where a component is not finite off the poles."""
    if not all((np.isfinite(d) | pole).all() for d in jet):
        raise ParameterDomainError(
            f"the {sol.family.value} solution leaves the float range at a point off the poles")
    return jet


def solution_jet(sol: WaveSolution, theta) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((w, w', w'', w'''), pole) of the first-integral unknown at reduced coordinates.

    w = U + delta for the KdVB families and w = U elsewhere; derivatives are
    in theta.  ``theta`` is an array or a scalar (0-d results).  As in
    evaluate_grid, ``pole`` flags the cells on a pole, and every component
    is NaN + NaN*i there.  A component that leaves the float range at a cell
    off the poles is a ParameterDomainError.
    """
    return _jet(sol, theta, None)


def physical_jet(sol: WaveSolution, x, t) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((u, u_x, u_xx, u_xxx, u_t), pole) at (x, t), by the chain rule on the jet.

    u = to_physical_amplitude(w(theta)) with theta = to_reduced_coordinate(x, t)
    linear in x and t, so the n-th x-derivative carries (mu/s)^n and
    u_t = -v * u_x (travelling wave).  x and t broadcast; u and ``pole``
    equal evaluate_grid's at time t.  As in solution_jet, a component that
    leaves the float range at a cell off the poles is a ParameterDomainError.
    """
    jet, pole = _jet(sol, x, t)  # raises for a solution without physical coefficients
    pp = sol.physical
    m = pp.mu / pp.s
    try:
        scales = [m**n for n in range(4)]
    except OverflowError:
        raise ParameterDomainError(
            f"mu/s = {m!r} leaves the float range of the jet: (mu/s)**3 must be finite") from None
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u, ux, uxx, uxxx = (to_physical_amplitude(d * k, pp) for d, k in zip(jet, scales))
        jet = (u, ux, uxx, uxxx, -pp.v * ux)
    return _finite_off_poles(sol, jet, pole), pole


# ---------------------------------------------------------------------------
# phase sweep


def reduce_kdvb_phase(a):
    """a modulo 10, the period of a KdVB kink in a, where theta0 = i*a*pi.

    fmod is exact, and + 0.0 turns a -0.0 remainder into 0.0; a non-finite a
    passes through.  Takes a float or an array and returns an array.
    """
    with np.errstate(invalid="ignore"):  # fmod(inf, 10), discarded by the where
        return np.where(np.isfinite(a), np.fmod(a, 10.0) + 0.0, a)


def sweep_rows(
    family: Family, a_values: np.ndarray, theta_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(values, pole) of U(theta; theta0 = i*a*pi) over the (a, theta) grid.

    Both arrays have shape (len(a_values), len(theta_grid)), with evaluate_grid's
    contract: pole cells are flagged and hold NaN + NaN*i.  At a = 0 the
    imaginary part vanishes; at a = -5 the regular family equals the singular
    one at real phase (tanh(z - i*pi/2) = coth(z)).  a is reduced by its
    period (reduce_kdvb_phase) before it enters theta0.  A grid of more than
    _CELLS_PER_BLOCK cells goes in blocks, each forming its own theta - theta0.
    """
    a_values = np.asarray(a_values, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size == 0 or a_values.size == 0:
        raise ParameterDomainError("sweep grid must be non-empty")
    theta0 = 1j * math.pi * reduce_kdvb_phase(a_values)
    sol, width = universal_solution(family), theta_grid.size
    if theta0.size * width <= _CELLS_PER_BLOCK:
        return evaluate_grid(sol, theta_grid - theta0[:, None])

    def cells(lo: int, hi: int) -> np.ndarray:
        row, column = np.divmod(np.arange(lo, hi), width)
        return theta_grid[column] - theta0[row]

    return _evaluate_blocks(sol, (theta0.size, width), cells, None)
