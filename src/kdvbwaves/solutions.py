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
  existing only on the velocity lock 6p = 1 - 2/q.  Like the kinks in
  tanh, it is evaluated as a polynomial in one argument: U = const - r/A
  with r = 1/(A/k0 + theta).

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

One kernel driver.  Each family's closed form is written once, as its array
kernel, and _evaluate_blocks alone calls the kernels, in blocks of whole rows
of at most _CELLS_PER_KERNEL cells.  Each caller gives the form of a block's
result: evaluate_grid's values (and sweep_rows' over a phase sweep),
solution_jet's (w, w', w'', w''') and physical_jet's chain-rule image.
eval_solution and eval_solution_physical are evaluate_grid at one point.
The independent second spelling, the direct physical formulas with their
own discriminant root (physical_discriminant_root), lives in verify as the
oracle its finite-difference residual samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

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
    reduced = ReducedParams(p=fact.p, q=0.0, delta=fact.delta, k=fact.k, theta0=theta0)
    return WaveSolution(family=family, reduced=reduced, sign=fact.sign)


def kdvb_solution_from_physical(family: Family, params: PhysicalParams) -> WaveSolution:
    """Universal kink whose displacement is fixed by the physical velocity (beta = 0)."""
    if params.beta != 0:
        raise ParameterDomainError("KdVB families require beta = 0; beta != 0 is a compound family")
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
    if not math.isfinite(k0 / fact.A):  # verify's oracle forms the weight -(k0/A)
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
# One kernel per family, on a 2-d block of shifted coordinates zeta = theta -
# theta0.  It returns the values, the pole mask and the family's argument: T =
# tanh or coth for the kinks, r = 1/(A/k0 + zeta) for the rational family (0
# for the constant, its k0 -> 0 limit, and where A/k0 + zeta overflows).  The
# family's slopes differentiate its value polynomial through that argument
# (tanh and coth both satisfy dT/dz = 1 - T^2, and dr/dzeta = -r^2), so the
# jet shares the kernel's argument and pole mask.  ``rate`` = |d zeta / dx| of
# the caller's coordinate widens the pole tolerance in the argument z of
# tanh/coth to POLE_TOL * max(1, |dz/dx|); the rational pole's stays POLE_TOL
# in theta.  Pole cells are computed at a stand-in argument off every pole,
# then overwritten with NaN: nothing divides by 0.

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
    A, k0 = sol.sign.factor * math.sqrt(sol.reduced.q / 2.0), sol.k0
    const = -(A + 1.0) / (6.0 * A * A)
    if not k0:  # the constant, no pole; np.full keeps a const of -0 (q = 2, A = -1)
        return np.full(zeta.shape, const, complex), np.zeros(zeta.shape, bool), np.zeros(zeta.shape)
    with np.errstate(over="ignore"):  # a d that overflows is a far cell, no pole, with r = 0
        d = A / k0 + zeta
    pole = np.abs(d) < POLE_TOL  # absolute in theta whatever the coordinate
    r = 1.0 / np.where(pole, 1.0, d)
    return const - r / A, pole, r


def _rational_slopes(sol: WaveSolution, r: np.ndarray):
    """First three derivatives of const - r/A, with dr/dzeta = -r**2."""
    A, r2 = sol.sign.factor * math.sqrt(sol.reduced.q / 2.0), r * r
    return r2 / A, -2.0 * r * r2 / A, 6.0 * r2 * r2 / A


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
            zeta, rate, what = grid - sol.reduced.theta0, 1.0, "theta - theta0"
        else:
            zeta = to_reduced_coordinate(grid, t, pp)
            rate, what = abs(pp.mu / pp.s), "theta = mu*(x - v*t - xi0)/s"
    zeta = np.asarray(zeta, dtype=complex)
    if not np.isfinite(zeta).all():
        raise ParameterDomainError(f"{what} must be finite at every point")
    return zeta, rate


# Cells a kernel takes in one call.  A block's temporaries (65-80 bytes a
# cell, numpy 2.4) then stay in cache, and an evaluation holds the values and
# the mask, 17 bytes a cell, and one block's temporaries: 10**5 points take
# 7.1 ms and trace at 30 bytes a point.
_CELLS_PER_KERNEL = 2**13


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` as rows of its last axis, a 0-d one as one row of one cell."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1] if a.ndim else 1)


def _evaluate_blocks(sol: WaveSolution, shape: tuple, cells, form) -> tuple[tuple, np.ndarray]:
    """(components, pole) on a grid of ``shape``: the one caller of the kernels.

    Block [r, c] of the grid's _rows has the coordinates and times cells(r, c)
    and the components form(U, argument) of the kernel's values and argument.
    A block is as many whole rows as fit in _CELLS_PER_KERNEL cells, or a piece
    of one longer row, so a cell's bits do not depend on the grid's shape; an
    empty grid is one empty block.  Pole cells are NaN + NaN*i.  The range is
    checked once every block is made, so a coordinate that is not finite is
    the error anywhere in the grid.
    """
    flags, columns, kernel = _rows(np.empty(shape, bool)), (), _FAMILIES[sol.family][0]
    height, width = flags.shape
    per = max(1, _CELLS_PER_KERNEL // max(width, 1))  # rows a block
    for r0 in range(0, max(height, 1), per):
        for c0 in range(0, max(width, 1), _CELLS_PER_KERNEL):
            block = slice(r0, r0 + per), slice(c0, c0 + _CELLS_PER_KERNEL)
            U, flags[block], argument = kernel(sol, *_shifted(sol, *cells(*block)))
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
                parts = form(U, argument)
            columns = columns or tuple(np.empty(flags.shape, complex) for _ in parts)
            for column, part in zip(columns, parts):  # NaN in place: no temporary
                column[block] = part
                column[block][flags[block]] = _NAN
            del U, argument, parts, part  # before the next block's are made
    if not all((np.isfinite(c) | flags).all() for c in columns):
        raise ParameterDomainError(
            f"the {sol.family.value} solution leaves the float range at a point off the poles")
    return tuple(c.reshape(shape) for c in columns), flags.reshape(shape)


def evaluate_grid(
    sol: WaveSolution, grid: np.ndarray, t: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(values, pole) of a solution on an array of coordinates.

    With ``t`` None, ``grid`` holds reduced coordinates theta and the values
    are U(theta).  Otherwise it holds physical x at the time t, a float, and
    the values are u = to_physical_amplitude(w) at theta =
    to_reduced_coordinate(x, t), with w = U + delta the first-integral
    unknown.  ``pole`` flags the cells within the pole tolerance of a pole;
    their values are NaN + NaN*i.  A t that is not 0-d (physical_jet takes
    arrays of times) and a coordinate whose theta - theta0 is not finite are
    a ParameterDomainError, and so, where every coordinate is finite, is a
    value that leaves the float range at a cell off the poles.  The grid
    goes through _evaluate_blocks, a 0-d one as a block of one cell.
    """
    if np.ndim(t):
        raise ParameterDomainError(f"t must be one time; got an array of shape {np.shape(t)}")
    rows, delta = _rows(grid := np.asarray(grid)), sol.reduced.delta or 0.0
    # U + delta in place, so the amplitude map holds no more than the kernel did
    form = (lambda U, _: (U,)) if t is None else lambda U, _: (
        to_physical_amplitude(np.add(U, delta, out=U), sol.physical),)
    (values,), pole = _evaluate_blocks(sol, grid.shape, lambda r, c: (rows[r, c], t), form)
    return values, pole


def eval_solution(sol: WaveSolution, theta: complex) -> complex | None:
    """U(theta) at one reduced coordinate: evaluate_grid's cell, bit for bit.

    None where evaluate_grid flags the cell as a pole.
    """
    value, pole = evaluate_grid(sol, theta)
    return None if pole else complex(value)


def eval_solution_physical(sol: WaveSolution, x: float, t: float) -> complex | None:
    """u(x, t) of a physically-anchored solution: evaluate_grid's cell, bit for bit.

    None where evaluate_grid flags the cell as a pole; t None is a domain error.
    """
    if t is None:
        raise ParameterDomainError("t must be a time, not None")
    value, pole = evaluate_grid(sol, x, t)
    return None if pole else complex(value)


def _jet(sol: WaveSolution, U: np.ndarray, argument) -> tuple[np.ndarray, ...]:
    """solution_jet's form: (w, w', w'', w''') from the kernel's values and argument."""
    return (U + (sol.reduced.delta or 0.0), *_FAMILIES[sol.family][1](sol, argument))


def solution_jet(sol: WaveSolution, theta) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((w, w', w'', w'''), pole) of the first-integral unknown at reduced coordinates.

    w = U + delta for the KdVB families and w = U elsewhere; derivatives are
    in theta.  ``theta`` is an array or a scalar (0-d results).  The jet goes
    through _evaluate_blocks like evaluate_grid's values: w and ``pole`` are its
    U + delta and mask, bit for bit.  A component that leaves the float range
    at a cell off the poles is a ParameterDomainError.
    """
    rows = _rows(theta := np.asarray(theta))
    return _evaluate_blocks(sol, theta.shape, lambda r, c: (rows[r, c], None), partial(_jet, sol))


def physical_jet(sol: WaveSolution, x, t) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """((u, u_x, u_xx, u_xxx, u_t), pole) at (x, t), by the chain rule on the jet.

    u = to_physical_amplitude(w(theta)) with theta = to_reduced_coordinate(x, t)
    linear in x and t, so the n-th x-derivative carries (mu/s)^n and u_t =
    -v * u_x (travelling wave).  x and t broadcast, and their cells go through
    _evaluate_blocks: u and ``pole`` are evaluate_grid's at time t.  A component
    that leaves the float range off the poles, t None, or an x and t that do not
    broadcast is a ParameterDomainError.
    """
    if t is None:
        raise ParameterDomainError("t must be a time, not None")
    try:
        x, t = np.broadcast_arrays(x, t)
    except ValueError:
        raise ParameterDomainError(
            f"x of shape {np.shape(x)} and t of shape {np.shape(t)} do not broadcast") from None
    xs, ts, pp = _rows(x), _rows(t), sol.physical

    def chain_rule(U, argument):  # called once _shifted has found pp
        m = pp.mu / pp.s
        try:
            u, ux, uxx, uxxx = (to_physical_amplitude(d * m**n, pp)
                                for n, d in enumerate(_jet(sol, U, argument)))
        except OverflowError:
            raise ParameterDomainError(f"mu/s = {m!r} leaves the float range of the jet: "
                                       "(mu/s)**3 must be finite") from None
        return u, ux, uxx, uxxx, -pp.v * ux

    return _evaluate_blocks(sol, x.shape, lambda r, c: (xs[r, c], ts[r, c]), chain_rule)


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
    period (reduce_kdvb_phase) before it enters theta0.  Each block of rows
    and columns forms its own theta - theta0.  Both grids must be 1-D and
    non-empty, and every a finite.
    """
    a_values = np.asarray(a_values, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if a_values.ndim != 1 or theta_grid.ndim != 1 or not a_values.size or not theta_grid.size:
        raise ParameterDomainError("sweep grids of a and theta must be 1-D and non-empty")
    if not np.isfinite(a_values).all():  # else i*pi*inf is NaN, with a warning
        raise ParameterDomainError("a must be finite at every point")
    theta0 = 1j * math.pi * reduce_kdvb_phase(a_values)
    (values,), pole = _evaluate_blocks(universal_solution(family), (theta0.size, theta_grid.size),
                                       lambda r, c: (theta_grid[c] - theta0[r, None], None),
                                       lambda U, _: (U,))
    return values, pole
