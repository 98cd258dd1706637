"""Coefficient models and the exact physical <-> reduced transformations.

The two PDEs handled by this package are, in physical variables,

    u_t = s*u_xxx - mu*u_xx - alpha*u*u_x              (KdV-Burgers)
    u_t = s*u_xxx - mu*u_xx - alpha*u*u_x - beta*u^2*u_x   (compound)

A travelling-wave ansatz u(x, t) = phi(xi), xi = x - v*t, followed by the
linear rescaling

    xi  = (s/mu) * theta
    phi = (2*mu^2 / (alpha*s)) * w(theta)

turns either PDE into a second-order autonomous ODE for w(theta) whose
coefficients depend only on

    p = v*s/mu^2        (rescaled velocity)
    q = 4*beta*mu^2 / (3*s*alpha^2)   (rescaled cubic coefficient)

Once integrated, that ODE reads  w'' - w' + (p*w - w^2 - q*w^3) = k  with an
integration constant k.  This module owns the transformations; the constant
k and the displacement delta are filled in by the factorizer.

Phase constants are stored as complex numbers throughout: purely imaginary
phases are legal and generate genuinely new (complex-valued) solution
families, so restricting to real phases in the type would be wrong.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .errors import ParameterDomainError


def _finite(v: complex) -> bool:
    try:
        return cmath.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def require_finite(**values: complex | None) -> None:
    """Raise ParameterDomainError naming every value that is NaN, infinite or an int
    beyond the float range (None passes)."""
    bad = [name for name, v in values.items() if v is not None and not _finite(v)]
    if bad:
        raise ParameterDomainError(f"{', '.join(bad)} must be finite")


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the physical PDE plus wave velocity and phase.

    beta == 0 selects the plain KdV-Burgers equation; s, mu and alpha must
    be nonzero for the reduction to exist.  Every field must be finite, and
    every one but the phase xi0 real.
    """

    s: float
    mu: float
    alpha: float
    beta: float
    v: float
    xi0: complex = 0j

    def __post_init__(self) -> None:
        for name in ("s", "mu", "alpha", "beta", "v"):
            value = getattr(self, name)
            if isinstance(value, numbers.Complex) and not isinstance(value, numbers.Real):
                raise ParameterDomainError(f"{name} must be real; got {value!r}")
        require_finite(s=self.s, mu=self.mu, alpha=self.alpha, beta=self.beta, v=self.v,
                       xi0=self.xi0)
        if self.s == 0:
            raise ParameterDomainError("dispersion coefficient s must be nonzero")
        if self.mu == 0:
            raise ParameterDomainError("dissipation coefficient mu must be nonzero")
        if self.alpha == 0:
            raise ParameterDomainError("quadratic coefficient alpha must be nonzero")


@dataclass(frozen=True)
class ReducedParams:
    """Rescaled ODE coefficients.

    delta and k are None until a factorization fixes them (KdVB case) or are
    set directly from the compound-case constraint.  q == 0 is a legal state
    (plain KdVB); operations that need q != 0 must check it themselves.
    """

    p: float
    q: float
    delta: float | None = None
    k: float | None = None
    theta0: complex = 0j


def reduce(params: PhysicalParams) -> ReducedParams:
    """Map physical coefficients to reduced ODE coefficients.

    p = v*s/mu^2, q = 4*beta*mu^2/(3*s*alpha^2), theta0 = mu*xi0/s.
    delta and k are left unset.  Coefficients whose p, q, theta0 or
    amplitude factor 2*mu^2/(alpha*s) (to_physical_amplitude's) leaves the
    float range (a square that overflows, or mu^2 or s*alpha^2 that
    underflows to 0) are a ParameterDomainError.
    """
    try:
        p = params.v * params.s / params.mu**2
        q = 4.0 * params.beta * params.mu**2 / (3.0 * params.s * params.alpha**2)
        amplitude = 2.0 * params.mu**2 / (params.alpha * params.s)
    except (OverflowError, ZeroDivisionError):
        p = q = amplitude = math.nan
    theta0 = params.mu * params.xi0 / params.s
    if not all(map(cmath.isfinite, (p, q, amplitude, theta0))):
        raise ParameterDomainError(
            f"s = {params.s!r}, mu = {params.mu!r}, alpha = {params.alpha!r} leave the float "
            "range: p = v*s/mu^2, q = 4*beta*mu^2/(3*s*alpha^2), theta0 = mu*xi0/s and "
            "the amplitude 2*mu^2/(alpha*s) must be finite")
    return ReducedParams(p=p, q=q, theta0=theta0)


def to_physical_amplitude(w: complex, params: PhysicalParams) -> complex:
    """Amplitude map reduced -> physical: phi = (2*mu^2/(alpha*s)) * w."""
    return (2.0 * params.mu**2 / (params.alpha * params.s)) * w


def to_reduced_coordinate(x: float, t: float, params: PhysicalParams) -> complex:
    """Coordinate map physical -> reduced: theta = mu*(x - v*t - xi0)/s.

    The result is complex whenever xi0 carries an imaginary part; the
    imaginary phase passes through linearly.
    """
    return params.mu * (x - params.v * t - params.xi0) / params.s
