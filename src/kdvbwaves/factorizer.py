"""Operator factorization of the reduced travelling-wave ODE.

The once-integrated travelling-wave ODE has the generic form

    w'' - w' + F(w) = 0,        F(w) = p*w - w^2 - q*w^3 - k,

(after moving the integration constant k into F).  Writing the second-order
operator as a product of first-order factors,

    [D - f2(U)] [D - f1(U)] U = 0,        D = d/dtheta,

and expanding, the factorization is consistent with the ODE if and only if

    f1(U) * f2(U) = F(U) / U              (product condition)
    f2(U) + d(f1(U)*U)/dU = 1             (closure condition)

Any solution of the compatible first-order equation U' = f1(U)*U then solves
the full second-order ODE.  Two ansaetze close these conditions:

* KdVB case (q = 0), after a displacement w = U + delta:
      f1 = A*sqrt(U) + B,  f2 = (1 - B) - (3/2)*A*sqrt(U)
  forces A^2 = 2/3, B = 2/5, and the velocity constraint p = 2*delta + 6/25.
  The compatible equation is then a Bernoulli equation.

* compound case (q != 0), with no displacement:
      f1*U = A*U^2 + B*U + C,  f2 = -2*A*U + (1 - B)
  forces A^2 = q/2, B = (A+1)/(3A), C free up to the velocity, and pins the
  integration constant k = C*(1-2A)/(3A).  The compatible equation is a
  Riccati equation.

Both branches of each square root are carried as explicit sign tags; no
implicit sign conventions.  The family tags and the verification scopes sit
beside the sign tag, so the command-line parser reads them without numpy.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ParameterDomainError
from .params import ReducedParams, require_finite


class Sign(enum.Enum):
    """Explicit branch tag for square-root choices."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def factor(self) -> float:
        return 1.0 if self is Sign.PLUS else -1.0


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
# verify's scopes: everything, the factorization, each family, the compound-rational triple
SCOPES = ("all", "factorization", *(fam.value for fam in Family), "compound-rational")


@dataclass(frozen=True)
class KdvbFactorization:
    """Factorization data for the displaced KdVB travelling-wave ODE.

    Satisfies A^2 = 2/3, B = 2/5, p = 2*delta + 6/25, k = p*delta - delta^2.
    The compatible first-order equation is the Bernoulli equation
    U' = A*U^(3/2) + B*U.
    """

    A: float
    B: float
    delta: float
    p: float
    k: float
    sign: Sign

    def f1_at(self, U: complex) -> complex:
        return self.A * cmath.sqrt(U) + self.B

    def f2_at(self, U: complex) -> complex:
        return (1.0 - self.B) - 1.5 * self.A * cmath.sqrt(U)

    def f1U_prime_at(self, U: complex) -> complex:
        """d(f1(U)*U)/dU = (3/2)*A*sqrt(U) + B, exact for this ansatz."""
        return 1.5 * self.A * cmath.sqrt(U) + self.B

    def F_at(self, U: complex) -> complex:
        """Right-hand side of the displaced ODE: F(U) = (p - 2*delta)*U - U^2.

        The displacement absorbs k, so no constant term remains here.
        """
        return (self.p - 2.0 * self.delta) * U - U * U


@dataclass(frozen=True)
class CompoundFactorization:
    """Factorization data for the compound travelling-wave ODE.

    Satisfies A^2 = q/2, B = (A+1)/(3A),
    C = (1/18)*[(2-9p)/A + 1/A^2 - 1/A^3], k = C*(1-2A)/(3A).
    The compatible first-order equation is the Riccati equation
    U' = A*U^2 + B*U + C.
    """

    A: float
    B: float
    C: float
    p: float
    q: float
    k: float
    sign: Sign

    def f1_at(self, U: complex) -> complex:
        if U == 0:
            raise ParameterDomainError("f1 = (A*U^2 + B*U + C)/U is undefined at U = 0")
        return (self.A * U * U + self.B * U + self.C) / U

    def f2_at(self, U: complex) -> complex:
        return -2.0 * self.A * U + (1.0 - self.B)

    def f1U_prime_at(self, U: complex) -> complex:
        """d(f1(U)*U)/dU = 2*A*U + B, exact for this ansatz."""
        return 2.0 * self.A * U + self.B

    def F_at(self, U: complex) -> complex:
        """F(U) = p*U - U^2 - q*U^3 - k with this factorization's own k."""
        return self.p * U - U * U - self.q * U**3 - self.k


def factorize_kdvb(delta: float, sign: Sign) -> KdvbFactorization:
    """Factorize the displaced KdVB ODE for a given displacement.

    delta is a free real parameter; the factorization exists for every value
    and fixes p = 2*delta + 6/25 and k = p*delta - delta^2.  A NaN or
    infinite delta is a ParameterDomainError, and so is a delta whose p or
    k is not finite.
    """
    require_finite(delta=delta)
    A = sign.factor * math.sqrt(2.0 / 3.0)
    B = 2.0 / 5.0
    p = 2.0 * delta + 6.0 / 25.0
    k = p * delta - delta * delta
    if not (math.isfinite(p) and math.isfinite(k)):
        raise ParameterDomainError(
            f"delta = {delta!r} leaves the float range: p = 2*delta + 6/25 and "
            "k = p*delta - delta^2 must be finite")
    return KdvbFactorization(A=A, B=B, delta=delta, p=p, k=k, sign=sign)


def factorize_compound(reduced: ReducedParams, sign: Sign) -> CompoundFactorization:
    """Factorize the compound ODE for given (p, q) and branch sign.

    q = 0 has no cubic term and is rejected; q < 0 would make A imaginary
    and is outside the implemented theory.  A NaN or infinite p or q is a
    ParameterDomainError, and so is a (p, q) whose A**3 underflows to 0 or
    overflows, or whose B, C or k is not finite.
    """
    p, q = reduced.p, reduced.q
    require_finite(p=p, q=q)
    if q == 0:
        raise ParameterDomainError("compound factorization requires q != 0")
    if q < 0:
        raise ParameterDomainError(
            "compound factorization requires q > 0 for a real branch "
            "coefficient; q < 0 (beta*s < 0) is unsupported"
        )
    A = sign.factor * math.sqrt(q / 2.0)
    out_of_range = ParameterDomainError(
        f"p = {p!r}, q = {q!r} leave the float range: A**3 must be nonzero and finite, "
        "and B, C, k finite")
    try:
        cube = A**3
    except OverflowError:
        raise out_of_range from None
    if cube == 0:
        raise out_of_range
    B = (A + 1.0) / (3.0 * A)
    C = ((2.0 - 9.0 * p) / A + 1.0 / A**2 - 1.0 / cube) / 18.0
    k = C * (1.0 - 2.0 * A) / (3.0 * A)
    if not all(map(math.isfinite, (B, C, k))):
        raise out_of_range
    return CompoundFactorization(A=A, B=B, C=C, p=p, q=q, k=k, sign=sign)


@dataclass(frozen=True)
class FactorizationCheck:
    """Max residuals of the two compatibility conditions over a sample set."""

    max_product: float
    max_closure: float
    n_samples: int


def verify_factorization(
    f1_at: Callable[[complex], complex],
    f2_at: Callable[[complex], complex],
    F_at: Callable[[complex], complex],
    f1U_prime_at: Callable[[complex], complex],
    samples: Iterable[complex],
) -> FactorizationCheck:
    """Check the two factorization conditions numerically at sample points.

    Returns the max over samples of |f1(U)*f2(U) - F(U)/U| and of
    |f2(U) + d(f1(U)*U)/dU - 1|.  The derivative must be supplied as a
    closed-form callable (finite differencing is deliberately reserved for
    the independent checks in the verify module).  U = 0 is rejected: the
    product condition divides by U.  A NaN residual makes its maximum NaN,
    so it can never pass a tolerance.
    """
    products: list[float] = []
    closures: list[float] = []
    for U in samples:
        if U == 0:
            raise ParameterDomainError("the product condition divides by U; U = 0 is not a legal sample")
        f2 = f2_at(U)
        products.append(abs(f1_at(U) * f2 - F_at(U) / U))
        closures.append(abs(f2 + f1U_prime_at(U) - 1.0))
    if not products:
        raise ParameterDomainError("empty sample set")
    return FactorizationCheck(max_product=_max_residual(products),
                              max_closure=_max_residual(closures), n_samples=len(products))


def _max_residual(residuals: list[float]) -> float:
    """Largest residual, or NaN if any residual is NaN (max() keeps a NaN only in front)."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)
