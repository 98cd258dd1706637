"""The package's one error type.

Any input ends in a finite value, a flagged pole, or a ParameterDomainError.
A pole is part of a singular solution, not a failure: evaluate_grid flags
its cell, and the per-point entry points return None there.  Inputs that
violate a documented precondition (zero coefficients, empty grids, bad
ranges, values that leave the float range) and regimes outside the
implemented theory (q < 0, an oscillatory discriminant) both raise
ParameterDomainError; the CLI reports either as one ``error:`` line and
exit 2.
"""

from __future__ import annotations


class ParameterDomainError(ValueError):
    """The inputs lie outside the domain of the requested operation."""
