"""Error types shared across the package.

Three failure modes are distinguished so callers (and the CLI exit-code
mapping) can react differently:

* ``ParameterDomainError``   -- inputs violate a documented precondition
  (zero coefficients, empty grids, bad ranges).
* ``UnsupportedDomainError`` -- inputs are mathematically meaningful but
  outside the implemented theory (q < 0, oscillatory discriminant).
* ``PoleError``              -- a per-point evaluation (eval_solution,
  eval_solution_physical) landed on (or numerically at) a pole of a
  singular closed form; carries the coordinate evaluated.  Nothing else
  raises it: array evaluation flags a pole cell instead.
"""

from __future__ import annotations


class ParameterDomainError(ValueError):
    """A parameter violates a precondition of the requested operation."""


class UnsupportedDomainError(ValueError):
    """The parameter regime is outside the implemented solution theory."""


class PoleError(ArithmeticError):
    """Evaluation requested at (or numerically on top of) a pole.

    Attributes
    ----------
    location : complex
        The coordinate evaluated, in the variable the caller used (reduced
        theta for eval_solution, physical x for eval_solution_physical),
        which lies within the pole tolerance of the pole.
    """

    def __init__(self, message: str, location: complex):
        super().__init__(message)
        self.location = location
