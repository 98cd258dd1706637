"""Closed-form travelling waves of the KdV-Burgers and compound KdV-Burgers
equations, built through operator factorization of the reduced ODE, with
independent residual and Runge-Kutta verification of every family."""

from importlib import import_module

from .errors import ParameterDomainError, PoleError, UnsupportedDomainError
from .factorizer import (
    CompoundFactorization,
    Sign,
    factorize_compound,
    factorize_kdvb,
    verify_factorization,
)
from .params import (
    PhysicalParams,
    ReducedParams,
    reduce,
    to_physical_amplitude,
    to_reduced_coordinate,
)

# public name -> its module, for the two modules that import numpy: __getattr__
# imports the module on the name's first use (PEP 562), so factorization alone loads neither
_LAZY = dict.fromkeys((
    "Family", "WaveSolution", "compound_discriminant_root", "compound_solution",
    "compound_solution_from_physical", "constant_solution", "eval_solution",
    "eval_solution_physical", "evaluate_grid", "kdvb_solution_from_physical",
    "locked_rational_velocity", "physical_jet", "rational_solution",
    "rational_solution_from_physical", "solution_jet", "sweep_rows", "universal_solution",
), "solutions") | dict.fromkeys((
    "EquationTag", "ResidualReport", "check_first_integral_consistency",
    "oracle_integrate_bernoulli", "oracle_integrate_riccati", "rational_form_audit",
    "residual_first_integral", "residual_pde", "verification_suite",
), "verify")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "CompoundFactorization",
    "EquationTag",
    "Family",
    "ParameterDomainError",
    "PhysicalParams",
    "PoleError",
    "ReducedParams",
    "ResidualReport",
    "Sign",
    "UnsupportedDomainError",
    "WaveSolution",
    "check_first_integral_consistency",
    "compound_discriminant_root",
    "compound_solution",
    "compound_solution_from_physical",
    "constant_solution",
    "eval_solution",
    "eval_solution_physical",
    "evaluate_grid",
    "factorize_compound",
    "factorize_kdvb",
    "kdvb_solution_from_physical",
    "locked_rational_velocity",
    "oracle_integrate_bernoulli",
    "oracle_integrate_riccati",
    "physical_jet",
    "rational_form_audit",
    "rational_solution",
    "rational_solution_from_physical",
    "reduce",
    "residual_first_integral",
    "residual_pde",
    "solution_jet",
    "sweep_rows",
    "to_physical_amplitude",
    "to_reduced_coordinate",
    "universal_solution",
    "verification_suite",
    "verify_factorization",
]
