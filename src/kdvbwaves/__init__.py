"""Closed-form travelling waves of the KdV-Burgers and compound KdV-Burgers
equations, built through operator factorization of the reduced ODE, with
independent residual and Runge-Kutta verification of every family."""

from importlib import import_module

from .errors import ParameterDomainError
from .factorizer import Family, Sign, factorize_compound, factorize_kdvb
from .params import (
    PhysicalParams,
    ReducedParams,
    reduce,
    to_physical_amplitude,
    to_reduced_coordinate,
)


def __getattr__(name: str):
    # the public names of the two modules that import numpy, resolved on first use
    # (PEP 562), so factorization alone loads neither; verify imports solutions anyway
    if name in __all__:
        for module in ("solutions", "verify"):
            value = getattr(import_module(f".{module}", __name__), name, None)
            if value is not None:
                globals()[name] = value
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Family",
    "ParameterDomainError",
    "PhysicalParams",
    "ReducedParams",
    "Sign",
    "WaveSolution",
    "compound_solution",
    "compound_solution_from_physical",
    "eval_solution",
    "eval_solution_physical",
    "evaluate_grid",
    "factorize_compound",
    "factorize_kdvb",
    "kdvb_solution_from_physical",
    "locked_rational_velocity",
    "physical_jet",
    "rational_solution",
    "rational_solution_from_physical",
    "reduce",
    "residual_pde",
    "solution_jet",
    "sweep_rows",
    "to_physical_amplitude",
    "to_reduced_coordinate",
    "universal_solution",
    "verification_suite",
]
