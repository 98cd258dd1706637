"""Per-layer probes: direct, timed calls of the package's public functions on
fixed inputs, so each layer's cost per unit of work is measured the same way
on every workload.

Each probe returns its value in the metric's unit, scaled to the reference
speed (speed.py).  A probe whose public
name no longer exists, or no longer takes these arguments, raises
AttributeError or TypeError; ``run_all`` then reports that metric as missing
instead of aborting the run.
"""

from __future__ import annotations

import statistics

import numpy as np

import speed

REPEATS = 5


def _median_ns_per_unit(call, units: int, repeats: int = REPEATS) -> float:
    """Median time of ``call`` per unit of work in ns, at the reference speed."""
    times = []
    for _ in range(repeats):
        with speed.Meter() as meter:
            call()
        times.append(meter.seconds)
    return statistics.median(times) * 1e9 / units


def _median_s(call, repeats: int) -> float:
    return _median_ns_per_unit(call, 1, repeats) / 1e9


def build(kdvbwaves) -> dict:
    """name -> (unit, zero-argument probe) for the given package."""
    S, P, F, V = kdvbwaves.solutions, kdvbwaves.params, kdvbwaves.factorizer, kdvbwaves.verify
    Family, Sign = S.Family, F.Sign
    kdvb = P.PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
    compound = P.PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-0.04)
    locked = P.PhysicalParams(
        s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=S.locked_rational_velocity(compound)
    )
    physical = {
        "kdvb-regular": S.kdvb_solution_from_physical(Family.KDVB_REGULAR, kdvb),
        "kdvb-singular": S.kdvb_solution_from_physical(Family.KDVB_SINGULAR, kdvb),
        "compound-tanh-plus": S.compound_solution_from_physical(Family.COMPOUND_TANH_PLUS, compound),
        "rational-plus": S.rational_solution_from_physical(Family.RATIONAL_PLUS, locked, 1.0),
    }
    reduced = dict(physical)
    reduced["kdvb-regular"] = S.universal_solution(Family.KDVB_REGULAR, theta0=-2.5j * np.pi)
    # grids offset by a fraction of a step so that no node lands on a pole
    thetas = [float(v) for v in np.linspace(-40.0, 40.0, 2000) + 0.0123]
    xs = [float(v) for v in np.linspace(-30.0, 30.0, 2000) + 0.0123]
    t = 0.3

    probes: dict[str, tuple[str, object]] = {}
    for fam, sol in reduced.items():
        probes[f"solutions.eval_ns_per_pt.{fam}"] = (
            "ns/pt", lambda sol=sol: _median_ns_per_unit(
                lambda: [S.eval_solution(sol, th) for th in thetas], len(thetas)))
    for fam, sol in physical.items():
        probes[f"solutions.eval_physical_ns_per_pt.{fam}"] = (
            "ns/pt", lambda sol=sol: _median_ns_per_unit(
                lambda: [S.eval_solution_physical(sol, x, t) for x in xs], len(xs)))
    probes["solutions.jet_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: [S.solution_jet(sol, th) for sol in reduced.values() for th in thetas[::4]],
        len(reduced) * len(thetas[::4])))
    probes["solutions.physical_jet_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: [S.physical_jet(sol, x, t) for sol in physical.values() for x in xs[::4]],
        len(physical) * len(xs[::4])))
    a_values, sweep_thetas = np.linspace(-5.0, 0.0, 11), np.linspace(-40.0, 40.0, 201)
    probes["solutions.sweep_ns_per_cell"] = ("ns/cell", lambda: _median_ns_per_unit(
        lambda: S.sweep_rows(Family.KDVB_REGULAR, a_values, sweep_thetas),
        a_values.size * sweep_thetas.size))
    many_xs = xs * 10
    probes["params.to_reduced_coordinate_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: [P.to_reduced_coordinate(x, t, compound) for x in many_xs], len(many_xs)))

    fact = F.factorize_compound(reduced["compound-tanh-plus"].reduced, Sign.MINUS)
    samples = [complex(a, b) for a, b in zip(np.linspace(-3.0, 3.0, 2000), np.linspace(2.9, -3.1, 2000))]
    probes["factorizer.conditions_ns_per_sample"] = ("ns/sample", lambda: _median_ns_per_unit(
        lambda: F.verify_factorization(fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, samples),
        len(samples)))

    sol = reduced["compound-tanh-plus"]
    riccati = F.factorize_compound(sol.reduced, sol.sign)

    def rk4() -> float:
        u0 = S.eval_solution(sol, 0.0)
        steps = len(V.oracle_integrate_riccati(riccati, u0, (0.0, 10.0), 0.005).thetas) - 1
        return _median_ns_per_unit(
            lambda: V.oracle_integrate_riccati(riccati, u0, (0.0, 10.0), 0.005), steps)

    probes["verify.rk4_ns_per_step"] = ("ns/step", rk4)
    probes["verify.first_integral_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: V.residual_first_integral(sol, thetas), len(thetas)))
    probes["verify.consistency_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: V.check_first_integral_consistency(sol, thetas), len(thetas)))
    xt = [(x, t) for x in xs]
    probes["verify.pde_fd_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: V.residual_pde(sol, xt[::5], h=1e-3, mode="fd"), len(xt[::5])))
    probes["verify.pde_analytic_ns_per_pt"] = ("ns/pt", lambda: _median_ns_per_unit(
        lambda: V.residual_pde(sol, xt, mode="analytic"), len(xt)))
    for scope in ("all", "compound-rational"):
        probes[f"verify.suite_s.{scope}"] = ("s", lambda scope=scope: _median_s(
            lambda: V.verification_suite(scope=scope), 3))
    return probes


def run_all(kdvbwaves) -> tuple[dict, dict]:
    """Run every probe; returns (metrics, missing) where missing maps a
    metric name to the reason it could not be measured."""
    metrics, missing = {}, {}
    try:
        probes = build(kdvbwaves)
    except (AttributeError, TypeError) as exc:
        return metrics, {"probes": f"probe set-up failed: {exc}"}
    for name, (unit, probe) in probes.items():
        try:
            metrics[name] = {"value": probe(), "unit": unit}
        except (AttributeError, TypeError) as exc:
            missing[name] = str(exc)
    return metrics, missing
