"""Command-line front end.

Subcommands:

* factorize -- coefficient report for a factorization, with the two
  compatibility conditions re-measured on a sample grid.
* evaluate  -- sample one solution family onto a theta grid (reduced mode)
  or an x grid at fixed t (physical mode), as CSV or JSON.
* sweep     -- sample the complex-phase surface U(theta; i*a*pi) over a
  rectangle of (a, theta).
* verify    -- run the named verification checks and exit nonzero when any
  residual exceeds its tolerance.
* figure    -- reproduce the data behind one of the seven published plots
  from the frozen manifest (figures.json next to this module).

evaluate, sweep and figure build a WaveSolution with the constructors of
the solutions module, evaluate it on the whole grid in one evaluate_grid
call, and write the table through one column writer (_render).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
Output is deterministic: fixed grids, no timestamps, floats printed with 17
significant digits in CSV, shortest round-trip form in JSON.  Values on a
pole are emitted as empty cells (CSV) or nulls (JSON) with pole_flag=1.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError, PoleError, UnsupportedDomainError
from .factorizer import Sign, factorize_compound, factorize_kdvb, verify_factorization
from .params import PhysicalParams, ReducedParams
from .solutions import (
    Family,
    PhaseSweep,
    SweepSurface,
    WaveSolution,
    compound_solution,
    compound_solution_from_physical,
    evaluate_grid,
    kdvb_solution_from_physical,
    rational_solution,
    rational_solution_from_physical,
    sweep_rows,
    universal_solution,
)
from .verify import SCOPES, verification_suite

_KDVB = (Family.KDVB_REGULAR, Family.KDVB_SINGULAR)
_COMPOUND = (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS)


def _render(names: list[str], columns: list[np.ndarray], pole: np.ndarray, fmt: str) -> str:
    """CSV or JSON table of ``columns`` (coordinates ``names``, re_u, im_u) plus pole_flag.

    Byte for byte format(value, ".17g") per CSV cell, or json.dumps(rows, indent=2),
    from one %-format over all cells; "%.0s" swallows the NaN values of pole rows.
    """
    keys = [*names, "re_u", "im_u", "pole_flag"]
    flat = np.column_stack(columns).ravel()
    cells = flat.tolist()
    if fmt == "json":
        for i in np.flatnonzero(~np.isfinite(flat)):
            cells[i] = json.dumps(cells[i])  # NaN and Infinity as json spells them
        value, empty = "%s", "null%.0s"
    else:
        value, empty = "%.17g", "%.0s"
    ok = [value] * (len(names) + 2) + ["0"]
    bad = [value] * len(names) + [empty, empty, "1"]
    if fmt == "json":
        ok, bad = ("  {" + ",".join(f'\n    "{k}": {c}' for k, c in zip(keys, row)) + "\n  }"
                   for row in (ok, bad))
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        ok, bad = ",".join(ok), ",".join(bad)
        head, sep, tail = ",".join(keys) + "\n", "\n", "\n"
    rows = [ok] * len(pole)
    for i in np.flatnonzero(pole):
        rows[i] = bad
    return head + sep.join(rows) % tuple(cells) + tail


def _emit(text: str, output: str | Path | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _grid(lo: float, hi: float, steps: int | None, name: str) -> np.ndarray:
    if steps is None or steps < 1:
        raise ParameterDomainError(f"--{name}-steps must request at least one grid point")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterDomainError(f"--{name}-min and --{name}-max must be finite")
    return np.linspace(lo, hi, steps)


def _emit_profile(names: list[str], coords: list[np.ndarray], sol: WaveSolution,
                  t: float | None, fmt: str, output: str | Path | None) -> None:
    """Evaluate ``sol`` on coords[0] (theta, or x at time t) and write the table."""
    values, pole = evaluate_grid(sol, coords[0], t)
    _emit(_render(names, [*coords, values.real, values.imag], pole, fmt), output)


def _emit_sweep(surface: SweepSurface, fmt: str, output: str | Path | None) -> None:
    a, theta = np.meshgrid(surface.a_values, surface.theta, indexing="ij")
    columns = [a.ravel(), theta.ravel(), surface.re.ravel(), surface.im.ravel()]
    _emit(_render(["a", "theta"], columns, surface.pole.ravel(), fmt), output)


# ---------------------------------------------------------------------------
# factorize


def cmd_factorize(args: argparse.Namespace) -> int:
    sign = Sign(args.sign)
    if args.eq == "kdvb":
        fact = factorize_kdvb(args.delta, sign)
        samples: list[complex] = list(np.linspace(0.05, 9.95, 64))
        report: dict[str, object] = {
            "equation": "kdvb",
            "sign": sign.value,
            "delta": args.delta,
            "A": fact.A,
            "B": fact.B,
            "p": fact.p,
            "k": fact.k,
        }
    else:
        if args.q is None:
            raise ParameterDomainError("compound factorization requires q != 0 (pass --q)")
        fact = factorize_compound(ReducedParams(p=args.p, q=args.q), sign)
        samples = [
            complex(a, b)
            for a in np.linspace(-3.0, 3.0, 8)
            for b in np.linspace(-3.0, 3.0, 8)
            if abs(complex(a, b)) > 1e-3
        ]
        report = {
            "equation": "compound",
            "sign": sign.value,
            "p": args.p,
            "q": args.q,
            "A": fact.A,
            "B": fact.B,
            "C": fact.C,
            "k": fact.k,
        }
    check = verify_factorization(fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, samples)
    report["product_condition_max_residual"] = check.max_product
    report["closure_condition_max_residual"] = check.max_closure
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    head = f"factorization of the {args.eq} reduction (branch {sign.value}"
    head += f", delta = {args.delta!r})" if args.eq == "kdvb" else f", p = {args.p!r}, q = {args.q!r})"
    print(head)
    for key in ("A", "B", "C", "p", "q", "delta", "k"):
        if key in report:
            print(f"  {key} = {report[key]!r}")
    print(f"  product condition |f1*f2 - F(U)/U|   max residual = {check.max_product:.3e}")
    print(f"  closure condition |f2 + d(f1*U)/dU - 1| max residual = {check.max_closure:.3e}")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _reduced_solution(args: argparse.Namespace, fam: Family) -> WaveSolution:
    theta0 = complex(0.0, args.phase_a * math.pi)
    if fam in _KDVB:
        return universal_solution(fam, theta0=theta0)
    if fam in _COMPOUND:
        if args.p is None or args.q is None:
            raise ParameterDomainError("compound families need --p and --q")
        return compound_solution(fam, args.p, args.q, theta0=theta0)
    if args.q is None:
        raise ParameterDomainError("rational families need --q")
    return rational_solution(fam, args.q, args.k0, sign=Sign(args.branch))


def _physical_coefficients(args: argparse.Namespace) -> PhysicalParams:
    missing = [name for name in ("s", "mu", "alpha", "v") if getattr(args, name) is None]
    if missing:
        flags = ", ".join(f"--{name}" for name in missing)
        raise ParameterDomainError(f"physical mode needs {flags}")
    return PhysicalParams(
        s=args.s, mu=args.mu, alpha=args.alpha, beta=args.beta, v=args.v, xi0=complex(args.xi0)
    )


def _physical_solution(
    fam: Family, params: PhysicalParams, k0: float = 0.0, sign: Sign = Sign.PLUS
) -> WaveSolution:
    if fam in _KDVB:
        return kdvb_solution_from_physical(fam, params)
    if fam in _COMPOUND:
        return compound_solution_from_physical(fam, params)
    return rational_solution_from_physical(fam, params, k0, sign)


def cmd_evaluate(args: argparse.Namespace) -> int:
    fam = Family(args.family)
    has_theta = any(v is not None for v in (args.theta_min, args.theta_max, args.theta_steps))
    has_x = any(v is not None for v in (args.x_min, args.x_max, args.x_steps))
    if has_theta == has_x:
        raise ParameterDomainError(
            "specify exactly one grid: --theta-min/--theta-max/--theta-steps "
            "(reduced mode) or --x-min/--x-max/--x-steps (physical mode)"
        )
    if has_theta:
        if args.theta_min is None or args.theta_max is None:
            raise ParameterDomainError("reduced mode needs --theta-min and --theta-max")
        grid = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
        sol = _reduced_solution(args, fam)
        _emit_profile(["theta"], [grid], sol, None, args.format, args.output)
    else:
        if args.x_min is None or args.x_max is None:
            raise ParameterDomainError("physical mode needs --x-min and --x-max")
        grid = _grid(args.x_min, args.x_max, args.x_steps, "x")
        sol = _physical_solution(fam, _physical_coefficients(args), args.k0, Sign(args.branch))
        coords = [grid, np.full(grid.size, args.t)]
        _emit_profile(["x", "t"], coords, sol, args.t, args.format, args.output)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    fam = Family(args.family)
    if fam not in _KDVB:
        raise ParameterDomainError("the phase sweep is defined for the kdvb families")
    a_values = _grid(args.a_min, args.a_max, args.a_steps, "a")
    if a_values.size > 1:
        PhaseSweep(args.a_min, args.a_max, a_values.size)  # checks a_min < a_max
    elif args.a_min != args.a_max:
        raise ParameterDomainError("a single-row sweep needs --a-min == --a-max")
    theta_grid = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
    _emit_sweep(sweep_rows(fam, a_values, theta_grid), args.format, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    result = verification_suite(scope=args.scope, tolerance=args.tolerance, perturb=args.perturb)
    width = max(len(c.name) for c in result.checks) if result.checks else 0
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"CHECK {c.name:<{width}}  max_abs={c.max_abs:.6e}  tol={c.tol:.1e}  {status}")
        if c.detail and not c.passed:
            print(f"      {c.detail}")
    for f in result.audit:
        print(f"AUDIT {f.name}: {f.verdict}  measured={f.measured:.6e}")
        print(f"      {f.detail}")
    n = len(result.checks)
    n_pass = sum(1 for c in result.checks if c.passed)
    print(f"SUMMARY {n} checks, {n_pass} passed, {n - n_pass} failed")
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# figure


def _load_manifest(path: str | None) -> dict:
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
    else:
        text = resources.files("kdvbwaves").joinpath("figures.json").read_text(encoding="utf-8")
    return json.loads(text)


def cmd_figure(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args.manifest)
    key = str(args.figure)
    if key not in manifest:
        raise ParameterDomainError(f"figure {key!r} is not in the manifest")
    entry = manifest[key]
    fam = Family(entry["family"])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if entry["command"] == "sweep":
        sweep = PhaseSweep(entry["a_min"], entry["a_max"], entry["a_steps"])
        theta_grid = np.linspace(entry["theta_min"], entry["theta_max"], entry["theta_steps"])
        written.append(outdir / entry["output"])
        _emit_sweep(sweep_rows(fam, sweep.a_values(), theta_grid), "csv", written[-1])
    elif "curves" in entry:
        coeff = entry["coefficients"]
        grid = np.linspace(entry["x_min"], entry["x_max"], entry["x_steps"])
        coords = [grid, np.full(grid.size, entry["t"])]
        for curve in entry["curves"]:
            params = PhysicalParams(
                s=coeff["s"], mu=coeff["mu"], alpha=coeff["alpha"], beta=coeff["beta"],
                v=curve["v"], xi0=complex(coeff.get("xi0", 0.0)),
            )
            written.append(outdir / entry["output"].replace("{label}", curve["label"]))
            sol = _physical_solution(fam, params)
            _emit_profile(["x", "t"], coords, sol, entry["t"], "csv", written[-1])
    else:
        sol = universal_solution(fam, theta0=complex(0.0, entry["phase_a"] * math.pi))
        grid = np.linspace(entry["theta_min"], entry["theta_max"], entry["theta_steps"])
        written.append(outdir / entry["output"])
        _emit_profile(["theta"], [grid], sol, None, "csv", written[-1])

    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdvbwaves",
        description="closed-form travelling waves of the (compound) KdV-Burgers equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factorize", help="coefficient report for a factorization")
    f.add_argument("--eq", choices=("kdvb", "compound"), required=True)
    f.add_argument("--sign", choices=("plus", "minus"), default="minus")
    f.add_argument("--delta", type=float, default=0.0, help="displacement (kdvb only)")
    f.add_argument("--p", type=float, default=0.0)
    f.add_argument("--q", type=float, default=None)
    f.add_argument("--format", choices=("text", "json"), default="text")
    f.set_defaults(func=cmd_factorize)

    e = sub.add_parser("evaluate", help="sample a solution family onto a grid")
    e.add_argument("--family", choices=[fam.value for fam in Family], required=True)
    e.add_argument("--theta-min", type=float, default=None)
    e.add_argument("--theta-max", type=float, default=None)
    e.add_argument("--theta-steps", type=int, default=None)
    e.add_argument("--phase-a", type=float, default=0.0,
                   help="imaginary phase constant: theta0 = i*a*pi (reduced mode)")
    e.add_argument("--p", type=float, default=None)
    e.add_argument("--q", type=float, default=None)
    e.add_argument("--k0", type=float, default=0.0)
    e.add_argument("--branch", choices=("plus", "minus"), default="plus",
                   help="A-branch for the constant family")
    e.add_argument("--x-min", type=float, default=None)
    e.add_argument("--x-max", type=float, default=None)
    e.add_argument("--x-steps", type=int, default=None)
    e.add_argument("--t", type=float, default=0.0)
    e.add_argument("--s", type=float, default=None)
    e.add_argument("--mu", type=float, default=None)
    e.add_argument("--alpha", type=float, default=None)
    e.add_argument("--beta", type=float, default=0.0)
    e.add_argument("--v", type=float, default=None)
    e.add_argument("--xi0", type=float, default=0.0)
    e.add_argument("--format", choices=("csv", "json"), default="csv")
    e.add_argument("--output", default=None, help="output path (default: stdout)")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("sweep", help="sample the complex-phase surface")
    s.add_argument("--family", choices=[fam.value for fam in _KDVB], default="kdvb-regular")
    s.add_argument("--a-min", type=float, required=True)
    s.add_argument("--a-max", type=float, required=True)
    s.add_argument("--a-steps", type=int, required=True)
    s.add_argument("--theta-min", type=float, required=True)
    s.add_argument("--theta-max", type=float, required=True)
    s.add_argument("--theta-steps", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--output", default=None)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--scope", choices=SCOPES, default="all")
    v.add_argument("--tolerance", type=float, default=None,
                   help="override every check threshold at once")
    v.add_argument("--perturb", type=float, default=0.0,
                   help="scale closed forms by 1+perturb (negative control)")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("figure", help="reproduce the data behind a published figure")
    g.add_argument("figure", type=int, choices=range(1, 8), metavar="N",
                   help="figure id, 1-7")
    g.add_argument("--manifest", default=None, help="override the packaged manifest")
    g.add_argument("--outdir", default=".", help="directory for the output files")
    g.set_defaults(func=cmd_figure)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterDomainError, UnsupportedDomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
