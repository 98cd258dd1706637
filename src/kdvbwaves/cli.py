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
call, and write the table through one column writer (_render).  The writer
formats a repeated value once: a coordinate column made of few runs of one
bit pattern (the physical t column, the sweep's a column) once per run, a
tiled coordinate column (the sweep's theta column: its first p bit patterns
repeat in every following block, 4 * p < n, p divides n) once per element of
the block, and a value column that holds one bit pattern on every non-pole
row (im_u of a real profile) once.  Every other cell goes through one
%-format.  The choice is made from the table itself and never changes the
bytes written.  A table with at least 2 * 2**14 cells left to format, in a
process allowed on two or more CPUs, is filled in contiguous row blocks: one
block per CPU and at most one per 2**14 cells, the first formatted by the
process itself and each other by a forked child that sends its UTF-8 back
through a pipe (_fill).  Every row template takes the same number of cells,
so the blocks joined by the row separator are the one-call text; a block
whose child fails or cannot start is formatted by the parent, and every
child is reaped before the table is returned.  The table travels as those
UTF-8 blocks, with the header, the separators and the tail between them: a
child's block stays as read from its pipe, the parent encodes its own once,
and no whole-table string or bytes is built (_emit writes the blocks in
order).  At its peak the parent holds the table's cells, its own block as a
string and as bytes, and the other blocks as bytes: about twice the size of
the output.  figure renders all of its files before it writes the first
one, so a malformed manifest leaves no file behind.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error, 141 when
the reader closes stdout early (128 + SIGPIPE; nothing is printed).
Output is deterministic: fixed grids, no timestamps, floats printed with 17
significant digits in CSV, shortest round-trip form in JSON.  Values on a
pole are emitted as empty cells (CSV) or nulls (JSON) with pole_flag=1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError, PoleError, UnsupportedDomainError
from .factorizer import Sign, factorize_compound, factorize_kdvb, verify_factorization
from .params import PhysicalParams, ReducedParams
from .solutions import (
    _COMPOUND_FAMILIES,
    _KDVB_FAMILIES,
    Family,
    PhaseSweep,
    WaveSolution,
    compound_solution,
    compound_solution_from_physical,
    evaluate_grid,
    kdvb_solution_from_physical,
    rational_solution,
    rational_solution_from_physical,
    reduce_kdvb_phase,
    sweep_rows,
    universal_solution,
)
from .verify import SCOPES, verification_suite


def _run_starts(column: np.ndarray) -> np.ndarray:
    """Index of the first row of each run of one bit pattern in ``column``."""
    bits = column.view(np.uint64)
    return np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))


def _tile(column: np.ndarray) -> int:
    """Length p of the block that ``column`` repeats bit for bit, or 0.

    p is the first row after row 0 with row 0's bit pattern; the column is
    tiled when 4 * p < n, p divides n and every block of p rows equals the
    first.  A column without a repeat of row 0 (a linspace) stops at the
    first test.
    """
    bits = column.view(np.uint64)
    n = bits.size
    hit = np.flatnonzero(bits[1:] == bits[0])
    p = int(hit[0]) + 1 if hit.size else n
    if 4 * p >= n or n % p or not (bits.reshape(-1, p) == bits[:p]).all():
        return 0
    return p


def _render(names: list[str], columns: list[np.ndarray], pole: np.ndarray,
            fmt: str) -> list[bytes]:
    """CSV or JSON table of ``columns`` (coordinates ``names``, re_u, im_u) plus pole_flag.

    Returned as UTF-8 blocks [head, block, sep, block, ..., tail] (see _fill)
    that joined are byte for byte format(value, ".17g") per CSV cell, or
    json.dumps(rows, indent=2).
    A repeated value is formatted once: a coordinate column with fewer runs of
    one bit pattern than a quarter of the rows (written into the row templates,
    one template pair per run), a tiled coordinate column (see _tile; its p
    strings go in as %s cells), and a value column that holds one bit pattern
    on every non-pole row (written into the templates).  The other cells go
    through one %-format; "%.0s" swallows the NaN values of pole rows.
    """
    n, m = len(pole), len(names)
    keys = [*names, "re_u", "im_u", "pole_flag"]
    if fmt == "json":
        text, value, empty, null = json.dumps, "%s", "null%.0s", "null"
    else:
        text, value, empty, null = (lambda v: format(v, ".17g")), "%.17g", "%.0s", ""
    runs = {j: s for j, s in enumerate(map(_run_starts, columns[:m])) if 4 * s.size < n}
    tiles = {j: p for j in range(m) if j not in runs and (p := _tile(columns[j]))}
    constant: dict[int, str] = {}
    for j in (m, m + 1):
        rest = columns[j][~pole]
        bits = rest.view(np.uint64)
        if bits.size and (bits == bits[0]).all():
            constant[j] = text(float(rest[0]))

    def template(cells: list[str]) -> str:
        if fmt == "json":
            return "  {" + ",".join(f'\n    "{k}": {c}' for k, c in zip(keys, cells)) + "\n  }"
        return ",".join(cells)

    starts = np.unique(np.concatenate([[0], *runs.values()])).tolist()
    rows: list[str] = []
    bad: list[str] = []
    for b, e in zip(starts, [*starts[1:], n]):
        coords = [text(float(columns[j][b])) if j in runs else "%s" if j in tiles else value
                  for j in range(m)]
        ok = [constant.get(j, value) for j in (m, m + 1)]
        flagged = [null if j in constant else empty for j in (m, m + 1)]
        rows += [template([*coords, *ok, "0"])] * (e - b)
        bad.append(template([*coords, *flagged, "1"]))
    i = np.flatnonzero(pole)
    for r, k in zip(i.tolist(), (np.searchsorted(starts, i, "right") - 1).tolist()):
        rows[r] = bad[k]

    formatted = [j for j in range(m + 2) if j not in runs and j not in constant]
    cells: list = [None] * (n * len(formatted))
    for k, j in enumerate(formatted):
        if j in tiles:
            part = [text(v) for v in columns[j][:tiles[j]].tolist()] * (n // tiles[j])
        else:
            part = columns[j].tolist()
            if fmt == "json":
                for r in np.flatnonzero(~np.isfinite(columns[j])).tolist():
                    part[r] = json.dumps(part[r])  # NaN and Infinity as json spells them
        cells[k::len(formatted)] = part
    if fmt == "json":
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        head, sep, tail = ",".join(keys) + "\n", "\n", "\n"
    table = [head.encode()]
    for block in _fill(rows, cells, len(formatted), sep):
        table += [block, sep.encode()]
    table[-1] = tail.encode()
    return table


# A table needs this many cells per process to format in parallel.  Measured
# on a 2-CPU Xeon: the %-fill costs 0.6-0.9 us a cell and one forked block
# (fork, child start, pipe, reap) 2.4-3.6 ms, so a child's half pays from
# about 8,000 cells; _render timed whole, with the copy-on-write faults the
# fork costs both processes, breaks even at about 16,000.  At twice that,
# 2 * 2**14 cells, two blocks take 18-20 ms against 22-27 ms for one.  This
# assumes the second CPU runs beside the first: where a shared host
# time-slices both on one core, a fork loses at any size.
_CELLS_PER_PROCESS = 2**14


def _fill_block(rows: list[str], cells: list, width: int, sep: str, a: int, b: int) -> bytes:
    """UTF-8 of rows a..b-1 of sep.join(rows) % tuple(cells); a row takes ``width`` cells."""
    return (sep.join(rows[a:b]) % tuple(cells[a * width:b * width])).encode()


def _fork_block(block):
    """(pid, read end of its pipe) of a child that writes the bytes block() returns, or None.

    The child touches only the table's Python lists: it runs no numpy code
    and writes nothing to stdout.  It leaves by os._exit, 0 when the whole
    block went into the pipe and 1 on any exception, so it never returns into
    the caller.  None when the process cannot fork.
    """
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on fork in a multi-threaded process (numpy's
            # BLAS pool makes the CLI one) because a lock held by another
            # thread stays held in the child.  This child runs no numpy or
            # BLAS code and takes no lock another thread can hold.
            warnings.filterwarnings("ignore", r"This process (\(pid=\d+\) )?is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(block())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _fill(rows: list[str], cells: list, width: int, sep: str) -> list[bytes]:
    """UTF-8 of sep.join(rows) % tuple(cells) in row blocks, one process per CPU at most.

    Every row template takes ``width`` cells (a pole row's "%.0s" takes its
    NaN), so block [a, b) is rows[a:b] filled with cells[a*width:b*width],
    and the blocks joined by ``sep`` are the one-call text by construction.
    A table of fewer than 2 * _CELLS_PER_PROCESS = 32,768 cells (every
    figure table but the 51 x 401 phase sweep of figures 5 and 6), a single
    CPU, or a platform without os.fork or os.sched_getaffinity is one block,
    from one call.  Otherwise the parent forks one child per block after the
    first, formats the first block, reads each child's block from its pipe to
    EOF, as bytes, and reaps every child.  A block whose child could not
    start or exited nonzero is formatted by the parent.
    """
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(cells) // _CELLS_PER_PROCESS)
    if workers < 2:
        return [(sep.join(rows) % tuple(cells)).encode()]
    ends = [len(rows) * k // workers for k in range(workers + 1)]
    blocks = [partial(_fill_block, rows, cells, width, sep, a, b) for a, b in zip(ends, ends[1:])]
    children = {}  # block -> (pid, read end of its pipe) of the child formatting it
    done: dict[int, bytes] = {}
    statuses: dict[int, int] = {}
    try:
        for k in range(1, workers):
            if (child := _fork_block(blocks[k])) is not None:
                children[k] = child
        done[0] = blocks[0]()
        for k, (_, pipe) in children.items():
            done[k] = pipe.read()
    finally:
        for k, (pid, pipe) in children.items():
            pipe.close()
            statuses[k] = os.waitpid(pid, 0)[1]
    return [done[k] if k in done and not statuses.get(k) else blocks[k]() for k in range(workers)]


def _emit(table: list[bytes], output: str | Path | None) -> None:
    """Write the table's UTF-8 blocks in order, to the file ``output`` or to stdout.

    The file is opened "wb" and gets the blocks as they are.  stdout gets
    each block decoded, so a text stream put in place of sys.stdout (a
    StringIO) takes it too.  No whole-table string or bytes is built.
    """
    if output is None:
        for block in table:
            sys.stdout.write(block.decode())
    else:
        with open(output, "wb") as fh:
            fh.writelines(table)


def _grid(lo: float, hi: float, steps: int | None, name: str) -> np.ndarray:
    if steps is None or steps < 1:
        raise ParameterDomainError(f"--{name}-steps must request at least one grid point")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterDomainError(f"--{name}-min and --{name}-max must be finite")
    if not math.isfinite(hi - lo):
        raise ParameterDomainError(
            f"--{name}-max - --{name}-min overflows: the grid span must be finite")
    return np.linspace(lo, hi, steps)


def _profile(names: list[str], coords: list[np.ndarray], sol: WaveSolution,
             t: float | None, fmt: str) -> list[bytes]:
    """Evaluate ``sol`` on coords[0] (theta, or x at time t) and render the table."""
    values, pole = evaluate_grid(sol, coords[0], t)
    return _render(names, [*coords, values.real, values.imag], pole, fmt)


def _sweep(fam: Family, a_values: np.ndarray, theta_grid: np.ndarray, fmt: str) -> list[bytes]:
    """Evaluate the phase sweep of ``fam`` over (a, theta) and render the table."""
    values, pole = sweep_rows(fam, a_values, theta_grid)
    a, theta = np.meshgrid(a_values, theta_grid, indexing="ij")
    columns = [a.ravel(), theta.ravel(), values.real.ravel(), values.imag.ravel()]
    return _render(["a", "theta"], columns, pole.ravel(), fmt)


# ---------------------------------------------------------------------------
# factorize


def cmd_factorize(args: argparse.Namespace) -> int:
    sign = Sign(args.sign)
    if args.eq == "kdvb":
        fact = factorize_kdvb(args.delta, sign)
        samples: list[complex] = np.linspace(0.05, 9.95, 64).tolist()
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


def _phase(fam: Family, a: float) -> complex:
    """theta0 = i*a*pi, with a reduced by its period 10 for the KdVB families."""
    if fam in _KDVB_FAMILIES:
        a = float(reduce_kdvb_phase(a))
    return complex(0.0, a * math.pi)


def _reduced_solution(args: argparse.Namespace, fam: Family) -> WaveSolution:
    theta0 = _phase(fam, args.phase_a)
    if fam in _KDVB_FAMILIES:
        return universal_solution(fam, theta0=theta0)
    if fam in _COMPOUND_FAMILIES:
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
    if fam in _KDVB_FAMILIES:
        return kdvb_solution_from_physical(fam, params)
    if fam in _COMPOUND_FAMILIES:
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
        _emit(_profile(["theta"], [grid], sol, None, args.format), args.output)
    else:
        if args.x_min is None or args.x_max is None:
            raise ParameterDomainError("physical mode needs --x-min and --x-max")
        grid = _grid(args.x_min, args.x_max, args.x_steps, "x")
        sol = _physical_solution(fam, _physical_coefficients(args), args.k0, Sign(args.branch))
        coords = [grid, np.full(grid.size, args.t)]
        _emit(_profile(["x", "t"], coords, sol, args.t, args.format), args.output)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    fam = Family(args.family)
    if fam not in _KDVB_FAMILIES:
        raise ParameterDomainError("the phase sweep is defined for the kdvb families")
    a_values = _grid(args.a_min, args.a_max, args.a_steps, "a")
    if a_values.size > 1:
        PhaseSweep(args.a_min, args.a_max, a_values.size)  # checks a_min < a_max
    elif args.a_min != args.a_max:
        raise ParameterDomainError("a single-row sweep needs --a-min == --a-max")
    theta_grid = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
    _emit(_sweep(fam, a_values, theta_grid, args.format), args.output)
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
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterDomainError(f"the figure manifest is not valid JSON: {exc}") from exc
    if type(manifest) is not dict:
        raise ParameterDomainError("the figure manifest must be a JSON object")
    return manifest


_KINDS = {str: "a string", int: "an integer", float: "a finite number", dict: "an object",
          list: "a list"}


def _field(entry: object, key: str, kind: type, default: object = None):
    """entry[key] as a ``kind`` (str, int, finite float, dict or list), else exit 2.

    An int is accepted where a float is asked for; a bool is never a number.
    An ``entry`` that is not a dict has no fields.
    """
    value = entry.get(key, default) if type(entry) is dict else None
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ParameterDomainError(f"manifest field {key!r} must be {_KINDS[kind]}; got {value!r}")
    return value


def cmd_figure(args: argparse.Namespace) -> int:
    """Render every output of the figure, then write them: a bad manifest writes no file."""
    manifest = _load_manifest(args.manifest)
    key = str(args.figure)
    if key not in manifest:
        raise ParameterDomainError(f"figure {key!r} is not in the manifest")
    entry = _field(manifest, key, dict)
    family = _field(entry, "family", str)
    if family not in {fam.value for fam in Family}:
        raise ParameterDomainError(f"manifest field 'family' names no family: {family!r}")
    fam = Family(family)
    output = _field(entry, "output", str)
    tables: list[tuple[str, list[bytes]]] = []  # (file name, its blocks)

    def grid(name: str) -> np.ndarray:
        return _grid(_field(entry, f"{name}_min", float), _field(entry, f"{name}_max", float),
                     _field(entry, f"{name}_steps", int), name)

    if _field(entry, "command", str) == "sweep":
        sweep = PhaseSweep(_field(entry, "a_min", float), _field(entry, "a_max", float),
                           _field(entry, "a_steps", int))
        tables.append((output, _sweep(fam, sweep.a_values(), grid("theta"), "csv")))
    elif "curves" in entry:
        coeff = _field(entry, "coefficients", dict)
        s, mu, alpha, beta = (_field(coeff, name, float) for name in ("s", "mu", "alpha", "beta"))
        t = _field(entry, "t", float)
        x = grid("x")
        for curve in _field(entry, "curves", list):
            params = PhysicalParams(s=s, mu=mu, alpha=alpha, beta=beta, v=_field(curve, "v", float),
                                    xi0=complex(_field(coeff, "xi0", float, 0.0)))
            name = output.replace("{label}", _field(curve, "label", str))
            tables.append((name, _profile(["x", "t"], [x, np.full(x.size, t)],
                                          _physical_solution(fam, params), t, "csv")))
    else:
        phase_a = _field(entry, "phase_a", float)
        sol = universal_solution(fam, theta0=_phase(fam, phase_a))
        tables.append((output, _profile(["theta"], [grid("theta")], sol, None, "csv")))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, table in tables:
        _emit(table, outdir / name)
    for name, _ in tables:
        print(f"wrote {outdir / name}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _factorize_arguments(f: argparse.ArgumentParser) -> None:
    f.add_argument("--eq", choices=("kdvb", "compound"), required=True)
    f.add_argument("--sign", choices=("plus", "minus"), default="minus")
    f.add_argument("--delta", type=float, default=0.0, help="displacement (kdvb only)")
    f.add_argument("--p", type=float, default=0.0)
    f.add_argument("--q", type=float, default=None)
    f.add_argument("--format", choices=("text", "json"), default="text")
    f.set_defaults(func=cmd_factorize)


def _evaluate_arguments(e: argparse.ArgumentParser) -> None:
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


def _sweep_arguments(s: argparse.ArgumentParser) -> None:
    s.add_argument("--family", choices=[fam.value for fam in _KDVB_FAMILIES],
                   default="kdvb-regular")
    s.add_argument("--a-min", type=float, required=True)
    s.add_argument("--a-max", type=float, required=True)
    s.add_argument("--a-steps", type=int, required=True)
    s.add_argument("--theta-min", type=float, required=True)
    s.add_argument("--theta-max", type=float, required=True)
    s.add_argument("--theta-steps", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--output", default=None)
    s.set_defaults(func=cmd_sweep)


def _verify_arguments(v: argparse.ArgumentParser) -> None:
    v.add_argument("--scope", choices=SCOPES, default="all")
    v.add_argument("--tolerance", type=float, default=None,
                   help="override every check threshold at once")
    v.add_argument("--perturb", type=float, default=0.0,
                   help="scale closed forms by 1+perturb (negative control)")
    v.set_defaults(func=cmd_verify)


def _figure_arguments(g: argparse.ArgumentParser) -> None:
    g.add_argument("figure", type=int, choices=range(1, 8), metavar="N",
                   help="figure id, 1-7")
    g.add_argument("--manifest", default=None, help="override the packaged manifest")
    g.add_argument("--outdir", default=".", help="directory for the output files")
    g.set_defaults(func=cmd_figure)


# subcommand -> (its --help line, the function that adds its arguments), in --help order
_SUBCOMMANDS = {
    "factorize": ("coefficient report for a factorization", _factorize_arguments),
    "evaluate": ("sample a solution family onto a grid", _evaluate_arguments),
    "sweep": ("sample the complex-phase surface", _sweep_arguments),
    "verify": ("run the verification suite", _verify_arguments),
    "figure": ("reproduce the data behind a published figure", _figure_arguments),
}


class _Subcommands(argparse._SubParsersAction):
    """The subcommand action: a subparser gets its arguments when the command line selects it."""

    def fill(self, name: str) -> None:
        """Add subcommand ``name``'s arguments to its parser, unless it has them already."""
        sub = self.choices[name]
        if sub.get_default("func") is None:
            _SUBCOMMANDS[name][1](sub)

    def __call__(self, parser, namespace, values, option_string=None):
        self.fill(values[0])  # argparse has already checked values[0] against the choices
        super().__call__(parser, namespace, values, option_string)


def build_parser() -> argparse.ArgumentParser:
    """The kdvbwaves parser: five subcommands, each adding its arguments when selected.

    Every subcommand is registered with its help line up front, which is all
    that the top-level help, usage and "invalid choice" messages read.  A
    subcommand's own arguments are added when the command line selects it,
    before its parser reads anything, so a command pays for one subcommand's
    arguments, not for all five.  Help, usage, error messages and parse
    results are byte for byte those of a parser built with every argument.
    Filling on selection, rather than taking the command as an argument,
    keeps build_parser a zero-argument call, which perfbench/tracing.py
    wraps as such.
    """
    parser = argparse.ArgumentParser(
        prog="kdvbwaves",
        description="closed-form travelling waves of the (compound) KdV-Burgers equation",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    for name, (text, _) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 141  # 128 + SIGPIPE: the reader closed stdout, which is not an error to report
    except (ParameterDomainError, UnsupportedDomainError, PoleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main()
    if code == 141:
        # the text still buffered for the closed pipe goes to devnull, so exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
