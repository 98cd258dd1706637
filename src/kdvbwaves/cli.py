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
  from its entry in figures.json, program data next to this module; each
  entry spells the evaluate or sweep command that writes the same table.

evaluate and factorize exit 2 on a flag that their mode and family do not
read (one table, _READS) set away from its default, or a needed one left out.

evaluate and sweep each build their table with one builder (_evaluate_table,
_sweep_table), which figure calls too, and write it with _emit.  _render
formats a table in chunks, _deal deals the chunks to forked processes where
that pays (_CELLS_PER_PROCESS), and the docstrings of these say how.

errors, factorizer (with the family tags and verify's scopes) and params, on
math and cmath only, are imported at the top, numpy, solutions and verify by
each function that uses them: factorize and every --help load none of the
three, evaluate, sweep and figure numpy and solutions.  main parses every
command line with one parser, _PARSER, built once at import.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error (a
ParameterDomainError, the package's one exception class, an OSError, or a
grid too big to allocate or for any array to hold), 141 when the reader
closes stdout early (128 + SIGPIPE; nothing is printed).
Output is deterministic: fixed grids, no timestamps, floats printed with 17
significant digits in CSV, shortest round-trip form in JSON.  Every cell off
a pole is finite, or the command exits 2; values on a pole are emitted as
empty cells (CSV) or nulls (JSON) with pole_flag=1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import warnings
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

from .errors import ParameterDomainError
from .factorizer import (_COMPOUND_FAMILIES, _KDVB_FAMILIES, SCOPES, Family, Sign,
                         factorize_compound, factorize_kdvb, verify_factorization)
from .params import PhysicalParams, ReducedParams


def _render(names: list[str], columns: list, pole: np.ndarray, fmt: str) -> Iterator[bytes]:
    """CSV or JSON table of ``columns`` (coordinates ``names``, re_u, im_u) plus pole_flag.

    The rows are the cells of ``pole`` in C order.  re_u and im_u have its
    shape, each coordinate broadcasts to it, and the rows along its last axis
    form a group.  Every coordinate cell, and every value cell off the poles,
    is finite: each passed solutions._shifted's check or the range check of
    _evaluate_blocks.  So each format spells a cell one way, by its % spec:
    %.17g in CSV, and %a, the float's repr, in JSON.  Yields the table as
    UTF-8 parts [head, chunk, sep, chunk, ..., tail] that joined are byte for
    byte format(value, ".17g") per CSV cell, or json.dumps(rows, indent=2).
    A chunk is at least one row, and at most _BYTES_PER_CHUNK bytes, a row
    taken as its template and 20 bytes a formatted cell.
    A coordinate constant along the last axis is written into each group's
    row templates, one that varies along it in a table of several groups is
    formatted once per element (its bytes go in as %s cells), and a value
    column that holds one bit pattern on every non-pole row is written into
    the templates.  The other cells go through one bytes %-format per chunk;
    "%.0a" swallows the NaN values of pole rows.  Everything a chunk needs is
    prepared before the first one: the group templates, the group's bytes of
    a repeated coordinate, and memoryviews of the pole mask and of each
    column left to format.  So a chunk is formatted without numpy, by this
    process or by a forked child (_deal).
    """
    import numpy as np
    m, width = len(names), pole.shape[-1]
    groups = pole.size // width
    keys = [*names, "re_u", "im_u", "pole_flag"]
    value, empty, null = ("%a", "null%.0a", "null") if fmt == "json" else ("%.17g", "%.0a", "")
    text = value.__mod__
    fixed = {j: np.broadcast_to(c, pole.shape[:-1] + (1,)).reshape(-1).tolist()
             for j, c in enumerate(columns[:m]) if np.shape(c)[-1:] in ((), (1,))}
    repeated = {j: [text(v).encode() for v in np.reshape(columns[j], -1).tolist()] for j in range(m)
                if j not in fixed and groups > 1 and np.size(columns[j]) == width}
    constant: dict[int, str] = {}
    # the first row off the poles; where every row is on one, no row shows the constant
    first = int(np.argmin(pole))
    for j in (m, m + 1):
        # the bits compared where they are: a copy of the column would cost 8 bytes a row
        bits = columns[j].view(np.uint64)
        same = np.equal(bits, bits.flat[first])
        if np.logical_or(same, pole, out=same).all():
            constant[j] = text(float(columns[j].flat[first]))

    def template(cells: list[str]) -> str:
        if fmt == "json":
            return "  {" + ",".join(f'\n    "{k}": {c}' for k, c in zip(keys, cells)) + "\n  }"
        return ",".join(cells)

    ok = [constant.get(j, value) for j in (m, m + 1)]
    flagged = [null if j in constant else empty for j in (m, m + 1)]
    good: list[bytes] = []
    bad: list[bytes] = []
    for g in range(groups):
        coords = [text(fixed[j][g]) if j in fixed else "%s" if j in repeated else value
                  for j in range(m)]
        good.append(template([*coords, *ok, "0"]).encode())
        bad.append(template([*coords, *flagged, "1"]).encode())

    formatted = [j for j in range(m + 2) if j not in fixed and j not in constant]
    shared = [(k, repeated[j]) for k, j in enumerate(formatted) if j in repeated]
    stored = {k: memoryview(np.broadcast_to(columns[j], pole.shape).reshape(-1))
              for k, j in enumerate(formatted) if j not in repeated}
    flags = memoryview(pole.reshape(-1))
    n, width_cells = pole.size, len(formatted)
    per = max(1, _BYTES_PER_CHUNK // (len(good[0]) + 20 * width_cells))  # rows a chunk

    def chunk(c: int) -> bytes:
        """Chunk c, rows c*per up to (c+1)*per or the end, without separators."""
        a, b = c * per, min(n, (c + 1) * per)
        rows: list[bytes] = []
        parts: dict[int, list] = {k: [] for k, _ in shared}
        for g in range(a // width, (b - 1) // width + 1):
            lo, hi = max(a - g * width, 0), min(b - g * width, width)
            rows += [good[g]] * (hi - lo)
            for k, strings in shared:
                parts[k] += strings[lo:hi]
        for r in _set_rows(flags, a, b):
            rows[r] = bad[(a + r) // width]
        for k, column in stored.items():
            parts[k] = column[a:b].tolist()
        cells: list = [None] * (len(rows) * width_cells)
        for k, part in parts.items():
            cells[k::width_cells] = part
        return sep.join(rows) % tuple(cells)

    if fmt == "json":
        head, sep, tail = b"[\n", b",\n", b"\n]\n"
    else:
        head, sep, tail = (",".join(keys) + "\n").encode(), b"\n", b"\n"
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = max(1, min(len(os.sched_getaffinity(0)), n * width_cells // _CELLS_PER_PROCESS))
    yield head
    for c, block in enumerate(_deal(chunk, -(-n // per), workers)):
        if c:
            yield sep
        yield block
    yield tail


def _set_rows(mask: memoryview, a: int, b: int) -> Iterator[int]:
    """Each r in [0, b - a) where the boolean ``mask`` is true at a + r, in order."""
    found = mask[a:b].tobytes()
    r = found.find(1)
    while r >= 0:
        yield r
        r = found.find(1, r + 1)


# A table needs this many cells per process to format in parallel.  Measured
# on a 2-CPU Xeon: the %-fill costs 0.6-0.9 us a cell and one forked block
# (fork, child start, pipe, reap) 2.4-3.6 ms, so a child's half pays from
# about 8,000 cells; _render timed whole, with the copy-on-write faults the
# fork costs both processes, breaks even at about 16,000.  At twice that,
# 2 * 2**14 cells, two blocks take 18-20 ms against 22-27 ms for one.  This
# assumes the second CPU runs beside the first: where a shared host
# time-slices both on one core, a fork loses at any size.
_CELLS_PER_PROCESS = 2**14
# A table is formatted and written in chunks of about this many bytes, one at
# a time, whatever its size.  A chunk's lists and bytes then stay in the sizes
# the allocator keeps for reuse: with chunks of 2**19 bytes (about 1 MiB of
# lists and bytes each) a 10**5-point table's _render took 2,700 minor page
# faults in the command as CSV and 4,100 as JSON on two CPUs, and 270 at
# 2**16.  A row is estimated at 20 bytes or more a formatted cell, and 2**16
# <= 20 * _CELLS_PER_PROCESS, so a table has at least as many chunks as
# processes.
_BYTES_PER_CHUNK = 2**16


def _deal(task, count: int, workers: int) -> Iterator[bytes]:
    """task(0), ..., task(count - 1) in order, task(j) run by process j mod ``workers``.

    Process 0 is this one, which yields its results as it makes them.  Each
    other is a forked child that runs its tasks in order and sends each
    result through its pipe as a length-prefixed record; its result is
    yielded once the whole record has arrived, so no part of a record is.
    A child that fails, is killed or cannot start costs only time: its
    process is reaped and its remaining tasks are run here.  Every child is
    reaped before the iterator ends, also when the consumer closes it early.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # process -> (pid, read end of its pipe)
    try:
        for k in range(1, workers):
            if (child := _fork(task, range(k, count, workers), children.values())) is not None:
                children[k] = child
        for j in range(count):
            child = children.get(j % workers)
            record = _record(child[1]) if child else None
            if record is None:
                if child:
                    _reap(*children.pop(j % workers))
                record = task(j)
            yield record
    finally:
        for child in children.values():
            _reap(*child)


def _fork(task, jobs: range, pipes) -> tuple[int, BinaryIO] | None:
    """(pid, read end of its pipe) of a child that sends task(j) for each j in ``jobs``, or None.

    Each result goes as its length (8 bytes, little-endian) and its bytes.
    The child first closes its copies of ``pipes``, the (pid, read end) of
    its elder siblings, so that a sibling's writes fail once the parent
    closes its read end.  The writer's tasks touch only Python objects and
    memoryviews, so the child runs no numpy code; it writes nothing to
    stdout.  It leaves by os._exit, 0 when every result went into the pipe and 1 on any
    exception, so it never returns into the caller.  None when the process
    cannot fork.
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
            for _, pipe in pipes:
                pipe.close()
            with open(w, "wb") as out:
                for j in jobs:
                    record = task(j)
                    out.write(len(record).to_bytes(8, "little"))
                    out.write(record)
                    out.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _record(pipe: BinaryIO) -> bytes | None:
    """The next whole record from a child's pipe, or None when the pipe ends before it does."""
    head = pipe.read(8)
    if len(head) == 8:
        size = int.from_bytes(head, "little")
        record = pipe.read(size)
        if len(record) == size:
            return record
    return None


def _reap(pid: int, pipe: BinaryIO) -> None:
    """Close the read end of a child's pipe, so that its next write fails, and wait for it."""
    pipe.close()
    os.waitpid(pid, 0)


def _emit(table: Iterator[bytes], output: str | Path | None) -> None:
    """Write the table's UTF-8 parts as they come, to the file ``output`` or to stdout.

    Both get the same bytes by the same writelines: the file opened "wb", or
    sys.stdout's binary buffer once its text layer is flushed, so that text
    written before stays in front.  The table is closed on the way out, also
    when a write fails, so every child formatting it is reaped.
    """
    try:
        if output is None:
            sys.stdout.flush()
            sys.stdout.buffer.writelines(table)
        else:
            with open(output, "wb") as fh:
                fh.writelines(table)
    finally:
        table.close()


def _require_array(cells: int, flags: str) -> None:
    """ParameterDomainError where ``cells`` complex values (16 bytes) pass sys.maxsize bytes."""
    if cells > sys.maxsize // 16:
        raise ParameterDomainError(f"a grid of {cells} cells ({flags}) is more than an array holds")


def _grid(lo: float, hi: float, steps: int, name: str) -> np.ndarray:
    """np.linspace(lo, hi, steps); finite ends and span, equal ends exactly when steps == 1."""
    import numpy as np
    if steps < 1:
        raise ParameterDomainError(f"--{name}-steps must request at least one grid point")
    _require_array(steps, f"--{name}-steps")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterDomainError(f"--{name}-min and --{name}-max must be finite")
    if not math.isfinite(hi - lo):
        raise ParameterDomainError(
            f"--{name}-max - --{name}-min overflows: the grid span must be finite")
    if (steps == 1) != (lo == hi):
        relation = "==" if steps == 1 else "!="
        raise ParameterDomainError(
            f"--{name}-steps {steps} needs --{name}-min {relation} --{name}-max")
    # the last point, (steps - 1) * step, can round past the float range; linspace sets it to hi
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, steps)


# The flags a command reads in each mode, for all its families ("") and for each kind of
# family (the family's name up to its first "-").  evaluate is in physical mode when it is
# given an --x-* flag; factorize has one mode, in which the kind is its --eq.
_READS = {
    "evaluate": {
        "reduced": {"": "theta_min theta_max theta_steps", "kdvb": "phase_a",
                    "compound": "p q phase_a", "rational": "q k0", "constant": "q k0 branch"},
        "physical": {"": "x_min x_max x_steps s mu alpha v t beta", "kdvb": "xi0",
                     "compound": "xi0", "rational": "k0 xi0", "constant": "k0 branch"}},
    "factorize": {"": {"kdvb": "delta", "compound": "p q"}}}


def _check_flags(args: argparse.Namespace, command: str, mode: str, kind: str, unread: str,
                 needs: str) -> None:
    """Raise ParameterDomainError, unread.format(flags), for flags of _READS[command] that
    ``mode`` and ``kind`` do not read set != their parser default (so a NaN is set); else
    needs.format(flags) for flags they read whose default is None left out."""
    table, defaults = _READS[command], _DEFAULTS[command]
    reads = f"{table[mode].get('', '')} {table[mode].get(kind, '')}".split()
    named = dict.fromkeys(" ".join(s for m in table.values() for s in m.values()).split())
    missing = [n for n in reads if getattr(args, n) is None]
    ignored = [n for n in named if n not in reads and getattr(args, n) != defaults[n]]
    if ignored or missing:
        *rest, last = [f"--{n.replace('_', '-')}" for n in ignored or missing]
        flags = f"{', '.join(rest)} and {last}" if rest else last
        raise ParameterDomainError((unread if ignored else needs).format(flags))


# ---------------------------------------------------------------------------
# factorize


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """np.linspace(lo, hi, n).tolist() for n >= 2, bit for bit, without numpy."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def cmd_factorize(args: argparse.Namespace) -> int:
    _check_flags(args, "factorize", "", args.eq, f"factorize --eq {args.eq} does not read {{}}",
                 "compound factorization requires q != 0 (pass {})")
    sign = Sign(args.sign)
    if args.eq == "kdvb":
        fact = factorize_kdvb(args.delta, sign)
        keys = ("delta", "A", "B", "p", "k")
        samples: list[complex] = _linspace(0.05, 9.95, 64)
    else:
        fact = factorize_compound(ReducedParams(p=args.p, q=args.q), sign)
        keys = ("p", "q", "A", "B", "C", "k")
        samples = [complex(a, b) for a in _linspace(-3.0, 3.0, 8) for b in _linspace(-3.0, 3.0, 8)]
    check = verify_factorization(fact.f1_at, fact.f2_at, fact.F_at, fact.f1U_prime_at, samples)
    # the keys before A are the flags, which the factorization stores as given
    report = {"equation": args.eq, "sign": sign.value, **{key: getattr(fact, key) for key in keys},
              "product_condition_max_residual": check.max_product,
              "closure_condition_max_residual": check.max_closure}
    if args.format == "json":
        print(json.dumps(report, indent=2))
        return 0
    given = ", ".join(f"{key} = {report[key]!r}" for key in keys[:keys.index("A")])
    print(f"factorization of the {args.eq} reduction (branch {sign.value}, {given})")
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
    from .solutions import reduce_kdvb_phase
    if fam in _KDVB_FAMILIES:
        a = float(reduce_kdvb_phase(a))
    return complex(0.0, a * math.pi)


def _reduced_solution(args: argparse.Namespace, fam: Family) -> WaveSolution:
    from .solutions import compound_solution, rational_solution, universal_solution
    theta0 = _phase(fam, args.phase_a)
    if fam in _KDVB_FAMILIES:
        return universal_solution(fam, theta0=theta0)
    if fam in _COMPOUND_FAMILIES:
        return compound_solution(fam, args.p, args.q, theta0=theta0)
    return rational_solution(fam, args.q, args.k0, sign=Sign(args.branch))


def _physical_solution(args: argparse.Namespace, fam: Family) -> WaveSolution:
    from .solutions import (compound_solution_from_physical, kdvb_solution_from_physical,
                            rational_solution_from_physical)
    params = PhysicalParams(s=args.s, mu=args.mu, alpha=args.alpha, beta=args.beta, v=args.v,
                            xi0=complex(args.xi0))
    if fam in _KDVB_FAMILIES:
        return kdvb_solution_from_physical(fam, params)
    if fam in _COMPOUND_FAMILIES:
        return compound_solution_from_physical(fam, params)
    return rational_solution_from_physical(fam, params, args.k0, Sign(args.branch))


def _evaluate_table(args: argparse.Namespace) -> Iterator[bytes]:
    """Evaluate the family of evaluate's flags on their grid and render the table."""
    from .solutions import evaluate_grid
    fam = Family(args.family)
    mode = "reduced" if (args.x_min, args.x_max, args.x_steps) == (None,) * 3 else "physical"
    _check_flags(args, "evaluate", mode, fam.value.split("-")[0],
                 f"{fam.value} in {mode} mode does not read {{}}", f"{mode} mode needs {{}}")
    if mode == "reduced":
        grid = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
        values, pole = evaluate_grid(_reduced_solution(args, fam), grid, None)
        return _render(["theta"], [grid, values.real, values.imag], pole, args.format)
    grid = _grid(args.x_min, args.x_max, args.x_steps, "x")
    values, pole = evaluate_grid(_physical_solution(args, fam), grid, args.t)
    return _render(["x", "t"], [grid, args.t, values.real, values.imag], pole, args.format)


def cmd_evaluate(args: argparse.Namespace) -> int:
    _emit(_evaluate_table(args), args.output)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_table(args: argparse.Namespace) -> Iterator[bytes]:
    """Check sweep's grids, evaluate U(theta; i*a*pi) over (a, theta) and render the table."""
    from .solutions import sweep_rows
    if min(args.a_steps, args.theta_steps) > 0:  # else _grid names the step count too few
        _require_array(args.a_steps * args.theta_steps, "--a-steps * --theta-steps")
    a = _grid(args.a_min, args.a_max, args.a_steps, "a")
    theta = _grid(args.theta_min, args.theta_max, args.theta_steps, "theta")
    values, pole = sweep_rows(Family(args.family), a, theta)
    return _render(["a", "theta"], [a[:, None], theta, values.real, values.imag], pole,
                   args.format)


def cmd_sweep(args: argparse.Namespace) -> int:
    _emit(_sweep_table(args), args.output)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import verification_suite
    result = verification_suite(scope=args.scope, tolerance=args.tolerance, perturb=args.perturb)
    width = max(len(c.name) for c in result.checks)
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


def _figure_flags(entry: dict) -> list[tuple[str, argparse.Namespace]]:
    """(file name, flags) of each table of a figures.json entry.

    The flags are the entry's fields, and for a set of curves its
    coefficients and the curve's fields, over the defaults of its command's
    flags in _DEFAULTS.  The entry's output names the file.
    """
    defaults = _DEFAULTS[entry["command"]]
    tables = []
    for curve in entry.get("curves", [{}]):  # an entry without curves is one table
        fields = {**entry, **entry.get("coefficients", {}), **curve}
        flags = {k: v for k, v in fields.items() if k in defaults and k != "output"}
        name = entry["output"].replace("{label}", curve.get("label", ""))
        tables.append((name, argparse.Namespace(**{**defaults, **flags})))
    return tables


def cmd_figure(args: argparse.Namespace) -> int:
    """Render every table of the figure's entry in figures.json, then write them.

    figures.json is program data, checked by the tests rather than on each
    run.  Each table is built by the table builder of the entry's command.
    """
    text = resources.files("kdvbwaves").joinpath("figures.json").read_text(encoding="utf-8")
    entry = json.loads(text)[str(args.figure)]
    build = _evaluate_table if entry["command"] == "evaluate" else _sweep_table
    tables = [(name, build(flags)) for name, flags in _figure_flags(entry)]
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

# a string float() reads that starts with "-": a value, since no option looks like a number;
# argparse's own test takes -1 and -.5, but reads -1e3 or -inf as an unknown option
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d(?:_?\d)*)?\.\d(?:_?\d)*|\d(?:_?\d)*\.?)"
                              r"(?:[eE][-+]?\d(?:_?\d)*)?\s*\Z|-(?i:inf|infinity|nan)\s*\Z")


def build_parser() -> argparse.ArgumentParser:
    """A new kdvbwaves parser with the five subcommands of _SUBCOMMANDS.

    A subcommand reads a separate argument that float() reads as a value, also
    when it starts with "-": --theta-min -1e3 is --theta-min=-1e3.
    """
    parser = argparse.ArgumentParser(
        prog="kdvbwaves",
        description="closed-form travelling waves of the (compound) KdV-Burgers equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=text)
        add(command)
        command._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


_PARSER = build_parser()  # main's, built once: parse_args keeps no state between calls
# subcommand -> {flag: its parser default}, for _check_flags and _figure_flags
_DEFAULTS = {name: {a.dest: a.default for a in sub._actions if a.dest != "help"} for name, sub
             in next(a for a in _PARSER._actions if a.dest == "command").choices.items()}


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    for name, value in vars(args).items():
        if value == []:  # argparse up to at least Python 3.12.1 reads --opt=-- as no value
            _PARSER.error(f"argument --{name.replace('_', '-')}: expected one argument")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return 141  # 128 + SIGPIPE: the reader closed stdout, which is not an error to report
    except (ParameterDomainError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    code = main()
    if code == 141:
        # what is still buffered for the closed pipe goes to devnull, so exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
