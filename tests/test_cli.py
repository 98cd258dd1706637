"""End-to-end tests of the command-line interface and its exit-code contract."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import signal
import struct
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kdvbwaves import (
    Family,
    PhaseSweep,
    PhysicalParams,
    compound_solution_from_physical,
    eval_solution,
    evaluate_grid,
    locked_rational_velocity,
    rational_solution_from_physical,
    sweep_rows,
    universal_solution,
)
from kdvbwaves import cli
from kdvbwaves.cli import _render, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# factorize


def test_factorize_kdvb_json_report(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "kdvb", "--delta", "0",
                       "--sign", "minus", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["A"] == pytest.approx(-math.sqrt(2.0 / 3.0))
    assert report["B"] == pytest.approx(0.4)
    assert report["p"] == pytest.approx(0.24)
    assert report["k"] == 0.0
    assert report["product_condition_max_residual"] < 1e-12
    assert report["closure_condition_max_residual"] < 1e-12


def test_factorize_compound_json_report(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "compound", "--p", "0",
                       "--q", "2", "--sign", "plus", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["C"] == pytest.approx(1.0 / 9.0)
    assert report["k"] == pytest.approx(-1.0 / 27.0)


def test_factorize_rejects_zero_q(capsys):
    code, _, err = run(capsys, "factorize", "--eq", "compound", "--q", "0")
    assert code == 2
    assert "q != 0" in err


@pytest.mark.parametrize("flags", [
    ["--eq", "compound", "--p", "nan", "--q", "2"],
    ["--eq", "compound", "--q", "inf"],
    ["--eq", "kdvb", "--delta", "inf"],
    ["--eq", "kdvb", "--delta", "nan", "--format", "json"],
])
def test_factorize_rejects_non_finite_coefficients(flags, capsys):
    # these printed NaN coefficients and 0.000e+00 residuals with exit 0
    code, out, err = run(capsys, "factorize", *flags)
    assert (code, out) == (2, "") and "must be finite" in err


def test_factorize_text_report_mentions_conditions(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "kdvb", "--delta", "1")
    assert code == 0
    assert "product condition" in out
    assert "closure condition" in out


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_reduced_header_and_monotone_kink(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "-60", "--theta-max", "60", "--theta-steps", "601")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "re_u", "im_u", "pole_flag"]
    assert len(rows) == 601
    re = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(re, re[1:]))
    assert abs(re[0]) < 1e-4 and abs(re[-1] - 0.24) < 1e-4
    assert all(r[2] == "0" for r in rows)


def test_evaluate_singular_pole_row_is_empty_flagged(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-singular",
                       "--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1] == ["0", "", "", "1"]


def test_evaluate_json_pole_is_null(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-singular",
                       "--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[1]["pole_flag"] == 1
    assert rows[1]["re_u"] is None and rows[1]["im_u"] is None
    assert rows[0]["pole_flag"] == 0


def test_evaluate_physical_header(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                       "--x-min", "-2", "--x-max", "2", "--x-steps", "5", "--t", "0.5",
                       "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "t", "re_u", "im_u", "pole_flag"]
    assert all(r[1] == "0.5" for r in rows)


def test_evaluate_rejects_empty_grid(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "0")
    assert code == 2 and "grid point" in err


def test_evaluate_rejects_ambiguous_grids(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "5",
                       "--x-min", "0", "--x-max", "1", "--x-steps", "5")
    assert code == 2 and "exactly one grid" in err
    code, _, _ = run(capsys, "evaluate", "--family", "kdvb-regular")
    assert code == 2


def test_evaluate_physical_requires_coefficients(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--x-min", "0", "--x-max", "1", "--x-steps", "5")
    assert code == 2
    assert "--s" in err and "--v" in err


def test_evaluate_rational_off_lock_velocity_is_a_domain_error(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "rational-plus",
                       "--x-min", "1", "--x-max", "2", "--x-steps", "3",
                       "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
                       "--v", "-1.0", "--k0", "1")
    assert code == 2
    assert "locked velocity" in err


def test_evaluate_compound_reduced_needs_p_and_q(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2 and "--p and --q" in err


def test_evaluate_output_is_deterministic(tmp_path, capsys):
    args = ["evaluate", "--family", "compound-tanh-minus",
            "--theta-min", "-30", "--theta-max", "30", "--theta-steps", "101",
            "--p", "1", "--q", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_serializes_17_significant_digits(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "1", "--theta-max", "1", "--theta-steps", "1")
    assert code == 0
    _, rows = parse_csv(out)
    # round-trip: the printed value parses back to the exact double
    exact = eval_solution(universal_solution(Family.KDVB_REGULAR), 1.0)
    assert float(rows[0][1]) == exact.real


def test_evaluate_with_an_overflowing_coordinate_map_exits_2(capsys):
    # mu/s = 600 takes x = 1e306 past the float range: this used to write
    # three NaN rows with pole_flag 0, after a RuntimeWarning, and exit 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "evaluate", "--family", "kdvb-regular", "--s", "1",
                             "--mu", "600", "--alpha", "1", "--v", "0.2",
                             "--x-min", "1e306", "--x-max", "2e306", "--x-steps", "3")
    assert (code, out) == (2, "") and "must be finite" in err
    assert caught == []


def test_evaluate_rejects_non_finite_grid_bounds(capsys):
    code, out, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                         "--theta-min", "nan", "--theta-max", "1", "--theta-steps", "3")
    assert (code, out) == (2, "") and "must be finite" in err
    code, out, err = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                         "--x-min", "0", "--x-max", "inf", "--x-steps", "3",
                         "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04")
    assert (code, out) == (2, "") and "must be finite" in err


_THETA = ["--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3"]
_X = ["--x-min", "-1", "--x-max", "1", "--x-steps", "3",
      "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04"]


@pytest.mark.parametrize("flags", [
    ["--family", "kdvb-regular", *_THETA, "--phase-a", "nan"],
    ["--family", "kdvb-singular", *_THETA, "--phase-a", "inf"],
    ["--family", "compound-tanh-plus", *_THETA, "--p", "nan", "--q", "1"],
    ["--family", "compound-tanh-minus", *_THETA, "--p", "1", "--q", "inf"],
    ["--family", "rational-plus", *_THETA, "--q", "nan", "--k0", "1"],
    ["--family", "rational-minus", *_THETA, "--q", "0.5", "--k0", "nan"],
    ["--family", "compound-tanh-plus", *_X, "--t", "nan"],
    ["--family", "kdvb-regular", *_X, "--t=-inf"],
    ["--family", "compound-tanh-plus", *_X, "--v", "nan"],
    ["--family", "kdvb-regular", *_X, "--xi0", "inf"],
    ["--family", "kdvb-singular", *_X, "--s", "nan"],
    ["--family", "compound-tanh-minus", *_X, "--mu=-inf"],
    ["--family", "kdvb-regular", *_X, "--alpha", "nan"],
    ["--family", "compound-tanh-plus", *_X, "--beta", "inf"],
])
def test_evaluate_rejects_non_finite_inputs(flags, capsys):
    # a domain error (exit 2), never NaN cells with pole_flag 0 or a traceback
    code, out, err = run(capsys, "evaluate", *flags)
    assert (code, out) == (2, "") and "must be finite" in err


_HUGE_THETA = ["--theta-min=-1e308", "--theta-max", "1e308"]


@pytest.mark.filterwarnings("error")  # the NaN grid came with a RuntimeWarning from linspace
@pytest.mark.parametrize("argv", [
    ["evaluate", "--family", "kdvb-regular", *_HUGE_THETA, "--theta-steps", "3"],
    ["evaluate", "--family", "kdvb-regular", *_HUGE_THETA, "--theta-steps", "1"],
    ["evaluate", "--family", "compound-tanh-plus", "--x-min=-1e308", "--x-max", "1e308",
     "--x-steps", "3", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04"],
    ["sweep", "--a-min=-1e308", "--a-max", "1e308", "--a-steps", "3",
     "--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3"],
])
def test_overflowing_grid_span_is_a_domain_error(argv, capsys):
    # NaN rows with pole_flag 0 would be neither a value nor a flagged pole
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "overflows" in err


@pytest.mark.parametrize("cmd", ["evaluate", "factorize"])
def test_compound_coefficients_out_of_float_range_exit_2(cmd, capsys):
    # A**3 underflows to 0; exit 1 is reserved for failed verification checks
    flags = ["--eq", "compound"] if cmd == "factorize" else ["--family", "compound-tanh-plus",
                                                               *_THETA]
    code, out, err = run(capsys, cmd, *flags, "--p", "1e300", "--q", "1e-300")
    assert (code, out) == (2, "") and err.startswith("error: ") and "float range" in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--family", "kdvb-regular", "--s", "1", "--mu", "1e-300", "--alpha", "1",
     "--v", "0", "--x-min", "0", "--x-max", "1", "--x-steps", "2"],
    ["evaluate", "--family", "kdvb-regular", "--s", "1e-300", "--mu", "1e300", "--alpha", "1",
     "--v", "0", "--x-min", "0", "--x-max", "1", "--x-steps", "2"],
    ["evaluate", "--family", "kdvb-regular", "--s", "1", "--mu", "1e154", "--alpha", "1e-10",
     "--v", "0", "--x-min", "0", "--x-max", "1e-150", "--x-steps", "2"],
    ["factorize", "--eq", "kdvb", "--delta", "1e200"],
    ["factorize", "--eq", "kdvb", "--delta", "1e308"],
    ["evaluate", "--family", "rational-plus", "--s", "2", "--mu", "1", "--alpha", "1e300",
     "--beta", "1", "--v", "0", "--x-min", "0", "--x-max", "1", "--x-steps", "2"],
    ["evaluate", "--family", "constant", "--s", "1e-154", "--mu", "1e300", "--alpha", "1",
     "--beta", "1", "--v", "0", "--x-min", "0", "--x-max", "1", "--x-steps", "2"],
    *(["evaluate", "--family", family, "--q", "0.5", f"--k0={k0}", "--theta-min=-1",
       "--theta-max", "0.5", "--theta-steps", "4", "--format", fmt]
      for family, k0 in (("rational-plus", "1e308"), ("rational-minus", "-1e308"))
      for fmt in ("csv", "json")),
], ids=repr)
def test_coefficients_whose_reduction_leaves_the_float_range_exit_2(argv, capsys):
    # mu**2 underflowed to a ZeroDivisionError or overflowed to an OverflowError
    # (exit 1, traceback); the amplitude 2*mu**2/(alpha*s) overflowed to inf with a
    # RuntimeWarning and flagged pole rows where there is no pole (exit 0);
    # factorize printed k = nan or a nan residual and exited 0; alpha**2 or mu**2
    # in the rational family's locked velocity raised OverflowError (exit 1,
    # traceback); k0/A overflowed to a RuntimeWarning and rows inf,nan with
    # pole_flag 0 (Infinity and NaN literals in JSON), exit 0
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "float range" in err


@pytest.mark.parametrize("family", ["kdvb-regular", "kdvb-singular"])
@pytest.mark.parametrize("a", ["1e15", "1e300", "-1e300", "-20", "-0.0", "1.7976931348623157e308"])
def test_kdvb_phase_is_reduced_by_its_exact_period(family, a, capsys):
    # the period in a is exactly 10: 1e15 and 1e300 are the a = 0 kink (no
    # complex part, no pole at theta = 0), and a phase that reduces to -0.0
    # writes no -0 cell; fmod(1.797e308, 10) = 8 is a genuinely complex phase
    expect = "8" if a.startswith("1.79") else "0"
    for fmt in ("csv", "json"):
        want = run(capsys, "evaluate", "--family", family, *_THETA, f"--phase-a={expect}",
                   "--format", fmt)
        assert run(capsys, "evaluate", "--family", family, *_THETA, f"--phase-a={a}",
                   "--format", fmt) == want
        assert want[0] == 0 and "-0," not in want[1] and "-0.0," not in want[1]


def test_figure_manifest_phase_is_reduced_by_its_exact_period(tmp_path, capsys):
    texts = []
    for phase_a in (2.0, 1e16 + 2.0):  # both exact doubles, 2 apart mod 10
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"1": {**_TINY, "phase_a": phase_a}}))
        assert run(capsys, "figure", "1", "--manifest", str(manifest),
                   "--outdir", str(tmp_path))[0] == 0
        texts.append((tmp_path / "tiny.csv").read_text())
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-regular", *_THETA, "--phase-a=2")
    assert texts == [out, out] and code == 0


@pytest.mark.parametrize("family", ["compound-tanh-plus", "compound-tanh-minus"])
def test_compound_phase_beyond_pole_resolution_exits_2(family, capsys):
    # the period in a is 6/Delta, not a float: once the float spacing at Im z
    # exceeds POLE_TOL, neither a value nor a pole flag is meaningful
    for a in ("1e15", "-1e300"):
        code, out, err = run(capsys, "evaluate", "--family", family, *_THETA,
                             "--p", "1", "--q", "1", f"--phase-a={a}")
        assert (code, out) == (2, "") and "pole tolerance" in err
    code, out, _ = run(capsys, "evaluate", "--family", family, *_THETA,
                       "--p", "1", "--q", "1", "--phase-a", "1e5")
    assert code == 0 and out.count("\n") == 4


def _reference(names, columns, pole):
    """(JSON, CSV) of a table, cell by cell: json.dumps of the row dicts, format(v, ".17g")."""
    rows = []
    for i, flagged in enumerate(pole.tolist()):
        row = {k: float(c[i]) for k, c in zip(names, columns)}
        row["re_u"] = None if flagged else float(columns[len(names)][i])
        row["im_u"] = None if flagged else float(columns[len(names) + 1][i])
        row["pole_flag"] = int(flagged)
        rows.append(row)
    lines = [",".join([*names, "re_u", "im_u", "pole_flag"])]
    lines += [",".join("" if v is None else str(v) if k == "pole_flag" else format(v, ".17g")
                       for k, v in row.items()) for row in rows]
    return json.dumps(rows, indent=2) + "\n", "\n".join(lines) + "\n"


def _profile_case(flags, sol, grid, t=None):
    values, pole = evaluate_grid(sol, grid, t)
    if t is None:
        names, coords = ["theta"], [grid]
    else:
        names, coords = ["x", "t"], [grid, np.full(grid.size, t)]
    return ["evaluate", *flags], names, [*coords, values.real, values.imag], pole


def _writer_case(case):
    """(argv without --format, names, columns, pole) of one CLI table."""
    theta = ["--theta-min", "-1", "--theta-max", "1", "--theta-steps", "5"]
    if case == "reduced":
        # im_u is one bit pattern off the pole in the middle
        sol = universal_solution(Family.KDVB_SINGULAR)
        return _profile_case(["--family", "kdvb-singular", *theta], sol, np.linspace(-1.0, 1.0, 5))
    if case == "complex-phase":
        # no column repeats
        sol = universal_solution(Family.KDVB_REGULAR, theta0=0.3j * math.pi)
        return _profile_case(["--family", "kdvb-regular", "--phase-a", "0.3", *theta], sol,
                             np.linspace(-1.0, 1.0, 5))
    if case == "all-pole":
        # one theta run, every row on the pole
        sol = universal_solution(Family.KDVB_SINGULAR)
        flags = ["--family", "kdvb-singular", "--theta-min", "0", "--theta-max", "0",
                 "--theta-steps", "5"]
        return _profile_case(flags, sol, np.zeros(5))
    if case == "one-row":
        flags = ["--family", "kdvb-regular", "--theta-min", "1", "--theta-max", "1",
                 "--theta-steps", "1"]
        return _profile_case(flags, universal_solution(Family.KDVB_REGULAR), np.ones(1))
    if case == "sweep":
        # three runs of a; (a, theta) = (-5, 0) is a pole of the regular kink
        a, grid = np.linspace(-5.0, 0.0, 3), np.linspace(-1.0, 1.0, 5)
        values, pole = sweep_rows(Family.KDVB_REGULAR, a, grid)
        argv = ["sweep", "--a-min", "-5", "--a-max", "0", "--a-steps", "3", *theta]
        a_col, theta_col = (c.ravel() for c in np.meshgrid(a, grid, indexing="ij"))
        return argv, ["a", "theta"], [a_col, theta_col, values.real.ravel(),
                                      values.imag.ravel()], pole.ravel()
    coeffs = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    params = PhysicalParams(v=locked_rational_velocity(PhysicalParams(v=0.0, **coeffs)), **coeffs)
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    t = 0.25
    # one t run; x = (s/mu)*theta_pole + v*t, theta_pole = -A/k0 with A = sqrt(q/2)
    x_pole = 2.0 * -math.sqrt(sol.reduced.q / 2.0) + params.v * t
    lo, hi = x_pole - 0.5, x_pole + 0.5
    flags = ["--family", "rational-plus", "--x-min", repr(lo), "--x-max", repr(hi),
             "--x-steps", "5", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
             "--v", repr(params.v), "--k0", "1", "--t", repr(t)]
    return _profile_case(flags, sol, np.linspace(lo, hi, 5), t)


def _table(names, columns, pole, fmt, blocks=None):
    """The bytes of _render's table, after checking its shape: [head, block, sep, ..., tail].

    ``blocks``, when given, is the number of row blocks the table must have.
    """
    table = _render(names, columns, pole, fmt)
    assert all(type(part) is bytes for part in table) and len(table) % 2 == 1
    assert blocks is None or len(table) == 2 * blocks + 1
    assert len(set(table[2:-1:2])) <= 1  # one row separator between the blocks
    return b"".join(table)


@pytest.mark.parametrize("case", ["reduced", "physical", "complex-phase", "all-pole", "one-row",
                                  "sweep"])
def test_writer_matches_json_dumps_and_17g_cells(case, capsys):
    argv, names, columns, pole = _writer_case(case)
    middle = [False, False, True, False, False]
    expected = {"all-pole": [True] * 5, "one-row": [False], "complex-phase": [False] * 5,
                "sweep": middle + [False] * 10}.get(case, middle)
    assert pole.tolist() == expected
    reference_json, reference_csv = _reference(names, columns, pole)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == reference_json
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == reference_csv


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_POOL = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, math.inf, -math.inf, math.nan, -math.nan,
         _NAN_PAYLOAD]


@st.composite
def _tables(draw):
    """A table with columns drawn from _POOL, so that runs, tiles and constant columns occur."""
    names = draw(st.sampled_from([["theta"], ["x", "t"], ["a", "theta"]]))
    n = draw(st.integers(1, 48))

    def column():
        kind = draw(st.sampled_from(["constant", "runs", "tiles", "cells"]))
        if kind == "constant":
            return [draw(st.sampled_from(_POOL))] * n
        if kind == "tiles":
            # a drawn block repeated to length n; distinct bit patterns make the tile visible
            width = draw(st.integers(1, min(n, len(_POOL))))
            unique_by = (lambda v: struct.pack("<d", v)) if draw(st.booleans()) else None
            block = draw(st.lists(st.sampled_from(_POOL), min_size=width, max_size=width,
                                  unique_by=unique_by))
            return (block * -(-n // width))[:n]
        width = draw(st.integers(1, n)) if kind == "runs" else 1
        count = -(-n // width)
        cells = draw(st.lists(st.sampled_from(_POOL), min_size=count, max_size=count))
        return [v for v in cells for _ in range(width)][:n]

    coords = [np.array(column()) for _ in names]
    values = np.empty(n, complex)  # re_u, im_u are strided views, as evaluate_grid gives them
    values.real, values.imag = column(), column()
    pole = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return names, [*coords, values.real, values.imag], pole


_ZEROS = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0])  # one run by value, five by bits
_FLAGS = np.array([False, True, False, False, True, False, False, False])
_A_RUNS = np.repeat([-5.0, -4.0, -3.0, -2.0, -1.0], 3)  # a sweep's a column: 5 runs of 3
_BLOCK = [0.0, 1.0, -2.5]
_SWEEP_POLES = np.array([False, True, False] * 4 + [True, False, False])


@given(table=_tables())
@example(table=(["theta"], [_ZEROS, _ZEROS, np.full(8, -0.0)], np.zeros(8, bool)))
@example(table=(["x", "t"], [_ZEROS, np.full(8, math.nan), np.full(8, -math.nan), _ZEROS], _FLAGS))
@example(table=(["a", "theta"], [np.repeat([math.inf, -math.inf], 4), _ZEROS, np.full(8, 0.1),
                                 np.full(8, _NAN_PAYLOAD)], _FLAGS))
@example(table=(["theta"], [np.zeros(6), np.ones(6), np.ones(6)], np.ones(6, bool)))  # all poles
@example(table=(["a", "theta"], [_A_RUNS, np.array(_BLOCK * 4 + [-0.0, 1.0, -2.5]),
                                 np.full(15, 0.1), np.full(15, -0.0)],
                np.zeros(15, bool)))  # theta tiles by value, not by bits: the last block has -0
@example(table=(["a", "theta"], [_A_RUNS,
                                 np.array([1.0, math.nan, 0.0] * 4 + [1.0, _NAN_PAYLOAD, 0.0]),
                                 np.arange(15.0), np.full(15, 2.0)],
                np.zeros(15, bool)))  # the last block differs in a NaN payload
@example(table=(["theta"], [np.array((_BLOCK * 6)[:17]), np.arange(17.0), np.zeros(17)],
                np.zeros(17, bool)))  # p = 3 does not divide n = 17
@example(table=(["a", "theta"], [_A_RUNS, np.array([math.inf, -0.0, math.nan] * 5),
                                 np.where(_SWEEP_POLES, math.nan, 0.5), np.arange(15.0)],
                _SWEEP_POLES))  # a tiled column with pole rows
@example(table=(["x", "t"], [np.ones(1), np.ones(1), np.full(1, -0.0), np.zeros(1)],
                np.zeros(1, bool)))  # one row
@settings(max_examples=300, deadline=None)
def test_writer_property_matches_per_cell_formatting(table):
    names, columns, pole = table
    reference_json, reference_csv = _reference(names, columns, pole)
    assert _table(names, columns, pole, "json") == reference_json.encode()
    assert _table(names, columns, pole, "csv") == reference_csv.encode()


def _figure_files(number, outdir, capsys):
    code, _, _ = run(capsys, "figure", str(number), "--outdir", str(outdir))
    assert code == 0
    manifest = json.loads((resources.files("kdvbwaves") / "figures.json").read_text())
    return manifest[str(number)]


@pytest.mark.parametrize("number", [5, 6])
def test_phase_sweep_figure_matches_per_cell_formatting_of_sweep_rows(number, tmp_path, capsys):
    entry = _figure_files(number, tmp_path, capsys)
    a = PhaseSweep(entry["a_min"], entry["a_max"], entry["a_steps"]).a_values()
    theta = np.linspace(entry["theta_min"], entry["theta_max"], entry["theta_steps"])
    values, pole = sweep_rows(Family(entry["family"]), a, theta)
    columns = [c.ravel() for c in np.meshgrid(a, theta, indexing="ij")]
    _, reference = _reference(["a", "theta"], [*columns, values.real.ravel(),
                                               values.imag.ravel()], pole.ravel())
    written = (tmp_path / entry["output"]).read_text()
    assert written.splitlines() == reference.splitlines() and written == reference


def test_figure_7_matches_per_cell_formatting_of_evaluate_grid(tmp_path, capsys):
    entry = _figure_files(7, tmp_path, capsys)
    x = np.linspace(entry["x_min"], entry["x_max"], entry["x_steps"])
    coeffs = entry["coefficients"]
    for curve in entry["curves"]:
        params = PhysicalParams(s=coeffs["s"], mu=coeffs["mu"], alpha=coeffs["alpha"],
                                beta=coeffs["beta"], v=curve["v"])
        sol = compound_solution_from_physical(Family(entry["family"]), params)
        _, names, columns, pole = _profile_case([], sol, x, float(entry["t"]))
        _, reference = _reference(names, columns, pole)
        written = (tmp_path / entry["output"].replace("{label}", curve["label"])).read_text()
        assert written.splitlines() == reference.splitlines() and written == reference


# ---------------------------------------------------------------------------
# the parallel fill: row blocks formatted in forked children


def _counting_forks(mp):
    """Replace os.fork by a wrapper that counts the forks; returns the count list."""
    forks, real_fork = [], os.fork

    def fork():
        forks.append(1)
        return real_fork()

    mp.setattr(os, "fork", fork)
    return forks


def _assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@given(table=_tables(), cpus=st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_fill_in_row_blocks_matches_per_cell_formatting_property(table, cpus):
    # with 4 cells per process as the cutoff (a row takes at most 4, so no block
    # is empty), a drawn table of 8 or more cells is split into up to cpus blocks
    names, columns, pole = table
    reference_json, reference_csv = _reference(names, columns, pole)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CELLS_PER_PROCESS", 4)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _table(names, columns, pole, "json") == reference_json.encode()
        assert _table(names, columns, pole, "csv") == reference_csv.encode()
    _assert_no_children_left()


# cells the fill formats per row: the sweep's theta text and its two values, x
# and re_u of the physical table (t is one run, im_u one bit pattern), and all
# three columns of the non-finite one
_CELLS_PER_ROW = {"sweep": 3, "non-finite": 3, "physical": 2, "boundary": 2}


@functools.lru_cache(maxsize=None)
def _big_table(case):
    """(names, columns, pole, JSON, CSV) of a table of 40,000 rows, or of the boundary table.

    The 40,000 rows are 80,000 or 120,000 formatted cells (_CELLS_PER_ROW).
    "boundary" is the first _CELLS_PER_PROCESS rows of the physical table:
    exactly 2 * _CELLS_PER_PROCESS cells, the smallest table filled in blocks.
    """
    if case == "boundary":
        names, columns, pole, _, _ = _big_table("physical")
        n = cli._CELLS_PER_PROCESS
        columns, pole = [c[:n] for c in columns], pole[:n]
        return (names, columns, pole, *_reference(names, columns, pole))
    rng = np.random.default_rng(7)
    n = 40_000
    values = np.empty(n, complex)
    values.real = rng.standard_normal(n)
    values.imag = rng.standard_normal(n)
    pole = np.zeros(n, bool)
    pole[rng.choice(n, 50, replace=False)] = True
    if case == "sweep":
        # a column of 5 runs, theta tiled, poles in the values
        a = np.repeat(np.linspace(-5.0, 0.0, 5), n // 5)
        theta = np.tile(np.linspace(-40.0, 40.0, n // 5), 5)
        coords, names = [a, theta], ["a", "theta"]
    elif case == "physical":
        # one t run, im_u one bit pattern off the poles
        coords, names = [np.linspace(-20.0, 20.0, n), np.full(n, 0.25)], ["x", "t"]
        values.imag = 0.0
    else:
        # non-finite values off the poles: Infinity and NaN in JSON, inf and nan in CSV
        coords, names = [np.linspace(-1.0, 1.0, n)], ["theta"]
        values.real[[3, 20_001, n - 1]] = [math.inf, -math.inf, math.nan]
        values.imag[[4, 30_000]] = [math.nan, -math.inf]
    values[pole] = complex(math.nan, math.nan)
    columns = [*coords, values.real, values.imag]
    return (names, columns, pole, *_reference(names, columns, pole))


@pytest.mark.parametrize("case, cpus", [
    ("sweep", 2), ("sweep", 3), ("non-finite", 2), ("non-finite", 3),
    ("physical", 5),  # 80,000 cells: the cell count, not the CPU count, caps the blocks
    ("boundary", 2),  # exactly 2 * _CELLS_PER_PROCESS cells
])
def test_big_table_formats_in_blocks_on_every_cpu(case, cpus, monkeypatch):
    names, columns, pole, reference_json, reference_csv = _big_table(case)
    blocks = min(cpus, len(pole) * _CELLS_PER_ROW[case] // cli._CELLS_PER_PROCESS)
    assert blocks >= 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = _counting_forks(monkeypatch)
    assert _table(names, columns, pole, "json", blocks) == reference_json.encode()
    assert _table(names, columns, pole, "csv", blocks) == reference_csv.encode()
    assert len(forks) == 2 * (blocks - 1)
    _assert_no_children_left()


def _failing_children(failure, mp):
    """Count the forks, and make every forked block fail; returns the count list.

    ``failure`` is "raises" or "killed" (in the child only), "cannot-fork"
    (os.fork raises BlockingIOError), or "none".
    """
    forks = _counting_forks(mp)
    parent, fill_block = os.getpid(), cli._fill_block

    def child_fails(*args):
        if os.getpid() != parent:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the block fails in the child only")
        return fill_block(*args)

    def no_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    if failure != "none":
        mp.setattr(cli, "_fill_block", child_fails)
    if failure == "cannot-fork":
        mp.setattr(os, "fork", no_fork)
    return forks


@pytest.mark.parametrize("failure", ["raises", "killed", "cannot-fork"])
def test_a_block_whose_child_fails_is_formatted_by_the_parent(failure, monkeypatch):
    names, columns, pole, reference_json, reference_csv = _big_table("sweep")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forks = _failing_children(failure, monkeypatch)
    assert _table(names, columns, pole, "json", 3) == reference_json.encode()
    assert _table(names, columns, pole, "csv", 3) == reference_csv.encode()
    assert len(forks) == 4
    _assert_no_children_left()


def test_fork_warning_of_a_multi_threaded_process_is_ignored_around_the_fork(monkeypatch):
    # Python 3.12 warns on os.fork in a process with threads (numpy's BLAS pool),
    # with this category and text; the child runs no numpy, so the fill ignores it
    real_fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may "
                      "lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return real_fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    names, columns, pole, _, reference_csv = _big_table("physical")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _table(names, columns, pole, "csv", 2) == reference_csv.encode()
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DeprecationWarning):  # ignored around the fill's fork only
            warning_fork()
    _assert_no_children_left()


def test_no_fork_below_the_cutoff_or_on_one_cpu(tmp_path, monkeypatch, capsys):
    def no_fork():
        pytest.fail("the fill forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    # every figure table but the phase sweep: at most 2,403 cells (figures 1-4)
    # and 1,202 (each curve of figure 7)
    for number in (1, 2, 3, 4, 7):
        _figure_files(number, tmp_path, capsys)
    names, columns, pole, _, reference_csv = _big_table("sweep")
    n = (2 * cli._CELLS_PER_PROCESS - 1) // 3  # one cell short of two blocks: 3 cells a row
    _, reference_short = _reference(names, [c[:n] for c in columns], pole[:n])
    assert _table(names, [c[:n] for c in columns], pole[:n], "csv", 1) == reference_short.encode()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _table(names, columns, pole, "csv", 1) == reference_csv.encode()


_FIGURE_SHA256 = json.loads((Path(__file__).parent / "data" / "figure_sha256.json").read_text())


@pytest.mark.parametrize("failure", ["none", "raises", "killed", "cannot-fork"])
@pytest.mark.parametrize("number", [5, 6])
def test_phase_sweep_figure_forks_once_on_two_cpus_and_writes_the_pinned_bytes(
        number, failure, tmp_path, monkeypatch, capsys):
    # the 51 x 401 sweep is 61,353 cells: two blocks on 2 CPUs, one on one CPU;
    # a child that fails, or cannot start, costs only time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, _, err = run(capsys, "figure", str(number), "--outdir", str(tmp_path / "one-cpu"))
    assert (code, err) == (0, "")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _failing_children(failure, monkeypatch)
    code, _, err = run(capsys, "figure", str(number), "--outdir", str(tmp_path / "two-cpus"))
    assert (code, err, len(forks)) == (0, "", 1)
    [one_cpu], [two_cpus] = (list((tmp_path / d).iterdir()) for d in ("one-cpu", "two-cpus"))
    assert one_cpu.name == two_cpus.name and one_cpu.read_bytes() == two_cpus.read_bytes()
    assert hashlib.sha256(two_cpus.read_bytes()).hexdigest() == _FIGURE_SHA256[two_cpus.name]
    _assert_no_children_left()


# through the pole at theta = 0; theta and re_u are 80,002 cells, so 2 blocks on 2 CPUs
_BIG = ["evaluate", "--family", "kdvb-singular", "--theta-min=-1", "--theta-max", "1",
        "--theta-steps", "40001"]


@pytest.mark.parametrize("failure", ["none", "raises", "killed", "cannot-fork"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_stdout_and_one_cpu_write_the_same_bytes(fmt, failure, tmp_path, monkeypatch,
                                                             capsys):
    argv = [*_BIG, "--format", fmt]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = run(capsys, *argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _failing_children(failure, monkeypatch)
    stdout = run(capsys, *argv)
    output = tmp_path / f"table.{fmt}"
    to_file = run(capsys, *argv, "--output", str(output))
    assert one_cpu[0] == stdout[0] == 0 and one_cpu[2] == stdout[2] == "" and to_file == (0, "", "")
    assert output.read_bytes() == stdout[1].encode() == one_cpu[1].encode()
    assert (",,1\n" if fmt == "csv" else '"pole_flag": 1') in one_cpu[1]
    assert len(forks) == 2
    _assert_no_children_left()


def test_output_that_is_a_directory_exits_2_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _counting_forks(monkeypatch)
    code, out, err = run(capsys, *_BIG, "--output", str(tmp_path))
    assert (code, out, len(forks)) == (2, "", 1) and err.startswith("error: ")
    _assert_no_children_left()


class _PipeClosedAfter(io.StringIO):
    """A stdout whose reader goes away after ``writes`` writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        if not self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        return super().write(text)


def test_stdout_closed_between_blocks_exits_141_and_leaves_no_child(monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _counting_forks(monkeypatch)
    stdout = _PipeClosedAfter(2)  # the header and the first block go through
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(_BIG)
    assert (code, capsys.readouterr().err, len(forks)) == (141, "", 1)
    written = stdout.getvalue()
    assert written.startswith("theta,re_u,im_u,pole_flag\n-1,") and written.count("\n") == 20_000
    _assert_no_children_left()


def test_parent_peak_memory_of_a_big_export_is_about_twice_the_file(tmp_path, monkeypatch):
    # the parent holds its block as one string and one UTF-8 copy, then every
    # block as bytes, and never the whole table as one string: its traced peak
    # is 2.06 times the file; a whole-table string, and its encoding, made it 3.01
    coeffs = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    v = locked_rational_velocity(PhysicalParams(v=0.0, **coeffs))
    output = tmp_path / "rational.json"
    argv = ["evaluate", "--family", "rational-plus", "--x-min=-3", "--x-max", "3",
            "--x-steps", "100000", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
            "--v", repr(v), "--k0", "1", "--format", "json", "--output", str(output)]
    assert main([*argv[:7], "3", *argv[8:]]) == 0  # a 3-point run: the imports are done
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _counting_forks(monkeypatch)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, len(forks)) == (0, 1)
    assert peak < 2.3 * output.stat().st_size
    _assert_no_children_left()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_header_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--a-min", "-5", "--a-max", "0", "--a-steps", "3",
                       "--theta-min", "-10", "--theta-max", "10", "--theta-steps", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "theta", "re_u", "im_u", "pole_flag"]
    assert len(rows) == 15


def test_single_row_sweep_matches_evaluate(capsys):
    code, sweep_out, _ = run(capsys, "sweep", "--a-min", "0", "--a-max", "0", "--a-steps", "1",
                             "--theta-min", "-5", "--theta-max", "5", "--theta-steps", "11")
    assert code == 0
    code, eval_out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                            "--theta-min", "-5", "--theta-max", "5", "--theta-steps", "11")
    assert code == 0
    _, sweep_rows_ = parse_csv(sweep_out)
    _, eval_rows = parse_csv(eval_out)
    assert [r[1:] for r in sweep_rows_] == eval_rows


def test_sweep_rejects_non_finite_grid_bounds(capsys):
    for bounds in (["--a-min=-inf", "--a-max", "0", "--theta-min", "-1"],
                   ["--a-min", "-5", "--a-max", "0", "--theta-min", "nan"]):
        code, out, err = run(capsys, "sweep", *bounds, "--a-steps", "3",
                             "--theta-max", "1", "--theta-steps", "3")
        assert (code, out) == (2, "") and "must be finite" in err


def test_sweep_reduces_a_by_its_exact_period(capsys):
    # the sweep used to multiply the raw a by pi, so a = 1e15 printed
    # 0.048626918401672568,0.0012137047728994457 at theta = -1
    def sweep(a):
        code, out, _ = run(capsys, "sweep", "--a-min", a, "--a-max", a, "--a-steps", "1",
                           "--theta-min=-1", "--theta-max", "1", "--theta-steps", "3")
        assert code == 0
        return parse_csv(out)[1]

    rows = sweep("1e15")
    assert rows[0] == ["1000000000000000", "-1", "0.048635863194158913", "0", "0"]
    assert [r[1:] for r in rows] == [r[1:] for r in sweep("0")]


def test_sweep_rejects_bad_ranges(capsys):
    code, _, _ = run(capsys, "sweep", "--a-min", "0", "--a-max", "1", "--a-steps", "1",
                     "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--a-min", "1", "--a-max", "0", "--a-steps", "5",
                     "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_scope_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "constant")
    assert code == 0
    assert "CHECK" in out and "SUMMARY" in out and "FAIL" not in out


def test_verify_impossible_tolerance_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "kdvb-regular", "--tolerance", "1e-20")
    assert code == 1
    assert "FAIL" in out


def test_verify_perturbed_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "kdvb-regular", "--perturb", "0.01")
    assert code == 1


@pytest.mark.parametrize("flags", [["--perturb", "1e300", "--scope", "kdvb-regular"],
                                   ["--perturb", "1e308", "--scope", "constant"]])
def test_verify_with_a_nan_residual_fails_its_check(flags, capsys):
    # the residual report used to refuse a NaN maximum with a ValueError traceback
    code, out, err = run(capsys, "verify", *flags)
    assert (code, err) == (1, "")
    assert "max_abs=nan  tol=1.0e-09  FAIL" in out and out.endswith(" failed\n")


@pytest.mark.parametrize("flags", [
    ["--perturb", "nan"], ["--perturb", "inf"], ["--perturb=-inf"],
    ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance=-1e-9"],
])
def test_verify_rejects_non_finite_controls(flags, capsys):
    code, out, err = run(capsys, "verify", "--scope", "constant", *flags)
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_verify_accepts_zero_tolerance(capsys):
    # 0 is a legal (if harsh) threshold: the exact constant checks still pass
    code, out, _ = run(capsys, "verify", "--scope", "constant", "--tolerance", "0")
    assert code == 0 and "FAIL" not in out


def test_verify_audit_report_lines(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "compound-rational")
    assert code == 0
    assert "AUDIT locked-velocity-form: CONSISTENT" in out
    assert "AUDIT mu-weighted-variant: DISCREPANT" in out
    assert "AUDIT epsilon-variant-velocity: DISCREPANT" in out


# ---------------------------------------------------------------------------
# figure


def test_figure_writes_manifest_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "3", "--outdir", str(tmp_path))
    assert code == 0
    path = tmp_path / "fig3_complex_phase_real.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "theta,re_u,im_u,pole_flag"
    assert f"wrote {path}" in out


def test_figure_seven_writes_six_curves(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "7", "--outdir", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("fig7_*.csv"))
    assert len(files) == 6
    assert "fig7_compound_kink_v-1.04.csv" in files


def test_figure_accepts_custom_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "1": {
            "command": "evaluate", "family": "kdvb-regular", "phase_a": 0.0,
            "theta_min": -1.0, "theta_max": 1.0, "theta_steps": 3,
            "output": "tiny.csv",
        }
    }))
    code, _, _ = run(capsys, "figure", "1", "--manifest", str(manifest),
                     "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "tiny.csv").exists()
    code, _, err = run(capsys, "figure", "2", "--manifest", str(manifest),
                       "--outdir", str(tmp_path))
    assert code == 2 and "not in the manifest" in err


_TINY = {"command": "evaluate", "family": "kdvb-regular", "phase_a": 0.0,
         "theta_min": -1.0, "theta_max": 1.0, "theta_steps": 3, "output": "tiny.csv"}


@pytest.mark.parametrize("text", [
    '{"1": ',                                            # not JSON
    "[1, 2]",                                            # not an object
    '{"1": 5}',                                          # entry not an object
    json.dumps({"1": {k: v for k, v in _TINY.items() if k != "theta_max"}}),
    json.dumps({"1": {k: v for k, v in _TINY.items() if k != "family"}}),
    json.dumps({"1": {**_TINY, "family": "kdvb-bogus"}}),
    json.dumps({"1": {**_TINY, "theta_steps": "3"}}),
    json.dumps({"1": {**_TINY, "theta_steps": 2.5}}),
    json.dumps({"1": {**_TINY, "phase_a": True}}),
    json.dumps({"1": {**_TINY, "output": ["tiny.csv"]}}),
    json.dumps({"1": {**_TINY, "theta_min": "-1"}}),
    '{"1": {"command": "evaluate", "family": "kdvb-regular", "phase_a": NaN, '
    '"theta_min": -1, "theta_max": 1, "theta_steps": 3, "output": "tiny.csv"}}',
    json.dumps({"1": {**_TINY, "command": "sweep", "a_min": 0.0, "a_max": 1.0}}),
    json.dumps({"1": {**_TINY, "family": "compound-tanh-plus", "t": 0.0, "x_min": -1.0,
                      "x_max": 1.0, "x_steps": 3, "coefficients": {"s": 2.0, "mu": 1.0},
                      "curves": [{"label": "a", "v": -0.04}]}}),
    json.dumps({"1": {**_TINY, "family": "compound-tanh-plus", "t": 0.0, "x_min": -1.0,
                      "x_max": 1.0, "x_steps": 3,
                      "coefficients": {"s": 2.0, "mu": 1.0, "alpha": 3.0, "beta": 2.0},
                      "curves": [{"label": "a"}]}}),
    json.dumps({"1": {**_TINY, "family": "compound-tanh-plus", "t": 0.0, "x_min": -1.0,
                      "x_max": 1.0, "x_steps": 3,
                      "coefficients": {"s": 2.0, "mu": 1.0, "alpha": 3.0, "beta": 2.0},
                      "curves": "a"}}),
])
def test_figure_rejects_malformed_manifest(text, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(text)
    code, out, err = run(capsys, "figure", "1", "--manifest", str(manifest),
                         "--outdir", str(tmp_path))
    assert (code, out) == (2, "") and err.startswith("error: ")


_CURVES = {"command": "evaluate", "family": "compound-tanh-plus", "t": 0.0, "x_min": -1.0,
           "x_max": 1.0, "x_steps": 3, "output": "f7_{label}.csv",
           "coefficients": {"s": 2.0, "mu": 1.0, "alpha": 3.0, "beta": 2.0}}


@pytest.mark.parametrize("second", [
    5,                                   # not an object
    {"label": "b"},                      # no velocity
    {"label": "b", "v": -9.0},           # negative discriminant: no kink at this velocity
    {"v": -0.5},                         # no label
])
def test_figure_writes_nothing_when_a_later_curve_is_malformed(second, tmp_path, capsys):
    # the first curve's file used to be written before the second curve failed
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"7": {**_CURVES, "curves": [{"label": "a", "v": -0.04},
                                                                second]}}))
    outdir = tmp_path / "out"
    outdir.mkdir()
    code, out, err = run(capsys, "figure", "7", "--manifest", str(manifest),
                         "--outdir", str(outdir))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert list(outdir.iterdir()) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [
    {**_TINY, "theta_min": -1e308, "theta_max": 1e308},
    {**_TINY, "command": "sweep", "a_min": -1e308, "a_max": 1e308, "a_steps": 3},
    {**_CURVES, "x_min": -1e308, "x_max": 1e308, "curves": [{"label": "a", "v": -0.04}]},
])
def test_figure_rejects_overflowing_grid_span(entry, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"1": entry}))
    outdir = tmp_path / "out"
    code, out, err = run(capsys, "figure", "1", "--manifest", str(manifest),
                         "--outdir", str(outdir))
    assert (code, out) == (2, "") and "overflows" in err and not outdir.exists()


def test_figure_rejects_out_of_range_id():
    with pytest.raises(SystemExit) as err:
        main(["figure", "9"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# exit-code contract, one instance of each, plus the console script


def test_exit_code_contract(tmp_path, capsys):
    ok = main(["evaluate", "--family", "kdvb-regular", "--theta-min", "0",
               "--theta-max", "1", "--theta-steps", "2",
               "--output", str(tmp_path / "ok.csv")])
    fail = main(["verify", "--scope", "kdvb-regular", "--tolerance", "1e-20"])
    usage = main(["factorize", "--eq", "compound", "--q", "0"])
    capsys.readouterr()
    assert (ok, fail, usage) == (0, 1, 2)


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["verify", "--scope", "kdvb-regular"],
                                  ["evaluate", "--family", "kdvb-regular", *_THETA]])
def test_closed_stdout_exits_141_without_a_message(argv, monkeypatch, capsys):
    # a reader that went away is not a domain error: no "error: ..." line, no exit 2
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    code = main(argv)
    assert (code, capsys.readouterr().err) == (141, "")


def test_pipe_closed_before_the_first_write_ends_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kdvbwaves.cli", "verify", "--scope", "kdvb-regular"],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kdvbwaves.cli", "factorize", "--eq", "kdvb", "--delta", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "factorization" in proc.stdout
