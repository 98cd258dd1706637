"""End-to-end tests of the command-line interface and its exit-code contract."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import resource
import signal
import struct
import subprocess
import sys
import tracemalloc
import types
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kdvbwaves import (
    Family,
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
from kdvbwaves import solutions as solutions_module
from kdvbwaves import verify as verify_module
from kdvbwaves.cli import _render, main
from kdvbwaves.errors import ParameterDomainError
from kdvbwaves.solutions import _KDVB_FAMILIES


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


@pytest.mark.parametrize("argv, name", [
    (["evaluate", "--family", "kdvb-regular"], "theta"),
    (["evaluate", "--family", "kdvb-regular", "--s", "1", "--mu", "6", "--alpha", "1",
      "--v", "0.2"], "x"),
    (["sweep", "--a-min=-1", "--a-max", "0", "--a-steps", "2"], "theta"),
    (["sweep", "--theta-min=-1", "--theta-max", "0", "--theta-steps", "2"], "a"),
], ids=["evaluate-theta", "evaluate-x", "sweep-theta", "sweep-a"])
def test_one_grid_point_needs_equal_ends(argv, name, capsys):
    # one point between two ends wrote the row of the min alone and exited 0, and
    # several points between equal ends wrote the same row each time (sweep's a exited 2)
    def grid(hi, steps="1"):
        return [f"--{name}-min", "0.5", f"--{name}-max", hi, f"--{name}-steps", steps]

    message = f"error: --{name}-steps 1 needs --{name}-min == --{name}-max\n"
    assert run(capsys, *argv, *grid("2")) == (2, "", message)
    message = f"error: --{name}-steps 3 needs --{name}-min != --{name}-max\n"
    assert run(capsys, *argv, *grid("0.5", "3")) == (2, "", message)
    code, out, err = run(capsys, *argv, *grid("0.5"))
    rows = parse_csv(out)[1]
    assert (code, err) == (0, "") and len(rows) == (2 if argv[0] == "sweep" else 1)
    assert {row[-4 if name == "theta" else -5] for row in rows} == {"0.5"}


def test_evaluate_rejects_ambiguous_grids(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "5",
                       "--x-min", "0", "--x-max", "1", "--x-steps", "5")
    # an --x-* flag puts evaluate in physical mode, which reads no --theta-* flag
    assert code == 2 and err == ("error: kdvb-regular in physical mode does not read "
                                 "--theta-min, --theta-max and --theta-steps\n")
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
    ["--family", "kdvb-regular", *_X, "--beta", "0", "--t=-inf"],  # a KdVB family needs beta = 0
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


_PHYSICAL_KDVB = ["--s", "1", "--mu", "6", "--alpha", "1", "--v", "0.2", "--x-min", "0",
                  "--x-max", "1", "--x-steps", "2"]
_LOCKED_V = repr(locked_rational_velocity(PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0,
                                                         v=0.0)))
_THETA_2 = ["--theta-min", "0", "--theta-max", "1", "--theta-steps", "2"]


def _unread(family, mode, flags):
    return f"{family} in {mode} mode does not read {flags}"


@pytest.mark.parametrize("argv, flag, message", [
    (["evaluate", "--family", "kdvb-regular", *_PHYSICAL_KDVB], ["--beta", "2"],
     "KdVB families require beta = 0; beta != 0 is a compound family"),
    (["evaluate", "--family", "rational-plus", "--q", "0.5", "--k0", "1", *_THETA],
     ["--phase-a", "0.5"], _unread("rational-plus", "reduced", "--phase-a")),
    (["evaluate", "--family", "constant", "--q", "0.5", *_THETA], ["--phase-a", "0.5"],
     _unread("constant", "reduced", "--phase-a")),
    (["evaluate", "--family", "kdvb-regular", *_PHYSICAL_KDVB], ["--phase-a", "0.5"],
     _unread("kdvb-regular", "physical", "--phase-a")),
    (["evaluate", "--family", "compound-tanh-plus", *_X], ["--phase-a", "0.5"],
     _unread("compound-tanh-plus", "physical", "--phase-a")),
    (["evaluate", "--family", "rational-minus", *_X[:-2], "--v", _LOCKED_V, "--k0", "1"],
     ["--phase-a", "0.5"], _unread("rational-minus", "physical", "--phase-a")),
    (["evaluate", "--family", "constant", *_X[:-2], "--v", _LOCKED_V], ["--xi0", "0.5"],
     _unread("constant", "physical", "--xi0")),
    *((["evaluate", "--family", "kdvb-regular", *_THETA_2], flag,
       _unread("kdvb-regular", "reduced", names))
      for flag, names in ((["--k0", "5"], "--k0"), (["--t", "5"], "--t"), (["--q", "3"], "--q"),
                          (["--s", "7", "--mu", "2"], "--s and --mu"))),
    *((["evaluate", "--family", "compound-tanh-plus", *_X], flag,
       _unread("compound-tanh-plus", "physical", names))
      for flag, names in ((["--p", "5", "--q", "3"], "--p and --q"), (["--k0", "4"], "--k0"),
                          (["--branch", "minus"], "--branch"))),
    *((["evaluate", "--family", "rational-plus", "--q", "0.5", *_THETA_2], flag,
       _unread("rational-plus", "reduced", names))
      for flag, names in ((["--branch", "minus"], "--branch"), (["--t", "3"], "--t"))),
    (["factorize", "--eq", "kdvb"], ["--q", "3"], "factorize --eq kdvb does not read --q"),
    (["factorize", "--eq", "compound", "--q", "2"], ["--delta", "1"],
     "factorize --eq compound does not read --delta"),
], ids=["kdvb-beta", "rational-reduced-phase", "constant-reduced-phase", "kdvb-physical-phase",
        "compound-physical-phase", "rational-physical-phase", "constant-physical-xi0",
        "kdvb-reduced-k0", "kdvb-reduced-t", "kdvb-reduced-q", "kdvb-reduced-s-mu",
        "compound-physical-p-q", "compound-physical-k0",
        "compound-physical-branch", "rational-reduced-branch", "rational-reduced-t",
        "factorize-kdvb-q", "factorize-compound-delta"])
def test_a_flag_the_table_cannot_honour_exits_2(argv, flag, message, capsys):
    # each wrote the table or the report without the flag and exited 0: a KdVB kink
    # with beta = 2 (which does not solve the compound PDE beta describes), the a = 0
    # table, the unshifted constant, or the output of the command without a flag its
    # family does not read
    assert run(capsys, *argv)[0] == 0
    assert run(capsys, *argv, *flag) == (2, "", f"error: {message}\n")


_FLAG_BASES = {  # (family, mode) -> (flags that evaluate a table, the flags it accepts)
    **{(family, "reduced"): (extra + _THETA, knobs) for family, extra, knobs in (
        ("kdvb-regular", [], 7), ("kdvb-singular", [], 7),
        ("compound-tanh-plus", ["--p", "1", "--q", "1"], 9),
        ("compound-tanh-minus", ["--p", "1", "--q", "1"], 9),
        ("rational-plus", ["--q", "0.5", "--k0", "1"], 8),
        ("rational-minus", ["--q", "0.5", "--k0", "1"], 8),
        ("constant", ["--q", "0.5"], 9))},
    **{(family, "physical"): (flags, knobs) for family, flags, knobs in (
        ("kdvb-regular", _PHYSICAL_KDVB, 13), ("kdvb-singular", _PHYSICAL_KDVB, 13),
        ("compound-tanh-plus", _X, 13), ("compound-tanh-minus", _X, 13),
        ("rational-plus", [*_X[:-2], "--v", _LOCKED_V, "--k0", "1"], 14),
        ("rational-minus", [*_X[:-2], "--v", _LOCKED_V, "--k0", "1"], 14),
        ("constant", [*_X[:-2], "--v", _LOCKED_V], 14))},
}


@pytest.mark.parametrize("family, mode", list(_FLAG_BASES), ids=map("-".join, _FLAG_BASES))
def test_each_evaluate_flag_is_read_or_left_at_its_default(family, mode, capsys, tmp_path,
                                                           monkeypatch):
    # every flag of evaluate's parser set to a value no base command holds: a table
    # flag that family and mode do not read is exit 2 naming it; any other flag is
    # read, so it changes the output or the family's constructor rejects its value
    monkeypatch.chdir(tmp_path)  # --output writes its file here
    flags, knobs = _FLAG_BASES[family, mode]
    base = ["evaluate", "--family", family, *flags]
    code, base_out, _ = run(capsys, *base)
    assert code == 0
    table = cli._READS["evaluate"]
    named = " ".join(kind for modes in table.values() for kind in modes.values()).split()
    reads = f"{table[mode]['']} {table[mode].get(family.split('-')[0], '')}".split()
    evaluate = next(a for a in cli._PARSER._actions if a.dest == "command").choices["evaluate"]
    accepted = 1  # --family
    for action in evaluate._actions:
        if action.dest in ("help", "family"):
            continue
        flag = action.option_strings[0]
        value = (next(c for c in action.choices if c != action.default) if action.choices
                 else "4" if action.type is int else "0.25")
        code, out, err = run(capsys, *base, flag, value)
        if mode == "reduced" and flag.startswith("--x-"):
            # an --x-* flag is physical mode, which reads no --theta-* flag (nor --p, --q)
            theta = _unread(family, "physical", "--theta-min, --theta-max")
            assert (code, out) == (2, "") and err.startswith(f"error: {theta}")
            assert err.count("\n") == 1 and "--theta-steps" in err
        elif action.dest in named and action.dest not in reads:
            assert (code, out, err) == (2, "", f"error: {_unread(family, mode, flag)}\n")
        else:
            accepted += 1
            assert code == 0 and out != base_out or (code, out) == (2, ""), (flag, err)
            assert "does not read" not in err and "mode needs" not in err, (flag, err)
    assert accepted == knobs


@pytest.mark.parametrize("argv, message", [
    (["factorize", "--eq", "compound"], "compound factorization requires q != 0 (pass --q)"),
    (["evaluate", "--family", "rational-plus", "--theta-min", "0", "--theta-max", "1",
      "--theta-steps", "3"], "reduced mode needs --q"),
    (["evaluate", "--family", "kdvb-regular", "--theta-steps", "3"],
     "reduced mode needs --theta-min and --theta-max"),
    (["evaluate", "--family", "kdvb-regular", "--s", "1", "--mu", "1", "--alpha", "1", "--v", "0",
      "--x-steps", "3"], "physical mode needs --x-min and --x-max"),
], ids=["factorize-compound-q", "rational-q", "theta-bounds", "x-bounds"])
def test_a_missing_flag_exits_2_naming_it(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


_OSCILLATORY = "18p + 6/q - 3 < 0: oscillatory regime, no real-discriminant solution family"


@pytest.mark.parametrize("argv, message", [
    (["factorize", "--eq", "compound", "--q", "-1"],
     "compound factorization requires q > 0 for a real branch coefficient; "
     "q < 0 (beta*s < 0) is unsupported"),
    (["evaluate", "--family", "compound-tanh-plus", "--p", "-1", "--q", "2", "--theta-min=-1",
      "--theta-max", "1", "--theta-steps", "3"], _OSCILLATORY),
    (["evaluate", "--family", "rational-plus", "--q", "-1", "--theta-min", "0", "--theta-max", "1",
      "--theta-steps", "2"], "rational families require q > 0 for a real branch"),
    (["evaluate", "--family", "compound-tanh-plus", "--s", "2", "--mu", "1", "--alpha", "3",
      "--beta", "2", "--v", "-5", "--x-min=-1", "--x-max", "1", "--x-steps", "3"], _OSCILLATORY),
], ids=["factorize-negative-q", "reduced-oscillatory", "rational-negative-q",
        "physical-oscillatory"])
def test_a_regime_without_a_real_solution_exits_2_with_its_message(argv, message, capsys):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, rows", [
    # Delta * zeta overflows to -inf in Re z, and the division by 6 makes Im z NaN:
    # tanh(-inf + NaN i) = -1, so the far left row is the kink's asymptote -0.5
    (["--family", "compound-tanh-plus", "--p", "0.5", "--q", "2", "--theta-min=-1e308",
      "--theta-max", "1e154", "--theta-steps", "3"],
     ["-1e+308,-0.5,0,0", "-5.0000000000000001e+307,-0.5,0,0", "1e+154,0.5,0,0"]),
    # the pole row's stand-in value -(k0/A)/A overflows before the row is flagged, and
    # k0*theta overflows on the other row, which held the constant -0.56903559372884904
    (["--family", "rational-plus", "--q", "1", "--k0=-1e308", "--theta-min=1e-310",
      "--theta-max=-2.5", "--theta-steps", "2"],
     ["9.9999999999999694e-311,,,1", "-2.5,-0.0033501687796110291,0,0"]),
], ids=["compound-kink-far-tail", "rational-pole-stand-in"])
def test_overflow_inside_the_kernel_writes_the_right_rows_without_a_warning(argv, rows, capsys):
    # both wrote these rows and exited 0, after numpy RuntimeWarnings on stderr
    code, out, err = run(capsys, "evaluate", *argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["theta,re_u,im_u,pole_flag", *rows]


_AMPLITUDE_OVERFLOW = ["--family", "kdvb-regular", "--s", "1", "--mu", "1", "--alpha", "1e-160",
                       "--v", "2e150", "--x-min", "0", "--x-max", "1", "--x-steps", "2"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    # the amplitude 2*mu^2/(alpha*s) = 2e160 times w = U + delta ~ 1e150 overflows: this
    # wrote inf (CSV) or Infinity (JSON) rows with pole_flag 0, after a RuntimeWarning
    ([*_AMPLITUDE_OVERFLOW, "--format", "csv"], "float range at a point off the poles"),
    ([*_AMPLITUDE_OVERFLOW, "--format", "json"], "float range at a point off the poles"),
    # 18p overflows, and inf <= 1e-13 * inf snapped the discriminant root to 0: this wrote
    # the constant 0, whose first-integral residual is 7.5e306
    (["--family", "compound-tanh-plus", "--p", "1.5e307", "--q", "2", "--theta-min=-1",
      "--theta-max", "1", "--theta-steps", "3"], "18p + 6/q - 3 must be finite"),
    (["--family", "compound-tanh-plus", "--s", "1", "--mu", "1", "--alpha", "1", "--beta", "1.5",
      "--v", "1.5e307", "--x-min=-1", "--x-max", "1", "--x-steps", "3"],
     "18p + 6/q - 3 must be finite"),
], ids=["amplitude-csv", "amplitude-json", "discriminant-reduced", "discriminant-physical"])
def test_evaluate_out_of_the_float_range_exits_2_with_one_error_line(argv, message, capsys):
    # each of these exited 0
    code, out, err = run(capsys, "evaluate", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


_REDUCED_GRID = ["evaluate", "--family", "kdvb-regular", "--theta-min", "0", "--theta-max", "1"]
_SWEEP_ENDS = ["sweep", "--a-min", "0", "--a-max", "1", "--theta-min", "0", "--theta-max", "1"]


@pytest.mark.parametrize("argv, flags", [
    ([*_REDUCED_GRID, "--theta-steps", str(10**20)], "--theta-steps"),
    ([*_REDUCED_GRID, "--theta-steps", str(2**63 - 1)], "--theta-steps"),
    (["evaluate", "--family", "kdvb-regular", "--s", "1", "--mu", "1", "--alpha", "1", "--v", "0",
      "--x-min", "0", "--x-max", "1", "--x-steps", str(2**62)], "--x-steps"),
    ([*_SWEEP_ENDS, "--a-steps", str(2**62), "--theta-steps", "1"], "--a-steps * --theta-steps"),
    ([*_SWEEP_ENDS, "--a-steps", str(2**31), "--theta-steps", str(2**31)],
     "--a-steps * --theta-steps"),
], ids=["1e20", "2**63-1", "2**62", "a-2**62", "2**31-by-2**31"])
def test_a_grid_no_array_can_hold_exits_2_before_it_is_built(argv, flags, capsys, monkeypatch):
    # these were a ValueError or an IndexError from np.linspace, or, for the sweep whose two
    # grids fit, from np.empty: a traceback and exit 1
    def allocating(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", allocating)
    monkeypatch.setattr(np, "empty", allocating)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a grid of ") and err.count("\n") == 1 and f"({flags})" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_coordinate_error_in_a_later_block_wins_over_a_value_error_in_the_first(fmt, tmp_path,
                                                                                  capsys):
    # every value overflows (_AMPLITUDE_OVERFLOW's amplitude), and theta = x - v*t with
    # v*t = -1.6e308 overflows for x past about 2e307: in the last nine of ten blocks,
    # not in the first.  One call over the whole grid checked theta first
    output = tmp_path / f"table.{fmt}"
    steps = 10 * solutions_module._CELLS_PER_KERNEL
    code, out, err = run(capsys, "evaluate", *_AMPLITUDE_OVERFLOW[:-6], "--t=-8e157",
                         "--x-min", "0", "--x-max", "1e308", "--x-steps", str(steps),
                         "--format", fmt, "--output", str(output))
    assert (code, out) == (2, "")
    assert err == "error: theta = mu*(x - v*t - xi0)/s must be finite at every point\n"
    assert not output.exists()


def test_no_kernel_call_of_figure_or_verify_sees_more_than_a_block(tmp_path, monkeypatch):
    # figure 5's 51 x 401 sweep, 20,451 cells, goes in blocks of whole rows like every grid;
    # verify's jets go in the same blocks
    sizes = []

    def counted(kernel):
        def counting(sol, zeta, rate):
            sizes.append(zeta.size)
            return kernel(sol, zeta, rate)
        return counting

    for family, (kernel, slopes, sign) in list(solutions_module._FAMILIES.items()):
        monkeypatch.setitem(solutions_module._FAMILIES, family, (counted(kernel), slopes, sign))
    for number in range(1, 8):
        assert main(["figure", str(number), "--outdir", str(tmp_path)]) == 0
    assert main(["verify", "--scope", "all"]) == 0
    assert max(sizes) <= solutions_module._CELLS_PER_KERNEL


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


def _flat(columns, pole):
    """(columns, pole) of a shaped table as the writer's rows: broadcast to pole, in C order."""
    return [np.broadcast_to(c, pole.shape).reshape(-1) for c in columns], pole.reshape(-1)


def _made_finite(names, columns, pole):
    """``columns`` with each cell that is not finite off the poles made finite by nan_to_num.

    evaluate and sweep hand the writer only such tables, so JSON's %a meets no
    NaN or infinity; CSV's %.17g spells inf and nan as format() does, and its
    tests keep them.  re_u and im_u stay strided views, as evaluate_grid gives them.
    """
    m = len(names)
    values = np.empty(pole.shape, complex)
    values.real, values.imag = (np.where(pole, c, np.nan_to_num(c, nan=0.5)) for c in columns[m:])
    return [*(np.nan_to_num(c, nan=0.5) for c in columns[:m]), values.real, values.imag]


def _references(names, columns, pole):
    """(JSON, CSV) of a table as the writer must write them: JSON's made finite off the poles."""
    reference_json, _ = _reference(names, *_flat(_made_finite(names, columns, pole), pole))
    return reference_json, _reference(names, *_flat(columns, pole))[1]


def _profile_case(flags, sol, grid, t=None):
    values, pole = evaluate_grid(sol, grid, t)
    names, coords = (["theta"], [grid]) if t is None else (["x", "t"], [grid, t])
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
        # five theta within the pole tolerance of 0, every row on the pole
        sol = universal_solution(Family.KDVB_SINGULAR)
        flags = ["--family", "kdvb-singular", "--theta-min=-1e-10", "--theta-max", "1e-10",
                 "--theta-steps", "5"]
        return _profile_case(flags, sol, np.linspace(-1e-10, 1e-10, 5))
    if case == "one-row":
        flags = ["--family", "kdvb-regular", "--theta-min", "1", "--theta-max", "1",
                 "--theta-steps", "1"]
        return _profile_case(flags, universal_solution(Family.KDVB_REGULAR), np.ones(1))
    if case == "sweep":
        # three a against five theta; (a, theta) = (-5, 0) is a pole of the regular kink
        a, grid = np.linspace(-5.0, 0.0, 3), np.linspace(-1.0, 1.0, 5)
        values, pole = sweep_rows(Family.KDVB_REGULAR, a, grid)
        argv = ["sweep", "--a-min", "-5", "--a-max", "0", "--a-steps", "3", *theta]
        return argv, ["a", "theta"], [a[:, None], grid, values.real, values.imag], pole
    coeffs = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    params = PhysicalParams(v=locked_rational_velocity(PhysicalParams(v=0.0, **coeffs)), **coeffs)
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    t = 0.25
    # t a scalar; x = (s/mu)*theta_pole + v*t, theta_pole = -A/k0 with A = sqrt(q/2)
    x_pole = 2.0 * -math.sqrt(sol.reduced.q / 2.0) + params.v * t
    lo, hi = x_pole - 0.5, x_pole + 0.5
    flags = ["--family", "rational-plus", "--x-min", repr(lo), "--x-max", repr(hi),
             "--x-steps", "5", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
             "--v", repr(params.v), "--k0", "1", "--t", repr(t)]
    return _profile_case(flags, sol, np.linspace(lo, hi, 5), t)


def _table(names, columns, pole, fmt, chunks=None):
    """The bytes of _render's table, after checking its parts: [head, chunk, sep, ..., tail].

    ``chunks``, when given, is the number of row chunks the table must have.
    """
    table = list(_render(names, columns, pole, fmt))
    assert all(type(part) is bytes for part in table) and len(table) % 2 == 1
    assert chunks is None or len(table) == 2 * chunks + 1
    assert len(set(table[2:-1:2])) <= 1  # one row separator between the chunks
    return b"".join(table)


@pytest.mark.parametrize("case", ["reduced", "physical", "complex-phase", "all-pole", "one-row",
                                  "sweep"])
def test_writer_matches_json_dumps_and_17g_cells(case, capsys):
    argv, names, columns, pole = _writer_case(case)
    middle = [False, False, True, False, False]
    expected = {"all-pole": [True] * 5, "one-row": [False], "complex-phase": [False] * 5,
                "sweep": middle + [False] * 10}.get(case, middle)
    assert pole.reshape(-1).tolist() == expected
    reference_json, reference_csv = _reference(names, *_flat(columns, pole))
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == reference_json
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and out == reference_csv


_NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
_POOL = [0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 5e-324, math.inf, -math.inf, math.nan, -math.nan,
         _NAN_PAYLOAD]


@st.composite
def _tables(draw):
    """A profile (a vector, and maybe a scalar t) or an (m, 1) x (k,) sweep, cells from _POOL."""
    names = draw(st.sampled_from([["theta"], ["x", "t"], ["a", "theta"]]))

    def cells(shape):
        # one drawn value throughout (a constant column), or a value per cell
        if draw(st.booleans()):
            return np.full(shape, draw(st.sampled_from(_POOL)))
        count = math.prod(shape)
        return np.reshape(draw(st.lists(st.sampled_from(_POOL), min_size=count,
                                        max_size=count)), shape)

    if names == ["a", "theta"]:
        m, k = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        shape, coords = (m, k), [cells((m, 1)), cells((k,))]
    else:
        n = draw(st.integers(1, 48))
        shape, coords = (n,), [cells((n,))]
        if names == ["x", "t"]:
            coords.append(draw(st.sampled_from(_POOL)))
    values = np.empty(shape, complex)  # re_u, im_u are strided views, as evaluate_grid gives them
    values.real, values.imag = cells(shape), cells(shape)
    pole = np.array(draw(st.lists(st.booleans(), min_size=values.size,
                                  max_size=values.size))).reshape(shape)
    return names, [*coords, values.real, values.imag], pole


_ZEROS = np.array([0.0, -0.0, 0.0, -0.0, 0.0, 0.0, 0.0, 0.0])  # one value, two bit patterns
_FLAGS = np.array([False, True, False, False, True, False, False, False])
_A = np.linspace(-5.0, -1.0, 5)[:, None]  # a sweep's a: five rows of three theta
_SWEEP_POLES = np.array([False, True, False] * 4 + [True, False, False]).reshape(5, 3)


@given(table=_tables())
@example(table=(["theta"], [_ZEROS, _ZEROS, np.full(8, -0.0)], np.zeros(8, bool)))
@example(table=(["x", "t"], [_ZEROS, math.nan, np.full(8, -math.nan), _ZEROS], _FLAGS))
@example(table=(["a", "theta"], [np.array([[math.inf], [-math.inf]]), _ZEROS[:4],
                                 np.full((2, 4), 0.1), np.full((2, 4), _NAN_PAYLOAD)],
                _FLAGS.reshape(2, 4)))
@example(table=(["theta"], [np.zeros(6), np.ones(6), np.ones(6)], np.ones(6, bool)))  # all poles
@example(table=(["a", "theta"], [_A, np.array([1.0, _NAN_PAYLOAD, -0.0]),
                                 np.arange(15.0).reshape(5, 3), np.full((5, 3), 2.0)],
                np.zeros((5, 3), bool)))  # theta with a NaN payload and -0
@example(table=(["a", "theta"], [_A, np.array([math.inf, -0.0, math.nan]),
                                 np.where(_SWEEP_POLES, math.nan, 0.5),
                                 np.arange(15.0).reshape(5, 3)],
                _SWEEP_POLES))  # a repeated theta with pole rows
@example(table=(["a", "theta"], [_A, np.array([0.5]), np.arange(5.0).reshape(5, 1),
                                 np.zeros((5, 1))], np.zeros((5, 1), bool)))  # one theta
@example(table=(["a", "theta"], [np.array([[-0.0]]), np.linspace(-1.0, 1.0, 4),
                                 np.full((1, 4), 0.1), np.zeros((1, 4))],
                np.array([[False, True, False, False]])))  # one a
@example(table=(["x", "t"], [np.ones(1), 1.0, np.full(1, -0.0), np.zeros(1)],
                np.zeros(1, bool)))  # one row
@settings(max_examples=300, deadline=None)
def test_writer_property_matches_per_cell_formatting(table):
    names, columns, pole = table
    reference_json, reference_csv = _references(names, columns, pole)
    finite = _made_finite(names, columns, pole)
    assert _table(names, finite, pole, "json") == reference_json.encode()
    assert _table(names, columns, pole, "csv") == reference_csv.encode()


_MANIFEST = json.loads((resources.files("kdvbwaves") / "figures.json").read_text())


def _figure_files(number, outdir, capsys):
    """Write figure ``number`` into ``outdir`` and return its entry of the packaged manifest."""
    code, _, _ = run(capsys, "figure", str(number), "--outdir", str(outdir))
    assert code == 0
    return _MANIFEST[str(number)]


@pytest.mark.parametrize("number", [5, 6])
def test_phase_sweep_figure_matches_per_cell_formatting_of_sweep_rows(number, tmp_path, capsys):
    entry = _figure_files(number, tmp_path, capsys)
    a = np.linspace(entry["a_min"], entry["a_max"], entry["a_steps"])
    theta = np.linspace(entry["theta_min"], entry["theta_max"], entry["theta_steps"])
    values, pole = sweep_rows(Family(entry["family"]), a, theta)
    columns = [a[:, None], theta, values.real, values.imag]
    _, reference = _reference(["a", "theta"], *_flat(columns, pole))
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
        _, reference = _reference(names, *_flat(columns, pole))
        written = (tmp_path / entry["output"].replace("{label}", curve["label"])).read_text()
        assert written.splitlines() == reference.splitlines() and written == reference


# ---------------------------------------------------------------------------
# the streaming fill: row chunks dealt to forked children, written in order


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


@given(table=_tables(), cpus=st.integers(2, 4), cutoff=st.sampled_from([4, 16]))
@settings(max_examples=60, deadline=None)
def test_chunks_dealt_to_forked_children_match_per_cell_formatting_property(table, cpus, cutoff):
    # with 4 or 16 cells per process as the cutoff and chunks of 20 times as many
    # bytes, a drawn table of 2 * cutoff or more formatted cells is dealt in chunks
    # of a few rows to up to cpus processes.  A row is estimated at 20 bytes a
    # formatted cell or more, so while the chunk bytes are at most 20 times the
    # cutoff, as in the CLI, a table has at least as many chunks as processes
    assert cli._BYTES_PER_CHUNK <= 20 * cli._CELLS_PER_PROCESS
    names, columns, pole = table
    reference_json, reference_csv = _references(names, columns, pole)
    finite = _made_finite(names, columns, pole)
    deal = cli._deal

    def dealt(task, count, workers):
        assert workers <= count
        return deal(task, count, workers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CELLS_PER_PROCESS", cutoff)
        mp.setattr(cli, "_BYTES_PER_CHUNK", 20 * cutoff)
        mp.setattr(cli, "_deal", dealt)
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert _table(names, finite, pole, "json") == reference_json.encode()
        assert _table(names, columns, pole, "csv") == reference_csv.encode()
    _assert_no_children_left()


# the cells the fill formats in a row, each with its placeholder (None for the
# value's, %.17g or %a): the sweep's theta bytes and its two values, x and re_u
# of the physical table (t is a scalar, im_u one bit pattern), and all three
# columns of the non-finite one
_FORMATTED = {"sweep": {"theta": "%s", "re_u": None, "im_u": None},
              "non-finite": dict.fromkeys(["theta", "re_u", "im_u"]),
              "physical": dict.fromkeys(["x", "re_u"]), "boundary": dict.fromkeys(["x", "re_u"])}


def _rows_per_chunk(table, fmt, formatted):
    """(rows, rows a chunk) of ``table``, a table's text as ``fmt`` with the ``formatted`` cells.

    A chunk is the rows of at most _BYTES_PER_CHUNK bytes, a row taken as its
    template plus 20 bytes a formatted cell.  The template is the first row,
    which is off the poles, with the text of each formatted cell replaced by
    its placeholder.  The rows are those of ``table``, which may be cut short
    after its first row.
    """
    if fmt == "json":
        first = table[2:table.index("\n  }") + 4]
        lines = (line.strip().rstrip(",").split(": ") for line in first.splitlines()[1:-1])
        cells, rows = {key.strip('"'): text for key, text in lines}, table.count("\n  }")
    else:
        header, first, _ = table.split("\n", 2)
        cells, rows = dict(zip(header.split(","), first.split(","))), table.count("\n") - 1
    value = "%a" if fmt == "json" else "%.17g"
    template = len(first) + sum(len(p or value) - len(cells[k]) for k, p in formatted.items())
    return rows, cli._BYTES_PER_CHUNK // (template + 20 * len(formatted))


def _chunks(table, fmt, formatted):
    """The number of row chunks of ``table``, as _rows_per_chunk reads it."""
    rows, per = _rows_per_chunk(table, fmt, formatted)
    return -(-rows // per)


@functools.lru_cache(maxsize=None)
def _big_table(case):
    """(names, columns, pole, JSON, CSV) of a table of 40,000 rows, or of the boundary table.

    JSON is the text of the table made finite off the poles (_made_finite), which
    only the non-finite table changes.  The 40,000 rows are 80,000 or 120,000
    formatted cells (_FORMATTED).
    "boundary" is the first _CELLS_PER_PROCESS rows of the physical table:
    exactly 2 * _CELLS_PER_PROCESS cells, the smallest table dealt to two processes.
    """
    if case == "boundary":
        names, (x, t, re_u, im_u), pole, _, _ = _big_table("physical")
        n = cli._CELLS_PER_PROCESS
        columns, pole = [x[:n], t, re_u[:n], im_u[:n]], pole[:n]
        return (names, columns, pole, *_references(names, columns, pole))
    rng = np.random.default_rng(7)
    n = 40_000
    shape = (5, n // 5) if case == "sweep" else (n,)
    values = np.empty(shape, complex)
    values.real = rng.standard_normal(shape)
    values.imag = rng.standard_normal(shape)
    pole = np.zeros(n, bool)
    pole[rng.choice(n, 50, replace=False)] = True
    pole = pole.reshape(shape)
    if case == "sweep":
        # five a against 8,000 theta, poles in the values
        names = ["a", "theta"]
        coords = [np.linspace(-5.0, 0.0, 5)[:, None], np.linspace(-40.0, 40.0, n // 5)]
    elif case == "physical":
        # a scalar t, im_u one bit pattern off the poles
        coords, names = [np.linspace(-20.0, 20.0, n), 0.25], ["x", "t"]
        values.imag = 0.0
    else:
        # non-finite values off the poles, inf and nan in CSV
        coords, names = [np.linspace(-1.0, 1.0, n)], ["theta"]
        values.real[[3, 20_001, n - 1]] = [math.inf, -math.inf, math.nan]
        values.imag[[4, 30_000]] = [math.nan, -math.inf]
    values[pole] = complex(math.nan, math.nan)
    columns = [*coords, values.real, values.imag]
    return (names, columns, pole, *_references(names, columns, pole))


@pytest.mark.parametrize("case, cpus", [
    ("sweep", 2), ("sweep", 3), ("non-finite", 2), ("non-finite", 3),
    ("physical", 5),  # 80,000 cells: the cell count, not the CPU count, caps the processes
    ("boundary", 2),  # exactly 2 * _CELLS_PER_PROCESS cells
])
def test_big_table_is_dealt_in_chunks_to_every_cpu(case, cpus, monkeypatch):
    names, columns, pole, reference_json, reference_csv = _big_table(case)
    workers = min(cpus, pole.size * len(_FORMATTED[case]) // cli._CELLS_PER_PROCESS)
    json_chunks = _chunks(reference_json, "json", _FORMATTED[case])
    csv_chunks = _chunks(reference_csv, "csv", _FORMATTED[case])
    assert 2 <= workers <= min(json_chunks, csv_chunks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = _counting_forks(monkeypatch)
    finite = _made_finite(names, columns, pole)
    assert _table(names, finite, pole, "json", json_chunks) == reference_json.encode()
    assert _table(names, columns, pole, "csv", csv_chunks) == reference_csv.encode()
    assert len(forks) == 2 * (workers - 1)
    _assert_no_children_left()


_FAILURES = ["raises", "killed", "killed-after-a-chunk", "cannot-fork"]


def _failing_children(failure, mp):
    """Count the forks, and make every forked child fail; returns (forks, records).

    ``failure`` is "raises" or "killed" (in the child, at its first chunk),
    "killed-after-a-chunk" (at its second chunk, once it has sent its first),
    "cannot-fork" (os.fork raises BlockingIOError), or "none".  ``records``
    lists each chunk the parent took whole from a child's pipe.
    """
    forks = _counting_forks(mp)
    parent, deal, record = os.getpid(), cli._deal, cli._record
    records = []

    def failing_deal(task, count, workers):
        def child_fails(j):
            if os.getpid() != parent:
                if failure == "killed" or failure == "killed-after-a-chunk" and j >= workers:
                    os.kill(os.getpid(), signal.SIGKILL)
                if failure != "killed-after-a-chunk":
                    raise RuntimeError("the chunk fails in the child only")
            return task(j)

        return deal(child_fails, count, workers)

    def counted_record(pipe):
        if (chunk := record(pipe)) is not None:
            records.append(chunk)
        return chunk

    def no_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    if failure != "none":
        mp.setattr(cli, "_deal", failing_deal)
    if failure == "cannot-fork":
        mp.setattr(os, "fork", no_fork)
    mp.setattr(cli, "_record", counted_record)
    return forks, records


@pytest.mark.parametrize("failure", _FAILURES)
def test_the_chunks_of_a_child_that_fails_are_formatted_by_the_parent(failure, monkeypatch):
    # the chunks dealt to 3 processes: as CSV 49, the children's 1, 4, ..., 46 and
    # 2, 5, ..., 47
    names, columns, pole, reference_json, reference_csv = _big_table("sweep")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    forks, records = _failing_children(failure, monkeypatch)
    chunks = _chunks(reference_json, "json", _FORMATTED["sweep"])
    assert _table(names, columns, pole, "json", chunks) == reference_json.encode()
    assert len(records) == (2 if failure == "killed-after-a-chunk" else 0)
    chunks = _chunks(reference_csv, "csv", _FORMATTED["sweep"])
    assert _table(names, columns, pole, "csv", chunks) == reference_csv.encode()
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
        chunks = _chunks(reference_csv, "csv", _FORMATTED["physical"])
        assert _table(names, columns, pole, "csv", chunks) == reference_csv.encode()
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
    names, (a, theta, re_u, im_u), pole, _, reference_csv = _big_table("sweep")
    k = (2 * cli._CELLS_PER_PROCESS - 1) // 6  # two a of k theta, 3 cells a row: 32,766 cells
    short = [a[:2], theta[:k], re_u[:2, :k], im_u[:2, :k]], pole[:2, :k]
    _, reference_short = _reference(names, *_flat(*short))
    chunks = _chunks(reference_short, "csv", _FORMATTED["sweep"])  # 14 chunks, one process
    assert _table(names, *short, "csv", chunks) == reference_short.encode()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    chunks = _chunks(reference_csv, "csv", _FORMATTED["sweep"])
    assert _table(names, [a, theta, re_u, im_u], pole, "csv", chunks) == reference_csv.encode()


_FIGURE_SHA256 = json.loads((Path(__file__).parent / "data" / "figure_sha256.json").read_text())


@pytest.mark.parametrize("failure", ["none", *_FAILURES])
@pytest.mark.parametrize("number", [5, 6])
def test_phase_sweep_figure_forks_once_on_two_cpus_and_writes_the_pinned_bytes(
        number, failure, tmp_path, monkeypatch, capsys):
    # the 51 x 401 sweep is 61,353 cells in 25 chunks: dealt to two processes on
    # 2 CPUs, all formatted by one on one CPU; a child that fails, or cannot
    # start, costs only time
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    code, _, err = run(capsys, "figure", str(number), "--outdir", str(tmp_path / "one-cpu"))
    assert (code, err) == (0, "")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, _ = _failing_children(failure, monkeypatch)
    code, _, err = run(capsys, "figure", str(number), "--outdir", str(tmp_path / "two-cpus"))
    assert (code, err, len(forks)) == (0, "", 1)
    [one_cpu], [two_cpus] = (list((tmp_path / d).iterdir()) for d in ("one-cpu", "two-cpus"))
    assert one_cpu.name == two_cpus.name and one_cpu.read_bytes() == two_cpus.read_bytes()
    assert hashlib.sha256(two_cpus.read_bytes()).hexdigest() == _FIGURE_SHA256[two_cpus.name]
    _assert_no_children_left()


# through the pole at theta = 0; theta and re_u are 80,002 cells: as CSV 34 chunks of
# 1,191 rows (the last 700), dealt to 2 processes on 2 CPUs
_BIG = ["evaluate", "--family", "kdvb-singular", "--theta-min=-1", "--theta-max", "1",
        "--theta-steps", "40001"]


@pytest.mark.parametrize("failure", ["none", *_FAILURES])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_file_stdout_and_one_cpu_write_the_same_bytes(fmt, failure, tmp_path, monkeypatch,
                                                             capsys):
    argv = [*_BIG, "--format", fmt]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    one_cpu = run(capsys, *argv)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, records = _failing_children(failure, monkeypatch)
    stdout = run(capsys, *argv)
    output = tmp_path / f"table.{fmt}"
    to_file = run(capsys, *argv, "--output", str(output))
    assert one_cpu[0] == stdout[0] == 0 and one_cpu[2] == stdout[2] == "" and to_file == (0, "", "")
    assert output.read_bytes() == stdout[1].encode() == one_cpu[1].encode()
    assert (",,1\n" if fmt == "csv" else '"pole_flag": 1') in one_cpu[1]
    assert len(forks) == 2
    # the child formats every other chunk, of the output file and of stdout
    children = _chunks(one_cpu[1], fmt, dict.fromkeys(["theta", "re_u"])) // 2
    assert len(records) == {"none": 2 * children, "killed-after-a-chunk": 2}.get(failure, 0)
    _assert_no_children_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_bytes_of_a_table_in_blocks_are_the_output_file_bytes(fmt, tmp_path):
    # in a fresh interpreter, where sys.stdout is a real text stream over a pipe:
    # its binary layer gets the file's bytes.  Two CPUs and _BIG's 80,002
    # cells deal its chunks to two processes, every other one to a forked child
    script = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
              "from kdvbwaves.cli import main; sys.exit(main(sys.argv[1:]))")
    argv = [sys.executable, "-c", script, *_BIG, "--format", fmt]
    output = tmp_path / f"table.{fmt}"
    to_file = subprocess.run([*argv, "--output", str(output)], capture_output=True, timeout=60)
    stdout = subprocess.run(argv, capture_output=True, timeout=60)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (stdout.returncode, stdout.stderr) == (0, b"")
    assert stdout.stdout == output.read_bytes()
    assert stdout.stdout.count(b"\n") == (40_002 if fmt == "csv" else 6 * 40_001 + 2)


def test_output_that_is_a_directory_exits_2_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    # the file is opened before the first chunk is formatted, so nothing forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _counting_forks(monkeypatch)
    code, out, err = run(capsys, *_BIG, "--output", str(tmp_path))
    assert (code, out, len(forks)) == (2, "", 0) and err.startswith("error: ")
    _assert_no_children_left()


class _PipeClosedAfter(io.BufferedIOBase):
    """stdout's binary layer, whose reader goes away after ``writes`` writes.

    ``written`` keeps the bytes of the writes that went through.
    """

    def __init__(self, writes):
        super().__init__()
        self.writes, self.written = writes, bytearray()

    def writable(self):
        return True

    def write(self, data):
        if not self.writes:
            raise BrokenPipeError(32, "Broken pipe")
        self.writes -= 1
        self.written += data
        return len(data)


def _stdout_over(binary):
    """A stand-in for sys.stdout: a UTF-8 text layer that passes each write on to ``binary``."""
    return io.TextIOWrapper(binary, encoding="utf-8", write_through=True)


@pytest.mark.parametrize("chunks", [0, 1, 2, 4])
def test_stdout_closed_after_k_chunks_exits_141_and_leaves_no_child(chunks, monkeypatch, capsys):
    # the header and k of _BIG's 34 chunks go through, with the k - 1 separators
    # between them; the next write meets the closed pipe.  At k = 0 the header's
    # write fails before the first chunk is formatted, so nothing forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = _counting_forks(monkeypatch)
    pipe = _PipeClosedAfter(2 * chunks)
    monkeypatch.setattr(sys, "stdout", _stdout_over(pipe))
    code = main(_BIG)
    assert (code, capsys.readouterr().err, len(forks)) == (141, "", 1 if chunks else 0)
    written = bytes(pipe.written)
    assert not written.endswith(b"\n")
    if chunks:
        assert written.startswith(b"theta,re_u,im_u,pole_flag\n-1,")
        _, per = _rows_per_chunk(written.decode(), "csv", dict.fromkeys(["theta", "re_u"]))
        assert written.count(b"\n") == per * chunks
    else:
        assert written == b""
    _assert_no_children_left()


class _TextRefused(io.TextIOWrapper):
    """A stdout whose text layer refuses every write; its binary buffer keeps what it gets."""

    def write(self, text):
        raise AssertionError(f"{len(text)} characters written to stdout's text layer")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    _BIG,
    ["sweep", "--family", "kdvb-singular", "--a-min=-1", "--a-max", "1", "--a-steps", "3",
     *_THETA],
], ids=["evaluate", "sweep"])
def test_a_table_on_stdout_is_the_output_file_written_to_its_binary_layer(argv, fmt, tmp_path,
                                                                           monkeypatch, capsys):
    output = tmp_path / f"table.{fmt}"
    assert run(capsys, *argv, "--format", fmt, "--output", str(output)) == (0, "", "")
    buffer = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", _TextRefused(buffer, encoding="utf-8"))
    assert main([*argv, "--format", fmt]) == 0
    assert buffer.getvalue() == output.read_bytes()
    _assert_no_children_left()


def _traced_peak(call):
    """(call's result, the peak of the memory tracemalloc traces while it runs)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Traced bytes a grid point may cost an evaluation: the grid (8), the values
# (16), the pole mask (1) and a share of one block's temporaries.  On the
# 100,000-point export below it measures 30.4; in blocks of 2**15 cells it
# measured 46.7, evaluating the whole grid at once 89.
_EVALUATION_BYTES_PER_POINT = 40
# What the writer may hold above that: one chunk of about _BYTES_PER_CHUNK
# bytes, as its cells and its bytes, or a child's record.  That is less than
# the evaluation's block temporaries it follows, so a CSV export measures
# 0.002 MiB above its evaluation, and so does a JSON export; chunks of 2**19
# bytes measured 1.41 and 1.38 MiB.
_CHUNK_ALLOWANCE = 2**18


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parent_peak_memory_of_a_big_export_is_its_evaluation_and_one_chunk(fmt, cpus, tmp_path,
                                                                            monkeypatch):
    # the evaluation holds the values and the pole mask, and a big grid's
    # kernel temporaries one block at a time.  The writer then holds one chunk
    # at a time.  Holding every block at once made the export 2.06 times the
    # file, the whole-grid kernel 8.49 MiB, blocks of 2**15 cells with chunks
    # of 2**14 cells 4.45 MiB as CSV and 6.22 MiB as JSON, and chunks of 2**19
    # bytes 4.31 and 4.29 MiB, against 4.06 MiB allowed here; it measures 2.90
    # MiB
    coeffs = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    params = PhysicalParams(v=locked_rational_velocity(PhysicalParams(v=0.0, **coeffs)), **coeffs)
    output = tmp_path / f"rational.{fmt}"
    argv = ["evaluate", "--family", "rational-plus", "--x-min=-3", "--x-max", "3",
            "--x-steps", "100000", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
            "--v", repr(params.v), "--k0", "1", "--format", fmt, "--output", str(output)]
    assert main([*argv[:7], "3", *argv[8:]]) == 0  # a 3-point run: the imports are done
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    grid = functools.partial(cli._grid, -3.0, 3.0, 100_000, "x")
    _, evaluation = _traced_peak(lambda: evaluate_grid(sol, grid(), 0.0))
    bound = _EVALUATION_BYTES_PER_POINT * 100_000
    assert evaluation <= bound
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    forks = _counting_forks(monkeypatch)
    code, export = _traced_peak(lambda: main(argv))
    assert (code, len(forks)) == (0, cpus - 1)
    assert export <= bound + _CHUNK_ALLOWANCE
    assert output.stat().st_size > 4 * 2**20
    if fmt == "json":  # a chunk is sized by its bytes, so a JSON row's length costs little
        csv = [*argv[:-3], "csv", "--output", str(tmp_path / "rational.csv")]
        assert export <= _traced_peak(lambda: main(csv))[1] + 2**16
    _assert_no_children_left()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", ["profile", "figure-5"])
def test_a_chunk_is_at_most_2_16_bytes_and_4_a_formatted_cell(case, fmt, monkeypatch):
    # a chunk's rows are estimated at their template plus 20 bytes a formatted
    # cell, and a %.17g or repr cell is at most 24 bytes (-2.2250738585072014e-308),
    # so a chunk exceeds 2**16 bytes by at most 4 bytes a formatted cell.  A row
    # here has three: theta and both values (a sweep's a is in its group's row
    # template).  Chunks of 2**16 bytes stay in the sizes the allocator reuses;
    # those of 2**19 were handed back to the system and faulted in again
    if case == "profile":  # 100,000 rows
        grid = np.linspace(-40.0, 40.0, 100_000)
        sol = universal_solution(Family.KDVB_REGULAR, theta0=-2.5j * math.pi)
        values, pole = evaluate_grid(sol, grid)
        names, columns = ["theta"], [grid, values.real, values.imag]
    else:  # the 51 x 401 phase sweep
        entry = _MANIFEST["5"]
        a = np.linspace(entry["a_min"], entry["a_max"], entry["a_steps"])
        theta = np.linspace(entry["theta_min"], entry["theta_max"], entry["theta_steps"])
        values, pole = sweep_rows(Family(entry["family"]), a, theta)
        names, columns = ["a", "theta"], [a[:, None], theta, values.real, values.imag]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    chunks = list(_render(names, columns, pole, fmt))[1:-1:2]
    rows = [chunk.count(b"\n") + 1 if fmt == "csv" else chunk.count(b"\n  }") for chunk in chunks]
    assert len(chunks) > 1 and sum(rows) == pole.size
    assert all(len(chunk) <= 2**16 + 4 * 3 * k for chunk, k in zip(chunks, rows))


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


_SPAN = "--a-max - --a-min overflows: the grid span must be finite"


@pytest.mark.parametrize("a_min, a_max, a_steps, message", [
    (0.5, 0.5, 3, "--a-steps 3 needs --a-min != --a-max"),
    (0.0, 1.0, 1, "--a-steps 1 needs --a-min == --a-max"),
    (-1e308, 1e308, 3, _SPAN),
    (-1e308, 1e308, 1, _SPAN),
])
def test_sweep_rejects_bad_a_ranges(a_min, a_max, a_steps, message, capsys):
    flags = [f"--a-min={a_min!r}", f"--a-max={a_max!r}", f"--a-steps={a_steps}"]
    code, out, err = run(capsys, "sweep", *flags, *_THETA)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sweep_of_descending_a_writes_the_ascending_rows_in_descending_a(capsys):
    # a_min > a_max exited 2 ("phase sweep needs a_min < a_max"), where theta and x descend
    def rows(a_min, a_max):
        code, out, err = run(capsys, "sweep", f"--a-min={a_min}", f"--a-max={a_max}",
                             "--a-steps", "5", *_THETA)
        assert (code, err) == (0, "")
        return parse_csv(out)[1]

    descending, ascending = rows(1, 0), rows(0, 1)
    assert [row[0] for row in descending[::3]] == ["1", "0.75", "0.5", "0.25", "0"]
    assert descending == [row for k in range(4, -1, -1) for row in ascending[3 * k:3 * k + 3]]


def test_sweep_of_one_a_writes_one_row_per_theta(capsys):
    # a_steps 1 with a_min == a_max used to exit 2 ("phase sweep needs at least 2 steps")
    code, out, err = run(capsys, "sweep", "--a-min=-2.5", "--a-max=-2.5", "--a-steps", "1",
                         "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert (code, err) == (0, "") and len(parse_csv(out)[1]) == 3


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


@pytest.mark.parametrize("name, exc, blocks", [
    ("factorize_kdvb", ZeroDivisionError("float division by zero"), ["factorization"]),
    ("compound_solution_from_physical", ParameterDomainError("leaves the float range"),
     ["compound-tanh-plus", "compound-tanh-minus"]),
])
def test_a_verify_block_that_raises_is_one_failed_check(name, exc, blocks, monkeypatch, capsys):
    # a product function that raises inside a block: that block's one FAIL line, the other
    # blocks' lines as they are, exit 1 and nothing on stderr
    def product(*args, **kwargs):
        raise exc

    names = [scopes[0] for scopes, _ in verify_module._BLOCKS]
    expected = [[f"block {block}"] if block in blocks else
                [c.name for c in verify_module.verification_suite(scope=block).checks]
                for block in names]
    monkeypatch.setattr(verify_module, name, product)
    code, out, err = run(capsys, "verify", "--scope", "all")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    checks = [line[6:line.index("  max_abs=")].rstrip()
              for line in lines if line.startswith("CHECK ")]
    assert checks == [check for rows in expected for check in rows]
    failed = [k for k, line in enumerate(lines) if line.endswith("FAIL")]
    assert [lines[k].split()[2] for k in failed] == blocks
    for k in failed:
        assert lines[k].endswith("max_abs=nan  tol=0.0e+00  FAIL")
        assert lines[k + 1] == f"      {type(exc).__name__}: {exc}"


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


# keys of the manifest's own, not flags of the entry's command
_MANIFEST_KEYS = ("title", "command", "output", "curves", "coefficients", "label")


def _flags_of(command):
    """dest -> action of each flag of subcommand ``command`` in the parser main uses."""
    parser = next(a for a in cli._PARSER._actions if a.dest == "command").choices[command]
    return {a.dest: a for a in parser._actions if a.option_strings and a.dest != "help"}


def _kind(entry):
    return "sweep" if entry["command"] == "sweep" else "curves" if "curves" in entry else "profile"


def _typed(record, fields):
    """Whether ``record`` holds every field with its type: a float finite, a bool no number."""
    return type(record) is dict and all(
        type(record.get(key)) is kind and (kind is not float or math.isfinite(record[key]))
        for key, kind in fields.items())


def _check_entry(entry):
    """Assert that a manifest entry spells its commands: each key a flag of the command, typed.

    The flags and their types are read from the parser; which flags each kind
    of entry must spell is what _commands spells.
    """
    assert _typed(entry, {"command": str, "output": str})
    assert entry["command"] in ("evaluate", "sweep")
    records = [entry]
    if _kind(entry) == "curves":
        assert _typed(entry, {"coefficients": dict, "curves": list}) and entry["curves"]
        assert all(_typed(c, {"label": str}) for c in entry["curves"])
        assert "{label}" in entry["output"]
        records += [entry["coefficients"], *entry["curves"]]
    flags = _flags_of(entry["command"])
    for record in records:
        for key, value in record.items():
            if key not in _MANIFEST_KEYS:
                assert key in flags, f"{key!r} is no flag of {entry['command']}"
                action = flags[key]
                assert _typed(record, {key: action.type or str})
                assert action.choices is None or value in action.choices
    try:
        _commands(entry)
    except KeyError as missing:
        raise AssertionError(f"the entry spells no {missing}") from None
    if _kind(entry) == "profile":
        assert Family(entry["family"]) in _KDVB_FAMILIES


def test_packaged_manifest_holds_the_seven_figures():
    assert list(_MANIFEST) == ["_comment", *map(str, range(1, 8))]
    assert all(type(line) is str for line in _MANIFEST["_comment"])


@pytest.mark.parametrize("number", range(1, 8))
def test_packaged_manifest_holds_what_figure_reads(number):
    # figure indexes its entry without checking it, so the program data is checked here
    _check_entry(_MANIFEST[str(number)])


_PROFILE, _SWEEP, _CURVES = _MANIFEST["1"], _MANIFEST["5"], _MANIFEST["7"]


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize("entry", [
    5,                                                   # not an object
    _without(_PROFILE, "theta_max"),
    _without(_PROFILE, "family"),
    {**_PROFILE, "family": "kdvb-bogus"},
    {**_PROFILE, "family": "compound-tanh-plus"},        # a profile of no KdVB family
    {**_PROFILE, "command": "factorize"},
    {**_PROFILE, "theta_steps": "3"},
    {**_PROFILE, "theta_steps": 2.5},
    {**_PROFILE, "phase_a": True},
    {**_PROFILE, "phase_a": math.nan},
    {**_PROFILE, "theta_min": "-1"},
    {**_PROFILE, "output": ["fig1.csv"]},
    _without(_SWEEP, "a_steps"),
    {**_SWEEP, "family": "compound-tanh-plus"},
    {**_SWEEP, "family": "rational-minus"},
    {**_SWEEP, "family": "constant"},
    {**_CURVES, "coefficients": {"s": 2.0, "mu": 1.0}},
    {**_CURVES, "curves": "a"},
    {**_CURVES, "curves": []},
    {**_CURVES, "curves": [{"label": "a", "v": -0.04}, 5]},
    {**_CURVES, "curves": [{"label": "a", "v": -0.04}, {"label": "b"}]},
    {**_CURVES, "curves": [{"label": "a", "v": -0.04}, {"v": -0.5}]},
    {**_CURVES, "output": "fig7.csv"},                   # every curve would write one file
    {**_PROFILE, "phase-a": -2.5},                       # a misspelt flag
    {**_without(_PROFILE, "phase_a"), "phase-a": -2.5},
    {**_PROFILE, "theta_step": 801},
    {**_SWEEP, "phase_a": -2.5},                         # a flag of evaluate, not of sweep
    {**_CURVES, "coefficients": {**_CURVES["coefficients"], "gamma": 1.0}},
    {**_CURVES, "coefficients": {**_CURVES["coefficients"], "s": 2}},
    {**_CURVES, "curves": [{"label": "a", "v": -0.04, "velocity": -0.5}]},
])
def test_manifest_check_rejects_a_malformed_entry(entry):
    with pytest.raises(AssertionError):
        _check_entry(entry)


def test_figure_has_no_manifest_option(capsys):
    # figure renders only its packaged manifest: another one is a usage error
    with pytest.raises(SystemExit) as err:
        main(["figure", "1", "--manifest", "m.json"])
    out, stderr = capsys.readouterr()
    assert err.value.code == 2 and out == ""
    assert "unrecognized arguments: --manifest m.json" in stderr and "Traceback" not in stderr


def _commands(entry):
    """(file name, argv) of the evaluate or sweep command that writes each table of ``entry``."""
    def flags(record, *keys):
        return [f"--{key.replace('_', '-')}={record[key]!r}" for key in keys]

    def grid(name):
        return flags(entry, f"{name}_min", f"{name}_max", f"{name}_steps")

    family = ["--family", entry["family"]]
    if _kind(entry) == "sweep":
        return [(entry["output"], ["sweep", *family, *grid("a"), *grid("theta")])]
    if _kind(entry) == "profile":
        return [(entry["output"], ["evaluate", *family, *flags(entry, "phase_a"), *grid("theta")])]
    coefficients = flags(entry["coefficients"], "s", "mu", "alpha", "beta", "xi0")
    return [(entry["output"].replace("{label}", curve["label"]),
             ["evaluate", *family, *coefficients, *flags(curve, "v"), *flags(entry, "t"),
              *grid("x")])
            for curve in entry["curves"]]


@pytest.mark.parametrize("number", range(1, 8))
def test_each_figure_is_the_command_its_entry_spells(number, tmp_path, capsys):
    # custom figure data is one evaluate or sweep command with --output: the
    # files figure N writes are the bytes of the commands its entry spells
    entry = _figure_files(number, tmp_path / "figure", capsys)
    commands = _commands(entry)
    assert sorted(p.name for p in (tmp_path / "figure").iterdir()) == sorted(n for n, _ in commands)
    for name, argv in commands:
        assert run(capsys, *argv, "--output", str(tmp_path / name)) == (0, "", "")
        assert (tmp_path / name).read_bytes() == (tmp_path / "figure" / name).read_bytes()


@pytest.mark.parametrize("number", range(1, 8))
def test_figure_flags_are_the_parsed_command_its_entry_spells(number):
    # figure lays each table's fields over its command's defaults instead of parsing an argv
    entry = _MANIFEST[str(number)]
    tables, commands = cli._figure_flags(entry), _commands(entry)
    assert [name for name, _ in tables] == [name for name, _ in commands]
    for (_, flags), (_, argv) in zip(tables, commands):
        parsed = cli._PARSER.parse_args(argv)
        for dest in _flags_of(entry["command"]):
            mine, theirs = getattr(flags, dest), getattr(parsed, dest)
            assert type(mine) is type(theirs) and mine == theirs, dest


def test_figure_whose_later_table_raises_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # every table is evaluated before the first file is opened
    real, calls = solutions_module.compound_solution_from_physical, []

    def fifth_fails(family, params):
        calls.append(params.v)
        if len(calls) == 5:
            raise ParameterDomainError("the fifth curve fails")
        return real(family, params)

    monkeypatch.setattr(solutions_module, "compound_solution_from_physical", fifth_fails)
    outdir = tmp_path / "figure"
    assert run(capsys, "figure", "7", "--outdir", str(outdir)) == (
        2, "", "error: the fifth curve fails\n")
    assert len(calls) == 5 and not outdir.exists()


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


@pytest.mark.parametrize("argv", [["verify", "--scope", "kdvb-regular"],
                                  ["evaluate", "--family", "kdvb-regular", *_THETA]])
def test_closed_stdout_exits_141_without_a_message(argv, monkeypatch, capsys):
    # a reader that went away is not a domain error: no "error: ..." line, no exit 2
    monkeypatch.setattr(sys, "stdout", _stdout_over(_PipeClosedAfter(0)))
    code = main(argv)
    assert (code, capsys.readouterr().err) == (141, "")


def _address_space_of_3_gib():
    # the grid's allocation fails at once in the child: nothing large is ever allocated
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize("argv", [
    # one float64 coordinate vector of 1e13 points: 72.8 TiB
    ["evaluate", "--family", "kdvb-regular", "--theta-min", "0", "--theta-max", "1",
     "--theta-steps", "10000000000000"],
    # a 1e5 x 1e5 complex grid: 149 GiB
    ["sweep", "--a-min=-5", "--a-max", "0", "--a-steps", "100000",
     "--theta-min", "0", "--theta-max", "1", "--theta-steps", "100000"],
], ids=["evaluate", "sweep"])
def test_grid_too_big_to_allocate_exits_2_with_one_error_line(argv):
    # numpy's MemoryError was a traceback and exit 1, the code of a failed check
    proc = subprocess.run(
        [sys.executable, "-m", "kdvbwaves.cli", *argv], capture_output=True, text=True,
        timeout=60, preexec_fn=_address_space_of_3_gib,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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


@pytest.mark.parametrize("argv", [["evaluate", "--family", "kdvb-regular", *_THETA], _BIG],
                         ids=["flushed-at-exit", "written-in-blocks"])
def test_table_bytes_to_a_closed_pipe_end_quietly(argv):
    # the closed pipe shows at the final flush of a small table (3 rows) or at
    # the first block of a big one that overflows sys.stdout's buffer
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "kdvbwaves.cli", *argv],
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("code", [0, 1, 2, 141])
def test_entrypoint_exits_with_main_code_and_silences_stdout_after_141(code, monkeypatch):
    # in process, with main and the two descriptor calls replaced: after 141, what is
    # still buffered for the closed pipe goes to devnull, so the exit reports nothing
    calls = []
    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(os, "open", lambda path, flags: calls.append(("open", path, flags)) or 7)
    monkeypatch.setattr(os, "dup2", lambda fd, fd2: calls.append(("dup2", fd, fd2)))
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(fileno=lambda: 5))
    with pytest.raises(SystemExit) as exit_:
        cli.entrypoint()
    assert exit_.value.code == code
    assert calls == ([("open", os.devnull, os.O_WRONLY), ("dup2", 7, 5)] if code == 141 else [])


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kdvbwaves.cli", "factorize", "--eq", "kdvb", "--delta", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "factorization" in proc.stdout
