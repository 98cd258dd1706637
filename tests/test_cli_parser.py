"""Byte fixture, negative numbers and a run property for the command-line parser.

tests/data/parser_transcripts.json holds, for ``--help`` (top level and each
subcommand) and for malformed command lines, the exit code and the exact
stdout and stderr of ``kdvbwaves`` on an 80-column terminal, and the parser
of ``build_parser`` must reproduce it byte for byte; so must ``cli.main``,
which parses every command line of a process with one parser built at
import, whatever it parsed before.  A separate value that
float() reads and that starts with "-" (-1e3, -inf) is read as the
``--opt=value`` form reads it, not as an unknown option.  A property runs
command lines built from the parser's own arguments, drawn with edge floats
and small grids, and checks that each ends in a table of finite values and
flagged poles, a verify failure (exit 1), or exit 2.

``python tests/test_cli_parser.py`` rewrites the fixture from the code on
the import path; do that only for an intended change of the output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kdvbwaves import cli
from test_solutions import _EDGES

FIXTURE = Path(__file__).parent / "data" / "parser_transcripts.json"
COMMANDS = ["factorize", "evaluate", "sweep", "verify", "figure"]
CASES = {
    "help": ["--help"],
    **{f"help {name}": [name, "--help"] for name in COMMANDS},
    "no command": [],
    "unknown command": ["bogus"],
    "option before the command": ["--scope", "all"],
    "unknown option": ["verify", "--bogus"],
    "missing required option": ["factorize"],
    "bad choice": ["evaluate", "--family", "kdvb-nope", "--theta-min", "0"],
    "bad figure number": ["figure", "9"],
    "bad float": ["sweep", "--a-min", "x", "--a-max", "1", "--a-steps", "2",
                  "--theta-min", "0", "--theta-max", "1", "--theta-steps", "2"],
    "abbreviated option": ["evaluate", "--fam", "kdvb-regular", "--theta-m", "0"],
}


@contextlib.contextmanager
def captured():
    """Capture stdout and stderr on an 80-column terminal (argparse wraps help to its width)."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            yield out, err
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def outcome(parser: argparse.ArgumentParser, argv: list[str]) -> tuple:
    """(parse result or ("exit", code), stdout, stderr) of ``parser.parse_args(argv)``.

    The result is the repr of the namespace's sorted items, so a NaN equals
    itself and -0.0 differs from 0.0.
    """
    with captured() as (out, err):
        try:
            result = repr(sorted(vars(parser.parse_args(argv)).items()))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def transcript(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``kdvbwaves *argv`` for a command line the parser stops."""
    (_, code), out, err = outcome(cli.build_parser(), argv)
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


@pytest.mark.parametrize("case", sorted(CASES))
def test_parser_output_matches_golden_bytes(case):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)
    assert transcript(CASES[case]) == golden[case]


def main_transcript(argv: list[str]) -> dict:
    """transcript(argv) through cli.main; a command that runs returns its exit code."""
    with captured() as (out, err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_main_parses_every_case_alike_with_the_parser_built_at_import(monkeypatch):
    # each case twice, with an exit 2, a --help and a command that runs between any two:
    # parse_args leaves nothing behind in the parser that the next command line reads
    def rebuild():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    runs = ["factorize", "--eq", "kdvb", "--delta", "-1e3", "--format", "json"]
    first = main_transcript(runs)
    assert first["exit"] == 0 and first["stderr"] == ""
    for case in sorted(golden) * 2:
        for argv, expected in ((CASES["unknown option"], golden["unknown option"]),
                               (CASES["help"], golden["help"]), (runs, first),
                               (CASES[case], golden[case])):
            assert main_transcript(argv) == expected


_NEGATIVE = ["-1e3", "-1e+308", "-inf", "-nan", "-.5"]
# a command line of each command that parses, and some of its float options
_ARGV = {
    "evaluate": (["evaluate", "--family", "kdvb-regular", "--theta-max", "1", "--theta-steps", "2"],
                 ["--theta-min", "--phase-a", "--v"]),
    "sweep": (["sweep", "--a-max", "1", "--a-steps", "2", "--theta-min", "0", "--theta-max", "1",
               "--theta-steps", "2"], ["--a-min"]),
}


@pytest.mark.parametrize("value", _NEGATIVE)
@pytest.mark.parametrize("command, option", [(c, o) for c, (_, opts) in _ARGV.items() for o in opts])
def test_a_separate_negative_float_parses_like_the_equals_form(command, option, value):
    argv = _ARGV[command][0]
    separate = outcome(cli.build_parser(), [*argv, option, value])
    assert separate == outcome(cli.build_parser(), [*argv, f"{option}={value}"])
    assert isinstance(separate[0], str)  # a namespace, not an exit


@pytest.mark.parametrize("token", ["-x", "--bogus"])
def test_a_dash_token_that_is_no_float_is_still_an_option(token):
    argv = _ARGV["evaluate"][0]
    assert outcome(cli.build_parser(), [*argv, "--theta-min", token])[0] == ("exit", 2)
    (_, code), _, err = outcome(cli.build_parser(), [*argv, token])
    assert code == 2 and err.endswith(f"error: unrecognized arguments: {token}\n")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tail=st.text("0123456789._eE+-infatyINFATY \t\u0663", max_size=8) | st.text(max_size=4))
@example(tail="Infinity")
@example(tail="nAn")
@example(tail="1_0.0_1e-1_0")
@example(tail="1__0")
@example(tail="1e3\n")
@example(tail="1E+3")
def test_the_negative_number_test_reads_what_float_reads(tail):
    token = "-" + tail
    try:
        float(token)
        reads = True
    except ValueError:
        reads = False
    assert bool(cli._NEGATIVE_NUMBER.match(token)) == reads


# floats at and past the edges of the float range, subnormals, signed zeros and the
# non-finite values, beside the edge values of the solutions' own property
_FLOATS = [*_EDGES, 1e-308, -5e-324, 2.2250738585072014e-308, -1e-310, math.inf, -math.inf,
           1.7976931348623157e308, -1.7976931348623157e308, math.nan]
# the options of evaluate's two grid modes, each drawn as a whole
_MODES = {"evaluate": [{"theta_min", "theta_max", "theta_steps", "p", "q"},
                       {"x_min", "x_max", "x_steps", "s", "mu", "alpha", "beta", "v"}]}
# what --output and --outdir name, relative to the working directory: a file, a path under a
# directory that does not exist, the directory itself, and no name
_PATHS = ["out.csv", "out.json", "new/out", ".", ""]


def _values(draw, action: argparse.Action) -> str:
    """A string for one argument: mostly one of its choices or a number of its type, else junk.

    Floats are edge values, grids have 0 to 6 steps, and paths lie inside the working directory.
    """
    if action.dest in ("output", "outdir"):
        return draw(st.sampled_from(_PATHS))
    if draw(st.integers(0, 31)) == 0:
        return draw(st.sampled_from(["", "x", "-1", "nan", "1e400", "--", "-v"]))
    if action.choices is not None:
        return draw(st.sampled_from([str(c) for c in action.choices]))
    if action.type is int:
        return str(draw(st.integers(0, 6)))
    if action.type is float:
        return repr(draw(st.sampled_from(_FLOATS)))
    return draw(st.text(max_size=5))


@st.composite
def command_lines(draw) -> list[str]:
    """argv built from the actions of build_parser's parser, some options missing or unknown.

    A command line draws one of its command's _MODES (sets of option dests).
    Those options and the required arguments come 15 times in 16, the others 4 times.
    """
    (action,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    subparsers = action.choices
    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help"]))
    wanted = draw(st.sampled_from(_MODES.get(command, [set()])))
    argv = [command]
    for action in subparsers.get(command, argparse.ArgumentParser())._actions:
        often = action.required or not action.option_strings or action.dest in wanted
        if isinstance(action, argparse._HelpAction):
            if draw(st.integers(0, 19)) == 0:
                argv.append("--help")
        elif draw(st.integers(0, 15)) < (15 if often else 4):
            value = _values(draw, action)
            if not action.option_strings:
                argv.append(value)
            elif draw(st.booleans()):  # --opt=value also carries a value that starts with "-"
                argv.append(f"{draw(st.sampled_from(action.option_strings))}={value}")
            else:
                argv += [draw(st.sampled_from(action.option_strings)), value]
    if draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "1"])))
    return argv


def _reject(constant: str):
    raise AssertionError(f"JSON output holds {constant}")


def _check_table(text: str) -> None:
    """Every row of an evaluate, sweep or figure table: finite coordinates, and finite values
    with pole_flag 0 or empty values with pole_flag 1."""
    if text.startswith("["):
        rows = json.loads(text, parse_constant=_reject)
        cells = [[*row.values()] for row in rows]
    else:
        header, *rows = list(csv.reader(text.splitlines()))
        assert header[-3:] == ["re_u", "im_u", "pole_flag"]
        cells = [[None if c == "" else float(c) for c in row[:-1]] + [int(row[-1])]
                 for row in rows]
    assert cells
    for *coordinates, re_u, im_u, flag in cells:
        assert all(math.isfinite(c) for c in coordinates)
        if flag == 0:
            assert math.isfinite(re_u) and math.isfinite(im_u)
        else:
            assert (flag, re_u, im_u) == (1, None, None)


@settings(max_examples=80, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=command_lines())
# finds of a 20,000-draw run: the last point of a grid whose span is near the float range
# overflowed inside linspace (a RuntimeWarning), and argparse up to at least Python 3.12.1
# reads --a-max=-- as an empty list, which _grid met as a TypeError
@example(argv=["sweep", "--a-min=-1.7976931348623157e+308", "--a-max", "-2.5", "--a-steps", "4",
               "--theta-min", "0.0", "--theta-max=-inf", "--theta-steps", "0"])
@example(argv=["sweep", "--a-min", "-1", "--a-max=--", "--a-steps", "1", "--theta-min=-inf",
               "--theta-max", "-1", "--theta-steps", "0"])
def test_every_command_line_ends_in_a_value_a_pole_flag_or_exit_2(argv, tmp_path):
    here = Path(tempfile.mkdtemp(dir=tmp_path))
    # stdout as the console gives it: a text layer over a binary buffer, which gets the tables
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True), io.StringIO()
    cwd = os.getcwd()
    os.chdir(here)  # --output and --outdir name paths under tmp_path
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: a usage error, or --help
                code = exc.code
    finally:
        os.chdir(cwd)
    out, err = out.buffer.getvalue().decode(), err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err
    assert code != 1 or argv[0] == "verify"
    if code == 0 and argv[0] in ("evaluate", "sweep") and out and not out.startswith("usage:"):
        _check_table(out)
    if code == 0 and argv[0] == "factorize" and out.startswith("{"):
        json.loads(out, parse_constant=_reject)
    for path in here.rglob("*"):
        if path.is_file():
            _check_table(path.read_text(encoding="utf-8"))


if __name__ == "__main__":
    records = {case: transcript(argv) for case, argv in CASES.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
