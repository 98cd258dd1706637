"""Byte fixture and equivalence property for the command-line parser.

tests/data/parser_transcripts.json holds, for ``--help`` (top level and each
subcommand) and for malformed command lines, the exit code and the exact
stdout and stderr of ``kdvbwaves`` on an 80-column terminal.  It was written
by the parser that added every subcommand's arguments up front.  The parser
of ``build_parser`` adds a subcommand's arguments only when the command line
selects that subcommand, and must reproduce the fixture byte for byte.  The
property checks the same on generated command lines, against a parser with
every subcommand filled in.

``python tests/test_cli_parser.py`` rewrites the fixture from the code on
the import path; do that only for an intended change of the output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kdvbwaves import cli

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


def _subcommands(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action


def full_parser() -> argparse.ArgumentParser:
    """build_parser() with every subcommand's arguments added before any parse."""
    parser = cli.build_parser()
    action = _subcommands(parser)
    for name in COMMANDS:
        action.fill(name)
    return parser


def test_an_unselected_subcommand_gets_no_arguments():
    parser = cli.build_parser()
    parser.parse_args(["verify", "--scope", "constant"])
    filled = {name: len(sub._actions) > 1 for name, sub in _subcommands(parser).choices.items()}
    assert filled == {name: name == "verify" for name in COMMANDS}


def _values(draw, action: argparse.Action) -> str:
    """A string for one argument: mostly one of its choices or a number of its type, else junk."""
    if draw(st.integers(0, 31)) == 0:
        return draw(st.sampled_from(["", "x", "-1", "nan", "1e400", "--", "-v"]))
    if action.choices is not None:
        return draw(st.sampled_from([str(c) for c in action.choices]))
    if action.type is int:
        return str(draw(st.integers(-3, 12)))
    if action.type is float:
        return repr(draw(st.floats()))
    return draw(st.text(max_size=5))


@st.composite
def command_lines(draw) -> list[str]:
    """argv built from the actions of the full parser, with some options missing or unknown."""
    subparsers = _subcommands(full_parser()).choices
    command = draw(st.sampled_from([*COMMANDS, "bogus", "--help"]))
    argv = [command]
    for action in subparsers.get(command, argparse.ArgumentParser())._actions:
        if isinstance(action, argparse._HelpAction):
            if draw(st.integers(0, 19)) == 0:
                argv.append("--help")
        elif draw(st.integers(0, 15)) < (15 if action.required or not action.option_strings else 8):
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


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
def test_parser_parses_like_the_full_parser(argv):
    assert outcome(cli.build_parser(), argv) == outcome(full_parser(), argv)


if __name__ == "__main__":
    records = {case: transcript(argv) for case, argv in CASES.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
