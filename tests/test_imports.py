"""What each command imports, checked in a fresh interpreter.

``factorize``, every ``--help`` and ``from kdvbwaves import Family`` run on
``math`` and ``cmath`` alone: they must leave numpy, ``kdvbwaves.solutions``
and ``kdvbwaves.verify`` unimported, and the commands write the same bytes as
before.  The package resolves the names of those two modules on first use,
and ``cli`` imports them in the functions that use them, so every name and
every private helper works whatever ran first.  ``verify`` draws no random
numbers, so it leaves ``numpy.random`` unimported.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kdvbwaves import cli

TRANSCRIPTS = Path(__file__).parent / "data" / "parser_transcripts.json"
HELP_CASES = sorted(case for case in json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))
                    if case.split()[0] == "help")
HEAVY = ("numpy", "kdvbwaves.solutions", "kdvbwaves.verify")
# reported too: no command draws random numbers, verify's probe sets are fixed grids
LOADED = (*HEAVY, "numpy.random")
# kdvbwaves.__all__: the names README's Library section documents
PUBLIC = [
    "Family", "ParameterDomainError", "PhysicalParams", "ReducedParams", "Sign", "WaveSolution",
    "compound_solution", "compound_solution_from_physical", "eval_solution",
    "eval_solution_physical", "evaluate_grid", "factorize_compound", "factorize_kdvb",
    "kdvb_solution_from_physical", "locked_rational_velocity", "physical_jet",
    "rational_solution", "rational_solution_from_physical", "reduce", "residual_pde",
    "solution_jet", "sweep_rows", "to_physical_amplitude", "to_reduced_coordinate",
    "universal_solution", "verification_suite",
]
# the verification internals, reached only by module path
INTERNAL = {
    **dict.fromkeys(["ResidualReport", "check_first_integral_consistency",
                     "oracle_integrate_bernoulli", "oracle_integrate_riccati",
                     "rational_form_audit", "residual_first_integral"], "kdvbwaves.verify"),
    **dict.fromkeys(["CompoundFactorization", "verify_factorization"], "kdvbwaves.factorizer"),
    "compound_discriminant_root": "kdvbwaves.solutions",
}

# imports Family, runs cli.main on argv[2:], then writes its exit code and the
# LOADED modules they loaded to the file argv[1]
_RUN_MAIN = f"""
import json, sys
from kdvbwaves import Family, cli
try:
    code = cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
loaded = [name for name in {LOADED!r} if name in sys.modules]
with open(sys.argv[1], "w") as fh:
    json.dump({{"exit": code, "loaded": loaded}}, fh)
"""


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c script *args`` on an 80-column terminal (argparse wraps help to it)."""
    env = {**os.environ, "COLUMNS": "80"}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, timeout=60)


def _main_in_fresh_interpreter(tmp_path, argv: list[str]) -> tuple[dict, str, str]:
    report = tmp_path / "report.json"
    proc = _fresh(_RUN_MAIN, str(report), *argv)
    return json.loads(report.read_text()), proc.stdout, proc.stderr


@pytest.mark.parametrize("case", HELP_CASES)
def test_help_imports_no_numpy_and_matches_its_transcript(case, tmp_path):
    want = json.loads(TRANSCRIPTS.read_text(encoding="utf-8"))[case]
    report, out, err = _main_in_fresh_interpreter(tmp_path, want["argv"])
    assert report == {"exit": want["exit"], "loaded": []}
    assert (out, err) == (want["stdout"], want["stderr"])


@pytest.mark.parametrize("argv", [["factorize", "--eq", "kdvb"],
                                  ["factorize", "--eq", "compound", "--q", "2", "--format", "json"]])
def test_factorize_imports_no_numpy_and_writes_the_numpy_grid_report(argv, tmp_path, capsys,
                                                                     monkeypatch):
    report, out, err = _main_in_fresh_interpreter(tmp_path, argv)
    assert report == {"exit": 0, "loaded": []} and err == ""
    # the same report, sampled on numpy's own grids in this process
    monkeypatch.setattr(cli, "_linspace", lambda lo, hi, n: np.linspace(lo, hi, n).tolist())
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out


def test_verify_imports_no_random_number_generator(tmp_path):
    report, out, err = _main_in_fresh_interpreter(tmp_path, ["verify", "--scope", "all"])
    assert report == {"exit": 0, "loaded": list(HEAVY)} and err == ""


@pytest.mark.parametrize("lo, hi, n", [(0.05, 9.95, 64), (-3.0, 3.0, 8)])
def test_factorize_sample_grids_are_numpy_linspace_bit_for_bit(lo, hi, n):
    grid = cli._linspace(lo, hi, n)
    assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(lo, hi, n).tolist()]


def test_star_import_gives_every_public_name_from_its_module():
    script = f"""
import importlib, json, sys
import kdvbwaves
before = [name for name in {HEAVY!r} if name in sys.modules]
namespace = {{}}
exec("from kdvbwaves import *", namespace)
del namespace["__builtins__"]
same = [name for name, obj in namespace.items()
        if getattr(importlib.import_module(obj.__module__), name) is obj]
internal = {{}}
for name, module in {INTERNAL!r}.items():
    try:
        exec(f"from kdvbwaves import {{name}}", {{}})
        internal[name] = "imported from the package"
    except ImportError:
        internal[name] = getattr(importlib.import_module(module), name).__module__
print(json.dumps([before, sorted(namespace), kdvbwaves.__all__, sorted(same), internal]))
"""
    proc = _fresh(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    before, names, public, same, internal = json.loads(proc.stdout)
    assert before == [] and public == PUBLIC
    assert names == sorted(public) == same
    # each verification internal is an ImportError from the package and defined in its module
    assert internal == INTERNAL


def test_readme_library_example_runs_and_names_every_public_name(capsys):
    import kdvbwaves

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):readme.index("\n## Exit codes\n")]
    example = library.split("```python\n")[1].split("\n```")[0]
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.split()) == 3
    assert [name for name in kdvbwaves.__all__ if not re.search(rf"\b{name}\b", library)] == []


@pytest.mark.parametrize("call, printed", [
    ("list(cli._render(['a', 'theta'], [np.arange(2.0)[:, None], np.arange(2.0), "
     "np.ones((2, 2)), np.zeros((2, 2))], np.zeros((2, 2), bool), 'csv'))",
     "[b'a,theta,re_u,im_u,pole_flag\\n', b'0,0,1,0,0\\n0,1,1,0,0\\n1,0,1,0,0\\n1,1,1,0,0', "
     "b'\\n']"),
    ("list(cli._deal(lambda j: b'%d' % j, 3, 2))", "[b'0', b'1', b'2']"),
    ("cli._grid(0.0, 1.0, 3, 'theta')", "array([0. , 0.5, 1. ])"),
], ids=["_render", "_deal", "_grid"])
def test_cli_helpers_work_as_the_first_call_after_import(call, printed):
    # numpy is imported here for the arguments only: cli's globals never bind it
    proc = _fresh(f"import numpy as np\nimport kdvbwaves.cli as cli\nprint(repr({call}))")
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", printed + "\n")


def test_unknown_package_attribute_is_an_attribute_error():
    import kdvbwaves

    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        kdvbwaves.bogus
