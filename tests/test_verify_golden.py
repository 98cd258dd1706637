"""Regression fixture for the ``verify`` command.

tests/data/verify_golden.json holds, for every scope under three runs (the
default, ``--tolerance 1e-20`` and ``--perturb 0.01``), the exit code and the
CHECK and AUDIT records: names in order, verdicts and measured values at full
precision.  Names, order, verdicts and exit codes must match exactly.  Each
measured value must agree to within 1e-3 x the default tolerance of its check
(for an audit finding, the threshold behind its verdict), or to within
REL_TOL of itself.  The relative bound only matters for values far above
their tolerance: under --perturb, first-integral kdvb-singular measures ~101
at theta = 0.25 from the coth pole, where one ulp of tanh (numpy's complex
tanh against cmath's) moves the residual by 3.6e-14 relative; a 50-digit
mpmath evaluation puts both spellings within 2.1e-14 of the exact value.

``python tests/test_verify_golden.py`` rewrites, from the code on the import
path, the entries of the fixture that fail this comparison and prints their
names: a record whose values differ, or a whole transcript whose exit code,
names or verdicts do.  Do that only for an intended change of the suite; the
diff is then that change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from kdvbwaves import cli, verify
from kdvbwaves.verify import SCOPES

FIXTURE = Path(__file__).parent / "data" / "verify_golden.json"
RUNS = {
    "default": [],
    "tolerance": ["--tolerance", "1e-20"],
    "perturb": ["--perturb", "0.01"],
}
REL_TOL = 1e-13
# thresholds behind the verdicts of rational_form_audit
AUDIT_TOL = {
    "locked-velocity-form": 1e-9,
    "mu-weighted-variant": 1e-9,
    "epsilon-variant": 1e-9,
    "epsilon-equals-mu-weighted": 1e-10,
    "epsilon-variant-velocity": 1e-12,
}


def transcript(scope: str, extra: list[str]) -> dict:
    """Exit code, CHECK and AUDIT records of ``kdvbwaves verify --scope scope *extra``."""
    # cmd_verify imports verification_suite from the verify module when it runs
    results, saved = [], verify.verification_suite

    def recording_suite(**kwargs):
        results.append(saved(**kwargs))
        return results[-1]

    verify.verification_suite = recording_suite
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--scope", scope, *extra])
    finally:
        verify.verification_suite = saved
    # no result when the suite rejects its input (exit 2)
    return {
        "exit": code,
        "checks": [[c.name, c.passed, c.max_abs, c.tol] for r in results for c in r.checks],
        "audit": [[f.name, f.verdict, f.measured] for r in results for f in r.audit],
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _stale(want: dict, got: dict, default_tol: dict) -> dict:
    """Where the transcript ``got`` fails the comparison with ``want``; empty where it passes.

    {"transcript": None} when the exit code, or the names and verdicts of the
    checks or of the audit in order, differ; else "<part> <name>": (part, i)
    for each record whose tol or measured value does, part "checks" or "audit".
    """
    if got["exit"] != want["exit"] or any([r[:2] for r in got[part]] != [r[:2] for r in want[part]]
                                          for part in ("checks", "audit")):
        return {"transcript": None}
    stale = {f"checks {name}": ("checks", i) for i, ((name, _, measured, tol), (_, _, ref, ref_tol))
             in enumerate(zip(got["checks"], want["checks"]))
             if tol != ref_tol or not math.isclose(measured, ref, rel_tol=REL_TOL,
                                                   abs_tol=1e-3 * default_tol[name])}
    stale.update({f"audit {name}": ("audit", i) for i, ((name, _, measured), (_, _, ref))
                  in enumerate(zip(got["audit"], want["audit"]))
                  if not math.isclose(measured, ref, rel_tol=0.0, abs_tol=1e-3 * AUDIT_TOL[name])})
    return stale


def _default_tol(golden: dict, scope: str) -> dict:
    return {name: tol for name, _, _, tol in golden["default"][scope]["checks"]}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("scope", SCOPES)
def test_verify_matches_golden(scope, run):
    golden = _fixture()
    want, got = golden[run][scope], transcript(scope, RUNS[run])
    assert list(_stale(want, got, _default_tol(golden, scope))) == []


if __name__ == "__main__":
    golden = _fixture() if FIXTURE.exists() else {}
    for run, extra in RUNS.items():
        for scope in SCOPES:
            got, want = transcript(scope, extra), golden.setdefault(run, {}).get(scope)
            stale = _stale(want, got, _default_tol(golden, scope)) if want else {"transcript": None}
            for label, where in stale.items():
                print(f"{run} {scope}: {label}")
                if where is None:
                    golden[run][scope] = got
                else:
                    want[where[0]][where[1]] = got[where[0]][where[1]]
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
