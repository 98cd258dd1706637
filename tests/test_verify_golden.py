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

``python tests/test_verify_golden.py`` rewrites the fixture from the code on
the import path; do that only for an intended change of the suite.
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
    (result,) = results
    return {
        "exit": code,
        "checks": [[c.name, c.passed, c.max_abs, c.tol] for c in result.checks],
        "audit": [[f.name, f.verdict, f.measured] for f in result.audit],
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("scope", SCOPES)
def test_verify_matches_golden(scope, run):
    golden = _fixture()
    want, got = golden[run][scope], transcript(scope, RUNS[run])
    default_tol = {name: tol for name, _, _, tol in golden["default"][scope]["checks"]}
    assert got["exit"] == want["exit"]
    assert [c[:2] for c in got["checks"]] == [c[:2] for c in want["checks"]]
    assert [f[:2] for f in got["audit"]] == [f[:2] for f in want["audit"]]
    for (name, _, measured, tol), (_, _, ref, ref_tol) in zip(got["checks"], want["checks"]):
        assert tol == ref_tol, name
        assert math.isclose(measured, ref, rel_tol=REL_TOL, abs_tol=1e-3 * default_tol[name]), name
    for (name, _, measured), (_, _, ref) in zip(got["audit"], want["audit"]):
        assert math.isclose(measured, ref, rel_tol=0.0, abs_tol=1e-3 * AUDIT_TOL[name]), name


if __name__ == "__main__":
    records = {run: {s: transcript(s, extra) for s in SCOPES} for run, extra in RUNS.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
