"""Byte fixture for the ``verify`` transcripts.

tests/data/verify_sha256.json holds, for every scope under three runs (the
default, ``--tolerance 1e-20`` and ``--perturb 0.01``), the SHA-256 of what
``kdvbwaves verify --scope S`` prints to stdout and its exit code.  The test
requires the same digests and codes, so the CHECK, AUDIT and SUMMARY lines
stay byte-identical.  tests/test_verify_golden.py compares the measured
values with a slack; this fixture has none.

``python tests/test_verify_bytes.py`` rewrites the fixture from the code on
the import path; do that only for an intended change of the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from kdvbwaves import cli
from kdvbwaves.verify import SCOPES

FIXTURE = Path(__file__).parent / "data" / "verify_sha256.json"
RUNS = {
    "default": [],
    "tolerance": ["--tolerance", "1e-20"],
    "perturb": ["--perturb", "0.01"],
}


def transcript(scope: str, extra: list[str]) -> dict:
    """Exit code and stdout SHA-256 of ``kdvbwaves verify --scope scope *extra``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--scope", scope, *extra])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("scope", SCOPES)
def test_verify_stdout_matches_golden_bytes(scope, run):
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(RUNS) and all(sorted(golden[r]) == sorted(SCOPES) for r in RUNS)
    assert transcript(scope, RUNS[run]) == golden[run][scope]


if __name__ == "__main__":
    records = {run: {s: transcript(s, extra) for s in SCOPES} for run, extra in RUNS.items()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
