"""Byte fixture for the published figures.

tests/data/figure_sha256.json holds the SHA-256 of every file that
``kdvbwaves figure 1..7`` writes from the packaged manifest, and of
``kdvbwaves sweep --format json`` on figure 5's grid.  The test requires the
same digests, so the figure CSVs and the JSON sweep stay byte-identical.

``python tests/test_figure_bytes.py`` rewrites the fixture from the code on
the import path; do that only for an intended change of the output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

from kdvbwaves import cli

FIXTURE = Path(__file__).parent / "data" / "figure_sha256.json"
FIGURES = range(1, 8)
SWEEP_JSON = "sweep_fig5_grid.json"


def _sweep_argv(output: Path) -> list[str]:
    """``sweep --format json`` on figure 5's grid, written to ``output``."""
    entry = json.loads((resources.files("kdvbwaves") / "figures.json").read_text())["5"]
    grid = [f"--{key.replace('_', '-')}={entry[key]!r}"
            for key in ("a_min", "a_max", "a_steps", "theta_min", "theta_max", "theta_steps")]
    return ["sweep", "--family", entry["family"], *grid, "--format", "json",
            "--output", str(output)]


def digests() -> dict[str, str]:
    """File name -> SHA-256 of what every figure and the JSON sweep write."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        outdir = Path(tmp)
        for number in FIGURES:
            assert cli.main(["figure", str(number), "--outdir", tmp]) == 0
        assert cli.main(_sweep_argv(outdir / SWEEP_JSON)) == 0
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())}


def test_figure_and_sweep_bytes_match_golden():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert len(golden) == 13
    assert digests() == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(digests(), indent=1) + "\n", encoding="utf-8")
