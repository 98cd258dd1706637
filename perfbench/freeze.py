"""Regenerate the golden outputs under perfbench/golden/ from the current tree.

Run from the repository root:

    python3 perfbench/freeze.py

It runs ``figure 1..7`` and the verify/factorize commands of the ``verify``
workload through ``kdvbwaves.cli.main`` and writes

* golden/figures/<file>.csv.gz -- each figure CSV as written, plus a ``tol``
  column: the per-row error bound from closed_forms, within which a later
  implementation must reproduce the value.  Every row is first checked
  against the 30-digit mpmath reference, so a golden that is wrong cannot be
  frozen.  Files with identical data (figures 3/4 and 5/6) share one golden.
* golden/figures.json -- which golden file each output file compares to.
* golden/verify.json -- exit codes, CHECK names with PASS/FAIL, AUDIT
  verdicts and the SUMMARY line of the verify commands, and the full output
  of the factorize commands.

Only rerun it when a change of outputs is intended; the diff of the golden
files is then the reviewable record of that change.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import shutil
import sys
from pathlib import Path

import closed_forms as cf
import workloads

ROOT = Path.cwd()
GOLDEN = Path(__file__).resolve().parent / "golden"


def _reduced_reference(entry: dict):
    singular = entry["family"] == "kdvb-singular"
    if entry["command"] == "sweep":
        return lambda row: cf.kdvb_reduced(singular, float(row[1]), float(row[0]))
    return lambda row: cf.kdvb_reduced(singular, float(row[0]), entry["phase_a"])


def _with_tolerance(text: str, reference) -> str:
    """Append the per-row tol column after checking each row against mpmath."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header + ["tol"])
    for row in body:
        if int(row[-1]):
            tol = 0.0
        else:
            u, bound = reference(row)
            got = complex(float(row[-3]), float(row[-2]))
            if abs(got.real - float(u.real)) > bound or abs(got.imag - float(u.imag)) > bound:
                raise SystemExit(f"golden row {row} disagrees with mpmath value {u}")
            tol = bound
        writer.writerow(row + [repr(tol)])
    return out.getvalue()


def freeze_figures(cli, manifest: dict, outdir: Path) -> dict:
    files: dict[str, str] = {}
    by_content: dict[str, str] = {}
    target = GOLDEN / "figures"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for fig in workloads.FIGURES:
        entry = manifest[str(fig)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["figure", str(fig), "--outdir", str(outdir)])
        if code != 0:
            raise SystemExit(f"figure {fig} failed")
        if "curves" in entry:
            c = entry["coefficients"]
            outputs = [
                (entry["output"].replace("{label}", cv["label"]),
                 lambda row, v=cv["v"]: cf.compound_physical(
                     entry["family"] == "compound-tanh-plus", float(row[0]), float(row[1]),
                     c["s"], c["mu"], c["alpha"], c["beta"], v, c.get("xi0", 0.0)))
                for cv in entry["curves"]
            ]
        else:
            outputs = [(entry["output"], _reduced_reference(entry))]
        for name, reference in outputs:
            text = (outdir / name).read_text(encoding="utf-8")
            golden = _with_tolerance(text, reference)
            if golden not in by_content:
                by_content[golden] = name + ".gz"
                with open(target / by_content[golden], "wb") as fh:
                    fh.write(gzip.compress(golden.encode(), mtime=0))
            files[name] = by_content[golden]
    return files


def freeze_verify(run_command) -> list[dict]:
    records = []
    for argv, expect in workloads.VERIFY_COMMANDS:
        code, stdout = run_command(argv)
        if code != expect:
            raise SystemExit(f"{argv} exited {code}, expected {expect}")
        record = {"argv": argv, "exit": code}
        if argv[0] == "verify":
            record.update(workloads.parse_verify_transcript(stdout))
        else:
            record["stdout"] = stdout
        records.append(record)
    return records


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from kdvbwaves import cli

    manifest = json.loads((ROOT / "src/kdvbwaves/figures.json").read_text(encoding="utf-8"))
    outdir = ROOT / workloads.OUT_DIR / "freeze"
    shutil.rmtree(outdir, ignore_errors=True)

    def run_command(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    files = freeze_figures(cli, manifest, outdir)
    (GOLDEN / "figures.json").write_text(json.dumps(files, indent=1) + "\n", encoding="utf-8")
    verify = freeze_verify(run_command)
    (GOLDEN / "verify.json").write_text(json.dumps(verify, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(outdir, ignore_errors=True)
    print(f"froze {len(files)} figure files and {len(verify)} verify/factorize transcripts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
