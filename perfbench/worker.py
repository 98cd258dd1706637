"""Runs one workload's passes in a fresh process, so that its peak memory is
the workload's own.  Started by run.py as

    python3 perfbench/worker.py <spec.json> <result.json>

from the checkout root, with the package's ``src`` on PYTHONPATH.  The spec
holds the commands of one pass, the time budget and whether to trace.  Each
pass runs every command through ``kdvbwaves.cli.main`` and is timed as a
whole; outside the timed region the worker hashes every output, keeps the
first pass's output files for checking and deletes the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import probes
import speed
from tracing import Tracer


def _file_digest(path: str) -> tuple[str, int]:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest(), os.path.getsize(path)


def _run_command(cli, argv: list[str], tracer: Tracer | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = None
    frame = tracer.enter("cli.main " + argv[0], "cli", span=True) if tracer else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        err.write(traceback.format_exc())
    finally:
        if frame is not None:
            tracer.leave(frame)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_pass(cli, commands: list[dict], tracer: Tracer | None) -> tuple[float, float, list[dict]]:
    """Run the commands once; returns (wall seconds, seconds at reference
    speed, per-command results)."""
    frame = tracer.enter("pass", None, span=True) if tracer else None
    wall = scaled = 0.0
    runs = []
    for cmd in commands:
        with speed.Meter() as meter:
            runs.append(_run_command(cli, cmd["argv"], tracer))
        wall += meter.wall
        scaled += meter.seconds
    if frame is not None:
        tracer.leave(frame)
    return wall, scaled, runs


def _settle(commands: list[dict], runs: list[dict], keep_dir: Path | None, work: Path) -> list[dict]:
    """Digest each command's output; keep (first pass) or delete the files."""
    records = []
    for cmd, run in zip(commands, runs):
        outputs = {}
        for path in cmd["outputs"]:
            if not os.path.exists(path):
                outputs[path] = None
                continue
            outputs[path] = _file_digest(path)
            if keep_dir is not None:
                dest = keep_dir / Path(path).relative_to(work)
                dest.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, dest)
            else:
                os.remove(path)
        stdout = run["stdout"].encode()
        records.append({
            "exit": run["exit"],
            "stderr": run["stderr"],
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout),
            "outputs": outputs,
            "stdout": run["stdout"] if keep_dir is not None else None,
        })
    return records


def _phase(cli, spec: dict, budget: float, min_passes: int, tracer: Tracer | None,
           passes: list[dict]) -> None:
    """Run passes until the next one would overrun ``budget`` seconds."""
    work = Path(spec["work"])
    end = time.perf_counter() + budget
    done = 0
    while True:
        before = tracer.snapshot() if tracer else None
        wall, seconds, runs = _run_pass(cli, spec["commands"], tracer)
        after = tracer.snapshot() if tracer else None
        keep = Path(spec["first"]) if not passes else None
        passes.append({
            "wall_seconds": wall,
            "seconds": seconds,
            "traced": tracer is not None,
            "commands": _settle(spec["commands"], runs, keep, work),
            "trace": _delta(before, after) if tracer else None,
        })
        done += 1
        if done >= min_passes and end - time.perf_counter() < wall:
            return


def _delta(before: dict, after: dict) -> dict:
    out = {}
    for key in ("self_ns", "calls", "work"):
        out[key] = {k: v - before[key].get(k, 0) for k, v in after[key].items()}
    out["parse_ns"] = after["parse_ns"] - before["parse_ns"]
    return out


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import kdvbwaves
    import kdvbwaves.cli as cli
    import kdvbwaves.verify as verify

    result = {"package": kdvbwaves.__file__, "all_names": len(getattr(kdvbwaves, "__all__", ()))}
    shutil.rmtree(spec["work"], ignore_errors=True)
    for cmd in spec["commands"]:
        for path in cmd["outputs"]:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
    passes: list[dict] = []
    seconds = spec["seconds"]
    if not spec["trace"]:
        _phase(cli, spec, seconds, spec["min_passes"], None, passes)
    else:
        _phase(cli, spec, 0.35 * seconds, 1, None, passes)
        tracer = Tracer()
        tracer.install(cli, verify)
        try:
            _phase(cli, spec, 0.45 * seconds, 1, tracer, passes)
        finally:
            tracer.uninstall()
        result["trace"] = tracer.dump()
        result["probes"], result["missing"] = probes.run_all(kdvbwaves)
    result["passes"] = passes
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
