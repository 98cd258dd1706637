"""kdvbwaves benchmark: runs one workload through the CLI, checks its outputs
and prints its metrics.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it uses ``src/kdvbwaves`` from
there and writes only under ``.perfbench-out/``.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are a
readable report that names the machine.  The full record, and the spans of
a traced run, go to ``.perfbench-out/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
IMPORT_RUNS = 5
MIN_PASSES = 3
SETUP_ARGV = ["-m", "kdvbwaves.cli", "factorize", "--eq", "kdvb"]
IMPORT_SCRIPT = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import kdvbwaves.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _env(root: Path, single_thread: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    if single_thread:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
    return env


# -- machine and build ---------------------------------------------------------


def _git_commit(root: Path) -> str:
    """HEAD of a git checkout, read from .git directly; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(root: Path, env: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=env, capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(root),
        "src_sha256": src.hexdigest(),
    }


# -- fresh-interpreter measurements ----------------------------------------------


def measure_setup(env: dict) -> tuple[list[float], int]:
    """Times at reference speed of SETUP_RUNS cold CLI invocations after one
    warm-up, and how many of all the invocations failed."""
    times, failed = [], 0
    for i in range(SETUP_RUNS + 1):
        with speed.Meter() as meter:
            proc = subprocess.run([sys.executable, *SETUP_ARGV], env=env,
                                  capture_output=True, text=True, timeout=60)
        ok = (proc.returncode == 0 and proc.stdout.startswith("factorization of the kdvb")
              and "Traceback" not in proc.stderr)
        failed += not ok
        if i:
            times.append(meter.seconds)
    return times, failed


def measure_imports(env: dict) -> tuple[float, float]:
    """Median (numpy import, kdvbwaves.cli import including numpy) in seconds
    at reference speed, each in a fresh interpreter."""
    numpy_s, total_s = [], []
    for _ in range(IMPORT_RUNS):
        with speed.Meter() as meter:
            out = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                                 capture_output=True, text=True, timeout=60, check=True).stdout
        scale = meter.seconds / meter.wall
        a, b = map(float, out.split())
        numpy_s.append(a * scale)
        total_s.append(b * scale)
    return statistics.median(numpy_s), statistics.median(total_s)


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (root / "src" / "kdvbwaves").rglob("*.py"))


# -- the workload ------------------------------------------------------------------


def run_worker(root: Path, commands: list[dict], seconds: int, trace: bool, env: dict) -> dict:
    out = root / workloads.OUT_DIR
    first = out / "first"
    shutil.rmtree(first, ignore_errors=True)
    spec_path, result_path = out / "spec.json", out / "worker-result.json"
    spec_path.write_text(json.dumps({
        "commands": commands, "seconds": seconds, "trace": trace, "min_passes": MIN_PASSES,
        "work": workloads.WORK, "first": str(first.relative_to(root)),
    }), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                   cwd=root, env=env, check=True, timeout=170)
    return json.loads(result_path.read_text(encoding="utf-8"))


def _guarded(check, *args) -> tuple[list[str], int, int]:
    """Run a check; output too malformed to parse is a failed check."""
    try:
        return check(*args)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        return [f"cannot parse the output: {exc!r}"], 0, 0


def check_outputs(root: Path, commands: list[dict], result: dict, seed: int) -> dict:
    """Check the first pass's outputs, then every pass against the first."""
    first_dir = root / workloads.OUT_DIR / "first"
    first = result["passes"][0]["commands"]
    per_command = []
    for cmd, rec in zip(commands, first):
        errors, rows, poles = [], 0, 0
        kind = cmd["check"]["kind"]
        for path in cmd["outputs"]:
            if rec["outputs"].get(path) is None:
                errors.append(f"{path} was not written")
                continue
            text = (first_dir / Path(path).relative_to(workloads.WORK)).read_text(encoding="utf-8")
            if kind == "figure":
                e, r, p = _guarded(checks.check_figure, Path(path).name, text)
            else:
                e, r, p = _guarded(checks.check_export, cmd["check"], text, seed)
            errors += e
            rows += r
            poles += p
        if kind == "transcript":
            errors, rows, poles = _guarded(checks.check_transcript, cmd["argv"], rec["stdout"])
        out_bytes = rec["stdout_bytes"] + sum(size for _, size in filter(None, rec["outputs"].values()))
        per_command.append({"errors": errors, "rows": rows, "poles": poles, "bytes": out_bytes})

    attempted = failed = 0
    failures: list[str] = []
    for i, pas in enumerate(result["passes"]):
        for cmd, rec, ref, verdict in zip(commands, pas["commands"], first, per_command):
            attempted += 1
            why = list(verdict["errors"])
            if rec["exit"] != cmd["expect"]:
                why.append(f"exit {rec['exit']}, expected {cmd['expect']}")
            if "Traceback" in rec["stderr"]:
                why.append("wrote a traceback: " + rec["stderr"].strip().splitlines()[-1])
            if (rec["stdout_sha256"], rec["outputs"]) != (ref["stdout_sha256"], ref["outputs"]):
                why.append("output differs from the first pass")
            if why:
                failed += 1
                failures.append(f"pass {i} {' '.join(cmd['argv'][:2])}: {'; '.join(why)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rows": sum(c["rows"] for c in per_command),
        "poles": sum(c["poles"] for c in per_command),
        "bytes": sum(c["bytes"] for c in per_command),
        "checks": sum(len(workloads.parse_verify_transcript(rec["stdout"])["checks"])
                      for cmd, rec in zip(commands, first) if cmd["argv"][0] == "verify"),
    }


# -- metrics -------------------------------------------------------------------------


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples beyond it -- p90 from 100 samples on -- and the median when there
    are too few samples for any higher one."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11  # index with n - 1 - k = 10 samples beyond it
    if k < n // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(result: dict, verdict: dict, setup: list[float]) -> tuple[dict, dict]:
    times = [p["seconds"] for p in result["passes"] if not p["traced"]]
    walls = [p["wall_seconds"] for p in result["passes"] if not p["traced"]]
    pass_s = statistics.median(times)
    p_value, percentile = tail_percentile(times)
    metrics = {
        "pass_s": pass_s,
        "pass_p90_s": p_value,
        "rows_per_s": verdict["rows"] / pass_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "pass_s": f"median of {len(times)} passes; raw wall median {statistics.median(walls):.4g} s",
        "pass_p90_s": f"p{percentile:.0f} of {len(times)} passes",
        "rows_per_s": f"{verdict['rows']} records per pass",
        "setup_s": f"median of {len(setup)} cold starts of python {' '.join(SETUP_ARGV)}",
        "peak_rss_mb": "max resident set of the workload process",
    }
    return metrics, notes


def per_layer(root: Path, result: dict, verdict: dict, env: dict) -> tuple[dict, dict]:
    plain = [p["seconds"] for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]

    def med(get) -> float:
        return statistics.median(get(p["trace"]) for p in traced)

    def med_s(get) -> float:
        """Median over traced passes of a time in ns, at reference speed."""
        return statistics.median(
            get(p["trace"]) / 1e9 * p["seconds"] / p["wall_seconds"] for p in traced)

    cli_self = med_s(lambda t: t["self_ns"].get("cli", 0))
    metrics = {
        "cli.self_s": cli_self,
        "cli.self_share": med(lambda t: t["self_ns"].get("cli", 0))
        / statistics.median(p["wall_seconds"] * 1e9 for p in traced),
        "cli.rows_written": verdict["rows"],
        "cli.bytes_written": verdict["bytes"],
        "solutions.self_s": med_s(lambda t: t["self_ns"].get("solutions", 0)),
        "solutions.calls": med(lambda t: t["calls"].get("solutions", 0)),
        "solutions.poles_flagged": verdict["poles"],
        "factorizer.self_s": med_s(lambda t: t["self_ns"].get("factorizer", 0)),
        "verify.self_s": med_s(lambda t: t["self_ns"].get("verify", 0)),
        "verify.rk4_steps": med(lambda t: t["work"].get("verify.rk4_steps", 0)),
        "verify.checks": verdict["checks"],
        "trace.overhead_s": statistics.median(p["seconds"] for p in traced)
        - statistics.median(plain),
        "package.src_lines": src_lines(root),
        "package.all_names": result["all_names"],
    }
    if "cli.parse" in result["trace"]["counters"]:
        metrics["cli.parse_s"] = med_s(lambda t: t["parse_ns"]) / len(traced[0]["commands"])
    metrics["setup.numpy_import_s"], metrics["setup.import_s"] = measure_imports(env)
    metrics.update({k: v["value"] for k, v in result["probes"].items()})
    notes = {
        "trace.overhead_s": f"{len(traced)} traced vs {len(plain)} untraced passes",
        "cli.self_share": "base: wall time of the traced passes",
    }
    return metrics, notes


# -- main ----------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kdvbwaves" / "cli.py").is_file():
        print(f"error: no kdvbwaves source tree under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = _spec()
    out = root / workloads.OUT_DIR
    (out / "results").mkdir(parents=True, exist_ok=True)
    user_env, worker_env = _env(root, False), _env(root, True)
    machine = machine_info(root, user_env)
    commands = workloads.build(args.workload, args.seed)

    setup_failed = 0
    if not args.trace:
        setup, setup_failed = measure_setup(user_env)
    result = run_worker(root, commands, args.seconds, bool(args.trace), worker_env)
    if not Path(result["package"]).resolve().is_relative_to(root / "src"):
        print(f"error: imported kdvbwaves from {result['package']}, not from {root}/src",
              file=sys.stderr)
        return 2
    verdict = check_outputs(root, commands, result, args.seed)

    if args.trace:
        values, notes = per_layer(root, result, verdict, worker_env)
        wanted = spec["per_layer"]
    else:
        values, notes = end_to_end(result, verdict, setup)
        wanted = spec["end_to_end"]
    metrics, missing = {}, dict(result.get("missing", {}))
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            missing.setdefault(m["name"], "not measured")

    attempted = verdict["attempted"] + (SETUP_RUNS + 1 if not args.trace else 0)
    failed = verdict["failed"] + setup_failed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "metrics": metrics, "notes": notes,
        "missing": missing, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": verdict["failures"],
        "passes": [{k: p[k] for k in ("traced", "seconds", "wall_seconds")}
                   for p in result["passes"]],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (out / "results" / f"{stem}-spans.json").write_text(
            json.dumps(result["trace"]), encoding="utf-8")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} commands, {failed} failed (failed_ratio {failed / attempted:g})")
    for failure in verdict["failures"][:10]:
        print(f"  FAIL {failure}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<54} {m['value']:.6g} {m['unit']}{note}")
    for name, why in missing.items():
        print(f"  {name:<54} missing: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
