"""The three workloads: seeded command lists and what each command must produce.

A workload pass is a list of commands, each run through
``kdvbwaves.cli.main(argv)`` in one process and one thread, one after the
other (a closed loop with one client).  A command is a plain dict so that it
crosses the process boundary as JSON:

    argv     -- the CLI arguments
    expect   -- the exit code the command must return
    outputs  -- files the command writes, relative to the checkout root
    check    -- what the output is compared with (see checks.py)

Every path is inside OUT_DIR, which the benchmark owns.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

import closed_forms as cf

OUT_DIR = ".perfbench-out"
WORK = f"{OUT_DIR}/work"
GOLDEN = Path(__file__).resolve().parent / "golden"

NAMES = ("figures", "bulk-export", "verify")
FIGURES = range(1, 8)
BULK_POINTS = 100_000

VERIFY_COMMANDS = [
    (["verify", "--scope", "all"], 0),
    (["verify", "--scope", "compound-rational"], 0),
    (["verify", "--scope", "all", "--perturb", "0.01"], 1),
    (["verify", "--scope", "kdvb-regular", "--tolerance", "1e-20"], 1),
    (["factorize", "--eq", "kdvb"], 0),
    (["factorize", "--eq", "compound", "--q", "2", "--format", "json"], 0),
]

# coefficient set of figure 7, reused by the physical-coordinate exports
COMPOUND = {"s": 2.0, "mu": 1.0, "alpha": 3.0, "beta": 2.0}

_CHECK_LINE = re.compile(r"^CHECK (.+?)\s+max_abs=\S+\s+tol=\S+\s+(PASS|FAIL)$")
_AUDIT_LINE = re.compile(r"^AUDIT (.+?): (\S+)\s+measured=\S+$")


def parse_verify_transcript(stdout: str) -> dict:
    """The parts of a verify transcript that must not change."""
    lines = stdout.splitlines()
    checks = [list(m.groups()) for m in map(_CHECK_LINE.match, lines) if m]
    audit = [list(m.groups()) for m in map(_AUDIT_LINE.match, lines) if m]
    summary = [line for line in lines if line.startswith("SUMMARY ")]
    return {"checks": checks, "audit": audit, "summary": summary}


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _shuffled(rng: random.Random, items: list) -> list:
    return sorted(items, key=lambda _: rng.random())


def _figures(rng: random.Random) -> list[dict]:
    files = json.loads((GOLDEN / "figures.json").read_text(encoding="utf-8"))
    commands = []
    for fig in FIGURES:
        outdir = f"{WORK}/figures"
        outputs = sorted(f"{outdir}/{name}" for name in files if name.startswith(f"fig{fig}_"))
        commands.append({
            "argv": ["figure", str(fig), "--outdir", outdir],
            "expect": 0,
            "outputs": outputs,
            "check": {"kind": "figure"},
        })
    return _shuffled(rng, commands)


def _verify(rng: random.Random) -> list[dict]:
    commands = [
        {"argv": argv, "expect": expect, "outputs": [], "check": {"kind": "transcript"}}
        for argv, expect in VERIFY_COMMANDS
    ]
    return _shuffled(rng, commands)


def _grid_through(rng: random.Random, pole: float, h_lo: float, h_hi: float):
    """Grid ends for BULK_POINTS nodes of step ~h with one node on ``pole``."""
    h = _uniform(rng, h_lo, h_hi)
    i0 = int(BULK_POINTS * _uniform(rng, 0.3, 0.7))
    lo = pole - i0 * h
    return lo, lo + (BULK_POINTS - 1) * h


def _bulk_export(rng: random.Random) -> list[dict]:
    n = str(BULK_POINTS)
    c = COMPOUND
    coeffs = ["--s", repr(c["s"]), "--mu", repr(c["mu"]),
              "--alpha", repr(c["alpha"]), "--beta", repr(c["beta"])]
    specs = []

    lo, hi = _uniform(rng, -100.0, -60.0), _uniform(rng, 60.0, 100.0)
    specs.append(("kdvb-regular", "csv",
                  ["--phase-a", "-2.5", "--theta-min", repr(lo), "--theta-max", repr(hi),
                   "--theta-steps", n],
                  {"phase_a": -2.5, "lo": lo, "hi": hi, "poles": []}))

    lo, hi = _grid_through(rng, 0.0, 1.0e-3, 1.8e-3)
    specs.append(("kdvb-singular", "json",
                  ["--theta-min", repr(lo), "--theta-max", repr(hi), "--theta-steps", n],
                  {"phase_a": 0.0, "lo": lo, "hi": hi, "poles": [0.0]}))

    v, t, xi0 = _uniform(rng, -1.0, 0.0), _uniform(rng, 0.0, 1.0), _uniform(rng, -2.0, 2.0)
    lo, hi = _uniform(rng, -100.0, -60.0), _uniform(rng, 60.0, 100.0)
    specs.append(("compound-tanh-plus", "csv",
                  coeffs + ["--v", repr(v), "--t", repr(t), "--xi0", repr(xi0),
                            "--x-min", repr(lo), "--x-max", repr(hi), "--x-steps", n],
                  {**c, "v": v, "t": t, "xi0": xi0, "lo": lo, "hi": hi, "poles": []}))

    v = cf.locked_velocity(**c)
    k0, t, xi0 = _uniform(rng, 0.5, 2.0), _uniform(rng, 0.0, 1.0), _uniform(rng, -2.0, 2.0)
    x_pole = (c["s"] / c["mu"]) * (-cf.rational_branch(**c) / k0) + v * t + xi0
    lo, hi = _grid_through(rng, x_pole, 1.0e-3, 1.6e-3)
    specs.append(("rational-plus", "json",
                  coeffs + ["--v", repr(v), "--k0", repr(k0), "--t", repr(t), "--xi0", repr(xi0),
                            "--x-min", repr(lo), "--x-max", repr(hi), "--x-steps", n],
                  {**c, "v": v, "t": t, "xi0": xi0, "k0": k0, "lo": lo, "hi": hi,
                   "poles": [x_pole]}))

    commands = []
    for family, fmt, flags, params in specs:
        path = f"{WORK}/bulk/{family}.{fmt}"
        commands.append({
            "argv": ["evaluate", "--family", family, *flags, "--format", fmt, "--output", path],
            "expect": 0,
            "outputs": [path],
            "check": {"kind": "export", "family": family, "format": fmt, "params": params},
        })
    return _shuffled(rng, commands)


def build(name: str, seed: int) -> list[dict]:
    """The commands of one pass of workload ``name`` for ``seed``.

    On ``figures`` and ``verify`` the commands are fixed by the paper and the
    verification contract; the seed sets their order within the pass.  On
    ``bulk-export`` it also draws the grids and the wave parameters.
    """
    rng = random.Random(seed)
    return {"figures": _figures, "bulk-export": _bulk_export, "verify": _verify}[name](rng)
