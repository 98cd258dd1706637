"""Output checks, run outside the timed region on the first pass's outputs.

Each ``check_*`` function returns ``(errors, rows, poles)``: a list of
messages (empty when the output is right), the number of output records
(CSV/JSON data rows, or CHECK/AUDIT lines for verify) and the number of
rows flagged as poles.

* figure   -- every CSV against its golden under golden/figures/: header,
  row count and pole flags exactly, values within the per-row ``tol``.
* transcript -- verify: exit code, CHECK names with PASS/FAIL, AUDIT
  verdicts and the SUMMARY line exactly; factorize: text and keys exactly,
  coefficients within a few ulp, condition residuals below 1e-12.
* export   -- bulk-export: header, row count and grid; the pole flags against
  the poles of the seeded parameters; a seeded sample of rows against the
  30-digit references in closed_forms.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import random

import numpy as np

import closed_forms as cf
import workloads

RESIDUAL_LIMIT = 1e-12
SAMPLE_ROWS = 64
POLE_RADIUS = 1e-6  # grids put a node within ~1e-13 of each pole and none within 1e-4

_HEADERS = {"reduced": ["theta", "re_u", "im_u", "pole_flag"],
            "physical": ["x", "t", "re_u", "im_u", "pole_flag"]}


def _close(got: float, want: float, ulps: int = cf.ULPS) -> bool:
    return abs(got - want) <= ulps * cf.EPS * max(abs(want), abs(got))


# -- figures -----------------------------------------------------------------


def _load_golden(name: str) -> list[list[str]]:
    files = json.loads((workloads.GOLDEN / "figures.json").read_text(encoding="utf-8"))
    data = gzip.decompress((workloads.GOLDEN / "figures" / files[name]).read_bytes())
    return list(csv.reader(io.StringIO(data.decode())))


def _columns(rows: list[list[str]], n: int) -> np.ndarray:
    return np.array([[float(c) if c else math.nan for c in r[:n]] for r in rows])


def check_figure(name: str, text: str) -> tuple[list[str], int, int]:
    golden = _load_golden(name)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    g_header, g_body = golden[0][:-1], golden[1:]
    if header != g_header:
        return [f"{name}: header {header} != {g_header}"], 0, 0
    if len(body) != len(g_body) or any(len(r) != len(header) for r in body):
        return [f"{name}: {len(body)} rows, golden has {len(g_body)}"], len(body), 0
    errors = []
    flags = np.array([r[-1] for r in body])
    g_flags = np.array([r[len(header) - 1] for r in g_body])
    poles = int(np.count_nonzero(flags == "1"))
    if not np.array_equal(flags, g_flags):
        errors.append(f"{name}: pole flags differ at {int(np.count_nonzero(flags != g_flags))} rows")
        return errors, len(body), poles
    n_coord = len(header) - 3
    got = _columns(body, len(header) - 1)
    want = _columns(g_body, len(header) - 1)
    tol = np.array([float(r[-1]) for r in g_body])
    coord_tol = cf.ULPS * cf.EPS * np.max(np.abs(want[:, :n_coord]), axis=0)
    if np.any(np.abs(got[:, :n_coord] - want[:, :n_coord]) > coord_tol):
        errors.append(f"{name}: grid coordinates differ from the golden")
    pole = g_flags == "1"
    values, g_values = got[:, n_coord:], want[:, n_coord:]
    if not np.all(np.isnan(values[pole])):
        errors.append(f"{name}: a pole row carries values")
    diff = np.abs(values[~pole] - g_values[~pole])
    bad = ~(diff <= tol[~pole, None])
    if np.any(bad):
        worst = float(np.nanmax(np.where(np.isnan(diff), np.inf, diff / tol[~pole, None])))
        errors.append(f"{name}: {int(np.count_nonzero(bad.any(axis=1)))} rows outside the golden "
                      f"tolerance (worst {worst:.3g} x tol)")
    return errors, len(body), poles


# -- verify / factorize transcripts ---------------------------------------------


def _golden_transcript(argv: list[str]) -> dict:
    records = json.loads((workloads.GOLDEN / "verify.json").read_text(encoding="utf-8"))
    return next(r for r in records if r["argv"] == argv)


def _compare_factorize_text(got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{len(got_lines)} lines, golden has {len(want_lines)}"]
    errors = []
    for g, w in zip(got_lines, want_lines):
        g_key, _, g_val = g.rpartition(" = ")
        w_key, _, w_val = w.rpartition(" = ")
        try:
            g_num, w_num = float(g_val), float(w_val)
        except ValueError:
            if g != w:
                errors.append(f"line {g!r} != golden {w!r}")
            continue
        if g_key != w_key:
            errors.append(f"line {g!r} != golden {w!r}")
        elif g_key.endswith("max residual"):
            if not g_num <= RESIDUAL_LIMIT:
                errors.append(f"{g.strip()} exceeds {RESIDUAL_LIMIT:g}")
        elif not _close(g_num, w_num):
            errors.append(f"{g_key.strip()} = {g_num!r}, golden {w_num!r}")
    return errors


def _compare_factorize_json(got: str, want: str) -> list[str]:
    try:
        g, w = json.loads(got), json.loads(want)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if list(g) != list(w):
        return [f"keys {list(g)} != golden {list(w)}"]
    errors = []
    for key, want_value in w.items():
        value = g[key]
        if key.endswith("_residual"):
            if not (isinstance(value, float) and value <= RESIDUAL_LIMIT):
                errors.append(f"{key} = {value!r} exceeds {RESIDUAL_LIMIT:g}")
        elif isinstance(want_value, float):
            if not (isinstance(value, (int, float)) and _close(value, want_value)):
                errors.append(f"{key} = {value!r}, golden {want_value!r}")
        elif value != want_value:
            errors.append(f"{key} = {value!r}, golden {want_value!r}")
    return errors


def check_transcript(argv: list[str], stdout: str) -> tuple[list[str], int, int]:
    golden = _golden_transcript(argv)
    if argv[0] == "verify":
        got = workloads.parse_verify_transcript(stdout)
        errors = [f"{key} differ from the golden transcript"
                  for key in ("checks", "audit", "summary") if got[key] != golden[key]]
        return errors, len(got["checks"]) + len(got["audit"]), 0
    compare = _compare_factorize_json if "json" in argv else _compare_factorize_text
    return compare(stdout, golden["stdout"]), 0, 0


# -- bulk-export ---------------------------------------------------------------


def _read_export(text: str, fmt: str, header: list[str]):
    """(coordinate rows, value rows as complex or None, pole flags) or an error."""
    coords, values, flags = [], [], []
    if fmt == "csv":
        lines = text.splitlines()
        if lines[:1] != [",".join(header)]:
            return f"header {lines[:1]} != {','.join(header)}"
        cells = [line.split(",") for line in lines[1:]]
        if any(len(c) != len(header) for c in cells):
            return "a row has the wrong number of cells"
        for c in cells:
            coords.append([float(v) for v in c[:-3]])
            values.append(None if c[-3] == "" else complex(float(c[-3]), float(c[-2])))
            flags.append(int(c[-1]))
    else:
        rows = json.loads(text)
        for row in rows:
            if list(row) != header:
                return f"row keys {list(row)} != {header}"
            coords.append([row[k] for k in header[:-3]])
            values.append(None if row["re_u"] is None else complex(row["re_u"], row["im_u"]))
            flags.append(row["pole_flag"])
    return coords, values, flags


def _reference(family: str, p: dict, coord: list[float]):
    if family in ("kdvb-regular", "kdvb-singular"):
        return cf.kdvb_reduced(family == "kdvb-singular", coord[0], p["phase_a"])
    args = (coord[0], coord[1], p["s"], p["mu"], p["alpha"], p["beta"], p["v"], p["xi0"])
    if family == "compound-tanh-plus":
        return cf.compound_physical(True, *args)
    return cf.rational_physical(*args, p["k0"])


def check_export(check: dict, text: str, seed: int) -> tuple[list[str], int, int]:
    family, fmt, p = check["family"], check["format"], check["params"]
    mode = "reduced" if family.startswith("kdvb") else "physical"
    parsed = _read_export(text, fmt, _HEADERS[mode])
    if isinstance(parsed, str):
        return [f"{family}: {parsed}"], 0, 0
    coords, values, flags = parsed
    n = len(coords)
    poles = sum(flags)
    if n != workloads.BULK_POINTS:
        return [f"{family}: {n} rows, expected {workloads.BULK_POINTS}"], n, poles
    errors = []
    grid = np.array([c[0] for c in coords])
    want = np.linspace(p["lo"], p["hi"], n)
    if np.any(np.abs(grid - want) > cf.ULPS * cf.EPS * np.max(np.abs(want))):
        errors.append(f"{family}: grid differs from linspace({p['lo']!r}, {p['hi']!r}, {n})")
    if mode == "physical" and any(c[1] != p["t"] for c in coords):
        errors.append(f"{family}: t column differs from {p['t']!r}")

    near = [min((abs(x - q) for q in p["poles"]), default=math.inf) for x in grid]
    expected = {i for i, d in enumerate(near) if d <= POLE_RADIUS}
    flagged = {i for i, f in enumerate(flags) if f}
    if len(expected) != len(p["poles"]):
        errors.append(f"{family}: grid design put {len(expected)} nodes on {len(p['poles'])} poles")
    if flagged != expected:
        errors.append(f"{family}: pole flags at {sorted(flagged)[:5]}, poles at {sorted(expected)[:5]}")
    if any((v is None) != bool(f) for v, f in zip(values, flags)):
        errors.append(f"{family}: value cells and pole flags disagree")
    if not all(v is None or (math.isfinite(v.real) and math.isfinite(v.imag)) for v in values):
        errors.append(f"{family}: a non-pole value is not finite")

    rng = random.Random(seed)
    sample = {rng.randrange(n) for _ in range(SAMPLE_ROWS)} | {0, n - 1}
    sample |= {j for i in expected for j in (i - 1, i + 1) if 0 <= j < n}
    for i in sorted(sample - flagged):
        u, bound = _reference(family, p, coords[i])
        v = values[i]
        if v is None or abs(v.real - float(u.real)) > bound or abs(v.imag - float(u.imag)) > bound:
            errors.append(f"{family}: row {i} at {coords[i]} is {v}, mpmath gives "
                          f"{complex(u)} (bound {bound:.3g})")
            break
    return errors, n, poles
