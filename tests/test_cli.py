"""End-to-end tests of the command-line interface and its exit-code contract."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kdvbwaves import (
    Family,
    PhysicalParams,
    evaluate_grid,
    locked_rational_velocity,
    rational_solution_from_physical,
    universal_solution,
)
from kdvbwaves.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# factorize


def test_factorize_kdvb_json_report(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "kdvb", "--delta", "0",
                       "--sign", "minus", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["A"] == pytest.approx(-math.sqrt(2.0 / 3.0))
    assert report["B"] == pytest.approx(0.4)
    assert report["p"] == pytest.approx(0.24)
    assert report["k"] == 0.0
    assert report["product_condition_max_residual"] < 1e-12
    assert report["closure_condition_max_residual"] < 1e-12


def test_factorize_compound_json_report(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "compound", "--p", "0",
                       "--q", "2", "--sign", "plus", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["C"] == pytest.approx(1.0 / 9.0)
    assert report["k"] == pytest.approx(-1.0 / 27.0)


def test_factorize_rejects_zero_q(capsys):
    code, _, err = run(capsys, "factorize", "--eq", "compound", "--q", "0")
    assert code == 2
    assert "q != 0" in err


def test_factorize_text_report_mentions_conditions(capsys):
    code, out, _ = run(capsys, "factorize", "--eq", "kdvb", "--delta", "1")
    assert code == 0
    assert "product condition" in out
    assert "closure condition" in out


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_reduced_header_and_monotone_kink(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "-60", "--theta-max", "60", "--theta-steps", "601")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["theta", "re_u", "im_u", "pole_flag"]
    assert len(rows) == 601
    re = [float(r[1]) for r in rows]
    assert all(b >= a for a, b in zip(re, re[1:]))
    assert abs(re[0]) < 1e-4 and abs(re[-1] - 0.24) < 1e-4
    assert all(r[2] == "0" for r in rows)


def test_evaluate_singular_pole_row_is_empty_flagged(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-singular",
                       "--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[1] == ["0", "", "", "1"]


def test_evaluate_json_pole_is_null(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-singular",
                       "--theta-min", "-1", "--theta-max", "1", "--theta-steps", "3",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[1]["pole_flag"] == 1
    assert rows[1]["re_u"] is None and rows[1]["im_u"] is None
    assert rows[0]["pole_flag"] == 0


def test_evaluate_physical_header(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                       "--x-min", "-2", "--x-max", "2", "--x-steps", "5", "--t", "0.5",
                       "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["x", "t", "re_u", "im_u", "pole_flag"]
    assert all(r[1] == "0.5" for r in rows)


def test_evaluate_rejects_empty_grid(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "0")
    assert code == 2 and "grid point" in err


def test_evaluate_rejects_ambiguous_grids(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "5",
                       "--x-min", "0", "--x-max", "1", "--x-steps", "5")
    assert code == 2 and "exactly one grid" in err
    code, _, _ = run(capsys, "evaluate", "--family", "kdvb-regular")
    assert code == 2


def test_evaluate_physical_requires_coefficients(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--x-min", "0", "--x-max", "1", "--x-steps", "5")
    assert code == 2
    assert "--s" in err and "--v" in err


def test_evaluate_rational_off_lock_velocity_is_a_domain_error(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "rational-plus",
                       "--x-min", "1", "--x-max", "2", "--x-steps", "3",
                       "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
                       "--v", "-1.0", "--k0", "1")
    assert code == 2
    assert "locked velocity" in err


def test_evaluate_compound_reduced_needs_p_and_q(capsys):
    code, _, err = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                       "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2 and "--p and --q" in err


def test_evaluate_output_is_deterministic(tmp_path, capsys):
    args = ["evaluate", "--family", "compound-tanh-minus",
            "--theta-min", "-30", "--theta-max", "30", "--theta-steps", "101",
            "--p", "1", "--q", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_evaluate_serializes_17_significant_digits(capsys):
    code, out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                       "--theta-min", "1", "--theta-max", "1", "--theta-steps", "1")
    assert code == 0
    _, rows = parse_csv(out)
    # round-trip: the printed value parses back to the exact double
    from kdvbwaves import Family, eval_universal

    exact = eval_universal(Family.KDVB_REGULAR, 1.0)
    assert float(rows[0][1]) == exact.real


def test_evaluate_rejects_non_finite_grid_bounds(capsys):
    code, out, err = run(capsys, "evaluate", "--family", "kdvb-regular",
                         "--theta-min", "nan", "--theta-max", "1", "--theta-steps", "3")
    assert (code, out) == (2, "") and "must be finite" in err
    code, out, err = run(capsys, "evaluate", "--family", "compound-tanh-plus",
                         "--x-min", "0", "--x-max", "inf", "--x-steps", "3",
                         "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2", "--v", "-0.04")
    assert (code, out) == (2, "") and "must be finite" in err


def _writer_case(case):
    """(solution, grid, t, evaluate flags) for a 5-node grid whose middle node is a pole."""
    if case == "reduced":
        flags = ["--family", "kdvb-singular", "--theta-min", "-1", "--theta-max", "1",
                 "--theta-steps", "5"]
        return universal_solution(Family.KDVB_SINGULAR), np.linspace(-1.0, 1.0, 5), None, flags
    coeffs = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    params = PhysicalParams(v=locked_rational_velocity(PhysicalParams(v=0.0, **coeffs)), **coeffs)
    sol = rational_solution_from_physical(Family.RATIONAL_PLUS, params, 1.0)
    t = 0.25
    # x = (s/mu)*theta_pole + v*t, theta_pole = -A/k0 with A = sqrt(q/2)
    x_pole = 2.0 * -math.sqrt(sol.reduced.q / 2.0) + params.v * t
    lo, hi = x_pole - 0.5, x_pole + 0.5
    flags = ["--family", "rational-plus", "--x-min", repr(lo), "--x-max", repr(hi),
             "--x-steps", "5", "--s", "2", "--mu", "1", "--alpha", "3", "--beta", "2",
             "--v", repr(params.v), "--k0", "1", "--t", repr(t)]
    return sol, np.linspace(lo, hi, 5), t, flags


@pytest.mark.parametrize("case", ["reduced", "physical"])
def test_writer_matches_json_dumps_and_17g_cells(case, capsys):
    sol, grid, t, flags = _writer_case(case)
    values, pole = evaluate_grid(sol, grid, t)
    assert pole.tolist() == [False, False, True, False, False]
    rows = []
    for coord, value, flagged in zip(grid.tolist(), values.tolist(), pole.tolist()):
        row = {"theta": coord} if t is None else {"x": coord, "t": t}
        row["re_u"] = None if flagged else value.real
        row["im_u"] = None if flagged else value.imag
        row["pole_flag"] = int(flagged)
        rows.append(row)
    code, out, _ = run(capsys, "evaluate", *flags, "--format", "json")
    assert code == 0
    assert out == json.dumps(rows, indent=2) + "\n"
    code, out, _ = run(capsys, "evaluate", *flags, "--format", "csv")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == ",".join(rows[0]) and lines[-1] == ""
    for line, row in zip(lines[1:-1], rows):
        cells = ["" if v is None else str(v) if k == "pole_flag" else format(v, ".17g")
                 for k, v in row.items()]
        assert line == ",".join(cells)
    assert lines[3].endswith(",,,1") and len(lines) == len(rows) + 2


# ---------------------------------------------------------------------------
# sweep


def test_sweep_header_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--a-min", "-5", "--a-max", "0", "--a-steps", "3",
                       "--theta-min", "-10", "--theta-max", "10", "--theta-steps", "5")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["a", "theta", "re_u", "im_u", "pole_flag"]
    assert len(rows) == 15


def test_single_row_sweep_matches_evaluate(capsys):
    code, sweep_out, _ = run(capsys, "sweep", "--a-min", "0", "--a-max", "0", "--a-steps", "1",
                             "--theta-min", "-5", "--theta-max", "5", "--theta-steps", "11")
    assert code == 0
    code, eval_out, _ = run(capsys, "evaluate", "--family", "kdvb-regular",
                            "--theta-min", "-5", "--theta-max", "5", "--theta-steps", "11")
    assert code == 0
    _, sweep_rows_ = parse_csv(sweep_out)
    _, eval_rows = parse_csv(eval_out)
    assert [r[1:] for r in sweep_rows_] == eval_rows


def test_sweep_rejects_non_finite_grid_bounds(capsys):
    for bounds in (["--a-min=-inf", "--a-max", "0", "--theta-min", "-1"],
                   ["--a-min", "-5", "--a-max", "0", "--theta-min", "nan"]):
        code, out, err = run(capsys, "sweep", *bounds, "--a-steps", "3",
                             "--theta-max", "1", "--theta-steps", "3")
        assert (code, out) == (2, "") and "must be finite" in err


def test_sweep_rejects_bad_ranges(capsys):
    code, _, _ = run(capsys, "sweep", "--a-min", "0", "--a-max", "1", "--a-steps", "1",
                     "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--a-min", "1", "--a-max", "0", "--a-steps", "5",
                     "--theta-min", "0", "--theta-max", "1", "--theta-steps", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_passing_scope_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "constant")
    assert code == 0
    assert "CHECK" in out and "SUMMARY" in out and "FAIL" not in out


def test_verify_impossible_tolerance_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "kdvb-regular", "--tolerance", "1e-20")
    assert code == 1
    assert "FAIL" in out


def test_verify_perturbed_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "kdvb-regular", "--perturb", "0.01")
    assert code == 1


def test_verify_audit_report_lines(capsys):
    code, out, _ = run(capsys, "verify", "--scope", "compound-rational")
    assert code == 0
    assert "AUDIT locked-velocity-form: CONSISTENT" in out
    assert "AUDIT mu-weighted-variant: DISCREPANT" in out
    assert "AUDIT epsilon-variant-velocity: DISCREPANT" in out


# ---------------------------------------------------------------------------
# figure


def test_figure_writes_manifest_outputs(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "3", "--outdir", str(tmp_path))
    assert code == 0
    path = tmp_path / "fig3_complex_phase_real.csv"
    assert path.exists()
    header = path.read_text().splitlines()[0]
    assert header == "theta,re_u,im_u,pole_flag"
    assert f"wrote {path}" in out


def test_figure_seven_writes_six_curves(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "7", "--outdir", str(tmp_path))
    assert code == 0
    files = sorted(p.name for p in tmp_path.glob("fig7_*.csv"))
    assert len(files) == 6
    assert "fig7_compound_kink_v-1.04.csv" in files


def test_figure_accepts_custom_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "1": {
            "command": "evaluate", "family": "kdvb-regular", "phase_a": 0.0,
            "theta_min": -1.0, "theta_max": 1.0, "theta_steps": 3,
            "output": "tiny.csv",
        }
    }))
    code, _, _ = run(capsys, "figure", "1", "--manifest", str(manifest),
                     "--outdir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "tiny.csv").exists()
    code, _, err = run(capsys, "figure", "2", "--manifest", str(manifest),
                       "--outdir", str(tmp_path))
    assert code == 2 and "not in the manifest" in err


def test_figure_rejects_out_of_range_id():
    with pytest.raises(SystemExit) as err:
        main(["figure", "9"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# exit-code contract, one instance of each, plus the console script


def test_exit_code_contract(tmp_path, capsys):
    ok = main(["evaluate", "--family", "kdvb-regular", "--theta-min", "0",
               "--theta-max", "1", "--theta-steps", "2",
               "--output", str(tmp_path / "ok.csv")])
    fail = main(["verify", "--scope", "kdvb-regular", "--tolerance", "1e-20"])
    usage = main(["factorize", "--eq", "compound", "--q", "0"])
    capsys.readouterr()
    assert (ok, fail, usage) == (0, 1, 2)


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "kdvbwaves.cli", "factorize", "--eq", "kdvb", "--delta", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "factorization" in proc.stdout
