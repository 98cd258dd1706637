"""Acceptance suite: one test per shipped claim, at the stated tolerances.

Every test prints exactly one ACCEPTANCE line (PASS or FAIL with the measured
numbers) before asserting, so a transcript of this module is a complete
scorecard of the build.
"""

import csv
import math
import time

import numpy as np
import pytest

from kdvbwaves import (
    Family,
    PhysicalParams,
    ReducedParams,
    Sign,
    compound_solution,
    compound_solution_from_physical,
    eval_solution,
    factorize_compound,
    factorize_kdvb,
    kdvb_solution_from_physical,
    locked_rational_velocity,
    rational_solution,
    residual_pde,
    universal_solution,
    verification_suite,
)
from kdvbwaves.cli import main
from kdvbwaves.factorizer import verify_factorization
from kdvbwaves.verify import (
    oracle_integrate_bernoulli,
    oracle_integrate_riccati,
    physical_discriminant_root,
    residual_first_integral,
)

GRID200 = np.linspace(-50.0, 50.0, 200)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_factorization_exactness():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    real_samples = list(rng.uniform(1e-6, 10.0, 100))
    worst_kdvb = 0.0
    for delta in (-2.0, 0.0, 1.0, 3.7):
        for sign in (Sign.MINUS, Sign.PLUS):
            f = factorize_kdvb(delta, sign)
            c = verify_factorization(f.f1_at, f.f2_at, f.F_at, f.f1U_prime_at, real_samples)
            worst_kdvb = max(worst_kdvb, c.max_product, c.max_closure)
    complex_samples = [
        complex(a, b)
        for a, b in zip(rng.uniform(-5.0, 5.0, 100), rng.uniform(-5.0, 5.0, 100))
        if abs(complex(a, b)) > 1e-3
    ]
    worst_compound = 0.0
    for p in np.linspace(-2.0, 2.0, 5):
        for q in np.linspace(0.1, 4.0, 5):
            for sign in (Sign.MINUS, Sign.PLUS):
                f = factorize_compound(ReducedParams(p=float(p), q=float(q)), sign)
                c = verify_factorization(
                    f.f1_at, f.f2_at, f.F_at, f.f1U_prime_at, complex_samples
                )
                worst_compound = max(worst_compound, c.max_product, c.max_closure)
    elapsed = time.perf_counter() - t0
    ok = worst_kdvb < 1e-12 and worst_compound < 1e-12 and elapsed < 1.0
    report(1, ok, f"factorization residuals: kdvb {worst_kdvb:.2e}, "
                  f"compound {worst_compound:.2e} (< 1e-12), {elapsed:.2f}s")


def test_criterion_2_first_integral_exactness():
    t0 = time.perf_counter()
    cases = [
        ("regular", universal_solution(Family.KDVB_REGULAR), GRID200),
        ("singular", universal_solution(Family.KDVB_SINGULAR), GRID200),
    ]
    for p, q in ((-0.08, 4.0 / 27.0), (1.0, 1.0), (0.5, 2.0)):
        for fam in (Family.COMPOUND_TANH_PLUS, Family.COMPOUND_TANH_MINUS):
            cases.append((f"compound {fam.value} p={p}", compound_solution(fam, p, q), GRID200))
    for fam in (Family.RATIONAL_PLUS, Family.RATIONAL_MINUS):
        for k0 in (0.0, 1.0, -2.0):
            grid = GRID200 if k0 != -2.0 else np.linspace(1.0, 10.0, 200)
            cases.append((f"rational {fam.value} k0={k0}", rational_solution(fam, 0.5, k0), grid))
    for sign in (Sign.PLUS, Sign.MINUS):
        constant = rational_solution(Family.CONSTANT, 0.5, 0.0, sign)
        cases.append((f"constant {sign.value}", constant, GRID200))
    worst = 0.0
    worst_name = ""
    for name, sol, grid in cases:
        r = residual_first_integral(sol, grid)
        if r.max_abs > worst:
            worst, worst_name = r.max_abs, name
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(2, ok, f"first-integral residual over {len(cases)} family cases: "
                  f"worst {worst:.2e} ({worst_name}) < 1e-9, {elapsed:.2f}s")


def test_criterion_3_pde_finite_difference_exactness():
    kdvb = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
    )
    compound = compound_solution_from_physical(
        Family.COMPOUND_TANH_PLUS, PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=1.0)
    )
    grid = [(float(x), t) for t in (0.0, 0.3) for x in np.linspace(-3.0, 3.0, 21)]
    results = {}
    for name, sol in (("kdvb", kdvb), ("compound", compound)):
        at_h = residual_pde(sol, grid, h=1e-3, mode="fd").max_abs
        seq = [residual_pde(sol, grid, h=h, mode="fd").max_abs for h in (1e-2, 5e-3, 2.5e-3)]
        results[name] = (at_h, seq[0] / seq[1], seq[1] / seq[2])
    ok = all(
        at_h < 1e-5 and 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
        for at_h, r1, r2 in results.values()
    )
    detail = "; ".join(
        f"{n}: max {v[0]:.2e} < 1e-5, ratios {v[1]:.2f}/{v[2]:.2f} in [3.5,4.5]"
        for n, v in results.items()
    )
    report(3, ok, f"PDE residual at h=1e-3 with O(h^2) convergence: {detail}")


def test_criterion_4_runge_kutta_oracle_agreement():
    bern = oracle_integrate_bernoulli(Sign.MINUS, 3.0 / 50.0, (0.0, 40.0), 0.01)
    regular = universal_solution(Family.KDVB_REGULAR)
    bern_gap = abs(bern.endpoint - eval_solution(regular, 40.0))
    sol = compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0)
    fact = factorize_compound(sol.reduced, sol.sign)
    ricc = oracle_integrate_riccati(fact, eval_solution(sol, 0.0), (0.0, 10.0), 0.005)
    ricc_gap = abs(ricc.endpoint - eval_solution(sol, 10.0))
    target = eval_solution(regular, 10.0)
    errs = [
        abs(oracle_integrate_bernoulli(Sign.MINUS, 3.0 / 50.0, (0.0, 10.0), h).endpoint - target)
        for h in (0.5, 0.25)
    ]
    ratio = errs[0] / errs[1]
    ok = bern_gap < 1e-6 and ricc_gap < 1e-6 and 12.0 <= ratio <= 20.0
    report(4, ok, f"oracle endpoint gaps: Bernoulli {bern_gap:.2e}, Riccati {ricc_gap:.2e} "
                  f"(< 1e-6); halving ratio {ratio:.1f} in [12,20]")


def test_criterion_5_phase_shift_identity():
    rng = np.random.default_rng(777)
    pts = [t for t in rng.uniform(-40.0, 40.0, 400) if abs(t) > 0.5][:200]
    assert len(pts) == 200
    shifted = universal_solution(Family.KDVB_REGULAR, theta0=5j * math.pi)
    singular = universal_solution(Family.KDVB_SINGULAR)
    worst = max(abs(eval_solution(shifted, t) - eval_solution(singular, t)) for t in pts)
    ok = worst < 1e-10
    report(5, ok, f"|regular(theta0+5i*pi) - singular(theta0)| over 200 points: "
                  f"worst {worst:.2e} < 1e-10")


def test_criterion_6_degenerate_limit_and_branch_pairing():
    locked = PhysicalParams(s=2.0, mu=1.0, alpha=3.0, beta=2.0, v=-25.0 / 24.0)
    root_at_lock = physical_discriminant_root(locked)
    q = 4.0 / 27.0
    p0 = (1.0 - 2.0 / q) / 6.0
    theta = np.linspace(-10.0, 10.0, 101)
    ratios = []
    terminal = 0.0
    for fam, paired in (
        (Family.COMPOUND_TANH_PLUS, Sign.MINUS),
        (Family.COMPOUND_TANH_MINUS, Sign.PLUS),
    ):
        limit = eval_solution(rational_solution(Family.CONSTANT, q, 0.0, paired), 0.0)
        gaps = []
        for root in (0.1, 0.05, 0.025):
            kink = compound_solution(fam, p0 + root * root / 18.0, q)
            gaps.append(max(abs(eval_solution(kink, t) - limit) for t in theta))
        ratios.extend([gaps[0] / gaps[1], gaps[1] / gaps[2]])
        terminal = max(terminal, gaps[-1])
    ok = (
        abs(root_at_lock) < 1e-12
        and all(3.5 <= r <= 4.5 for r in ratios)
        and terminal < 1e-3
    )
    report(6, ok, f"discriminant root at v=-25/24: {root_at_lock!r} (< 1e-12); "
                  f"limit onto the paired constant quadratic: ratios "
                  f"{', '.join(f'{r:.2f}' for r in ratios)} in [3.5,4.5]")


def test_criterion_7_figure_reproduction(tmp_path):
    def load(name):
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        return rows[0], rows[1:]

    for n in (1, 3, 4, 5, 7):
        assert main(["figure", str(n), "--outdir", str(tmp_path)]) == 0

    problems = []

    _, rows = load("fig1_regular_kink.csv")
    re = [float(r[1]) for r in rows]
    if not all(b >= a for a, b in zip(re, re[1:])):
        problems.append("fig1 not monotone")
    if abs(re[0]) > 1e-6 or abs(re[-1] - 0.24) > 1e-6:
        problems.append(f"fig1 asymptotes {re[0]:.2e}/{re[-1]:.8f}")
    if any(float(r[2]) != 0.0 for r in rows):
        problems.append("fig1 has imaginary parts")

    for name in ("fig3_complex_phase_real.csv", "fig4_complex_phase_imag.csv"):
        _, rows = load(name)
        centre = [r for r in rows if float(r[0]) == 0.0]
        val = complex(float(centre[0][1]), float(centre[0][2]))
        if abs(val - 0.12j) > 1e-10:
            problems.append(f"{name} value at theta=0 is {val}")

    _, rows = load("fig5_phase_sweep_real.csv")
    for a_want, fam in ((0.0, Family.KDVB_REGULAR), (-5.0, Family.KDVB_SINGULAR)):
        slice_rows = [r for r in rows if float(r[0]) == a_want]
        if len(slice_rows) != 401:
            problems.append(f"fig5 slice a={a_want} has {len(slice_rows)} rows")
            continue
        for r in slice_rows:
            if r[4] == "1":
                continue
            expect = eval_solution(universal_solution(fam), float(r[1]))
            if abs(complex(float(r[2]), float(r[3])) - expect) > 1e-9:
                problems.append(f"fig5 a={a_want} mismatch at theta={r[1]}")
                break

    coeff = dict(s=2.0, mu=1.0, alpha=3.0, beta=2.0)
    for label, v in (("-1.01", -1.01), ("-0.94", -0.94), ("-0.74", -0.74),
                     ("-0.54", -0.54), ("-0.04", -0.04)):
        _, rows = load(f"fig7_compound_kink_v{label}.csv")
        D = physical_discriminant_root(PhysicalParams(v=v, **coeff))
        left_want = -coeff["alpha"] / (2 * coeff["beta"]) + coeff["mu"] / math.sqrt(
            6 * coeff["beta"] * coeff["s"]
        ) * (1.0 - D)
        left_got = float(rows[0][2])
        if abs(left_got - left_want) > 1e-3:
            problems.append(f"fig7 v={label} left asymptote {left_got:.6f} != {left_want:.6f}")
        re = [float(r[2]) for r in rows]
        if not all(b >= a - 1e-12 for a, b in zip(re, re[1:])):
            problems.append(f"fig7 v={label} not a monotone kink")
    _, rows = load("fig7_compound_kink_v-1.04.csv")
    re = [float(r[2]) for r in rows]
    if max(re) != min(re):
        problems.append("fig7 v=-1.04 curve is not constant")

    ok = not problems
    report(7, ok, "figure data: fig1 asymptotes 0/0.24 within 1e-6, fig3/4 centre 0.12i "
                  "within 1e-10, fig5 end slices match families, fig7 kink asymptotes and "
                  "constant curve" + ("" if ok else "; " + "; ".join(problems)))


def test_criterion_8_negative_controls(capsys):
    families = [
        ("regular", universal_solution(Family.KDVB_REGULAR), GRID200),
        ("singular", universal_solution(Family.KDVB_SINGULAR), GRID200),
        ("compound plus", compound_solution(Family.COMPOUND_TANH_PLUS, 1.0, 1.0), GRID200),
        ("compound minus", compound_solution(Family.COMPOUND_TANH_MINUS, 1.0, 1.0), GRID200),
        ("rational plus", rational_solution(Family.RATIONAL_PLUS, 0.5, 1.0), GRID200),
        ("rational minus", rational_solution(Family.RATIONAL_MINUS, 0.5, -1.0), GRID200),
        ("constant", rational_solution(Family.CONSTANT, 0.5, 0.0, Sign.PLUS), GRID200),
    ]
    worst_ratio = math.inf
    worst_name = ""
    for name, sol, grid in families:
        clean = residual_first_integral(sol, grid).max_abs
        dirty = residual_first_integral(sol, grid, scale=1.01).max_abs
        ratio = dirty / max(clean, 1e-300)
        if ratio < worst_ratio:
            worst_ratio, worst_name = ratio, name
    pde_sol = kdvb_solution_from_physical(
        Family.KDVB_REGULAR, PhysicalParams(s=1.0, mu=6.0, alpha=1.0, beta=0.0, v=0.2)
    )
    grid = [(float(x), 0.0) for x in np.linspace(-3.0, 3.0, 21)]
    pde_clean = residual_pde(pde_sol, grid, mode="analytic").max_abs
    pde_dirty = residual_pde(pde_sol, grid, mode="analytic", scale=1.01).max_abs
    pde_ratio = pde_dirty / max(pde_clean, 1e-300)
    exit_code = main(["verify", "--scope", "all", "--perturb", "0.01"])
    capsys.readouterr()
    ok = worst_ratio >= 1e3 and pde_ratio >= 1e3 and exit_code == 1
    report(8, ok, f"1%-perturbed residuals grow by >= 1e3: worst first-integral ratio "
                  f"{worst_ratio:.1e} ({worst_name}), PDE ratio {pde_ratio:.1e}; "
                  f"perturbed verify exit code {exit_code}")


def test_criterion_9_rational_form_audit(capsys):
    result = verification_suite(scope="compound-rational")
    findings = {f.name: f for f in result.audit}
    exit_code = main(["verify", "--scope", "compound-rational"])
    out = capsys.readouterr().out
    checks = [
        result.all_passed,
        exit_code == 0,
        findings["locked-velocity-form"].verdict == "CONSISTENT",
        findings["locked-velocity-form"].measured < 1e-9,
        findings["mu-weighted-variant"].verdict == "DISCREPANT",
        findings["epsilon-variant"].verdict == "DISCREPANT",
        findings["epsilon-equals-mu-weighted"].verdict == "CONSISTENT",
        findings["epsilon-variant-velocity"].verdict == "DISCREPANT",
        "AUDIT locked-velocity-form: CONSISTENT" in out,
        "DISCREPANT" in out,
    ]
    ok = all(checks)
    report(9, ok, "audit is definitive: locked-velocity spelling residual-exact "
                  f"({findings['locked-velocity-form'].measured:.1e}); alternate spellings "
                  f"flagged DISCREPANT (PDE residual {findings['mu-weighted-variant'].measured:.1e}); "
                  "velocity variant flagged DISCREPANT (factor 1/beta)")
