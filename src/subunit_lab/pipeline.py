"""Experiment runner: forms -> metric -> geometry -> cutoff -> solver ->
diagnostics, persisting a deterministic artifact tree.

Artifact layout under the output directory:

    distances/    finest-eps field per ball (x, y, value CSV), one row per
                  node its bounded march froze (metric_stage) and none for
                  the +inf nodes beyond the ball's reach; `dist` writes
                  full marches, every node
    balls/        per-ball radius table (r, volume, doubling_ratio, delta,
                  delta_over_r, g_of_r)
    cutoffs/      per-j cutoff table and nesting diagram
    solutions/    linear/quasilinear solutions and residual history
    diagnostics/  per-ball JSON with all constants and pass flags
    plots/        self-contained SVG charts
    report.json   the deterministic report (no timestamps)
    run_meta.json wall-clock metadata, excluded from the determinism contract
                  (indented and key-sorted like every JSON artifact):
                  elapsed seconds, per-stage wall seconds (STAGES, ball
                  stages summed over balls), the solver's work counters,
                  the fast-marching counters (solves, frozen nodes,
                  each ball's reach) and the bytes written to each
                  artifact subdirectory and to report.json

The PDE is solved once per experiment (solve_global).  Each ball then runs
four stages in order, each returning its report section and what the next
stage needs: metric_stage (one eps_min distance field, marched as far as
the later stages read; its report section is {"eps_min"}),
geometry_stage, cutoff_stage and diagnostics_stage.  run_ball composes
them; the CLI subcommands call them one at a time and write through the
same table writers.
"""

import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from itertools import compress, islice

import numpy as np

from . import geometry, svgplot
from .cutoff import (CutoffSequence, SpecialCutoff, build_sequence,
                     build_special_cutoff)
from .diagnostics import (caccioppoli_ratio, harnack_check, local_bound_check,
                          log_c_har, log_estimate, moser_iterate,
                          oscillation_curve, shift_m)
from .errors import (ChainTooShortError, DomainError, GeometryError,
                     RangeError, ResolutionError)
from .forms import QuasilinearEnvelope, assemble_form, envelope_violation
from .metric import FmmStats, ball, solve_distance
from .reporting import SCHEMA_VERSION, json_safe, write_csv, write_json
from .solver import (SolveStats, assemble_linear, max_principle_slack,
                     poincare_functional, solve_linear, solve_quasilinear,
                     sobolev_functional)

MIN_CHAIN = 4
VOLUME_RADII = 24        # volume-curve radii per ball, before r, nu r, nu0 r
MP_TOL = 1e-8
# the wall-time spans of run_meta.json's "stages" block, in run order
STAGES = ("build_form", "solve_global", "metric", "geometry", "cutoff",
          "diagnostics", "artifacts")
# the subdirectories of a run's output directory (see the layout above)
ARTIFACT_DIRS = ("distances", "balls", "cutoffs", "solutions", "diagnostics",
                 "plots")


@contextmanager
def _timed(times, stage):
    """Add the wall seconds of the with-block to times[stage]."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        times[stage] = times.get(stage, 0.0) + time.perf_counter() - t0


def _adaptive_radii(field, r_lo_hint, r_hi):
    """Geometric radius band [smallest resolvable, r_hi] for the volume curve.

    Reads only the nodes below r_hi, all of which a field marched to r_hi
    holds."""
    min_nodes = geometry.MIN_BALL_NODES
    sv = np.sort(field.values[field.values < r_hi].ravel())
    if sv.size < min_nodes:
        raise ResolutionError(f"no resolvable radius band below {r_hi:g}")
    r_floor = float(sv[min_nodes - 1]) * 1.0001
    lo = max(r_lo_hint, r_floor)
    if lo >= r_hi:
        lo = r_floor
    if lo >= r_hi:
        raise ResolutionError(f"no resolvable radius band below {r_hi:g}")
    return list(np.geomspace(lo, r_hi, VOLUME_RADII))


FLAT_SLOPE_TOL = 0.1
FIT_MIN_NODES = 150      # the 5/4 jump needs ~40 cells to be trustworthy


def _median(values):
    """numpy's median of finite values, bit for bit: the middle element, or
    the mean of the two middle ones as numpy computes it, (a + b) / 2.
    (Of 0.0 and -0.0, which sort as equal, either may be the middle one.)
    Sorting in Python keeps the run from loading numpy.ma, which numpy's
    median imports."""
    v = sorted(values)
    mid = len(v) // 2
    if len(v) % 2:
        return float(v[mid])
    return float((v[mid - 1] + v[mid]) / 2.0)


def _fitted_delta_law(analytics):
    """Power-law fit delta(r) = c r^(s+1) of the measured non-doubling order.

    The growth condition amplifies per-radius quantization noise by
    lambda (r/delta)^lambda, so trend checks must run on the fitted law,
    not raw samples.  The fit drops radii whose balls are too small to
    resolve the 5/4 jump and uses a median-of-pairwise-slopes estimate; a
    slope within the noise band is snapped to the flat (doubling) law,
    where the verdict would otherwise flip on the sign of pure noise.
    Returns (c, s) or None."""
    r = analytics.radii
    t = analytics.delta_curve / r
    mask = t > 0
    counts = analytics.measure.count(r)
    strict = mask & (counts >= FIT_MIN_NODES)
    if strict.sum() >= 4:
        mask = strict
    if mask.sum() < 3:
        return None
    lr, lt = np.log(r[mask]), np.log(t[mask])
    slopes = [(lt[j] - lt[i]) / (lr[j] - lr[i])
              for i in range(len(lr)) for j in range(i + 1, len(lr))]
    s = _median(slopes)
    if abs(s) <= FLAT_SLOPE_TOL:
        s = 0.0
    lnc = _median(lt - s * lr)
    return math.exp(lnc), s


def build_form(cfg):
    """The form Q = diag(1, f^2) of the config's profile on its grid."""
    return assemble_form(cfg.make_profile(), cfg.make_grid())


def solve_global(cfg, form, stats=None):
    """One linear + optional quasilinear solve shared by all balls.

    The Dirichlet data is evaluated once, at the form's nodes, and both
    solves read those values.  info's envelope_max_violation is the
    quasilinear envelope's worst violation of the declared phi_bounds
    over every node and z (forms.envelope_violation), in closed form.

    Returns (u, u_lin, q_result, info): u is the solution the ball stages
    measure on, the quasilinear one when it converged and the linear one
    otherwise.  stats, when given, records every linear solve
    (solver.SolveStats)."""
    spec = cfg.solver
    g = spec.boundary_values(form.grid)
    system = assemble_linear(form.q11, form.q22, form.grid, spec.rhs, g)
    u_lin = solve_linear(system, spec, stats)
    f_is_zero = spec.rhs == 0.0
    mp = max_principle_slack(u_lin, system) if f_is_zero else 0.0
    bvals = system.boundary_values[form.grid.boundary_mask()]
    spread = float(np.ptp(bvals)) or 1.0

    env = QuasilinearEnvelope(base=form)
    q_result = (solve_quasilinear(env, g, spec, stats) if spec.quasilinear
                else None)
    u = q_result.u if (q_result is not None and q_result.converged) else u_lin

    info = {
        "linear_max_principle_slack": mp,
        "max_principle_ok": bool(mp <= MP_TOL * spread) if f_is_zero else True,
        "envelope_max_violation": envelope_violation(form,
                                                     *spec.phi_bounds),
    }
    if q_result is not None:
        info["quasilinear_converged"] = bool(q_result.converged)
        info["quasilinear_iterations"] = q_result.iterations
    return u, u_lin, q_result, info


def _radius_cap(r, margin):
    """Largest radius of a ball's volume curve, for ball radius r and
    Euclidean distance margin from its center to the boundary."""
    return min(2.05 * r, 0.98 * margin)


def metric_stage(cfg, form, spec, fmm=None):
    """The distance field at eps_min, the finest rung of the config's eps
    ladder, from the node nearest the ball's center: one fast-marching
    solve, the field every later stage measures on.

    The march reaches max(2 r_cap, margin, r), the largest radius a later
    stage reads: 2 r_cap covers the doubling ratio at the top radius and
    the delta search; margin covers the box-sandwich radii (<= 0.98
    margin) and the special cutoff and log estimate (r + delta <= eta
    margin); r covers B(r) itself, read before a ball with r > r_cap is
    skipped.  Returns (report section {"eps_min"}, field).  fmm, when
    given, records the solve and the reach (metric.FmmStats).
    """
    grid = form.grid
    source = grid.nearest_node(*spec.center)
    margin = grid.boundary_distance(source)
    reach = max(2.0 * _radius_cap(spec.r, margin), margin, spec.r)
    finest = solve_distance(form, source, cfg.epsilon_ladder()[-1], reach)
    if fmm is not None:
        fmm.record(finest)
        fmm.reaches.append(reach)
    return {"eps_min": finest.epsilon}, finest


@dataclass
class BallGeometry:
    analytics: geometry.BallAnalytics   # volume curve with delta(r) filled
    law: tuple | None                   # fitted delta(r) = c r^(s+1): (c, s)
    growth: geometry.GrowthReport | None
    flags: dict                         # this stage's pass flags


def geometry_stage(cfg, form, spec, finest):
    """Volume curve and delta(r) on the finest field, the fitted delta law,
    the growth check, containment and (on the axis) the box sandwich.

    Volumes and delta(r) come from the piecewise-linear ball measure.
    Returns (report section, BallGeometry).
    """
    grid = form.grid
    p = cfg.params
    margin = grid.boundary_distance(finest.source)
    r_cap = _radius_cap(spec.r, margin)
    radii = _adaptive_radii(finest, spec.r / 16.0, r_cap)
    for must in (p.nu0 * spec.r, p.nu * spec.r, spec.r):
        if radii[0] <= must <= r_cap:
            radii.append(must)
    radii = sorted(set(radii))
    analytics = geometry.volume_curve(finest, radii)
    geometry.fill_delta_curve(analytics, p.C)
    try:
        doubling, slope = geometry.doubling_classification(analytics)
    except (ResolutionError, GeometryError):
        doubling, slope = False, float("nan")

    growth = None
    law = _fitted_delta_law(analytics)
    if law is not None:
        c_fit, s_fit = law
        fitted = c_fit * analytics.radii ** (s_fit + 1.0)
        dec = slice(None, None, -1)
        growth = geometry.growth_condition_check(
            analytics.radii[dec], fitted[dec], p.lam, p.C)

    cont_radii = [r for r in cfg.dyadic_radii() if radii[0] <= r <= r_cap]
    cont = geometry.containment_check(finest, cont_radii or [spec.r])

    box_reports = []
    if spec.on_axis:
        for r in cfg.dyadic_radii():
            if r <= 0.98 * margin:
                box_reports.append(geometry.box_sandwich(finest, r,
                                                         form.profile))

    section = {
        "radii": analytics.radii.tolist(),
        "volumes": analytics.volumes.tolist(),
        "doubling_ratios": analytics.doubling_ratios.tolist(),
        "delta": analytics.delta_curve.tolist(),
        "delta_over_r": (analytics.delta_curve / analytics.radii).tolist(),
        "C_doubling": analytics.C_doubling,
        "doubling_classified": doubling,
        "delta_slope": slope,
        "growth_increasing": bool(growth.increasing) if growth else None,
        "containment_ok": bool(cont.ok),
        "alphas": cont.alphas.tolist(),
        "box": [{"r": b.r, "inner_violations": b.inner_violations,
                 "outer_violations": b.outer_violations,
                 "inner_checked": b.inner_checked,
                 "outer_checked": b.outer_checked} for b in box_reports],
    }
    flags = {"containment": bool(cont.ok),
             "alphas_positive": bool(np.all(cont.alphas > 0))}
    if growth is not None:
        flags["growth_increasing"] = bool(growth.increasing)
    if box_reports:
        flags["box_sandwich"] = all(b.ok for b in box_reports)
    return section, BallGeometry(analytics, law, growth, flags)


@dataclass
class BallCutoffs:
    seq: CutoffSequence
    special: SpecialCutoff
    delta_nu: float         # measured delta(nu r)
    delta_r: float          # measured delta(r)
    delta_nu_used: float    # floored or pinned: the sequence's increment
    delta_r_used: float     # floored or pinned: the special cutoff's


def cutoff_stage(cfg, form, spec, finest, analytics):
    """The accumulating cutoff sequence at nu r and the special cutoff at r.

    Their increments are the measured delta(nu r) and delta(r), floored so
    each ramp spans a few cells, or pinned to cutoff_delta_frac * r when
    the config sets it.  Returns (report section, BallCutoffs).
    """
    grid = form.grid
    p = cfg.params
    delta_nu = geometry.nondoubling_order(analytics, p.nu * spec.r)[0]
    delta_r = geometry.nondoubling_order(analytics, spec.r)[0]
    # cutoff ramps must span a few cells or discrete gradients quantize to
    # 1/h; pin to frac*r when configured, else apply a resolution floor
    ramp_floor = 3.0 * max(grid.hx, grid.hy)
    if p.cutoff_delta_frac is not None:
        delta_nu_used = p.cutoff_delta_frac * spec.r
        delta_r_used = p.cutoff_delta_frac * spec.r
    else:
        delta_nu_used = min(max(delta_nu, 2.0 * ramp_floor / (1.0 - p.nu)),
                            0.8 * spec.r)
        delta_r_used = min(max(delta_r, 2.0 * ramp_floor), 0.8 * spec.r)
    seq = build_sequence(finest, form, spec.r, p.nu, delta_nu_used, p.j_max)
    special = build_special_cutoff(finest, form, spec.r, delta_r_used, p.eta)
    section = {
        "n_members": len(seq.psi),
        "support_ratio": seq.support_ratio,
        "grad_envelope": seq.grad_envelope,
        "grad_bounds": seq.grad_bounds,
        "radii": seq.radii,
        "delta_measured": delta_nu,
        "delta_used": delta_nu_used,
        "special_delta_used": delta_r_used,
        "special_grad_constant": special.grad_constant,
    }
    return section, BallCutoffs(seq, special, delta_nu, delta_r,
                                delta_nu_used, delta_r_used)


def _box_chain(cfg, profile, source, spec, u, eps_min, fmm=None):
    """The oscillation chain R nu0^k, k < MIN_CHAIN, on box grids.

    Each radius gets its own box grid (geometry.box_ball) with as many
    nodes per axis as the global grid has cells across [x0 +- R], made
    odd, so refining the config refines every chain ball; u is carried
    over by bilinear interpolation.  The chain stops at the first ball
    under the node floor.  fmm, when given, records each box field.
    Returns (radii, fields, u values, node counts, interpolation error
    bounds).
    """
    grid = u.grid
    center = grid.node_xy(source)
    cells = int(round(2.0 * spec.r / grid.hx))
    n = cells + 1 - cells % 2
    radii, fields, values, nodes, errors = [], [], [], [], []
    for k in range(MIN_CHAIN):
        rho = spec.r * cfg.params.nu0 ** k
        field = geometry.box_ball(profile, center, rho, spec.r, eps_min, n,
                                  grid)
        if fmm is not None:
            fmm.record(field)
        count = int(np.count_nonzero(field.values < rho))
        nodes.append(count)
        if count < geometry.MIN_BALL_NODES:
            break
        X, Y = field.grid.meshgrid()
        vals, err = grid.bilinear(u.values, X, Y)
        radii.append(rho)
        fields.append(field)
        values.append(vals)
        errors.append(err)
    return radii, fields, values, nodes, errors


def diagnostics_stage(cfg, form, spec, ball_id, finest, geo, cuts, u,
                      fmm=None):
    """Caccioppoli, Sobolev, Poincare, Moser, log estimates, Harnack, the
    local bound and the oscillation chain of u (the solver's
    DiscreteFunction) on one ball.

    This stage decides what the measurements share: f is the config's
    constant right-hand side cfg.solver.rhs, and the shift m = m(r)
    (diagnostics.shift_m) is computed once here, for the Caccioppoli ratio
    of u + m, the Moser ladder, the log estimates and Harnack.  Each
    measurement gets u's node values.  The chain radii are measured on
    box grids of their own (_box_chain), since below a few cells of
    y-extent a ball on the global grid is a single row of nodes; fmm,
    when given, records their solves.  Returns (report section, pass
    flags, notes).
    """
    p = cfg.params
    f_rhs = cfg.solver.rhs
    analytics, seq = geo.analytics, cuts.seq
    vals = u.values
    m = shift_m(vals, f_rhs, spec.r)
    psi1 = seq.psi[0]
    ball_r = ball(finest, spec.r)
    cacc = caccioppoli_ratio(vals + m, psi1, 1.0, form, f_rhs)
    sob = sobolev_functional(form, psi1, ball_r, spec.r, p.sigma)
    poi = poincare_functional(form, vals, ball_r, spec.r)
    moser = moser_iterate(vals, finest, spec.r, p.gamma, p.sigma, p.nu,
                          seq.supports, cuts.delta_nu_used, m)
    logest = log_estimate(vals, finest, spec.r, cuts.delta_r_used, form, m)
    delta_nu0 = geometry.nondoubling_order(analytics, p.nu0 * spec.r)[0]
    har = harnack_check(vals, finest, spec.r, p.nu0, p.sigma, delta_nu0, m,
                        C_cal=math.e)
    lb = local_bound_check(vals, finest, spec.r, p.nu, p.sigma, cuts.delta_nu,
                           f_rhs)

    osc = None
    notes = []
    try:
        chain, chain_fields, chain_u, chain_nodes, interp_err = _box_chain(
            cfg, form.profile, finest.source, spec, u, finest.epsilon, fmm)
    except (GeometryError, ResolutionError) as exc:
        notes.append(f"{ball_id}: oscillation chain skipped ({exc})")
        chain, chain_nodes = [], []
    chain_short = len(chain) < MIN_CHAIN
    if not chain_short:
        # the Harnack constant down the chain uses the fitted delta law:
        # nu0*r leaves the measured band and per-radius deltas are noise
        # under the huge exponent anyway
        if geo.law is not None:
            c_fit, s_fit = geo.law
            delta_of = lambda s: c_fit * s ** (s_fit + 1.0)
        else:
            delta_of = lambda s: geometry.nondoubling_order(
                analytics, max(s, analytics.radii[0]))[0]
        osc = oscillation_curve(
            chain_u, chain_fields, chain, p.nu0, p.mu,
            lambda r: log_c_har(p.nu0 * r, delta_of(p.nu0 * r), p.sigma,
                                math.e),
            f_rhs)

    section = {
        "caccioppoli_c": cacc,
        "sobolev_c": sob,
        "poincare_c": poi,
        "moser": {"N": moser.N, "passed": bool(moser.passed),
                  "gamma_used": moser.gamma_used, "shifted": moser.shifted,
                  "observed_sup": moser.observed_sup,
                  "raw_bound": moser.raw_bound,
                  "empirical_c": moser.empirical_c,
                  "truncated_at": moser.truncated_at},
        "log_estimates": {"inter": logest.inter_constant,
                          "est1": logest.est1_constant,
                          "est2": logest.est2_constant,
                          "floor_proximity": logest.floor_proximity},
        "harnack": {"quotient": har.quotient, "log_c_har": har.log_c_har,
                    "passed": bool(har.passed), "log_slack": har.log_slack},
        "local_bound_c": lb,
        "oscillation": None if osc is None else {
            "radii": osc.radii.tolist(), "omega": osc.omega.tolist(),
            "alpha": osc.alpha_r.tolist(),
            "log_product": osc.log_product.tolist(),
            "interp_error": interp_err,
            "pairs_ok": bool(np.all(osc.pair_ok)),
            "monotone": bool(osc.monotone)},
        "chain_nodes": chain_nodes,
        "chain_too_short": chain_short,
    }
    flags = {
        "harnack": bool(har.passed),
        "moser": bool(moser.passed),
        "osc_monotone": bool(osc.monotone) if osc else True,
        "osc_pairs": bool(np.all(osc.pair_ok)) if osc else True,
    }
    return section, flags, notes


def run_ball(cfg, form, spec, ball_id, u, times=None, fmm=None):
    """The four ball stages in order.  Returns (report, flags, artifacts).

    times, when given, gains each stage's wall seconds under its STAGES
    name; fmm, when given, records every fast-marching solve."""
    times = {} if times is None else times
    with _timed(times, "metric"):
        metric_report, finest = metric_stage(cfg, form, spec, fmm)
    with _timed(times, "geometry"):
        geometry_report, geo = geometry_stage(cfg, form, spec, finest)
    with _timed(times, "cutoff"):
        cutoff_report, cuts = cutoff_stage(cfg, form, spec, finest,
                                           geo.analytics)
    with _timed(times, "diagnostics"):
        diag, diag_flags, notes = diagnostics_stage(
            cfg, form, spec, ball_id, finest, geo, cuts, u, fmm)
    constants = {
        "sobolev_c": diag["sobolev_c"], "poincare_c": diag["poincare_c"],
        "caccioppoli_c": diag["caccioppoli_c"],
        "harnack_quotient": diag["harnack"]["quotient"],
        "moser_empirical_c": diag["moser"]["empirical_c"],
        "log_est_inter": diag["log_estimates"]["inter"],
        "log_est1": diag["log_estimates"]["est1"],
        "log_est2": diag["log_estimates"]["est2"],
        "cutoff_support_ratio": cutoff_report["support_ratio"],
        "cutoff_grad_envelope": cutoff_report["grad_envelope"],
        "special_grad_constant": cutoff_report["special_grad_constant"],
        "local_bound_c": diag["local_bound_c"],
        "delta_over_r_at_r": cuts.delta_r / spec.r,
    }
    report = {
        "center": [float(c) for c in spec.center],
        "r": spec.r,
        "metric": metric_report,
        "geometry": geometry_report,
        "cutoff": cutoff_report,
        "diagnostics": diag,
        "constants": constants,
    }
    artifacts = {"finest": finest, "geo": geo, "cuts": cuts, "notes": notes}
    flags = {f"{ball_id}.{k}": v
             for k, v in {**geo.flags, **diag_flags}.items()}
    return report, flags, artifacts


def run_ball_or_skip(cfg, form, spec, ball_id, u, times=None, fmm=None):
    """run_ball, with a ball the grid cannot measure skipped, not raised.

    A skipped ball returns report None, the flag `<ball_id>.skipped` and
    the reason as its one note in artifacts["notes"].
    """
    try:
        return run_ball(cfg, form, spec, ball_id, u, times, fmm)
    except (ResolutionError, ChainTooShortError, RangeError,
            GeometryError) as exc:
        return (None, {f"{ball_id}.skipped": True},
                {"notes": [f"{ball_id}: skipped ({exc})"]})


def run_experiment(cfg, out_dir, strict=False):
    """Run the full pipeline; returns (report, failed_required_flags)."""
    t0 = time.time()
    cfg.validate()
    for sub in ARTIFACT_DIRS:
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    out = _ArtifactPaths(out_dir)
    times = dict.fromkeys(STAGES, 0.0)
    with _timed(times, "build_form"):
        form = build_form(cfg)
    grid = form.grid

    stats = SolveStats()
    fmm = FmmStats()
    with _timed(times, "solve_global"):
        u, u_lin, q_result, solver_info = solve_global(cfg, form, stats)

    report = {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "config": cfg.to_dict(),
        "grid": {"nx": grid.nx, "ny": grid.ny, "hx": grid.hx, "hy": grid.hy},
        "forms": {"underflow_radius": form.underflow_radius,
                  "profile": cfg.profile},
        "balls": {},
        "solver": {k: v for k, v in solver_info.items()
                   if not isinstance(v, bool)},
        "flags": {"max_principle": solver_info["max_principle_ok"],
                  "quasilinear_converged":
                      solver_info.get("quasilinear_converged", True)},
        "budgets": cfg.compare_budgets,
        "notes": [],
    }

    for k, spec in enumerate(cfg.balls):
        ball_id = f"ball{k}"
        ball_report, flags, art = run_ball_or_skip(
            cfg, form, spec, ball_id, u, times, fmm)
        report["flags"].update(flags)
        report["notes"].extend(art["notes"])
        if ball_report is not None:
            report["balls"][ball_id] = ball_report
            with _timed(times, "artifacts"):
                _write_ball_artifacts(out, ball_id, art, ball_report)

    with _timed(times, "artifacts"):
        _write_solution_artifacts(out, u_lin, q_result)
        report = json_safe(report)
        write_json(out("report.json"), report)
    write_json(os.path.join(out_dir, "run_meta.json"),
               {"elapsed_seconds": time.time() - t0,
                "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "stages": times,
                "solver": asdict(stats),
                "metric": asdict(fmm),
                "artifact_bytes": out.sizes()})
    failed = _failed_flags(report, cfg, strict)
    return report, failed


def _failed_flags(report, cfg, strict):
    flags = report["flags"]
    required = set(cfg.required_flags)
    failed = []
    for name, value in sorted(flags.items()):
        req = strict or name in required or any(
            name.endswith("." + r) for r in required)
        if req and value is False:
            failed.append(name)
    return failed


def write_grid_csv(path, grid, values, name):
    """One (x, y, name) row per grid node whose value is not +inf, x outer
    and y inner.

    +inf marks a node a bounded march did not reach, so a bounded field
    lists only the nodes it froze and a node without a row is +inf; a
    full march or a solution has every row.  Every cell is repr of a
    Python float (shortest round trip; -inf, nan and -0.0 as Python
    spells them) and every line ends in CRLF: the bytes csv.writer gives
    for repr(float(v)) of each meshgrid cell, since a float's repr holds
    no delimiter, quote or line end.  Each x and each y is formatted once
    and each written value once, and each x column goes to the file in
    one write, so no string spans the whole file.
    Raises DomainError unless values has the grid's shape.
    """
    if values.shape != grid.shape:
        raise DomainError(f"{name}: values of shape {values.shape} on a "
                          f"grid of shape {grid.shape}")
    ny = grid.shape[1]
    kept = values != math.inf
    counts = kept.sum(axis=1).tolist()
    ys = [repr(y) + "," for y in grid.ys().tolist()]
    cells = map(repr, values[kept].tolist())
    with open(path, "w", newline="") as fh:
        fh.write(f"x,y,{name}\r\n")
        for x, column, n in zip(grid.xs().tolist(), kept, counts):
            if n == 0:
                continue
            x = repr(x) + ","
            col_ys = ys if n == ny else compress(ys, column.tolist())
            fh.write("".join([f"{x}{y}{v}\r\n"
                              for y, v in zip(col_ys, islice(cells, n))]))


def write_ball_table(path, geometry_report, growth):
    """The radius table of one ball, with g(r) where the growth check ran."""
    g = geometry_report
    gmap = {}
    if growth is not None:
        gmap = dict(zip(growth.radii.tolist(), growth.g_values.tolist()))
    rows = [(r, g["volumes"][i], g["doubling_ratios"][i], g["delta"][i],
             g["delta_over_r"][i], gmap.get(r, float("nan")))
            for i, r in enumerate(g["radii"])]
    write_csv(path, ("r", "volume", "doubling_ratio", "delta", "delta_over_r",
                     "g_of_r"), rows)


def write_cutoff_table(path, seq):
    """One row per member of the cutoff sequence."""
    rows = [(j + 1, seq.radii[j], int(seq.supports[j].sum()),
             seq.grad_bounds[j]) for j in range(len(seq.psi))]
    write_csv(path, ("j", "r_j", "support_nodes", "grad_bound"), rows)


class _ArtifactPaths:
    """Paths under a run's output directory, each recorded as it is handed
    out: out("plots", "solution.svg") is <out_dir>/plots/solution.svg."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.paths = []

    def __call__(self, *parts):
        path = os.path.join(self.out_dir, *parts)
        self.paths.append((parts[0], path))
        return path

    def sizes(self):
        """Bytes of the recorded files per artifact subdirectory, and of
        report.json."""
        sizes = dict.fromkeys(ARTIFACT_DIRS, 0)
        for top, path in self.paths:
            sizes[top] = sizes.get(top, 0) + os.path.getsize(path)
        return sizes


def _write_solution_artifacts(out, u_lin, q_result):
    grid = u_lin.grid
    write_grid_csv(out("solutions", "linear.csv"), grid, u_lin.values, "u")
    svgplot.heatmap(out("plots", "solution.svg"), u_lin.values,
                    title="linear solution")
    if q_result is not None:
        write_grid_csv(out("solutions", "quasilinear.csv"), grid,
                       q_result.u.values, "u")
        write_csv(out("solutions", "residuals.csv"),
                  ("iteration", "residual"),
                  list(enumerate(q_result.residuals, start=1)))


def _write_ball_artifacts(out, ball_id, art, ball_report):
    finest = art["finest"]
    grid = finest.grid
    write_grid_csv(out("distances", f"{ball_id}_finest.csv"), grid,
                   finest.values, "value")
    g = ball_report["geometry"]
    write_ball_table(out("balls", f"{ball_id}.csv"), g, art["geo"].growth)
    seq = art["cuts"].seq
    write_cutoff_table(out("cutoffs", f"{ball_id}.csv"), seq)
    svgplot.nesting_diagram(out("cutoffs", f"{ball_id}_nesting.svg"),
                            seq.supports[:4], grid,
                            title=f"{ball_id} cutoff supports")

    write_json(out("diagnostics", f"{ball_id}.json"),
               ball_report["diagnostics"])

    radii = g["radii"]
    svgplot.line_chart(
        out("plots", f"{ball_id}_volumes.svg"),
        [("volume", radii, g["volumes"])],
        title=f"{ball_id} volume curve", xlabel="r", ylabel="|B(r)|",
        xlog=True, ylog=True)
    dr = [d if d > 0 else float("nan") for d in g["delta_over_r"]]
    svgplot.line_chart(
        out("plots", f"{ball_id}_delta.svg"),
        [("delta/r", radii, dr)],
        title=f"{ball_id} non-doubling order", xlabel="r", ylabel="delta/r",
        xlog=True, ylog=True)
    diag = ball_report["diagnostics"]
    if diag["oscillation"] is not None:
        o = diag["oscillation"]
        svgplot.line_chart(
            out("plots", f"{ball_id}_oscillation.svg"),
            [("omega", o["radii"], o["omega"])],
            title=f"{ball_id} oscillation", xlabel="r", ylabel="omega(r)",
            xlog=True, ylog=False)
    if diag["moser"]["N"]:
        svgplot.line_chart(
            out("plots", f"{ball_id}_moser.svg"),
            [("N_j", list(range(1, len(diag["moser"]["N"]) + 1)),
              diag["moser"]["N"])],
            title=f"{ball_id} Moser ladder", xlabel="j", ylabel="N_j")
