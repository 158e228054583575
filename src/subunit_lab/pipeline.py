"""Experiment runner: forms -> metric -> geometry -> cutoff -> solver ->
diagnostics, persisting a deterministic artifact tree.

Artifact layout under the output directory:

    distances/    finest-eps field per ball (metric_stage), a compressed
                  .npz (write_grid_npz) cropped to the box of the nodes
                  its bounded march froze, every node outside it +inf;
                  `dist` writes full marches, whole grids, the same way
    balls/        per-ball radius table (r, volume, doubling_ratio, delta,
                  delta_over_r, g_of_r)
    cutoffs/      per-j cutoff table (CSV) and nesting diagram (SVG
                  around an embedded PNG of the first four supports)
    solutions/    linear/quasilinear solutions and residual history
    diagnostics/  per-ball JSON with all constants and pass flags
    plots/        self-contained SVG charts: the solution heatmap
                  (an embedded PNG, one pixel per sampled node) and each
                  ball's vector line charts; an embedded PNG's bytes are
                  fixed for a given zlib build
    report.json   the deterministic report (no timestamps)
    run_meta.json wall-clock metadata, excluded from the determinism contract
                  (indented and key-sorted like every JSON artifact):
                  elapsed seconds, per-stage wall seconds (STAGES, ball
                  stages summed over balls), the solver's work counters,
                  the fast-marching counters (solves, frozen nodes,
                  each ball's reach) and the bytes written to each
                  artifact subdirectory and to report.json

The PDE is solved once per experiment (solve_global).  Each ball then runs
the four BALL_STAGES in order, each returning its report section and what
the next stage needs: metric_stage (the eps_min distance field),
geometry_stage, cutoff_stage and diagnostics_stage.  run_ball drives them
for `run` and for the CLI's balls, cutoff and diagnose (prefixes through
geometry, cutoff, diagnostics), and skips a ball whose stages raise
MeasurementError: each skips a ball as `run` does, and exits 0 for it.

The geometry module decides at which radii a ball is measured and what
delta(r) is there: metric_stage marches to geometry.march_reach,
geometry_stage builds the radius band, its delta(r) table and the fitted
delta law with geometry.measure_ball, and cutoff_stage and
diagnostics_stage read delta(nu r), delta(r) and delta(nu0 r) from that
table (BallAnalytics.delta_at).  The growth check and the Harnack
constant down the oscillation chain read the fitted law
(BallAnalytics.law_at).
"""

import math
import os
import time
# np.savez_compressed imports zipfile lazily: load it at set-up instead
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from . import geometry, svgplot
from .cutoff import CutoffSequence, build_sequence, build_special_cutoff
from .diagnostics import (MIN_CHAIN, caccioppoli_ratio, harnack_check,
                          local_bound_check, log_c_har, log_estimate,
                          moser_iterate, oscillation_curve, shift_m)
from .errors import (DomainError, GeometryError, MeasurementError,
                     ResolutionError)
from .forms import QuasilinearEnvelope, assemble_form, envelope_violation
from .metric import FmmStats, ball, solve_distance
from .reporting import SCHEMA_VERSION, json_safe, write_csv, write_json
from .solver import (SolveStats, assemble_linear, max_principle_slack,
                     poincare_functional, solve_linear, solve_quasilinear,
                     sobolev_functional)

MP_TOL = 1e-8
# the ball stages, in run order; run_ball runs a prefix of them
BALL_STAGES = ("metric", "geometry", "cutoff", "diagnostics")
# the wall-time spans of run_meta.json's "stages" block, in run order
STAGES = ("build_form", "solve_global", *BALL_STAGES, "artifacts")
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
    (solver.SolveStats).  The linear system is freed before Picard
    starts."""
    spec = cfg.solver
    g = spec.boundary_values(form.grid)
    system = assemble_linear(form.q22, form.grid, spec.rhs, g)
    u_lin = solve_linear(system, spec, stats)
    f_is_zero = spec.rhs == 0.0
    mp = max_principle_slack(u_lin, system) if f_is_zero else 0.0
    bvals = system.boundary_values[form.grid.boundary_mask()]
    spread = float(np.ptp(bvals)) or 1.0
    del system      # Picard assembles its own systems: free this one first

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


def metric_stage(cfg, form, spec, fmm=None):
    """The distance field at eps_min, the finest rung of the config's eps
    ladder, from the node nearest the ball's center: one fast-marching
    solve, the field every later stage measures on.

    The march reaches geometry.march_reach, the largest radius a later
    stage reads.  Returns (report section {"eps_min"}, field).  fmm, when
    given, records the solve and the reach (metric.FmmStats).
    """
    grid = form.grid
    source = grid.nearest_node(*spec.center)
    reach = geometry.march_reach(spec.r, grid.boundary_distance(source))
    finest = solve_distance(form, source, cfg.epsilon_ladder()[-1], reach)
    if fmm is not None:
        fmm.record(finest)
        fmm.reaches.append(reach)
    return {"eps_min": finest.epsilon}, finest


@dataclass
class BallGeometry:
    analytics: geometry.BallAnalytics   # band, delta(r) table, fitted law
    growth: geometry.GrowthReport | None
    flags: dict                         # this stage's pass flags
    notes: list                         # why a check was not judged


def geometry_stage(cfg, form, spec, finest):
    """The ball's analytics on the finest field (geometry.measure_ball: the
    volume curve and delta(r) on a band that holds nu0 r, nu r and r where
    they fall inside it, and the fitted delta law), the growth check,
    containment and (on the axis) the box sandwich.  The growth condition
    is a small-r test, judged on the band radii below 1: on fewer than
    three it is not judged (no flag, a note).
    Returns (report section, BallGeometry).
    """
    p = cfg.params
    margin = form.grid.boundary_distance(finest.source)
    analytics = geometry.measure_ball(
        finest, spec.r, margin, (p.nu0 * spec.r, p.nu * spec.r, spec.r), p.C)
    radii = analytics.radii
    doubling, slope = geometry.doubling_classification(analytics)

    growth, notes = None, []
    small = radii[radii < 1.0][::-1]
    if small.size >= 3:
        growth = geometry.growth_condition_check(
            small, analytics.law_at(small), p.lam, p.C)
    else:
        notes.append(f"growth condition not judged: {small.size} band "
                     f"radii below 1, it needs 3")

    cont_radii = [r for r in cfg.dyadic_radii() if radii[0] <= r <= radii[-1]]
    cont = geometry.containment_check(finest, cont_radii or [spec.r])

    box_reports = []
    if spec.on_axis:
        for r in cfg.dyadic_radii():
            if r <= 0.98 * margin:
                box_reports.append(geometry.box_sandwich(finest, r,
                                                         form.profile))

    section = {
        "radii": radii.tolist(),
        "volumes": analytics.volumes.tolist(),
        "doubling_ratios": analytics.doubling_ratios.tolist(),
        "delta": analytics.delta_curve.tolist(),
        "delta_over_r": (analytics.delta_curve / radii).tolist(),
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
    return section, BallGeometry(analytics, growth, flags, notes)


@dataclass
class BallCutoffs:
    seq: CutoffSequence
    delta_nu: float         # measured delta(nu r)
    delta_nu_used: float    # floored or pinned: the sequence's increment
    delta_r_used: float     # floored or pinned: the special cutoff's


def cutoff_stage(cfg, form, spec, finest, analytics):
    """The accumulating cutoff sequence at nu r and the special cutoff at r.

    Their increments are delta(nu r) and delta(r) from the band's table,
    floored so each ramp spans a few cells, or pinned to
    cutoff_delta_frac * r when the config sets it.  Returns (report
    section, BallCutoffs); of the special cutoff only its gradient
    constant, in the section, outlives the stage.
    """
    p = cfg.params
    delta_nu = analytics.delta_at(p.nu * spec.r)
    delta_r = analytics.delta_at(spec.r)
    # cutoff ramps must span a few cells or discrete gradients quantize to
    # 1/h; pin to frac*r when configured, else apply a resolution floor
    ramp_floor = 3.0 * max(form.grid.hx, form.grid.hy)
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
        "n_members": len(seq.supports),
        "support_ratio": seq.support_ratio,
        "grad_envelope": seq.grad_envelope,
        "grad_bounds": seq.grad_bounds,
        "radii": seq.radii,
        "delta_measured": delta_nu,
        "delta_used": delta_nu_used,
        "special_delta_used": delta_r_used,
        "special_grad_constant": special.grad_constant,
    }
    return section, BallCutoffs(seq, delta_nu, delta_nu_used, delta_r_used)


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


def diagnostics_stage(cfg, form, spec, finest, geo, cuts, u, fmm=None):
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
    flags, notes); _ball_chain prefixes the notes with the ball's id.
    """
    p = cfg.params
    f_rhs = cfg.solver.rhs
    analytics, seq = geo.analytics, cuts.seq
    vals = u.values
    m = shift_m(vals, f_rhs, spec.r)
    psi1 = seq.member(0)
    ball_r = ball(finest, spec.r)
    cacc = caccioppoli_ratio(vals + m, psi1, 1.0, form, f_rhs)
    sob = sobolev_functional(form, psi1, ball_r, spec.r, p.sigma)
    poi = poincare_functional(form, vals, ball_r, spec.r)
    moser = moser_iterate(vals, finest, spec.r, p.gamma, p.sigma, p.nu,
                          seq.supports, cuts.delta_nu_used, m)
    logest = log_estimate(vals, finest, spec.r, cuts.delta_r_used, form, m)
    delta_nu0 = analytics.delta_at(p.nu0 * spec.r)
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
        notes.append(f"oscillation chain skipped ({exc})")
        chain, chain_nodes = [], []
    chain_short = len(chain) < MIN_CHAIN
    if not chain_short:
        # the Harnack constant down the chain uses the fitted delta law:
        # nu0*r leaves the measured band and per-radius deltas are noise
        # under the huge exponent anyway
        osc = oscillation_curve(
            chain_u, chain_fields, chain, p.nu0, p.mu,
            lambda r: log_c_har(p.nu0 * r, analytics.law_at(p.nu0 * r),
                                p.sigma, math.e),
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


def _ball_chain(cfg, form, spec, ball_id, u, fmm):
    section, finest = metric_stage(cfg, form, spec, fmm)
    yield section, {}, {"finest": finest}
    section, geo = geometry_stage(cfg, form, spec, finest)
    yield section, geo.flags, {"geo": geo,
                               "notes": [f"{ball_id}: {n}" for n in geo.notes]}
    section, cuts = cutoff_stage(cfg, form, spec, finest, geo.analytics)
    yield section, {}, {"cuts": cuts}
    section, flags, notes = diagnostics_stage(cfg, form, spec, finest, geo,
                                              cuts, u, fmm)
    yield section, flags, {"notes": [f"{ball_id}: {n}" for n in notes]}


def run_ball(cfg, form, spec, ball_id, u=None, times=None, fmm=None,
             last="diagnostics"):
    """The ball stages in order, through `last` (a BALL_STAGES name).

    Returns (report, flags, artifacts): a section per stage run, and
    "constants" once diagnostics (the one reader of u) ran; flags
    `<ball_id>.<name>`; "finest", "geo", "cuts" as far as the stages ran,
    and "notes".  A stage that raises MeasurementError skips the ball:
    report None, the flag `<ball_id>.skipped`, the reason as its one note.
    times gains each stage's wall seconds; fmm records every FMM solve."""
    times = {} if times is None else times
    report = {"center": [float(c) for c in spec.center], "r": spec.r}
    flags, art = {}, {"notes": []}
    chain = _ball_chain(cfg, form, spec, ball_id, u, fmm)
    try:
        for stage in BALL_STAGES[:BALL_STAGES.index(last) + 1]:
            with _timed(times, stage):
                report[stage], stage_flags, stage_art = next(chain)
            flags.update(stage_flags)
            art["notes"] += stage_art.pop("notes", [])
            art.update(stage_art)
    except MeasurementError as exc:
        return (None, {f"{ball_id}.skipped": True},
                {"notes": [f"{ball_id}: skipped ({exc})"]})
    if "diagnostics" in report:
        diag, cut = report["diagnostics"], report["cutoff"]
        report["constants"] = {
            "sobolev_c": diag["sobolev_c"], "poincare_c": diag["poincare_c"],
            "caccioppoli_c": diag["caccioppoli_c"],
            "harnack_quotient": diag["harnack"]["quotient"],
            "moser_empirical_c": diag["moser"]["empirical_c"],
            "log_est_inter": diag["log_estimates"]["inter"],
            "log_est1": diag["log_estimates"]["est1"],
            "log_est2": diag["log_estimates"]["est2"],
            "cutoff_support_ratio": cut["support_ratio"],
            "cutoff_grad_envelope": cut["grad_envelope"],
            "special_grad_constant": cut["special_grad_constant"],
            "local_bound_c": diag["local_bound_c"],
            "delta_over_r_at_r":
                art["geo"].analytics.delta_at(spec.r) / spec.r,
        }
    return report, {f"{ball_id}.{k}": v for k, v in flags.items()}, art


def run_experiment(cfg, out_dir, strict=False):
    """Run the full pipeline; returns (report, failed_required_flags).

    A ball's arrays (its field, its analytics, its cutoffs) are freed
    once its artifacts are written, before the next ball's stages run."""
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
        ball_report, flags, art = run_ball(cfg, form, spec, ball_id, u,
                                           times, fmm)
        report["flags"].update(flags)
        report["notes"].extend(art["notes"])
        if ball_report is not None:
            report["balls"][ball_id] = ball_report
            with _timed(times, "artifacts"):
                _write_ball_artifacts(out, ball_id, art, ball_report)
        # the ball's field, analytics and cutoffs go before the next ball
        del art

    with _timed(times, "artifacts"):
        _write_solution_artifacts(out, u, u_lin, q_result)
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
    """One (x, y, name) row per grid node, x outer and y inner.

    Every cell is repr of a Python float (shortest round trip; inf, -inf,
    nan and -0.0 as Python spells them) and every line ends in CRLF: the
    bytes csv.writer gives for repr(float(v)) of each meshgrid cell, since
    a float's repr holds no delimiter, quote or line end.  Each x and each
    y is formatted once and each value once, and each x column goes to the
    file in one write, so no string spans the whole file.
    Raises DomainError unless values has the grid's shape.
    """
    if values.shape != grid.shape:
        raise DomainError(f"{name}: values of shape {values.shape} on a "
                          f"grid of shape {grid.shape}")
    ys = [repr(y) + "," for y in grid.ys().tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(f"x,y,{name}\r\n")
        for x, column in zip(grid.xs().tolist(), values):
            x = repr(x) + ","
            fh.write("".join([f"{x}{y}{v!r}\r\n"
                              for y, v in zip(ys, column.tolist())]))


def write_grid_npz(path, grid, values):
    """A distance field as np.savez_compressed arrays x, y and value, cut
    to the bounding box of the nodes that are not +inf (a bounded march's
    frozen nodes; a full march's box is the whole grid).

    x and y are the grid axes on the box and value the field on it:
    value[i, j] is the field at (x[i], y[j]), +inf at a node in the box
    the march did not freeze.  Every node outside the box is +inf.  numpy
    dates every zip member 1980-01-01, so the bytes are fixed for a given
    zlib build.  Raises DomainError unless values has the grid's shape and
    a node that is not +inf.
    """
    if values.shape != grid.shape:
        raise DomainError(f"distance field of shape {values.shape} on a "
                          f"grid of shape {grid.shape}")
    kept = values != math.inf
    rows = np.flatnonzero(kept.any(axis=1))
    cols = np.flatnonzero(kept.any(axis=0))
    if rows.size == 0:
        raise DomainError("distance field is +inf at every node")
    i = slice(rows[0], rows[-1] + 1)
    j = slice(cols[0], cols[-1] + 1)
    np.savez_compressed(path, x=grid.xs()[i], y=grid.ys()[j],
                        value=values[i, j])


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
             seq.grad_bounds[j]) for j in range(len(seq.supports))]
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


def _write_solution_artifacts(out, u, u_lin, q_result):
    grid = u_lin.grid
    write_grid_csv(out("solutions", "linear.csv"), grid, u_lin.values, "u")
    svgplot.heatmap(out("plots", "solution.svg"), u.values,
                    title="linear solution" if u is u_lin
                    else "quasilinear solution")
    if q_result is not None:
        write_grid_csv(out("solutions", "quasilinear.csv"), grid,
                       q_result.u.values, "u")
        write_csv(out("solutions", "residuals.csv"),
                  ("iteration", "residual"),
                  list(enumerate(q_result.residuals, start=1)))


def _write_ball_artifacts(out, ball_id, art, ball_report):
    finest = art["finest"]
    grid = finest.grid
    write_grid_npz(out("distances", f"{ball_id}_finest.npz"), grid,
                   finest.values)
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
