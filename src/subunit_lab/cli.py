"""Batch experiment CLI, run as `subunit-lab` or `python -m subunit_lab`.

Subcommands: dist, balls, cutoff, solve, diagnose, run, compare.  balls,
cutoff and diagnose are prefixes of the ball driver pipeline.run_ball:
each runs the stages through geometry, cutoff or diagnostics, writes that
stage's table as `run` does, and skips a ball as `run` does.  Each prints
a ball's notes in order, the lines `run` adds to report.json's notes: a
skip, `ball<k>: skipped (<reason>)`, or a check not judged.  dist alone
solves the whole eps ladder: it writes every rung, a row per node, checks
that distances grow nodewise as eps shrinks and prints the last rungs'
largest increment.
Exit codes: 0 ok (skipped balls too), 1 config error, 2 geometry error
(MeasurementError outside the driver, MonotonicityError), 3 solver
non-convergence (a Picard failure prints PICARD_FAILED on stderr), 4
diagnostic hard-fail (a required pass flag is false).
"""

import argparse
import os
import sys

import numpy as np

from . import pipeline
from .config import ExperimentConfig
from .errors import (ConfigError, MeasurementError, MonotonicityError,
                     SolverError, SubunitLabError)
from .metric import solve_ladder
from .reporting import (compare, format_diff, load_report, write_csv,
                        write_json)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GEOMETRY = 2
EXIT_SOLVER = 3
EXIT_DIAGNOSTIC = 4
PICARD_FAILED = "solver: quasilinear iteration did not converge"


def _load(args):
    cfg = ExperimentConfig.load(args.config)
    os.makedirs(args.out, exist_ok=True)
    return cfg


def cmd_dist(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    for k, spec in enumerate(cfg.balls):
        source = form.grid.nearest_node(*spec.center)
        ladder = solve_ladder(form, source, cfg.epsilon_ladder())
        for f in ladder:
            pipeline.write_grid_csv(
                os.path.join(args.out, f"ball{k}_eps{f.epsilon:g}.csv"),
                form.grid, f.values, "value")
        last = ladder[-1].values - ladder[-2].values
        print(f"ball{k}: {len(ladder)} distance fields -> {args.out}; "
              f"max last increment {last[np.isfinite(last)].max():.3e}")
    return EXIT_OK


def _picard_failed():
    print(PICARD_FAILED, file=sys.stderr)
    return EXIT_SOLVER


def _each_ball(cfg, form, last, u=None):
    for k, spec in enumerate(cfg.balls):
        ball_id = f"ball{k}"
        report, flags, art = pipeline.run_ball(cfg, form, spec, ball_id, u,
                                               last=last)
        for note in art["notes"]:
            print(note)
        yield ball_id, report, flags, art


def cmd_balls(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    for ball_id, report, _, art in _each_ball(cfg, form, "geometry"):
        if report is not None:
            geo = report["geometry"]
            pipeline.write_ball_table(os.path.join(args.out, f"{ball_id}.csv"),
                                      geo, art["geo"].growth)
            print(f"{ball_id}: C_doubling={geo['C_doubling']:.3f} "
                  f"-> {args.out}")
    return EXIT_OK


def cmd_cutoff(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    for ball_id, report, _, art in _each_ball(cfg, form, "cutoff"):
        if report is not None:
            cut = report["cutoff"]
            path = os.path.join(args.out, f"{ball_id}_cutoffs.csv")
            pipeline.write_cutoff_table(path, art["cuts"].seq)
            print(f"{ball_id}: {cut['n_members']} members, support ratio "
                  f"{cut['support_ratio']:.3f}, special grad constant "
                  f"{cut['special_grad_constant']:.3f}")
    return EXIT_OK


def cmd_solve(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    _, u_lin, q_result, info = pipeline.solve_global(cfg, form)
    pipeline.write_grid_csv(os.path.join(args.out, "linear.csv"), form.grid,
                            u_lin.values, "u")
    print(f"linear solve done, max-principle slack "
          f"{info['linear_max_principle_slack']:.3e}")
    if q_result is not None:
        pipeline.write_grid_csv(os.path.join(args.out, "quasilinear.csv"),
                                form.grid, q_result.u.values, "u")
        print(f"quasilinear: converged={q_result.converged} "
              f"iterations={q_result.iterations}")
        if not q_result.converged:
            return _picard_failed()
    return EXIT_OK


def cmd_diagnose(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    u, _, q_result, _ = pipeline.solve_global(cfg, form)
    report = {}
    for ball_id, rep, flags, art in _each_ball(cfg, form, "diagnostics", u):
        report[ball_id] = {"flags": flags, "notes": art["notes"]}
        if rep is not None:
            report[ball_id]["diagnostics"] = rep["diagnostics"]
    path = os.path.join(args.out, "diagnostics.json")
    write_json(path, report)
    print(f"diagnostics -> {path}")
    if q_result is not None and not q_result.converged:
        # measured on the linear solution, as `run` does; `run` exits 3 too
        return _picard_failed()
    return EXIT_OK


def cmd_run(args):
    cfg = _load(args)
    report, failed = pipeline.run_experiment(cfg, args.out, strict=args.strict)
    n_flags = len(report["flags"])
    n_true = sum(1 for v in report["flags"].values() if v)
    print(f"{cfg.name}: {n_true}/{n_flags} pass flags true -> {args.out}")
    if not report["flags"].get("quasilinear_converged", True):
        return _picard_failed()
    if failed:
        print(f"required flags failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def cmd_compare(args):
    a = load_report(args.report_a)
    b = load_report(args.report_b)
    rows, flagged = compare(a, b)
    sys.stdout.write(format_diff(rows, flagged))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "diff.csv"),
                  ("constant", "a", "b", "drift", "budget", "ok"), rows)
    return EXIT_DIAGNOSTIC if flagged and args.strict else EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="subunit-lab",
        description="Degenerate-metric ball analytics and discrete weak "
                    "solutions: batch experiment runner.")
    p.add_argument("--strict", action="store_true",
                   help="promote report-only checks to hard failures")
    sub = p.add_subparsers(dest="command", required=True)

    for name, fn in (("dist", cmd_dist), ("balls", cmd_balls),
                     ("cutoff", cmd_cutoff), ("solve", cmd_solve),
                     ("diagnose", cmd_diagnose), ("run", cmd_run)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default="out")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("compare")
    sp.add_argument("report_a")
    sp.add_argument("report_b")
    sp.add_argument("--out", default="")
    sp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (MeasurementError, MonotonicityError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except SubunitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
