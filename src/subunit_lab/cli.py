"""Batch experiment CLI.

Subcommands: dist, balls, cutoff, solve, diagnose, run, compare.  Each of
balls, cutoff, solve and diagnose runs the pipeline up to one stage and
writes that stage's tables through the writers `run` uses.  dist is the
one subcommand that solves the config's whole eps ladder: it writes every
rung over the whole grid, a row for every node (the finest is the field
`run` measures on, which `run` marches only as far as it reads and lists
only where it marched), checks that distances grow nodewise as eps
shrinks (a violation exits 2) and prints the largest increment between
the last two rungs.
Exit codes: 0 ok, 1 config error, 2 geometry error, 3 solver
non-convergence, 4 diagnostic hard-fail (a required pass flag is false).
"""

import argparse
import os
import sys

import numpy as np

from . import pipeline
from .config import ExperimentConfig
from .errors import (ConfigError, GeometryError, MonotonicityError,
                     RangeError, ResolutionError, SolverError,
                     SubunitLabError)
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


def cmd_balls(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    for k, spec in enumerate(cfg.balls):
        _, finest = pipeline.metric_stage(cfg, form, spec)
        section, geo = pipeline.geometry_stage(cfg, form, spec, finest)
        pipeline.write_ball_table(os.path.join(args.out, f"ball{k}.csv"),
                                  section, geo.growth)
        print(f"ball{k}: C_doubling={geo.analytics.C_doubling:.3f} "
              f"-> {args.out}")
    return EXIT_OK


def cmd_cutoff(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    for k, spec in enumerate(cfg.balls):
        _, finest = pipeline.metric_stage(cfg, form, spec)
        _, geo = pipeline.geometry_stage(cfg, form, spec, finest)
        section, cuts = pipeline.cutoff_stage(cfg, form, spec, finest,
                                              geo.analytics)
        pipeline.write_cutoff_table(
            os.path.join(args.out, f"ball{k}_cutoffs.csv"), cuts.seq)
        print(f"ball{k}: {section['n_members']} members, support ratio "
              f"{section['support_ratio']:.3f}, special grad constant "
              f"{section['special_grad_constant']:.3f}")
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
            return EXIT_SOLVER
    return EXIT_OK


def cmd_diagnose(args):
    cfg = _load(args)
    form = pipeline.build_form(cfg)
    u, _, q_result, _ = pipeline.solve_global(cfg, form)
    report = {}
    for k, spec in enumerate(cfg.balls):
        ball_report, flags, art = pipeline.run_ball_or_skip(
            cfg, form, spec, f"ball{k}", u)
        entry = {"flags": flags, "notes": art["notes"]}
        if ball_report is not None:
            entry["diagnostics"] = ball_report["diagnostics"]
        report[f"ball{k}"] = entry
    path = os.path.join(args.out, "diagnostics.json")
    write_json(path, report)
    print(f"diagnostics -> {path}")
    if q_result is not None and not q_result.converged:
        # measured on the linear solution, as `run` does; `run` exits 3 too
        print(PICARD_FAILED, file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_run(args):
    cfg = _load(args)
    report, failed = pipeline.run_experiment(cfg, args.out, strict=args.strict)
    n_flags = len(report["flags"])
    n_true = sum(1 for v in report["flags"].values() if v)
    print(f"{cfg.name}: {n_true}/{n_flags} pass flags true -> {args.out}")
    if not report["flags"].get("quasilinear_converged", True):
        print(PICARD_FAILED, file=sys.stderr)
        return EXIT_SOLVER
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
    except (GeometryError, ResolutionError, RangeError,
            MonotonicityError) as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except SubunitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
