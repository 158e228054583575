"""Layer tracing for the run benchmark, applied from outside the program.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper, in every `subunit_lab` module namespace that holds
it (so `from .metric import ball` in geometry is traced too), and restores
the originals on `uninstall()`.  A wrapper records calls, wall time and
process CPU time (user plus sys, all threads), inclusive and self; self
excludes the time of traced calls it made.  Counters come from return
values and from a callback on the conjugate-gradient routine the solver
calls.  Nothing in the program is edited.
"""

import fnmatch
import inspect
import os
import statistics
import sys
import time

import numpy as np

PACKAGE = "subunit_lab"
MODULES = ("forms", "metric", "geometry", "cutoff", "solver", "diagnostics",
           "reporting", "svgplot", "pipeline")
# the profile is built by a config method; it counts as forms work
PROFILE = "forms.make_profile"

# per-layer metric -> (statistic, traced functions it sums, unit)
SPANS = {
    "forms.assemble_s": ("self_s", ["forms.assemble_form"], "s"),
    "forms.assemble_calls": ("calls", ["forms.assemble_form"], "count"),
    "forms.profile_s": ("self_s", [PROFILE], "s"),
    "metric.fmm_s": ("self_s", ["metric.solve_distance"], "s"),
    "metric.fmm_calls": ("calls", ["metric.solve_distance"], "count"),
    "metric.ladder_s": ("wall_s", ["metric.solve_ladder"], "s"),
    "metric.extrapolate_s": ("self_s", ["metric.extrapolate_distance"], "s"),
    "geometry.volume_s": ("self_s", ["geometry.volume_curve"], "s"),
    "geometry.delta_s": ("self_s", ["geometry.nondoubling_order",
                                    "geometry.fill_delta_curve",
                                    "geometry.doubling_classification",
                                    "geometry.growth_condition_check"], "s"),
    "geometry.box_ball_s": ("wall_s", ["geometry.box_ball"], "s"),
    "geometry.checks_s": ("self_s", ["geometry.containment_check",
                                     "geometry.box_sandwich"], "s"),
    "cutoff.build_s": ("self_s", ["cutoff.*"], "s"),
    "diagnostics.s": ("self_s", ["diagnostics.*", "solver.sobolev_functional",
                                 "solver.poincare_functional"], "s"),
    "solver.assemble_s": ("self_s", ["solver.assemble_linear"], "s"),
    "solver.assemble_calls": ("calls", ["solver.assemble_linear"], "count"),
    "solver.linear_s": ("self_s", ["solver.solve_linear"], "s"),
    "solver.linear_cpu_s": ("self_cpu_s", ["solver.solve_linear"], "s"),
    "solver.linear_calls": ("calls", ["solver.solve_linear"], "count"),
    "solver.picard_s": ("wall_s", ["solver.solve_quasilinear"], "s"),
    "reporting.csv_s": ("self_s", ["reporting.write_csv"], "s"),
    "reporting.report_s": ("self_s", ["reporting.write_report",
                                      "reporting.validate_report",
                                      "reporting.load_schema",
                                      "reporting.json_safe"], "s"),
    "svgplot.s": ("self_s", ["svgplot.*"], "s"),
}
COUNTERS = {
    "metric.fmm_nodes": "count",       # finite nodes of every FMM field
    "geometry.box_ball_nodes": "count",  # finite nodes of every box field
    "solver.cg_iters": "count",
    "solver.picard_steps": "count",
    "reporting.csv_bytes": "bytes",
}
OTHER = "pipeline.other_s"
UNITS = {**{k: v[2] for k, v in SPANS.items()}, **COUNTERS, OTHER: "s"}


def _finite_nodes(field):
    return int(np.count_nonzero(np.isfinite(field.values)))


class Tracer:
    def __init__(self):
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        st = self.stats.setdefault(name, {"calls": 0, "wall_s": 0.0,
                                          "self_s": 0.0, "cpu_s": 0.0,
                                          "self_cpu_s": 0.0})
        stack = self._stack

        def traced(*args, **kwargs):
            child = [0.0, 0.0]
            stack.append(child)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - w0
                cpu = time.process_time() - c0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                st["calls"] += 1
                st["wall_s"] += wall
                st["cpu_s"] += cpu
                st["self_s"] += wall - child[0]
                st["self_cpu_s"] += cpu - child[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, measure):
        def after(args, kwargs, result):
            self.counters[key] += measure(args, kwargs, result)
        return after

    def _counting_cg(self, cg):
        def counting_cg(A, b, *args, callback=None, **kwargs):
            def step(xk):
                self.counters["solver.cg_iters"] += 1
                if callback is not None:
                    callback(xk)
            return cg(A, b, *args, callback=step, **kwargs)
        return counting_cg

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        __import__(f"{PACKAGE}.pipeline")
        mods = [m for n, m in sorted(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        after = {
            "metric.solve_distance": self._count(
                "metric.fmm_nodes", lambda a, k, r: _finite_nodes(r)),
            "geometry.box_ball": self._count(
                "geometry.box_ball_nodes", lambda a, k, r: _finite_nodes(r)),
            "solver.solve_quasilinear": self._count(
                "solver.picard_steps", lambda a, k, r: r.iterations),
            "reporting.write_csv": self._count(
                "reporting.csv_bytes",
                lambda a, k, r: os.path.getsize(a[0] if a else k["path"])),
        }
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                key = f"{short}.{name}"
                wrapped = self._span(key, fn, after.get(key))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._replace(m, attr, wrapped)
        solver = sys.modules[f"{PACKAGE}.solver"]
        self._replace(solver, "cg", self._counting_cg(solver.cg))
        config = sys.modules[f"{PACKAGE}.config"].ExperimentConfig
        self._replace(config, "make_profile",
                      self._span(PROFILE, config.make_profile))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------

    def _sum(self, stat, patterns):
        return sum(st[stat] for name, st in self.stats.items()
                   if any(fnmatch.fnmatchcase(name, p) for p in patterns))

    def layer_metrics(self):
        """Every per-layer metric of this tracer's run.  pipeline.other_s is
        run_experiment's wall time minus the self time of every traced call
        outside the pipeline module."""
        out = {m: self._sum(stat, pats) for m, (stat, pats, _) in SPANS.items()}
        out.update(self.counters)
        run = self.stats["pipeline.run_experiment"]["wall_s"]
        out[OTHER] = run - sum(st["self_s"] for name, st in self.stats.items()
                               if not name.startswith("pipeline."))
        return out


def median_metrics(samples):
    """Per-metric median over a list of layer_metrics() dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
