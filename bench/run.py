"""The run benchmark: `pipeline.run_experiment` on three workloads, with
every output checked, timed end to end or layer by layer.

    python3 bench/run.py --workload grushin-145 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

Each pipeline run goes to a fresh interpreter (bench/single_run.py), and
every run's report.json must be byte-identical to the first one's.
--trace 0 repeats single runs, at least two, while the last one's length
still fits in --seconds, and reports the end-to-end metrics as medians
over the runs (setup_s over the set-up each run interpreter makes).
--trace 1 repeats rounds of an untraced and a traced run the same way,
reports the per-layer metrics (medians over traced runs) and writes
bench/out/<workload>/trace.json, with the tracing overhead (traced minus
untraced run_s).  The last line of standard output is the JSON result.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# name -> (config, nodes per side of the grid it runs on, None to keep
# the config's own)
WORKLOADS = {
    "grushin-145": (ROOT / "src" / "subunit_lab" / "configs"
                    / "grushin-box-256.json", 145),
    "paper-4balls": (BENCH / "workloads" / "paper-4balls.json", None),
    "exp-picard": (BENCH / "workloads" / "exp-picard.json", None),
}
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "artifact_mb": "MB"}
DEADLINE_S = 175.0


class RunError(Exception):
    """A pipeline run that raised, timed out or printed no result."""


def child(config, seed, deadline, out=None, trace=False):
    cmd = [sys.executable, str(BENCH / "single_run.py"),
           "--config", str(config), "--seed", str(seed)]
    if out is not None:
        cmd += ["--out", str(out)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"no result within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RunError(f"exit {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.splitlines()[-1])


def pipeline_run(config, cfg, seed, out, trace, deadline):
    """One checked run: (child result, report bytes, problems)."""
    shutil.rmtree(out, ignore_errors=True)
    res = child(config, seed, deadline, out, trace)
    problems = [f"required flag {f} failed" for f in res["failed_flags"]]
    report = (out / "report.json").read_bytes()
    try:
        problems += checks.check_run(cfg, json.loads(report), out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"check could not read the outputs: {exc!r}")
    res["artifact_mb"] = sum(f.stat().st_size for f in out.rglob("*")
                             if f.is_file()) / 1e6
    return res, report, problems


def load_config(workload, out):
    """(path the runs read, config dict); a grid override is written out."""
    config, n = WORKLOADS[workload]
    cfg = json.loads(config.read_text())
    if n is None:
        return config, cfg
    cfg["grid"].update(nx=n, ny=n)
    out.mkdir(parents=True, exist_ok=True)
    config = out / "config.json"
    config.write_text(json.dumps(cfg, indent=2) + "\n")
    return config, cfg


def med(key, runs):
    return statistics.median(r[key] for r in runs)


def bench(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    out = OUT / workload
    config, cfg = load_config(workload, out)
    plain, traced, reports = [], [], []
    attempted = failed = 0
    correct = True
    # a round starts only when the last round's length still fits in
    # --seconds, so an invocation lasts --seconds, not up to a round more
    kinds = (False, True) if trace else (False,)
    t0 = time.perf_counter()
    round_s = 0.0
    while attempted < 2 or time.perf_counter() - t0 + round_s <= seconds:
        r0 = time.perf_counter()
        for k, tr in enumerate(kinds):
            attempted += 1
            try:
                res, report, problems = pipeline_run(
                    config, cfg, seed, out / f"run{k}", tr, deadline)
            except RunError as exc:
                failed += 1
                print(f"{workload}: run failed: {exc}", file=sys.stderr)
                continue
            if reports and report != reports[0]:
                problems.append("report.json differs from the first run's")
            reports.append(report)
            if problems:
                failed += 1
                correct = False
                for p in problems:
                    print(f"{workload}: {p}", file=sys.stderr)
                continue
            (traced if tr else plain).append(res)
            print(f"{workload}  run {attempted}{' traced' if tr else ''}: "
                  f"run_s {res['run_s']:.3f}  cpu_s {res['cpu_s']:.3f}  "
                  f"setup_s {res['setup_s']:.3f}", flush=True)
        round_s = time.perf_counter() - r0

    if not plain or (trace and not traced):
        raise SystemExit(f"{workload}: no run passed its checks")
    if trace:
        values = tracing.median_metrics([r["layers"] for r in traced])
        units = tracing.UNITS
        (out / "trace.json").write_text(json.dumps({
            "workload": workload, "seed": seed,
            "untraced_run_s": [r["run_s"] for r in plain],
            "traced_run_s": [r["run_s"] for r in traced],
            "overhead_s": med("run_s", traced) - med("run_s", plain),
            "layers": values,
            "functions": traced[-1]["functions"],
        }, indent=2, sort_keys=True) + "\n")
    else:
        values = {k: med(k, plain) for k in END_TO_END}
        units = END_TO_END
    for name, value in values.items():
        print(f"{workload}  {name:24s} {value:14.6g} {units[name]}")
    print(f"{workload}  attempted {attempted}  failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="becomes the config's seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "subunit_lab" / "__init__.py").is_file():
        raise SystemExit(f"no subunit_lab sources under {ROOT / 'src'}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            raise SystemExit(f"{name}: set-up failed: {exc}") from exc
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
