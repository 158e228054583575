"""One fresh interpreter of the run benchmark: set-up, then optionally one
`pipeline.run_experiment` (what `subunit-lab run` does), traced or not.

    python3 bench/single_run.py --config CFG [--seed N] [--out DIR [--trace]]

setup_s runs from before `import subunit_lab` to the end of loading and
validating the config, building its profile and building its form.  With
--out, the run follows in the same process: run_s is its wall time,
cpu_s its process CPU time (user plus sys, every thread) and peak_rss_mb
the process's peak resident memory.  Prints one JSON line.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, help="replaces the config's seed")
    ap.add_argument("--out", help="run the pipeline into this directory")
    ap.add_argument("--trace", action="store_true",
                    help="trace the run layer by layer")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from subunit_lab.config import ExperimentConfig
    from subunit_lab.forms import assemble_form
    from subunit_lab import pipeline
    with open(args.config) as fh:
        raw = json.load(fh)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = ExperimentConfig.from_dict(raw)
    assemble_form(cfg.make_profile(), cfg.make_grid())
    result = {"setup_s": time.perf_counter() - t0}

    if args.out:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            _, failed = pipeline.run_experiment(cfg, args.out)
        finally:
            run_s = time.perf_counter() - w0
            cpu_s = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(run_s=run_s, cpu_s=cpu_s,
                      peak_rss_mb=peak_kib * 1024 / 1e6, failed_flags=failed)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["functions"] = {k: v for k, v in tracer.stats.items()
                                   if v["calls"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
