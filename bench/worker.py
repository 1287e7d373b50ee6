"""One timed round of a workload in a fresh interpreter.

    python3 bench/worker.py --config CFG --out DIR --study {drift,matrix} --trace {0,1} --result FILE

Set-up is timed from just before ``import driftlab`` until the corpus and its
manifest are on disk; the study is timed from the runner's call until it
returns, when its last CSV, history and snapshot are written. Interpreter
start is outside both. The result goes to FILE as JSON, with the peak
resident memory of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--study", choices=("drift", "matrix"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)

    t_setup = time.perf_counter()
    import driftlab

    if os.path.dirname(os.path.abspath(driftlab.__file__)) != os.path.join(SRC, "driftlab"):
        print(f"driftlab imported from {driftlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from driftlab import config, harness

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, driftlab)
    cfg = config.load_config(args.config)
    manifest = harness.run_gen_corpus(cfg, args.out)
    setup_s = time.perf_counter() - t_setup
    result = {"setup_s": setup_s, "manifest": manifest}

    runner = harness.run_drift if args.study == "drift" else harness.run_matrix
    t_study = time.perf_counter()
    res = runner(cfg, args.out, jobs=1)
    result["study_s"] = time.perf_counter() - t_study
    result["cells"] = [
        {
            "label": c.label,
            "seed": c.seed,
            "status": c.status,
            "accuracy": c.accuracy,
            "steps": len(c.history.steps) if c.history is not None else 0,
        }
        for c in res.cells
    ]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.finish()
        tracer.dump(os.path.join(args.out, "trace.json"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
