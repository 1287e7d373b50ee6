"""Steadiness and trace reports over many benchmark runs.

    python3 bench/report.py steady
    python3 bench/report.py trace

``steady`` makes two sets of runs of the same code. Each set runs every
workload on seeds 1..10 for ``run_seconds`` from BENCHMARK.json, alternating
the workloads. The report gives per set, workload and end-to-end metric the
median, the quartiles and their spread (q3 - q1) / median, then the change of
each median from the first set, the share of failed operations, whether every
run printed the same digests for its workload and seed, and the reference
loop's range. It fails if a spread other than that of ``setup_s`` exceeds the
metric's bound in BENCHMARK.json, if a median moves between the sets by more
than its bound, if the share of failed operations differs between the sets,
if a check failed or if a digest differs. Runs are made one at a time.

``trace`` runs each workload twice with ``--trace 1`` on seed 1, prints every
per-layer metric, and fails if a count differs between the two runs.

Every run's parsed output and its other output lines are kept as JSON lines
under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
END_TO_END = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"]
SETS, SEEDS = 2, range(1, 11)
TRACE_SEED, TRACE_REPEATS = 1, 2


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(lines[-1])
    out.update(workload=workload, seed=seed, trace=trace, wall_s=time.perf_counter() - t, stderr=proc.stderr,
               lines=lines[:-1])
    for line in lines[:-1]:
        head, _, fields = line.partition(" ")
        if head == "digest":
            out["digest"] = fields.split(" ", 2)[2]  # the study and corpus digests
        elif head == "reference_loop_s":
            out["reference_loop_s"] = [float(f.split("=")[1]) for f in fields.split()]
        elif head == "shares":
            out["shares"] = {f.split("=")[0]: float(f.split("=")[1]) for f in fields.split()}
    return out


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady() -> int:
    log_path = os.path.join(ROOT, ".bench_runs", f"steady-{int(time.time())}.jsonl")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    names = sorted(WORKLOADS)
    runs = []
    with open(log_path, "w") as log:
        for s in range(SETS):
            for i, seed in enumerate(SEEDS):
                # rotate the workload order so that no workload always follows another
                for w in names[i % len(names):] + names[: i % len(names)]:
                    r = run_once(w, seed, 0)
                    r["set"] = s
                    runs.append(r)
                    log.write(json.dumps(r) + "\n")
                    log.flush()
                    print(f"set {s} {w:16s} seed {seed:3d} " + " ".join(
                        f"{m}={r['metrics'][m]['value']:.4f}" for m in END_TO_END) +
                        f" ref={r['reference_loop_s'][0]:.4f} wall={r['wall_s']:.1f}", flush=True)
    print(f"\nruns logged to {log_path}\n")
    bad = False
    for w in names:
        print(w)
        firsts, shares = {}, set()
        for s in range(SETS):
            mine = [r for r in runs if r["workload"] == w and r["set"] == s]
            failed = sum(r["failed"] for r in mine) / sum(r["attempted"] for r in mine)
            shares.add(failed)
            refs = [r["reference_loop_s"][0] for r in mine]
            correct = all(r["correct"] for r in mine)
            print(f"  set {s}: failed share {failed:.6f}, all correct {correct}, "
                  f"reference loop {min(refs):.4f}..{max(refs):.4f} s")
            bad |= not correct
            for m, bound in END_TO_END.items():
                q1, med, q3 = quartiles([r["metrics"][m]["value"] for r in mine])
                firsts.setdefault(m, med)
                spread, change = (q3 - q1) / med, (med - firsts[m]) / firsts[m]
                over = (spread > bound and m != "setup_s") or abs(change) > bound
                bad |= over
                print(f"    {m:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {spread:7.4f}  "
                      f"vs set 0 {change:+8.4f}  bound {bound}{'  OVER' if over else ''}")
        digests = {}
        for r in (r for r in runs if r["workload"] == w):
            digests.setdefault(r["seed"], set()).add(r["digest"])
        same = all(len(d) == 1 for d in digests.values())
        bad |= not same or len(shares) != 1
        print(f"  failed share the same in every set: {len(shares) == 1}; digests repeat for every seed: {same}")
    return 1 if bad else 0


def trace() -> int:
    bad = False
    for w in sorted(WORKLOADS):
        reps = [run_once(w, TRACE_SEED, 1) for _ in range(TRACE_REPEATS)]
        print(f"{w} (seed {TRACE_SEED}, {TRACE_REPEATS} traced runs; values of the first)")
        m0 = reps[0]["metrics"]
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:34s} {m0[name]['value']:14.6g} {unit}")
        print("  " + " ".join(f"{k}={v:.3f}" for k, v in reps[0]["shares"].items()))
        moved = [c for c in COUNTS if len({r["metrics"][c]["value"] for r in reps}) != 1]
        print(f"  counts that differ between repeats: {moved or 'none'}; all correct {all(r['correct'] for r in reps)}")
        bad |= bool(moved) or not all(r["correct"] for r in reps)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("report", choices=("steady", "trace"))
    args = ap.parse_args(argv)
    return steady() if args.report == "steady" else trace()


if __name__ == "__main__":
    sys.exit(main())
