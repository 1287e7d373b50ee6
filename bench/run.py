"""driftlab study benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace {0,1}

Runs a driftlab study on one workload in rounds, one process at a time, each
round in a fresh interpreter (see worker.py), and checks every output against
the benchmark's own computations (see checks.py). The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the medians over the rounds of the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with ``--trace 1``.
Earlier lines give the time of a fixed reference loop before and after the
run, every round's ``setup_s`` and ``study_s``, and the SHA-256 digest of the
study's outputs, which depends only on the workload and the seed.

Operations are the corpus build and each (objective, seed) cell of every
round. The outputs of the last round are checked; every other round's corpus
and study must be byte for byte the same as the checked ones. A cell fails if
it aborts, if a check on it fails, or if its study wrote other outputs; a
corpus build fails likewise.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and, through the environment, in every worker
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
RUN_LIMIT_S = 170.0  # every worker is stopped by then, so a run ends within 180 s

sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

WEIGHT_RECORDS = 100  # corpus records whose token weights are checked per cell


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop that does not touch driftlab."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t)
    return statistics.median(times)


class Rounds:
    """Runs rounds one at a time."""

    def __init__(self, run_dir: str, config_path: str, hard_stop: float):
        self.run_dir, self.config_path, self.hard_stop = run_dir, config_path, hard_stop
        self.n = 0

    def run(self, study: str, trace: int = 0):
        """One fresh-interpreter round; returns (result dict or None, output dir)."""
        self.n += 1
        out = os.path.join(self.run_dir, f"round{self.n:03d}")
        result_path = out + ".json"
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--config", self.config_path, "--out", out, "--study", study,
            "--trace", str(trace), "--result", result_path,
        ]
        timeout = max(1.0, self.hard_stop - time.perf_counter())
        try:
            proc = subprocess.run(cmd, env=dict(os.environ, PYTHONHASHSEED="0"), timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:
            print(f"round {self.n}: worker stopped after {timeout:.0f} s", file=sys.stderr)
            return None, out
        if proc.returncode != 0 or not os.path.exists(result_path):
            print(f"round {self.n}: worker exited {proc.returncode}\n{proc.stdout}", file=sys.stderr)
            return None, out
        with open(result_path) as fh:
            result = json.load(fh)
        result["corpus_sha256"] = checks.corpus_digest(out)
        return result, out


def study_inputs(config_path: str, study, out_dir: str) -> dict:
    """What the checks take from driftlab: the inputs it derives from the config
    (question sets, rollout seeds, base students), and its token weights of each
    trained student in ``out_dir`` on the first corpus records."""
    sys.path.insert(0, SRC)
    from driftlab import config, harness, objectives, policy, task

    cfg = config.load_config(config_path)
    records = task.read_corpus(os.path.join(out_dir, "corpus.txt")).records[:WEIGHT_RECORDS]
    weights = {}
    for label, spec in cfg.objectives:
        for s in study.seeds:
            try:
                trained = policy.load_policy(os.path.join(out_dir, f"policy_{label}_s{s}.txt"))
                weights[checks.cell_name(label, s)] = [objectives.record_token_weights(trained, r, spec.transform)
                                                       for r in records]
            except Exception as exc:  # a missing or broken snapshot fails the cell's checks
                weights[checks.cell_name(label, s)] = f"no token weights: {exc!r}"
    base = {}
    for s in study.seeds:
        p = harness.make_student(cfg, s)
        base[s] = checks.Student(p.family, cfg.task.modulus, p.order, p.params.copy(),
                                 getattr(p, "embed_dim", 0), getattr(p, "hidden_dim", 0))
    return {
        "eval": [p.question.tokens for p in harness.eval_problems(cfg)],
        "drift": [p.question.tokens for p in harness.drift_problems(cfg)],
        "rollout_seed": {s: harness.rollout_seed(cfg, s) for s in study.seeds},
        "base": base,
        "weights": weights,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not os.path.exists(os.path.join(SRC, "driftlab", "__init__.py")):
        print(f"no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config_path = os.path.join(run_dir, "config.cfg")
    text = config_text(workload, args.seed)
    with open(config_path, "w") as fh:
        fh.write(text)

    # compile and cache driftlab's bytecode before anything is timed
    warm = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import driftlab"])
    if warm.returncode != 0:
        print("driftlab does not import", file=sys.stderr)
        return 2

    study = checks.Study.from_config(text, workload.runner)
    rounds = Rounds(run_dir, config_path, t_start + RUN_LIMIT_S)
    ref_before = reference_loop_s()
    rounds_out = []  # (result or None, output dir) per round
    if args.trace:
        # an untraced round, then the traced one: their difference is the tracing overhead
        for trace in (0, 1):
            rounds_out.append(rounds.run(workload.runner, trace))
    else:
        deadline = time.perf_counter() + args.seconds
        while True:
            t_round = time.perf_counter()
            rounds_out.append(rounds.run(workload.runner))
            # stop when another round would end more than half a round past the deadline
            now = time.perf_counter()
            if now + 0.5 * (now - t_round) > deadline:
                break
    ref_after = reference_loop_s()

    # -- everything below is outside the timed region
    ok = [(r, out) for r, out in rounds_out if r is not None]
    if not ok:
        print("no study round finished", file=sys.stderr)
        return 1
    checked, checked_out = ok[-1]
    fails = checks.check_all(checked_out, study, checked["cells"], study_inputs(config_path, study, checked_out))
    digests = [checks.digest(out) if r is not None else None for r, out in rounds_out]
    for _, out in rounds_out:
        if out != checked_out:
            shutil.rmtree(out, ignore_errors=True)
    want, want_corpus = checks.digest(checked_out), checked["corpus_sha256"]

    # every operation is judged: a corpus or study the same as the checked one fails as it does
    n_cells = len(study.cells)
    corpus_bad = any(op == "corpus" for op, _ in fails)
    cells_bad = checks.failed_cells(fails, n_cells)
    results = [r for r, _ in rounds_out]
    attempted = (1 + n_cells) * len(rounds_out)
    failed = sum(r is None or r["corpus_sha256"] != want_corpus or corpus_bad for r in results)
    failed += sum(n_cells if d is None or d != want else cells_bad for d in digests)
    other_corpora = sum(r is not None and r["corpus_sha256"] != want_corpus for r in results)
    other_studies = sum(d is not None and d != want for d in digests)
    if other_corpora:
        fails.append(("corpus", f"{other_corpora} of {len(results)} corpus builds differ from the checked one"))
    if other_studies:
        fails.append(("study", f"{other_studies} of {len(results)} studies wrote other outputs than the checked one"))
    for op, msg in fails:
        print(f"check failed [{op}]: {msg}", file=sys.stderr)

    print(f"reference_loop_s before={ref_before:.6f} after={ref_after:.6f}")
    print(f"rounds {len(rounds_out)} finished={len(ok)} wall_s={time.perf_counter() - t_start:.3f}")
    for name in ("setup_s", "study_s"):
        print(f"{name} rounds=" + ",".join(f"{r[name]:.4f}" for r, _ in ok))
    print(f"digest {workload.name} seed={args.seed} sha256={want} corpus_sha256={want_corpus}")
    if args.trace:
        metrics = traced_metrics(ok)
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup_s"] for r, _ in ok), "s"),
            "study_s": (statistics.median(r["study_s"] for r, _ in ok), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r, _ in ok), "MiB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def traced_metrics(ok) -> dict:
    """Per-layer metrics of the traced round; its overhead is measured against the untraced one."""
    import layers

    if len(ok) != 2:
        raise SystemExit("the traced run needs its untraced and its traced round")
    (untraced, _), (traced, out) = ok
    with open(os.path.join(out, "trace.json")) as fh:
        nodes = json.load(fh)["nodes"]
    steps = sum(c["steps"] for c in traced["cells"])
    values = layers.per_layer_metrics(nodes, traced["manifest"], steps, untraced["study_s"])
    shares = layers.shares(values)
    print("shares " + " ".join(f"{k}={v:.4f}" for k, v in shares.items()))
    return {name: (values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
