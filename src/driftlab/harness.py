"""Experiment runners behind the CLI: corpus build, objective matrix, drift
study, and the correction-weight ablation.

Every runner is deterministic given the config: problem sets, rollout streams,
and shuffles all derive from seeds in the config, evaluation streams are
shared across objectives so comparisons at the same seed are paired, and CSVs
are emitted with repr-formatted floats so reruns are byte-identical. Each
output file starts with a comment line carrying the config hash (plus the
epoch count for training-derived outputs); runners refuse to combine files
whose hashes disagree.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash
from .metrics import (
    ExAccErrCurve,
    exaccerr,
    final_answer_accuracy,
    prefix_drift_eval,
    trace_quality,
)
from .objectives import ObjectiveSpec, WeightTransform
from .policy import FeedForwardPolicy, TabularPolicy, greedy_decode, save_policy
from .task import (
    TraceCorpus,
    filter_teacher_correct,
    generate_corpus,
    generate_problems,
    read_corpus,
    teacher_policy,
    write_corpus,
)
from .training import RunHistory, TrainAbortError, train

CORPUS_FILE = "corpus.txt"
MANIFEST_FILE = "manifest.json"

# stream tags keep seed spaces for problems, init, and eval rollouts disjoint
_EVAL_PROBLEM_TAG = 11
_DRIFT_PROBLEM_TAG = 12
_ROLLOUT_TAG = 13
_INIT_TAG = 14

ABLATION_VARIANTS: tuple[tuple[str, str, ObjectiveSpec], ...] = (
    ("sft", "w_t=1", ObjectiveSpec("sft", WeightTransform("constant-one"))),
    ("sigmoid_t1", "sigmoid(delta_t/1.0)", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=1.0))),
    ("sigmoid_t2", "sigmoid(delta_t/2.0)", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=2.0))),
    ("sigmoid_t4", "sigmoid(delta_t/4.0)", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=4.0))),
    ("raw", "exp(delta_t)", ObjectiveSpec("sft", WeightTransform("raw-ratio"))),
    ("clipexp_c5", "exp(clip(delta_t,-5,5))", ObjectiveSpec("sft", WeightTransform("clip-exp", clip=5.0))),
    ("relu", "max(delta_t,0)", ObjectiveSpec("sft", WeightTransform("relu"))),
)


class HarnessError(RuntimeError):
    pass


def make_student(cfg: ExperimentConfig, seed: int):
    """Initial student for one training seed; shared by every objective at that seed."""
    vocab = cfg.task.vocab()
    t = cfg.train
    if t.family == "tabular":
        return TabularPolicy(vocab, order=t.order)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _INIT_TAG])))
    return FeedForwardPolicy(
        vocab,
        order=t.order,
        embed_dim=t.embed_dim,
        hidden_dim=t.hidden_dim,
        init_scale=t.init_scale,
        rng=rng,
    )


def _derive_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def eval_problems(cfg: ExperimentConfig):
    return generate_problems(cfg.task, cfg.eval.eval_size, _derive_seed(cfg.eval.seed, _EVAL_PROBLEM_TAG))


def drift_problems(cfg: ExperimentConfig):
    return generate_problems(cfg.task, cfg.eval.drift_problems, _derive_seed(cfg.eval.seed, _DRIFT_PROBLEM_TAG))


def rollout_seed(cfg: ExperimentConfig, train_seed: int) -> int:
    return _derive_seed(cfg.eval.seed, _ROLLOUT_TAG, train_seed)


def write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def output_header(cfg: ExperimentConfig, with_epochs: bool = True) -> str:
    h = f"# config_hash={config_hash(cfg)}"
    if with_epochs:
        h += f" epochs={cfg.train.epochs}"
    return h


def run_gen_corpus(cfg: ExperimentConfig, out_dir, overwrite: bool = False) -> dict:
    """Generate, filter, and persist the teacher-correct corpus plus a manifest."""
    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, CORPUS_FILE)
    if os.path.exists(corpus_path) and not overwrite:
        raise HarnessError(f"{corpus_path} exists; pass overwrite to regenerate")
    teacher = teacher_policy(cfg.teacher, cfg.task)
    problems = generate_problems(cfg.task, cfg.corpus.n_problems, cfg.corpus.seed)
    raw = generate_corpus(
        teacher,
        problems,
        seed=cfg.corpus.seed,
        samples_per_problem=cfg.corpus.samples_per_problem,
        max_len=cfg.corpus.max_len,
    )
    filtered, stats = filter_teacher_correct(raw)
    write_corpus(filtered, corpus_path, header_comment=f"config_hash={config_hash(cfg)}")
    manifest = {
        "config_hash": config_hash(cfg),
        "n_problems": cfg.corpus.n_problems,
        "samples_per_problem": cfg.corpus.samples_per_problem,
        "n_records": stats.n_input,
        "n_retained": stats.n_retained,
        "retention_rate": stats.retention_rate,
        "n_truncated": sum(1 for r in raw.records if r.truncated),
        "corpus_file": CORPUS_FILE,
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_corpus_checked(cfg: ExperimentConfig, out_dir) -> TraceCorpus:
    corpus_path = os.path.join(out_dir, CORPUS_FILE)
    if not os.path.exists(corpus_path):
        raise HarnessError(f"no corpus at {corpus_path}; run gen-corpus first")
    with open(corpus_path) as fh:
        first = fh.readline().strip()
    expected = f"# config_hash={config_hash(cfg)}"
    if first != expected:
        raise HarnessError(
            f"corpus hash mismatch: file says {first!r}, config gives {expected!r}; regenerate the corpus"
        )
    return read_corpus(corpus_path)


@dataclass
class CellResult:
    label: str
    seed: int
    status: str = "ok"
    abort_step: int = -1
    accuracy: float = float("nan")
    exaccerr_curve: ExAccErrCurve | None = None
    quality: object = None
    history: RunHistory | None = None


def _run_cell(args) -> CellResult:
    cfg, label, spec, seed, out_dir, do_drift = args
    teacher = teacher_policy(cfg.teacher, cfg.task)
    corpus = load_corpus_checked(cfg, out_dir)
    init = make_student(cfg, seed)
    tc = cfg.train.train_config(seed)
    try:
        policy, history = train(tc, corpus, spec, init, teacher=teacher, max_len=cfg.corpus.max_len)
    except TrainAbortError as abort:
        return CellResult(label=label, seed=seed, status="aborted", abort_step=abort.step)
    cell = CellResult(label=label, seed=seed, history=history)
    probs_eval = eval_problems(cfg)
    probs_drift = drift_problems(cfg)
    rseed = rollout_seed(cfg, seed)
    # one greedy decode of the eval set feeds both accuracy and trace quality
    traces = [greedy_decode(policy, p.question, cfg.corpus.max_len) for p in probs_eval]
    cell.accuracy = final_answer_accuracy(policy, probs_eval, max_len=cfg.corpus.max_len, traces=traces)
    if do_drift:
        cell.exaccerr_curve = prefix_drift_eval(
            init, policy, teacher, probs_drift, cfg.eval.horizons, seed=rseed, max_len=cfg.corpus.max_len
        )
    else:
        cell.exaccerr_curve = exaccerr(
            teacher, policy, probs_drift, cfg.eval.horizons, seed=rseed, max_len=cfg.corpus.max_len
        )
    cell.quality = trace_quality(traces)
    save_policy(policy, os.path.join(out_dir, f"policy_{label}_s{seed}.txt"))
    write_lines(
        os.path.join(out_dir, f"history_{label}_s{seed}.csv"),
        [output_header(cfg)] + history.csv_rows(),
    )
    return cell


def _run_cells(cfg: ExperimentConfig, cells, out_dir, jobs: int, do_drift: bool) -> list[CellResult]:
    args = [(cfg, label, spec, seed, out_dir, do_drift) for label, spec, seed in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_cell, args))
    else:
        results = [_run_cell(a) for a in args]
    results.sort(key=lambda c: (c.label, c.seed))
    return results


def mean_std(values) -> tuple[float, float]:
    arr = np.array(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


@dataclass
class MatrixResult:
    cells: list[CellResult]
    dataset: str
    out_dir: str
    files: list[str] = field(default_factory=list)

    def by_label(self) -> dict[str, list[CellResult]]:
        out: dict[str, list[CellResult]] = {}
        for c in self.cells:
            out.setdefault(c.label, []).append(c)
        return out


def _dataset_name(cfg: ExperimentConfig) -> str:
    return f"chain-m{cfg.task.modulus}-L{cfg.task.chain_length}"


def run_matrix(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> MatrixResult:
    """Train every (objective, seed) cell from the shared corpus and initial
    policy, evaluate, and emit per-metric CSVs plus a per-objective summary."""
    os.makedirs(out_dir, exist_ok=True)
    cells = [(label, spec, seed) for label, spec in cfg.objectives for seed in cfg.train.seeds]
    results = _run_cells(cfg, cells, out_dir, jobs, do_drift=False)
    dataset = _dataset_name(cfg)
    res = MatrixResult(cells=results, dataset=dataset, out_dir=str(out_dir))

    header = output_header(cfg)
    by_label = res.by_label()
    ok = {label: [c for c in group if c.status == "ok"] for label, group in by_label.items()}

    acc_lines = [header, "method,dataset,accuracy"]
    for label in sorted(by_label):
        if ok[label]:
            mean, _ = mean_std([c.accuracy for c in ok[label]])
            acc_lines.append(f"{label},{dataset},{mean!r}")
    write_lines(os.path.join(out_dir, "accuracy.csv"), acc_lines)

    exa_lines = [header, "method,horizon,exaccerr"]
    for label in sorted(by_label):
        if not ok[label]:
            continue
        horizons = ok[label][0].exaccerr_curve.horizons
        for j, h in enumerate(horizons):
            mean, _ = mean_std([c.exaccerr_curve.values[j] for c in ok[label]])
            exa_lines.append(f"{label},{h},{mean!r}")
    write_lines(os.path.join(out_dir, "exaccerr.csv"), exa_lines)

    tq_lines = [header, "method,mean_len,rep4,post_answer,multi_answer"]
    for label in sorted(by_label):
        if not ok[label]:
            continue
        ml, _ = mean_std([c.quality.mean_length for c in ok[label]])
        r4, _ = mean_std([c.quality.repeated_4gram_fraction for c in ok[label]])
        pa, _ = mean_std([c.quality.post_answer_rate for c in ok[label]])
        ma, _ = mean_std([c.quality.multi_answer_rate for c in ok[label]])
        tq_lines.append(f"{label},{ml!r},{r4!r},{pa!r},{ma!r}")
    write_lines(os.path.join(out_dir, "trace_quality.csv"), tq_lines)

    sum_lines = [header, "method,n_seeds_ok,accuracy_mean,accuracy_std"]
    for label in sorted(by_label):
        mean, std = mean_std([c.accuracy for c in ok[label]])
        sum_lines.append(f"{label},{len(ok[label])},{mean!r},{std!r}")
    write_lines(os.path.join(out_dir, "summary.csv"), sum_lines)

    run_lines = [header, "method,seed,status,abort_step,accuracy"]
    for c in results:
        acc = repr(c.accuracy) if c.status == "ok" else ""
        run_lines.append(f"{c.label},{c.seed},{c.status},{c.abort_step if c.status != 'ok' else ''},{acc}")
    write_lines(os.path.join(out_dir, "runs.csv"), run_lines)

    res.files = ["accuracy.csv", "exaccerr.csv", "trace_quality.csv", "summary.csv", "runs.csv"]
    return res


def run_drift(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> MatrixResult:
    """Prefix-drift study: generated prefixes come from the untrained base
    student, truncated at each horizon; emits drift.csv and per-seed rows.

    Horizons beyond ``max_len`` are rejected before any cell trains.
    """
    longest = max(cfg.eval.horizons)
    if longest > cfg.corpus.max_len:
        raise ConfigError(
            f"drift horizon {longest} exceeds max_len {cfg.corpus.max_len}: "
            "prefixes are rolled out to at most max_len tokens"
        )
    os.makedirs(out_dir, exist_ok=True)
    cells = [(label, spec, seed) for label, spec in cfg.objectives for seed in cfg.train.seeds]
    results = _run_cells(cfg, cells, out_dir, jobs, do_drift=True)
    res = MatrixResult(cells=results, dataset=_dataset_name(cfg), out_dir=str(out_dir))
    header = output_header(cfg)
    by_label = res.by_label()
    ok = {label: [c for c in group if c.status == "ok"] for label, group in by_label.items()}

    drift_lines = [header, "method,horizon,exaccerr"]
    for label in sorted(by_label):
        if not ok[label]:
            continue
        horizons = ok[label][0].exaccerr_curve.horizons
        for j, h in enumerate(horizons):
            mean, _ = mean_std([c.exaccerr_curve.values[j] for c in ok[label]])
            drift_lines.append(f"{label},{h},{mean!r}")
    write_lines(os.path.join(out_dir, "drift.csv"), drift_lines)

    run_lines = [header, "method,seed,horizon,exaccerr"]
    for c in results:
        if c.status != "ok":
            continue
        for j, h in enumerate(c.exaccerr_curve.horizons):
            run_lines.append(f"{c.label},{c.seed},{h},{float(c.exaccerr_curve.values[j])!r}")
    write_lines(os.path.join(out_dir, "drift_runs.csv"), run_lines)
    res.files = ["drift.csv", "drift_runs.csv"]
    return res


@dataclass
class AblationResult:
    rows: list[tuple[str, str, float, float]]
    weight_ranges: dict[str, tuple[float, float]]
    cells: list[CellResult]
    out_dir: str


def run_ablate_weights(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> AblationResult:
    """Correction-weight ablation over the fixed variant set, SFT base only."""
    os.makedirs(out_dir, exist_ok=True)
    cells = [(label, spec, seed) for label, _, spec in ABLATION_VARIANTS for seed in cfg.train.seeds]
    results = _run_cells(cfg, cells, out_dir, jobs, do_drift=False)
    by_label: dict[str, list[CellResult]] = {}
    for c in results:
        by_label.setdefault(c.label, []).append(c)

    rows = []
    weight_ranges: dict[str, tuple[float, float]] = {}
    for label, formula, _ in ABLATION_VARIANTS:
        group = [c for c in by_label.get(label, []) if c.status == "ok"]
        mean, std = mean_std([c.accuracy for c in group])
        rows.append((label, formula, mean, std))
        mins = [s.weight_min for c in group for s in c.history.steps]
        maxs = [s.weight_max for c in group for s in c.history.steps]
        if mins:
            weight_ranges[label] = (min(mins), max(maxs))

    lines = [output_header(cfg), "variant,weight_formula,accuracy_mean,accuracy_std"]
    for label, formula, mean, std in rows:
        lines.append(f'{label},"{formula}",{mean!r},{std!r}')
    write_lines(os.path.join(out_dir, "ablate_weights.csv"), lines)
    return AblationResult(rows=rows, weight_ranges=weight_ranges, cells=results, out_dir=str(out_dir))


def run_report(out_dir) -> str:
    """Merge the CSVs in a results directory into one readable text report."""
    chunks = []
    for name in ("summary.csv", "accuracy.csv", "exaccerr.csv", "trace_quality.csv", "drift.csv", "ablate_weights.csv"):
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            body = fh.read().rstrip("\n")
        chunks.append(f"== {name} ==\n{body}")
    if not chunks:
        raise HarnessError(f"no result CSVs found under {out_dir}")
    report = "\n\n".join(chunks) + "\n"
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(report)
    return report
