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

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig, config_hash, sha256
from .metrics import (
    ExAccErrCurve,
    exaccerr,
    final_answer_accuracy,
    prefix_drift_eval,
    trace_quality,
)
from .objectives import ObjectiveSpec, TraceBatch, WeightTransform
from .policy import POLICY_FAMILIES, FeedForwardPolicy, ParametricPolicy, rollouts, save_policy, undecodable_line
from .policy import greedy_decode  # noqa: F401 -- bench/tracer.py wraps this name here
from .streams import normal_block, seed_words
from .task import (
    TaskError,
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
    t = cfg.train
    family = POLICY_FAMILIES[t.family]
    student = family(cfg.task.vocab(), *(getattr(t, key) for key in family.SHAPE))
    if isinstance(student, FeedForwardPolicy):  # a tabular student starts uniform, at zero logits
        student.params = t.init_scale * normal_block((seed, _INIT_TAG), student.params.size)[0]
    return student


@functools.lru_cache(maxsize=4)
def _derived_seeds(eval_seed: int, train_seeds: tuple[int, ...]) -> tuple[int, ...]:
    """The eval and drift problem seeds, then each train seed's rollout seed, in one pass."""
    tags = [(_EVAL_PROBLEM_TAG,), (_DRIFT_PROBLEM_TAG,)] + [(_ROLLOUT_TAG, seed) for seed in train_seeds]
    return tuple(seed_words([(eval_seed, *tag) for tag in tags]).tolist())


def eval_problems(cfg: ExperimentConfig):
    return generate_problems(cfg.task, cfg.eval.eval_size, _derived_seeds(cfg.eval.seed, cfg.train.seeds)[0])


def drift_problems(cfg: ExperimentConfig):
    return generate_problems(cfg.task, cfg.eval.drift_problems, _derived_seeds(cfg.eval.seed, cfg.train.seeds)[1])


def rollout_seed(cfg: ExperimentConfig, train_seed: int) -> int:
    seeds = cfg.train.seeds if train_seed in cfg.train.seeds else (train_seed,)
    return _derived_seeds(cfg.eval.seed, seeds)[2 + seeds.index(train_seed)]


def write_lines(path, lines) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def output_header(cfg: ExperimentConfig) -> str:
    return f"# config_hash={config_hash(cfg)} epochs={cfg.train.epochs}"


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
        "corpus_sha256": _file_sha256(corpus_path),
    }
    with open(os.path.join(out_dir, MANIFEST_FILE), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _file_sha256(path) -> str:
    """SHA-256 of a file's bytes, read in fixed-size blocks."""
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(functools.partial(fh.read, 1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def load_corpus_checked(cfg: ExperimentConfig, out_dir) -> TraceCorpus:
    """The corpus of ``out_dir``, checked against the config hash in its
    header, line by line as it is read, and against the SHA-256 its manifest
    records, in that order."""
    corpus_path = os.path.join(out_dir, CORPUS_FILE)
    if not os.path.exists(corpus_path):
        raise HarnessError(f"no corpus at {corpus_path}; run gen-corpus first")
    try:
        with open(corpus_path, encoding="utf-8") as fh:
            first = fh.readline().strip()
    except UnicodeDecodeError:
        raise HarnessError(f"malformed corpus: {corpus_path} line {undecodable_line(corpus_path)}: not UTF-8 text") from None
    expected = f"# config_hash={config_hash(cfg)}"
    if first != expected:
        raise HarnessError(
            f"corpus hash mismatch: file says {first!r}, config gives {expected!r}; regenerate the corpus"
        )
    try:
        corpus = read_corpus(corpus_path, cfg.task.vocab())
    except TaskError as exc:
        raise HarnessError(f"malformed corpus: {exc}") from None
    manifest_path = os.path.join(out_dir, MANIFEST_FILE)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # a missing file included
        raise HarnessError(f"cannot read manifest {manifest_path} to check {corpus_path}: {exc}") from None
    want = manifest.get("corpus_sha256") if isinstance(manifest, dict) else None
    if want is None:
        raise HarnessError(f"manifest {manifest_path} has no corpus_sha256 for {corpus_path}; regenerate the corpus")
    if _file_sha256(corpus_path) != want:
        raise HarnessError(
            f"corpus {corpus_path} does not match the corpus_sha256 in {manifest_path}; regenerate the corpus"
        )
    return corpus


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


# the corpus, its arrays, both problem sets and the teacher of the running
# study, the same for every cell: set once per process, by the pool
# initializer in each worker
_shared_inputs: tuple | None = None


def _share_inputs(shared: tuple | None) -> None:
    global _shared_inputs
    _shared_inputs = shared


def save_cell(cfg: ExperimentConfig, out_dir, label: str, seed: int, policy, history: RunHistory) -> None:
    """The files of one trained (objective, seed) cell: its policy snapshot and its training history."""
    save_policy(policy, os.path.join(out_dir, f"policy_{label}_s{seed}.txt"))
    write_lines(os.path.join(out_dir, f"history_{label}_s{seed}.csv"), [output_header(cfg)] + history.csv_rows())


def evaluate_policy(cfg: ExperimentConfig, policy, problems):
    """(accuracy, trace quality) of one policy; one greedy decode of the problems feeds both."""
    traces = rollouts(policy, [p.question for p in problems], cfg.corpus.max_len).traces
    return final_answer_accuracy(policy, problems, max_len=cfg.corpus.max_len, traces=traces), trace_quality(traces)


def _run_cell(args) -> tuple[CellResult, ParametricPolicy | None]:
    """Train one (objective, seed) cell, score its accuracy and trace quality,
    and save it: the cell and its trained policy, None when training aborted.
    Any other error ends the study, as a HarnessError naming the cell."""
    cfg, label, spec, seed, out_dir = args
    corpus, arrays, probs_eval, _, teacher = _shared_inputs
    try:
        student = make_student(cfg, seed)
        policy, history = train(
            cfg.train, corpus, spec, student, teacher=teacher, max_len=cfg.corpus.max_len, arrays=arrays, seed=seed
        )
        cell = CellResult(label=label, seed=seed, history=history)
        cell.accuracy, cell.quality = evaluate_policy(cfg, policy, probs_eval)
        save_cell(cfg, out_dir, label, seed, policy, history)
    except TrainAbortError as abort:
        return CellResult(label=label, seed=seed, status="aborted", abort_step=abort.step), None
    except Exception as exc:
        raise HarnessError(f"cell {label} at seed {seed} failed: {type(exc).__name__}: {exc}") from exc
    return cell, policy


def _run_seed(args) -> list[CellResult]:
    """Every objective's cell at one seed: train them one by one, then score
    the drift curves of those that trained in one group. The drift study
    scores them all on the same teacher and base-student rollouts, the matrix
    on the same teacher rollouts; a cell that aborted leaves the group. An
    error while scoring ends the study, as a HarnessError naming the seed."""
    cfg, objectives, seed, out_dir, do_drift = args
    _, _, _, probs_drift, teacher = _shared_inputs
    trained = [_run_cell((cfg, label, spec, seed, out_dir)) for label, spec in objectives]
    ok = [(cell, policy) for cell, policy in trained if policy is not None]
    if ok:
        policies = [policy for _, policy in ok]
        horizons, rseed, max_len = cfg.eval.horizons, rollout_seed(cfg, seed), cfg.corpus.max_len
        try:
            if do_drift:
                base = make_student(cfg, seed)
                curves = prefix_drift_eval(base, policies, teacher, probs_drift, horizons, seed=rseed, max_len=max_len)
            else:
                curves = exaccerr(teacher, policies, probs_drift, horizons, seed=rseed, max_len=max_len)
        except Exception as exc:
            raise HarnessError(f"drift scoring at seed {seed} failed: {type(exc).__name__}: {exc}") from exc
        for (cell, _), curve in zip(ok, curves):
            cell.exaccerr_curve = curve
    return [cell for cell, _ in trained]


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

    def by_label(self) -> dict[str, list[CellResult]]:
        out: dict[str, list[CellResult]] = {}
        for c in self.cells:
            out.setdefault(c.label, []).append(c)
        return out

    def ok_by_label(self) -> dict[str, list[CellResult]]:
        """The cells that finished training, per label, in label order."""
        by_label = self.by_label()
        return {label: [c for c in by_label[label] if c.status == "ok"] for label in sorted(by_label)}


def _run_objectives(cfg: ExperimentConfig, objectives, out_dir, jobs: int, do_drift: bool) -> MatrixResult:
    """Train and evaluate every (objective, seed) cell of ``objectives`` x the
    config's seeds. The unit of work is one seed's group of cells, so at most
    one worker process per seed is started, and a one-seed study runs in this
    process."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    os.makedirs(out_dir, exist_ok=True)
    # the corpus, its arrays, both problem sets and the teacher are the same
    # for every cell: build them once, and hand them to each worker process
    # once rather than with every seed. Every student of the study has the
    # same order, and the teacher's expected tokens are only needed by the KL bases.
    corpus = load_corpus_checked(cfg, out_dir)
    teacher = teacher_policy(cfg.teacher, cfg.task)
    with_targets = any(spec.base.endswith("-kl") for _, spec in objectives)
    arrays = TraceBatch.of_corpus(corpus, make_student(cfg, cfg.train.seeds[0]), teacher if with_targets else None)
    shared = (corpus, arrays, eval_problems(cfg), drift_problems(cfg), teacher)
    args = [(cfg, objectives, seed, out_dir, do_drift) for seed in cfg.train.seeds]
    workers = min(jobs, len(args))
    if workers > 1:
        # imported here: loading the process pool's modules is a large part
        # of importing this module, and a serial study never needs them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_share_inputs, initargs=(shared,)) as pool:
            groups = list(pool.map(_run_seed, args))
    else:
        _share_inputs(shared)
        try:
            groups = [_run_seed(a) for a in args]
        finally:
            _share_inputs(None)
    results = sorted((cell for group in groups for cell in group), key=lambda c: (c.label, c.seed))
    dataset = f"chain-m{cfg.task.modulus}-L{cfg.task.chain_length}"
    return MatrixResult(cells=results, dataset=dataset, out_dir=str(out_dir))


def _write_curves(path, header: str, ok: dict[str, list[CellResult]]) -> None:
    """Per-label mean of the cells' exaccerr curves, one row per horizon."""
    lines = [header, "method,horizon,exaccerr"]
    for label, group in ok.items():
        if not group:
            continue
        for j, h in enumerate(group[0].exaccerr_curve.horizons):
            mean, _ = mean_std([c.exaccerr_curve.values[j] for c in group])
            lines.append(f"{label},{h},{mean!r}")
    write_lines(path, lines)


def run_matrix(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> MatrixResult:
    """Train every (objective, seed) cell from the shared corpus and initial
    policy, evaluate, and emit per-metric CSVs plus a per-objective summary."""
    res = _run_objectives(cfg, cfg.objectives, out_dir, jobs, do_drift=False)
    header = output_header(cfg)
    ok = res.ok_by_label()

    acc_lines = [header, "method,dataset,accuracy"]
    for label, group in ok.items():
        if group:
            mean, _ = mean_std([c.accuracy for c in group])
            acc_lines.append(f"{label},{res.dataset},{mean!r}")
    write_lines(os.path.join(out_dir, "accuracy.csv"), acc_lines)

    _write_curves(os.path.join(out_dir, "exaccerr.csv"), header, ok)

    tq_lines = [header, "method,mean_len,rep4,post_answer,multi_answer"]
    for label, group in ok.items():
        if not group:
            continue
        ml, _ = mean_std([c.quality.mean_length for c in group])
        r4, _ = mean_std([c.quality.repeated_4gram_fraction for c in group])
        pa, _ = mean_std([c.quality.post_answer_rate for c in group])
        ma, _ = mean_std([c.quality.multi_answer_rate for c in group])
        tq_lines.append(f"{label},{ml!r},{r4!r},{pa!r},{ma!r}")
    write_lines(os.path.join(out_dir, "trace_quality.csv"), tq_lines)

    sum_lines = [header, "method,n_seeds_ok,accuracy_mean,accuracy_std"]
    for label, group in ok.items():
        mean, std = mean_std([c.accuracy for c in group])
        sum_lines.append(f"{label},{len(group)},{mean!r},{std!r}")
    write_lines(os.path.join(out_dir, "summary.csv"), sum_lines)

    run_lines = [header, "method,seed,status,abort_step,accuracy"]
    for c in res.cells:
        acc = repr(c.accuracy) if c.status == "ok" else ""
        run_lines.append(f"{c.label},{c.seed},{c.status},{c.abort_step if c.status != 'ok' else ''},{acc}")
    write_lines(os.path.join(out_dir, "runs.csv"), run_lines)

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
    res = _run_objectives(cfg, cfg.objectives, out_dir, jobs, do_drift=True)
    header = output_header(cfg)
    _write_curves(os.path.join(out_dir, "drift.csv"), header, res.ok_by_label())

    run_lines = [header, "method,seed,horizon,exaccerr"]
    for c in res.cells:
        if c.status != "ok":
            continue
        for j, h in enumerate(c.exaccerr_curve.horizons):
            run_lines.append(f"{c.label},{c.seed},{h},{float(c.exaccerr_curve.values[j])!r}")
    write_lines(os.path.join(out_dir, "drift_runs.csv"), run_lines)
    return res


@dataclass
class AblationResult:
    rows: list[tuple[str, str, float, float]]
    weight_ranges: dict[str, tuple[float, float]]
    cells: list[CellResult]
    out_dir: str


def run_ablate_weights(cfg: ExperimentConfig, out_dir, jobs: int = 1) -> AblationResult:
    """Correction-weight ablation over the fixed variant set, SFT base only."""
    res = _run_objectives(cfg, [(label, spec) for label, _, spec in ABLATION_VARIANTS], out_dir, jobs, do_drift=False)
    ok = res.ok_by_label()

    rows = []
    weight_ranges: dict[str, tuple[float, float]] = {}
    for label, formula, _ in ABLATION_VARIANTS:
        group = ok[label]
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
    return AblationResult(rows=rows, weight_ranges=weight_ranges, cells=res.cells, out_dir=str(out_dir))


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
