"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional criteria
(5 and 6) train the default five-seed experiment once in a shared fixture and
both assert on its outputs; everything else is exact or tolerance-pinned.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest

from driftlab.config import default_config, parse_config
from driftlab.harness import (
    run_ablate_weights,
    run_drift,
    run_gen_corpus,
    run_matrix,
)
from driftlab.metrics import exaccerr_exact, trace_quality
from driftlab.objectives import (
    CONSTANT_ONE,
    ObjectiveSpec,
    WeightTransform,
    apply_transform,
    frozen_weight_evaluator,
    nce_identity_residual,
    record_token_weights,
    sequence_weight,
    sft_loss,
)
from driftlab.policy import TabularPolicy, finite_difference_check
from driftlab.task import (
    TaskConfig,
    TeacherSpec,
    filter_teacher_correct,
    generate_corpus,
    generate_problems,
    teacher_policy,
)

from oracles import hand_fixture_traces, micro_instance, oracle_curve, random_feedforward


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


# ---------------------------------------------------------------------------
# shared small-task fixtures for the exact criteria

GRAD_CFG = TaskConfig(modulus=3, chain_length=2)
GRAD_TEACHER = teacher_policy(TeacherSpec(0.1, 0.3), GRAD_CFG)


def grad_record(seed=301):
    problems = generate_problems(GRAD_CFG, 1, seed=seed)
    corpus = generate_corpus(GRAD_TEACHER, problems, seed=seed + 1, max_len=12)
    return corpus.records[0]


OBJECTIVE_MENU = [
    ("sft", ObjectiveSpec("sft", CONSTANT_ONE)),
    ("sft+sigmoid_t1", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=1.0))),
    ("sft+sigmoid_t2", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=2.0))),
    ("sft+sigmoid_t4", ObjectiveSpec("sft", WeightTransform("sigmoid", tau=4.0))),
    ("sft+raw", ObjectiveSpec("sft", WeightTransform("raw-ratio"))),
    ("sft+clipexp5", ObjectiveSpec("sft", WeightTransform("clip-exp", clip=5.0))),
    ("sft+relu", ObjectiveSpec("sft", WeightTransform("relu"))),
    ("sft+seq_sigmoid", ObjectiveSpec("sft", WeightTransform("sequence-sigmoid", tau=1.0))),
    ("forward_kl", ObjectiveSpec("forward-kl", CONSTANT_ONE)),
    ("reverse_kl", ObjectiveSpec("reverse-kl", CONSTANT_ONE)),
    ("symmetric_kl", ObjectiveSpec("symmetric-kl", CONSTANT_ONE)),
    ("kl+sigmoid", ObjectiveSpec("forward-kl", WeightTransform("sigmoid", tau=1.0))),
    ("symkl+sigmoid", ObjectiveSpec("symmetric-kl", WeightTransform("sigmoid", tau=1.0))),
]


def test_criterion_01_gradient_correctness():
    """Every objective's analytic gradient matches frozen-weight differences."""
    start = time.perf_counter()
    record = grad_record()
    vocab = GRAD_CFG.vocab()
    failures = []
    for name, spec in OBJECTIVE_MENU:
        for family, make, tol in (
            ("tabular", lambda: TabularPolicy(vocab, 1, 0.4 * rng_of(17).standard_normal(vocab.size**2)), 1e-6),
            ("feedforward", lambda: random_feedforward(vocab, 2, 2, 3, 0.3, rng_of(18)), 1e-4),
        ):
            policy = make()
            weights = record_token_weights(policy, record, spec.transform)
            evaluator = frozen_weight_evaluator(record, spec, teacher=GRAD_TEACHER, weights=weights)
            err = finite_difference_check(policy, evaluator, h=1e-5)
            if err >= tol:
                failures.append((name, family, err))
    elapsed = time.perf_counter() - start
    assert not failures, f"gradient mismatches: {failures}"
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"
    report(1, f"{len(OBJECTIVE_MENU)} objectives x 2 families finite-difference clean in {elapsed:.1f}s")


def test_criterion_02_nce_identity():
    start = time.perf_counter()
    rng = rng_of(99)
    ps = rng.uniform(1e-9, 1.0 - 1e-9, 10_000)
    pt = rng.uniform(1e-9, 1.0 - 1e-9, 10_000)
    worst = max(nce_identity_residual(float(a), float(b)) for a, b in zip(ps, pt))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    report(2, f"max posterior-identity residual {worst:.2e} over 10^4 pairs in {elapsed:.2f}s")


def test_criterion_03_constant_one_reduces_to_plain_sft():
    cfg = TaskConfig(modulus=5, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    problems = generate_problems(cfg, 100, seed=31)
    corpus = generate_corpus(teacher, problems, seed=32, max_len=16)
    vocab = cfg.vocab()
    V = vocab.size
    worst = 0.0
    for i, record in enumerate(corpus):
        policy = TabularPolicy(vocab, 1, 0.5 * rng_of(1000 + i).standard_normal(V**2))
        res = sft_loss(policy, record, CONSTANT_ONE)
        # independent unweighted gradient accumulation
        oracle = np.zeros(V * V)
        ctx = list(record.question.tokens)
        for tok in record.trace.tokens:
            probs = policy.next_token_distribution(ctx)
            row = policy.context_index(ctx)
            oracle[row * V : (row + 1) * V] += probs
            oracle[row * V + tok] -= 1.0
            ctx.append(tok)
        worst = max(worst, float(np.max(np.abs(res.grad - oracle))))
    assert worst < 1e-12
    report(3, f"constant-one gradients equal plain supervision on 100 records (max |diff| {worst:.2e})")


def test_criterion_04_sequence_weight_length_bias():
    transform = WeightTransform("sequence-sigmoid", tau=1.0)
    token_transform = WeightTransform("sigmoid", tau=1.0)
    delta = -0.5
    seq_weights = [sequence_weight([delta] * n, transform) for n in range(1, 65)]
    assert all(b < a for a, b in zip(seq_weights, seq_weights[1:])), "not strictly decreasing"
    assert seq_weights[-1] < 0.01
    target = 1.0 / (1.0 + math.exp(0.5))
    for n in range(1, 65):
        mean_token = float(np.mean([apply_transform(delta, token_transform)] * n))
        assert abs(mean_token - target) < 1e-12
    report(4, f"sequence weight falls {seq_weights[0]:.3f} -> {seq_weights[-1]:.2e} while token mean stays {target:.3f}")


# ---------------------------------------------------------------------------
# default five-seed experiment shared by criteria 5 and 6


@pytest.fixture(scope="module")
def default_experiment(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("default_experiment"))
    cfg = default_config()
    start = time.perf_counter()
    run_gen_corpus(cfg, out)
    result = run_drift(cfg, out)
    elapsed = time.perf_counter() - start
    return cfg, result, elapsed


def test_criterion_05_drift_growth_reduced(default_experiment):
    cfg, result, elapsed = default_experiment
    by = result.by_label()
    assert set(by) == {"sft", "sigmoid_t1"}
    wins = 0
    margins = []
    for sft_cell, sig_cell in zip(by["sft"], by["sigmoid_t1"]):
        assert sft_cell.seed == sig_cell.seed
        g_sft = sft_cell.exaccerr_curve.values[-1] - sft_cell.exaccerr_curve.values[0]
        g_sig = sig_cell.exaccerr_curve.values[-1] - sig_cell.exaccerr_curve.values[0]
        margins.append(float(g_sig - g_sft))
        if g_sig < g_sft:
            wins += 1
    assert wins >= 4, f"drift growth smaller in only {wins}/5 seeds (margins {margins})"
    assert elapsed < 600.0, f"experiment took {elapsed:.0f}s"
    report(5, f"drift growth smaller with the sigmoid correction in {wins}/5 seeds "
              f"(mean margin {np.mean(margins):+.2f}), {elapsed:.0f}s total")


def test_criterion_06_accuracy_ordering(default_experiment):
    cfg, result, elapsed = default_experiment
    assert cfg.train.family == "tabular" and cfg.train.order == 1
    assert cfg.teacher.instructed and cfg.teacher.epsilon == cfg.teacher.epsilon_instructed
    by = result.by_label()
    wins = 0
    pairs = []
    for sft_cell, sig_cell in zip(by["sft"], by["sigmoid_t1"]):
        pairs.append((sft_cell.accuracy, sig_cell.accuracy))
        if sig_cell.accuracy >= sft_cell.accuracy:
            wins += 1
    assert wins >= 4, f"accuracy ordering held in only {wins}/5 seeds (pairs {pairs})"
    assert elapsed < 600.0
    report(6, f"held-out accuracy sigmoid >= plain in {wins}/5 seeds "
              f"(mean {np.mean([b for _, b in pairs]):.4f} vs {np.mean([a for a, _ in pairs]):.4f})")


def test_criterion_07_filtering_contract():
    cfg = TaskConfig(modulus=7, chain_length=4)
    problems = generate_problems(cfg, 400, seed=71)
    noiseless = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    clean = generate_corpus(noiseless, problems, seed=72, max_len=24)
    kept, stats = filter_teacher_correct(clean)
    assert stats.retention_rate == 1.0 and len(kept) == len(clean)

    noisy = teacher_policy(TeacherSpec(0.2, 0.5), cfg)
    corpus = generate_corpus(noisy, problems, seed=73, max_len=24)
    kept, stats = filter_teacher_correct(corpus)
    assert stats.n_retained < stats.n_input  # the noisy teacher does miss
    assert sum(1 for r in kept if not r.teacher_correct) == 0
    report(7, f"noiseless corpus retains 100%; noisy filter keeps {stats.n_retained}/{stats.n_input} with 0 incorrect")


def test_criterion_08_metric_oracles():
    question, teacher, student = micro_instance()
    horizons = (1, 2, 3)
    curve = exaccerr_exact(teacher, student, question, horizons, max_len=3)
    expected = oracle_curve(question, teacher, student, horizons, max_len=3)
    err = float(np.max(np.abs(curve.values - np.array(expected))))
    assert err < 1e-9

    traces, stats = hand_fixture_traces()
    got = trace_quality(traces)
    assert abs(got.mean_length - stats["mean_length"]) < 1e-12
    assert abs(got.repeated_4gram_fraction - stats["repeated_4gram_fraction"]) < 1e-12
    assert got.post_answer_rate == stats["post_answer_rate"]
    assert got.multi_answer_rate == stats["multi_answer_rate"]
    report(8, f"drift curve matches rollout-tree enumeration (max err {err:.1e}); trace stats match hand values")


SMALL_MATRIX_CONFIG = """
[task]
modulus = 5
chain_length = 2
n_problems = 150
max_len = 16
corpus_seed = 91

[teacher]
epsilon_instructed = 0.05
epsilon_plain = 0.3

[train]
learning_rate = 0.2
epochs = 1
batch_size = 16
seeds = 0,1

[objective.sft]
base = SFT
transform = constant-one

[objective.sigmoid_t1]
base = SFT
transform = sigmoid
tau = 1.0

[eval]
horizons = 2,4,8
eval_size = 80
drift_problems = 40
eval_seed = 13
"""


def test_criterion_09_matrix_determinism(tmp_path):
    cfg = parse_config(SMALL_MATRIX_CONFIG)
    hashes = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        run_gen_corpus(cfg, out)
        run_matrix(cfg, out)
        digest = {}
        for name in ("accuracy.csv", "exaccerr.csv", "trace_quality.csv", "summary.csv", "runs.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                digest[name] = hashlib.sha256(fh.read()).hexdigest()
        hashes.append(digest)
    assert hashes[0] == hashes[1], "rerun produced different CSV bytes"
    report(9, f"two independent matrix runs produced byte-identical CSVs ({len(hashes[0])} files)")


def test_criterion_10_ablation_variants_and_clip_bounds(tmp_path):
    cfg = parse_config(SMALL_MATRIX_CONFIG)
    out = str(tmp_path / "ablate")
    run_gen_corpus(cfg, out)
    result = run_ablate_weights(cfg, out)
    labels = [row[0] for row in result.rows]
    assert labels == ["sft", "sigmoid_t1", "sigmoid_t2", "sigmoid_t4", "raw", "clipexp_c5", "relu"]
    with open(os.path.join(result.out_dir, "ablate_weights.csv")) as fh:
        lines = [line for line in fh.read().splitlines() if line and not line.startswith("#")]
    assert lines[0] == "variant,weight_formula,accuracy_mean,accuracy_std"
    assert len(lines) == 1 + 7
    lo, hi = result.weight_ranges["clipexp_c5"]
    assert math.exp(-5.0) - 1e-12 <= lo and hi <= math.exp(5.0) + 1e-12
    sigmoid_lo, sigmoid_hi = result.weight_ranges["sigmoid_t1"]
    assert 0.0 < sigmoid_lo and sigmoid_hi < 1.0
    assert result.weight_ranges["sft"] == (1.0, 1.0)
    report(10, f"ablation emits the seven fixed variants; clipexp weights within [e^-5, e^5] "
               f"(observed [{lo:.4f}, {hi:.4f}])")
