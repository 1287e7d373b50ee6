"""Objective-layer contracts: transforms, stop-gradient weighting, divergences."""

import math

import numpy as np
import pytest

from driftlab.objectives import (
    CONSTANT_ONE,
    ObjectiveError,
    ObjectiveSpec,
    WeightTransform,
    apply_transform,
    evaluate_objective,
    frozen_weight_evaluator,
    gkd_step,
    js_sequence_loss,
    nce_identity_residual,
    record_token_weights,
    sequence_weight,
    sft_loss,
    sft_loss_frozen,
    token_delta,
)
from driftlab.policy import (
    ParametricPolicy,
    TabularPolicy,
    finite_difference_check,
    rollouts,
)
from driftlab.task import TaskConfig, TeacherSpec, generate_corpus, generate_problems, teacher_policy
from driftlab.vocab import BOS

from oracles import random_feedforward

CFG = TaskConfig(modulus=3, chain_length=2)  # vocab size 8
TEACHER = teacher_policy(TeacherSpec(0.1, 0.3), CFG)


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def step_uniforms(seed, n_records, max_len):
    """What ``train`` hands ``gkd_step`` for a step of n records: the first
    uniforms of one stream, enough for the sources and a full token block."""
    return rng_of(seed).random(n_records * (1 + max_len))


def small_corpus(n=4, seed=100):
    problems = generate_problems(CFG, n, seed=seed)
    return generate_corpus(TEACHER, problems, seed=seed + 1, max_len=12)


def random_tabular(seed=0, scale=0.5):
    vocab = CFG.vocab()
    return TabularPolicy(vocab, 1, scale * rng_of(seed).standard_normal(vocab.size**2))


def random_ff(seed=0):
    return random_feedforward(CFG.vocab(), 2, 2, 3, 0.3, rng_of(seed))


class TeacherCopy(ParametricPolicy):
    """A student with the teacher's exact conditionals. Its order spans every
    context under test, so each window holds a whole BOS-padded prefix; its
    backward adds each token's summed |d loss / d logit|, so a zero gradient
    means that every row's logit gradient vanishes."""

    family = "teacher-copy"

    def __init__(self, teacher, order=24):
        self.teacher, self.vocab, self.order = teacher, teacher.vocab, order
        self.params = np.zeros(teacher.vocab.size)

    def forward(self, windows):
        starts = (windows != BOS).argmax(axis=1) - 1  # the question's BOS ends the leading run
        dists = [self.teacher.next_token_distribution(window[start:]) for window, start in zip(windows, starts)]
        with np.errstate(divide="ignore"):
            return np.log(np.reshape(dists, (-1, self.vocab.size))), None

    def backward(self, cache, dlogits, buf, row_records=None):
        buf += np.abs(dlogits).sum(axis=0)


def test_token_delta_examples():
    assert token_delta(-1.0, -1.0) == 0.0
    assert np.isclose(token_delta(math.log(0.8), math.log(0.2)), math.log(4), atol=1e-12)
    assert np.isclose(token_delta(math.log(0.1), math.log(0.9)), -math.log(9), atol=1e-12)
    with pytest.raises(ObjectiveError):
        token_delta(float("-inf"), -1.0)


def test_transform_values():
    sig = WeightTransform("sigmoid", tau=2.0)
    assert apply_transform(0.0, sig) == 0.5
    # unit-temperature identity: sigmoid(log(a/b)) = a/(a+b)
    sig1 = WeightTransform("sigmoid", tau=1.0)
    delta = math.log(0.8) - math.log(0.2)
    assert np.isclose(apply_transform(delta, sig1), 0.8, atol=1e-12)
    clip = WeightTransform("clip-exp", clip=5.0)
    assert np.isclose(apply_transform(10.0, clip), math.exp(5.0), atol=1e-9)
    raw = WeightTransform("raw-ratio")
    assert apply_transform(0.0, raw) == 1.0
    relu = WeightTransform("relu")
    assert apply_transform(-1.0, relu) == 0.0 and apply_transform(2.5, relu) == 2.5
    assert apply_transform(123.0, CONSTANT_ONE) == 1.0


def test_tau_conventions_differ():
    div = WeightTransform("sigmoid", tau=4.0, tau_convention="divide")
    mul = WeightTransform("sigmoid", tau=4.0, tau_convention="multiply")
    d = 1.0
    assert np.isclose(apply_transform(d, div), 1 / (1 + math.exp(-0.25)), atol=1e-12)
    assert np.isclose(apply_transform(d, mul), 1 / (1 + math.exp(-4.0)), atol=1e-12)
    one = WeightTransform("sigmoid", tau=1.0)
    assert apply_transform(d, one) == apply_transform(d, WeightTransform("sigmoid", tau=1.0, tau_convention="multiply"))


def test_transform_bounds_and_monotonicity():
    rng = rng_of(8)
    deltas = np.sort(rng.uniform(-20, 20, size=200))
    for transform, lo, hi in (
        (WeightTransform("sigmoid", tau=2.0), 0.0, 1.0),
        (WeightTransform("clip-exp", clip=5.0), math.exp(-5.0), math.exp(5.0)),
        (WeightTransform("relu"), 0.0, float("inf")),
    ):
        ws = [apply_transform(float(d), transform) for d in deltas]
        assert all(lo <= w <= hi for w in ws)
        assert all(b - a >= 0 for a, b in zip(ws, ws[1:]))  # monotone non-decreasing


def test_sequence_weight_properties():
    sig = WeightTransform("sequence-sigmoid", tau=1.0)
    assert sequence_weight([0.0, 0.0, 0.0], sig) == 0.5
    ws = [sequence_weight([-0.5] * n, sig) for n in range(1, 65)]
    assert all(b < a for a, b in zip(ws, ws[1:]))  # strictly decreasing in length
    assert ws[-1] < 0.01
    single = sequence_weight([-1.3], sig)
    assert np.isclose(single, apply_transform(-1.3, WeightTransform("sigmoid", tau=1.0)), atol=1e-15)


def test_nce_identity():
    assert nce_identity_residual(0.5, 0.5) == 0.0
    assert nce_identity_residual(0.8, 0.2) < 1e-15
    rng = rng_of(99)
    worst = max(
        nce_identity_residual(float(a), float(b))
        for a, b in zip(rng.uniform(1e-9, 1 - 1e-9, 10_000), rng.uniform(1e-9, 1 - 1e-9, 10_000))
    )
    assert worst < 1e-12


def test_constant_one_reproduces_plain_sft_gradient():
    # oracle: unweighted softmax-gradient accumulation written from scratch
    corpus = small_corpus(n=6, seed=7)
    pol = random_tabular(1)
    V = CFG.vocab().size
    for record in corpus:
        res = sft_loss(pol, record, CONSTANT_ONE)
        oracle = np.zeros_like(pol.params)
        ctx = list(record.question.tokens)
        loss = 0.0
        for tok in record.trace.tokens:
            probs = pol.next_token_distribution(ctx)
            loss -= math.log(probs[tok])
            row = pol.context_index(ctx)
            oracle[row * V : (row + 1) * V] += probs
            oracle[row * V + tok] -= 1.0
            ctx.append(tok)
        assert np.max(np.abs(res.grad - oracle)) < 1e-12
        assert abs(res.loss - loss) < 1e-10
        assert np.all(res.token_weights == 1.0)


def test_student_equals_teacher_gives_half_weights():
    # student with the teacher's exact conditionals: every delta is 0
    corpus = small_corpus(n=3, seed=11)
    weights = record_token_weights(TeacherCopy(TEACHER), corpus.records[0], WeightTransform("sigmoid", tau=1.0))
    assert np.allclose(weights, 0.5, atol=1e-12)


def test_sft_gradient_matches_frozen_finite_differences():
    corpus = small_corpus(n=2, seed=19)
    record = corpus.records[0]
    for maker, tol in ((lambda: random_tabular(3), 1e-6), (random_ff, 1e-4)):
        pol = maker()
        weights = record_token_weights(pol, record, WeightTransform("sigmoid", tau=1.0))
        spec = ObjectiveSpec("sft")
        evaluator = frozen_weight_evaluator(record, spec, weights=weights)
        assert finite_difference_check(pol, evaluator, h=1e-5) < tol


def test_stop_gradient_contract():
    # perturbing parameters changes the weights, but the gradient returned at
    # the base point must be the frozen-weight gradient
    corpus = small_corpus(n=1, seed=23)
    record = corpus.records[0]
    pol = random_tabular(29)
    transform = WeightTransform("sigmoid", tau=1.0)
    live = sft_loss(pol, record, transform)
    frozen = sft_loss_frozen(pol, record, record_token_weights(pol, record, transform))
    assert np.array_equal(live.grad, frozen.grad)
    other = pol.clone()
    other.params += 0.2 * rng_of(5).standard_normal(other.params.size)
    w_other = record_token_weights(other, record, transform)
    assert not np.allclose(w_other, live.token_weights)  # weights do move


def test_kl_zero_when_student_equals_teacher():
    cfg = TaskConfig(modulus=3, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.2, 0.5), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 2, seed=31), seed=32, max_len=8)
    mimic = TeacherCopy(teacher)
    for record in corpus:
        for base in ("forward-kl", "reverse-kl", "symmetric-kl"):
            res = evaluate_objective(mimic, record, ObjectiveSpec(base), teacher)
            assert abs(res.loss) < 1e-12
            assert np.max(np.abs(res.grad)) < 1e-12


def test_forward_kl_value_matches_direct_summation():
    # teacher (0.9, 0.1/9, ...) vs uniform student over 10 tokens
    cfg = TaskConfig(modulus=5, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    vocab = cfg.vocab()
    corpus = generate_corpus(teacher, generate_problems(cfg, 1, seed=41), seed=42, max_len=8)
    record = corpus.records[0]
    uniform = TabularPolicy(vocab, 1)
    res = evaluate_objective(uniform, record, ObjectiveSpec("forward-kl"), teacher)
    # oracle: direct sum p log(p/q) per position at 64-bit
    expected = 0.0
    ctx = list(record.question.tokens)
    for tok in record.trace.tokens:
        p = teacher.next_token_distribution(ctx)
        q = 1.0 / vocab.size
        expected += sum(pi * math.log(pi / q) for pi in p if pi > 0)
        ctx.append(tok)
    assert abs(res.loss - expected) < 1e-12


def test_symmetric_is_mean_of_directions():
    corpus = small_corpus(n=3, seed=47)
    pol = random_tabular(53)
    for record in corpus:
        f = evaluate_objective(pol, record, ObjectiveSpec("forward-kl"), TEACHER)
        r = evaluate_objective(pol, record, ObjectiveSpec("reverse-kl"), TEACHER)
        s = evaluate_objective(pol, record, ObjectiveSpec("symmetric-kl"), TEACHER)
        assert abs(s.loss - 0.5 * (f.loss + r.loss)) < 1e-12
        assert np.max(np.abs(s.grad - 0.5 * (f.grad + r.grad))) < 1e-12


def test_kl_gradients_match_finite_differences():
    corpus = small_corpus(n=1, seed=59)
    record = corpus.records[0]
    for direction in ("forward", "reverse", "symmetric"):
        for maker, tol in ((lambda: random_tabular(61), 1e-6), (lambda: random_ff(62), 1e-4)):
            pol = maker()
            weights = record_token_weights(pol, record, WeightTransform("sigmoid", tau=1.0))
            base = {"forward": "forward-kl", "reverse": "reverse-kl", "symmetric": "symmetric-kl"}[direction]
            evaluator = frozen_weight_evaluator(record, ObjectiveSpec(base), teacher=TEACHER, weights=weights)
            assert finite_difference_check(pol, evaluator, h=1e-5) < tol


def test_gkd_lambda_zero_beta_one_is_forward_kl():
    corpus = small_corpus(n=3, seed=67)
    pol = random_tabular(71)
    # at lambda 0 only the source uniforms are read
    result, used = gkd_step(pol, TEACHER, corpus.records, 0.0, 1.0, rng_of(5).random(len(corpus)), max_len=12)
    assert all(src == "teacher" for src, _ in used)
    expected = 0.0
    grad = np.zeros_like(pol.params)
    for record in corpus:
        res = evaluate_objective(pol, record, ObjectiveSpec("forward-kl"), TEACHER)
        expected += res.loss
        grad += res.grad
    assert abs(result.loss - expected) < 1e-10
    assert np.max(np.abs(result.grad - grad)) < 1e-10


def test_gkd_zero_when_matched():
    cfg = TaskConfig(modulus=3, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.2, 0.5), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 2, seed=73), seed=74, max_len=8)
    for lam, beta in ((0.0, 0.5), (1.0, 0.25), (0.7, 0.9)):
        uniforms = step_uniforms(3, len(corpus), 8)
        result, _ = gkd_step(TeacherCopy(teacher), teacher, corpus.records, lam, beta, uniforms, max_len=8)
        assert abs(result.loss) < 1e-12
        assert np.max(result.grad) < 1e-12


def test_gkd_student_rollout_replays_with_same_seed():
    records = small_corpus(n=6, seed=79).records
    pol = random_tabular(83)
    seed, lam, max_len = 1234, 0.5, 12
    uniforms = step_uniforms(seed, len(records), max_len)
    result, used = gkd_step(pol, TEACHER, records, lam, 0.5, uniforms, max_len=max_len)
    rerun, rerun_used = gkd_step(pol, TEACHER, records, lam, 0.5, uniforms.copy(), max_len=max_len)
    assert rerun.loss == result.loss and np.array_equal(rerun.grad, result.grad)
    assert [(src, seq.tokens) for src, seq in rerun_used] == [(src, seq.tokens) for src, seq in used]
    # replay: all B source uniforms in one call, then one (S, max_len) block of
    # token uniforms for the S student-sourced records, each rolled out alone
    rng = rng_of(seed)
    student = rng.random(len(records)) < lam
    assert 0 < student.sum() < len(records)  # the sources are mixed
    assert [src for src, _ in used] == ["student" if s else "teacher" for s in student]
    block = iter(rng.random((student.sum(), max_len)))
    for record, from_student, (_, seq) in zip(records, student, used):
        want = record.trace
        if from_student:
            want = rollouts(pol, [record.question], max_len, uniforms=next(block)[None, :]).traces[0]
        assert seq.tokens == want.tokens


def test_gkd_js_gradient_matches_finite_differences():
    corpus = small_corpus(n=1, seed=89)
    record = corpus.records[0]
    for beta in (0.0, 0.3, 0.5, 1.0):
        for maker, tol in ((lambda: random_tabular(97), 1e-6), (lambda: random_ff(98), 1e-4)):
            pol = maker()

            def evaluator(p, beta=beta):
                loss, grad = js_sequence_loss(p, TEACHER, record.question, record.trace, beta)
                return loss, grad

            assert finite_difference_check(pol, evaluator, h=1e-5) < tol


def test_sequence_sigmoid_loss_matches_manual():
    corpus = small_corpus(n=1, seed=101)
    record = corpus.records[0]
    pol = random_tabular(103)
    transform = WeightTransform("sequence-sigmoid", tau=1.0)
    res = sft_loss(pol, record, transform)
    ctx = list(record.question.tokens)
    logps = []
    for tok in record.trace.tokens:
        logps.append(float(pol.log_next_token_distribution(ctx)[tok]))
        ctx.append(tok)
    deltas = [lp - tl for lp, tl in zip(logps, record.teacher_token_logps)]
    w = 1.0 / (1.0 + math.exp(sum(deltas)))
    w = 1.0 - w  # sigma(sum)
    assert np.allclose(res.token_weights, w, atol=1e-12)
    assert abs(res.loss - (-w * sum(logps))) < 1e-10


def test_evaluate_objective_requires_teacher_for_kl():
    corpus = small_corpus(n=1, seed=107)
    with pytest.raises(ObjectiveError):
        evaluate_objective(random_tabular(1), corpus.records[0], ObjectiveSpec("forward-kl"))
