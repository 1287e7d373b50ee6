"""The batched training step against the per-record reference loop in oracles.py.

``train`` scores a whole batch with one forward, one log-softmax and one
backward over rows gathered from corpus arrays built once per study; the
reference scores one record at a time. For tabular students they must agree
byte for byte (parameters and every history row); feed-forward students may
differ in the last digits, because a stacked matrix product rounds
differently from per-record ones.
"""

from dataclasses import astuple

import numpy as np
import pytest

from driftlab import harness, objectives
from driftlab.config import parse_config
from driftlab.objectives import (
    ObjectiveError,
    ObjectiveSpec,
    TraceBatch,
    WeightTransform,
    batch_loss,
    evaluate_objective,
    gkd_step,
    js_sequence_loss,
    record_token_weights,
)
from driftlab.policy import TabularPolicy, finite_difference_check
from driftlab.task import TaskConfig, TeacherSpec, TraceCorpus, generate_corpus, generate_problems, teacher_policy
from driftlab.training import TrainConfig, TrainError, train
from driftlab.vocab import EOS

from oracles import random_feedforward, reference_gkd_step, reference_train, stream

CFG = TaskConfig(modulus=3, chain_length=3)  # vocab size 8
TEACHER = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
# max_len is short enough that some traces stop without EOS; records that
# reach the teacher's sink (a point mass, where reverse KL is infinite) are left out
CORPUS = TraceCorpus(
    [
        r
        for r in generate_corpus(TEACHER, generate_problems(CFG, 37, seed=303), seed=304, max_len=6)
        if (TEACHER.trace_targets([r.question], [r.trace]) >= 0).all()
    ]
)

TRANSFORMS = (
    WeightTransform("constant-one"),
    WeightTransform("sigmoid", tau=2.0),
    WeightTransform("raw-ratio"),
    WeightTransform("clip-exp", clip=1.5),
    WeightTransform("relu"),
    WeightTransform("sequence-sigmoid", tau=0.5, tau_convention="multiply"),
)
SPECS = (
    [ObjectiveSpec("sft", t) for t in TRANSFORMS]
    + [ObjectiveSpec(base, WeightTransform("sigmoid")) for base in ("forward-kl", "reverse-kl", "symmetric-kl")]
    + [ObjectiveSpec("gkd", gkd_lambda=lam, gkd_beta=0.4) for lam in (0.0, 0.5, 1.0)]
)


def spec_id(spec):
    return f"{spec.base}-{spec.gkd_lambda}" if spec.base == "gkd" else f"{spec.base}-{spec.transform.kind}"


def tabular(order, seed=1):
    V = CFG.vocab().size
    return TabularPolicy(CFG.vocab(), order, 0.5 * stream(seed).standard_normal(V ** (order + 1)))


def feedforward(seed=3):
    return random_feedforward(CFG.vocab(), 2, 3, 4, 0.3, stream(seed))


def assert_rel_close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def test_corpus_has_the_batch_shapes_under_test():
    lengths = {len(r.trace) for r in CORPUS}
    assert len(lengths) > 2  # records of different lengths share batches
    assert any(r.truncated for r in CORPUS) and not all(r.truncated for r in CORPUS)
    assert len(CORPUS) % 4  # the last batch of 4 is partial


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("batch_size", (1, 4))
def test_tabular_train_is_byte_identical_to_per_record_loop(order, spec, batch_size):
    cfg = TrainConfig(learning_rate=0.3, epochs=2, batch_size=batch_size, clip_norm=2.0)
    init = tabular(order)
    got, got_history = train(cfg, CORPUS, spec, init, teacher=TEACHER, max_len=6, seed=7)
    want, want_history = reference_train(cfg, CORPUS, spec, init, teacher=TEACHER, max_len=6, seed=7)
    assert np.array_equal(got.params, want.params)
    # repr tells -0.0 from 0.0, as the history file's text does
    assert [repr(astuple(s)) for s in got_history.steps] == [repr(astuple(s)) for s in want_history.steps]
    assert got_history.steps == want_history.steps  # the weight range too


@pytest.mark.parametrize("spec", SPECS[::2], ids=spec_id)
def test_tabular_adam_train_is_byte_identical_to_per_record_loop(spec):
    cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=4, optimizer="adam")
    got, got_history = train(cfg, CORPUS, spec, tabular(2, seed=4), teacher=TEACHER, max_len=6, seed=2)
    want, want_history = reference_train(cfg, CORPUS, spec, tabular(2, seed=4), teacher=TEACHER, max_len=6, seed=2)
    assert np.array_equal(got.params, want.params)
    assert got_history.steps == want_history.steps


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_feedforward_train_matches_per_record_loop(spec):
    cfg = TrainConfig(learning_rate=0.01, epochs=2, batch_size=4, optimizer="adam")
    got, got_history = train(cfg, CORPUS, spec, feedforward(), teacher=TEACHER, max_len=6, seed=7)
    want, want_history = reference_train(cfg, CORPUS, spec, feedforward(), teacher=TEACHER, max_len=6, seed=7)
    assert_rel_close(got.params, want.params)
    for field in ("loss", "grad_norm_pre", "mean_weight", "weight_min", "weight_max"):
        got_values = [getattr(s, field) for s in got_history.steps]
        assert_rel_close(got_values, [getattr(s, field) for s in want_history.steps])


def test_shared_arrays_give_the_same_run_as_arrays_built_in_train():
    spec = ObjectiveSpec("symmetric-kl", WeightTransform("sequence-sigmoid"))
    cfg = TrainConfig(learning_rate=0.3, epochs=1, batch_size=4)
    arrays = TraceBatch.of_corpus(CORPUS, tabular(2), TEACHER)
    shared, _ = train(cfg, CORPUS, spec, tabular(2), teacher=TEACHER, arrays=arrays, seed=5)
    own, _ = train(cfg, CORPUS, spec, tabular(2), teacher=TEACHER, seed=5)
    assert np.array_equal(shared.params, own.params)
    with pytest.raises(ValueError):
        train(cfg, CORPUS, spec, tabular(1), teacher=TEACHER, arrays=arrays, seed=5)  # windows of another order


@pytest.mark.parametrize("make", (lambda: tabular(2), feedforward), ids=("tabular", "feedforward"))
def test_batch_kernel_is_per_record_results_summed_in_order(make):
    policy = make()
    records = [CORPUS.records[i] for i in (4, 0, 9)]
    batch = TraceBatch.of_corpus(TraceCorpus(records), policy, TEACHER)
    rel = 0.0 if isinstance(policy, TabularPolicy) else 1e-12
    for spec in [s for s in SPECS if s.base != "gkd"]:
        got = batch_loss(policy, batch, spec, TEACHER)
        loss, grad = 0.0, np.zeros_like(policy.params)
        for record in records:
            one = evaluate_objective(policy, record, spec, TEACHER)
            loss += one.loss
            grad += one.grad
        assert_rel_close(got.loss, loss, rel)
        assert_rel_close(got.grad, grad, rel)
        assert np.array_equal(
            got.token_weights, np.concatenate([record_token_weights(policy, r, spec.transform) for r in records])
        )
    # the online base: every sequence is drawn first, then all are scored at once
    result, used = gkd_step(policy, TEACHER, records, 0.5, 0.3, stream(11).random(len(records) * 7), max_len=6)
    loss, grad = 0.0, np.zeros_like(policy.params)
    for record, (_, supervision) in zip(records, used):
        one_loss, one_grad = js_sequence_loss(policy, TEACHER, record.question, supervision, 0.3)
        loss += one_loss
        grad += one_grad
    assert_rel_close(result.loss, loss, rel)
    assert_rel_close(result.grad, grad, rel)


def assert_gkd_step_is_reference(policy, records, gkd_lambda, seed, max_len=6, n_uniforms=None):
    """gkd_step on a tabular student, given the first ``n_uniforms`` (by
    default B * (1 + max_len), what ``train`` draws for a step) uniforms of
    stream(seed), equals byte for byte the per-record oracle drawing from that
    stream; returns the sources used."""
    uniforms = stream(seed).random(len(records) * (1 + max_len) if n_uniforms is None else n_uniforms)
    result, used = gkd_step(policy, TEACHER, records, gkd_lambda, 0.4, uniforms, max_len=max_len)
    loss, grad, _ = reference_gkd_step(policy, TEACHER, records, gkd_lambda, 0.4, stream(seed), max_len)
    assert result.loss == loss
    assert np.array_equal(result.grad, grad)
    return used


def test_gkd_step_at_lambda_zero_draws_only_the_sources(monkeypatch):
    def no_rollouts(*args, **kwargs):
        raise AssertionError("no record is student-sourced, so no rollout is made")

    monkeypatch.setattr(objectives, "rollouts", no_rollouts)
    records = CORPUS.records[:5]
    # given only the B source uniforms: a read past them would fail
    used = assert_gkd_step_is_reference(tabular(1), records, 0.0, seed=21, n_uniforms=len(records))
    assert used == [("teacher", r.trace) for r in records]


def test_gkd_step_at_lambda_one_rolls_out_every_record():
    records = CORPUS.records[:5]
    # given exactly B * (1 + max_len) uniforms, all of which the step reads
    used = assert_gkd_step_is_reference(tabular(1), records, 1.0, seed=22, max_len=6)
    assert [src for src, _ in used] == ["student"] * len(records)


def test_gkd_step_rows_that_stop_at_once_and_that_never_stop():
    # an order-1 table whose row for one question's last token puts all its
    # mass on EOS, and whose other rows put none on EOS or on that token: the
    # first record's rollout is EOS alone, the second's runs to max_len
    quick, slow = next(
        (a, b) for a in CORPUS.records for b in CORPUS.records if a.question.tokens[-1] != b.question.tokens[-1]
    )
    last, V = quick.question.tokens[-1], CFG.vocab().size
    logits = np.zeros((V, V))
    logits[:, [EOS, last]] = -60.0
    logits[last] = -60.0
    logits[last, EOS] = 60.0
    used = assert_gkd_step_is_reference(TabularPolicy(CFG.vocab(), 1, logits.ravel()), [quick, slow], 1.0, seed=23)
    assert [src for src, _ in used] == ["student", "student"]
    assert used[0][1].tokens == (EOS,)
    assert len(used[1][1]) == 6 and EOS not in used[1][1].tokens


@pytest.mark.parametrize("make, tol", ((lambda: tabular(1), 1e-6), (feedforward, 1e-4)), ids=("tabular", "feedforward"))
@pytest.mark.parametrize(
    "spec", [s for s in SPECS if s.transform.kind in ("sigmoid", "sequence-sigmoid") or s.gkd_lambda == 0.5], ids=spec_id
)
def test_batch_kernel_gradient_matches_finite_differences(make, tol, spec):
    policy = make()
    records = [CORPUS.records[i] for i in (2, 7, 12)]
    batch = TraceBatch.of_corpus(TraceCorpus(records), policy, TEACHER)
    weights = batch_loss(policy, batch, spec, TEACHER).token_weights

    def evaluator(p):
        result = batch_loss(p, batch, spec, TEACHER, weights=weights)
        return result.loss, result.grad

    assert finite_difference_check(policy, evaluator, h=1e-5) < tol


def test_take_gathers_records_in_the_given_order():
    arrays = TraceBatch.of_corpus(CORPUS, tabular(2), TEACHER)
    picked = np.array([5, 0, 17, 3])
    got = arrays.take(picked)
    want = TraceBatch.of_corpus(TraceCorpus([CORPUS.records[i] for i in picked]), tabular(2), TEACHER)
    for name in ("offsets", "tokens", "windows", "teacher_logps", "teacher_targets"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    for b, i in enumerate(picked):
        assert got.tokens[got.offsets[b] : got.offsets[b + 1]].tolist() == list(CORPUS.records[i].trace)
    assert np.array_equal(got.row_records, np.repeat(np.arange(4), [len(CORPUS.records[i].trace) for i in picked]))


def test_batches_need_the_students_windows_and_the_teachers_targets():
    # a batch built without the student has no windows, one built without the
    # teacher no targets, and nothing falls back to scanning its records
    spec = ObjectiveSpec("forward-kl")
    cfg = TrainConfig(epochs=1, batch_size=4)
    with pytest.raises(ObjectiveError, match="no context windows"):
        batch_loss(tabular(2), TraceBatch.of_corpus(CORPUS, teacher=TEACHER), spec, TEACHER)
    arrays = TraceBatch.of_corpus(CORPUS, tabular(2))
    assert arrays.teacher_targets is None
    with pytest.raises(ObjectiveError, match="no teacher targets"):
        batch_loss(tabular(2), arrays.take(np.arange(3)), spec, TEACHER)
    with pytest.raises(TrainError, match="built with the teacher"):
        train(cfg, CORPUS, spec, tabular(2), teacher=TEACHER, arrays=arrays, seed=0)
    train(cfg, CORPUS, ObjectiveSpec("sft"), tabular(2), arrays=arrays, seed=0)  # SFT reads no targets


SMALL_STUDY = """
[task]
modulus = 3
chain_length = 2
n_problems = 40
max_len = 10
corpus_seed = 5

[train]
epochs = 1
order = 2
seeds = 0,1

[objective.sft]
base = SFT

[objective.fkl]
base = forward-kl
transform = sigmoid

[eval]
horizons = 2,4
eval_size = 10
drift_problems = 8
"""


def test_corpus_arrays_are_built_once_per_study(tmp_path, monkeypatch):
    builds = []
    real = TraceBatch.of_corpus.__func__

    def counting(cls, *args, **kwargs):
        builds.append(1)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(TraceBatch, "of_corpus", classmethod(counting))
    cfg = parse_config(SMALL_STUDY)
    harness.run_gen_corpus(cfg, tmp_path)
    res = harness.run_matrix(cfg, tmp_path)
    assert len(res.cells) == 4 and all(c.status == "ok" for c in res.cells)
    assert len(builds) == 1
