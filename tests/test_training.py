"""Training-loop contracts: clipping, schedule, determinism, optimizer math."""

import math

import numpy as np
import pytest

from driftlab.config import config_hash, default_config
from driftlab.harness import save_cell
from driftlab.objectives import ObjectiveSpec, WeightTransform, sft_loss
from driftlab.policy import TabularPolicy
from driftlab.task import TaskConfig, TeacherSpec, generate_corpus, generate_problems, teacher_policy
from driftlab.training import (
    OptimizerState,
    RunHistory,
    StepRecord,
    TrainAbortError,
    TrainConfig,
    TrainError,
    _apply_update,
    clip_global_norm,
    lr_at,
    train,
)

CFG = TaskConfig(modulus=5, chain_length=2)
TEACHER = teacher_policy(TeacherSpec(0.05, 0.3), CFG)


def make_corpus(n=32, seed=1):
    problems = generate_problems(CFG, n, seed=seed)
    return generate_corpus(TEACHER, problems, seed=seed + 1, max_len=16)


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_clip_noop_on_zero_gradient():
    buf = np.zeros(5)
    assert clip_global_norm(buf, 1.0) == 0.0
    assert not buf.any()


def test_clip_scales_to_bound():
    buf = np.array([2.0, 0.0])
    pre = clip_global_norm(buf, 1.0)
    assert pre == 2.0
    assert np.isclose(np.linalg.norm(buf), 1.0, atol=1e-15)


def test_clip_random_gradients():
    # oracle: direct norm computation
    for seed in range(5):
        g = rng_of(seed).standard_normal(40)
        buf = g.copy()
        pre = clip_global_norm(buf, 1.0)
        assert abs(pre - np.linalg.norm(g)) < 1e-12
        assert abs(np.linalg.norm(buf) - min(pre, 1.0)) < 1e-12


def test_clip_rejects_nonfinite():
    with pytest.raises(Exception):
        clip_global_norm(np.array([np.nan]), 1.0)


def test_lr_schedule_boundaries():
    cfg = TrainConfig(learning_rate=0.4, warmup_fraction=0.1)
    total = 100
    # first step gets lr / warmup_steps, by convention
    assert np.isclose(lr_at(0, total, cfg), 0.4 / 10, atol=1e-15)
    # end of warmup reaches the full rate
    assert np.isclose(lr_at(10, total, cfg), 0.4, atol=1e-15)
    # closed-form cosine at the tail
    expected_last = 0.4 * 0.5 * (1 + math.cos(math.pi * 89 / 90))
    assert np.isclose(lr_at(99, total, cfg), expected_last, atol=1e-15)
    assert lr_at(99, total, cfg) < 0.4 * 0.001 + 0.4 * 0.5 * (1 - math.cos(math.pi / 90))
    with pytest.raises(TrainError):
        lr_at(100, total, cfg)


def test_lr_schedule_no_warmup():
    cfg = TrainConfig(learning_rate=1.0, warmup_fraction=0.0)
    assert lr_at(0, 10, cfg) == 1.0
    assert np.isclose(lr_at(5, 10, cfg), 0.5, atol=1e-15)


def test_adam_matches_hand_recurrence():
    # oracle: ten steps of the adam recurrence on a 3-parameter problem,
    # written out independently below
    vocab = TaskConfig(modulus=3).vocab()
    pol = TabularPolicy(vocab, 1)
    pol.params = pol.params[:3].copy()  # detached 3-parameter vector is all we need
    cfg = TrainConfig(learning_rate=0.05, optimizer="adam", adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-8)
    state = OptimizerState(m=np.zeros(3), v=np.zeros(3))
    grads = rng_of(7).standard_normal((10, 3))

    theta = pol.params.copy()
    m = np.zeros(3)
    v = np.zeros(3)
    for t, g in enumerate(grads, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        theta = theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)

    for g in grads:
        _apply_update(pol, g.copy(), 0.05, cfg, state)
    assert np.allclose(pol.params, theta, atol=1e-15)


def test_zero_learning_rate_keeps_params():
    corpus = make_corpus(8)
    init = TabularPolicy(CFG.vocab(), 1)
    cfg = TrainConfig(learning_rate=1e-300, epochs=1, batch_size=4, warmup_fraction=0.0)
    policy, _ = train(cfg, corpus, ObjectiveSpec("sft"), init, seed=0)
    assert np.allclose(policy.params, init.params, atol=1e-290)


def test_single_record_likelihood_increases():
    problems = generate_problems(CFG, 1, seed=5)
    corpus = generate_corpus(teacher_policy(TeacherSpec(0.0, 0.3), CFG), problems, seed=6, max_len=16)
    record = corpus.records[0]
    init = TabularPolicy(CFG.vocab(), 1)
    cfg = TrainConfig(learning_rate=0.5, epochs=40, batch_size=1, warmup_fraction=0.0, clip_norm=10.0)
    policy, history = train(cfg, corpus, ObjectiveSpec("sft"), init, seed=0)
    losses = history.losses()
    # negative log-likelihood of the only record falls monotonically to saturation
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    # the record's negative log-likelihood, its unweighted SFT loss, ends below where it started
    assert sft_loss(policy, record).loss < sft_loss(init, record).loss


def test_epoch_mean_loss_non_increasing_small_lr():
    corpus = make_corpus(16, seed=9)
    cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=len(corpus.records), warmup_fraction=0.0)
    _, history = train(cfg, corpus, ObjectiveSpec("sft"), TabularPolicy(CFG.vocab(), 1), seed=0)
    losses = history.losses()
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-12)
    assert increases <= max(1, int(0.01 * len(losses)))


def test_training_determinism_bitwise():
    corpus = make_corpus(20, seed=13)
    spec = ObjectiveSpec("sft", WeightTransform("sigmoid", tau=1.0))
    cfg = TrainConfig(learning_rate=0.1, epochs=2, batch_size=8)
    p1, h1 = train(cfg, corpus, spec, TabularPolicy(CFG.vocab(), 1), seed=3)
    p2, h2 = train(cfg, corpus, spec, TabularPolicy(CFG.vocab(), 1), seed=3)
    assert np.array_equal(p1.params, p2.params)  # bit-identical
    assert [s.loss for s in h1.steps] == [s.loss for s in h2.steps]


def test_post_clip_norm_respected_in_history():
    corpus = make_corpus(20, seed=17)
    cfg = TrainConfig(learning_rate=0.2, epochs=1, batch_size=4, clip_norm=0.5)
    _, history = train(cfg, corpus, ObjectiveSpec("sft"), TabularPolicy(CFG.vocab(), 1), seed=0)
    for step in history.steps:
        assert step.grad_norm_post <= cfg.clip_norm + 1e-9


def test_nonfinite_loss_aborts_with_step_index():
    corpus = make_corpus(4, seed=19)
    bad = TabularPolicy(CFG.vocab(), 1)
    bad.params[:] = np.inf  # simulated numerical divergence
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=2)
    with np.errstate(invalid="ignore"), pytest.raises(TrainAbortError) as err:
        train(cfg, corpus, ObjectiveSpec("sft"), bad, seed=0)
    assert err.value.step == 0


def test_gkd_trains_deterministically():
    corpus = make_corpus(12, seed=23)
    spec = ObjectiveSpec("gkd", gkd_lambda=0.5, gkd_beta=0.5)
    cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4)
    p1, _ = train(cfg, corpus, spec, TabularPolicy(CFG.vocab(), 1), teacher=TEACHER, max_len=16, seed=11)
    p2, _ = train(cfg, corpus, spec, TabularPolicy(CFG.vocab(), 1), teacher=TEACHER, max_len=16, seed=11)
    assert np.array_equal(p1.params, p2.params)


def test_weight_decay_skips_tabular_logits():
    corpus = make_corpus(8, seed=37)
    spec = ObjectiveSpec("sft")
    base = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4)
    decayed = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, weight_decay=0.1)
    p0, _ = train(base, corpus, spec, TabularPolicy(CFG.vocab(), 1), seed=2)
    p1, _ = train(decayed, corpus, spec, TabularPolicy(CFG.vocab(), 1), seed=2)
    assert np.array_equal(p0.params, p1.params)  # decay never touches logit tables


def test_history_csv_schema(tmp_path):
    corpus = make_corpus(6, seed=29)
    cfg = TrainConfig(epochs=1, batch_size=3)
    policy, history = train(cfg, corpus, ObjectiveSpec("sft"), TabularPolicy(CFG.vocab(), 1), seed=0)
    study = default_config()

    def saved_rows(history):
        save_cell(study, tmp_path, "sft", 0, policy, history)
        lines = (tmp_path / "history_sft_s0.csv").read_text().splitlines()
        assert lines[0] == f"# config_hash={config_hash(study)} epochs={study.train.epochs}"
        return lines[1:]

    rows = saved_rows(history)
    assert rows[0] == "step,lr,loss,grad_norm_pre,grad_norm_post,mean_weight,weight_min,weight_max"
    assert len(rows) == len(history.steps) + 1
    for row, step in zip(rows[1:], history.steps):
        fields = row.split(",")
        assert float(fields[-2]) == step.weight_min and float(fields[-1]) == step.weight_max

    # one column per StepRecord field, in field order, each value written with repr
    one = RunHistory(steps=[StepRecord(3, 0.1, 1.5, 2.0, -0.0, 0.75, 1e-08, 1.25)])
    assert saved_rows(one)[1] == "3,0.1,1.5,2.0,-0.0,0.75,1e-08,1.25"
