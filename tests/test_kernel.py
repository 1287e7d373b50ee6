"""The whole-trace kernel against the per-token reference in oracles.py.

The kernel scores all T prefixes of a trace with one student forward and one
teacher automaton pass; the reference walks the same prefixes one at a time
through the per-prefix methods. They must agree on loss, gradient and token
weights for every student family, objective base and weight transform.
"""

import numpy as np
import pytest

from driftlab.metrics import rollout_divergences
from driftlab.objectives import (
    ObjectiveError,
    ObjectiveSpec,
    WeightTransform,
    evaluate_objective,
    js_sequence_loss,
    record_token_weights,
)
from driftlab.policy import (
    FeedForwardPolicy,
    GradientBuffer,
    PolicyError,
    TabularPolicy,
    finite_difference_check,
    sample_sequence,
)
from driftlab.task import CorpusRecord, TaskConfig, TeacherSpec, generate_corpus, generate_problems, teacher_policy
from driftlab.training import OptimizerState, TrainConfig, _apply_update
from driftlab.vocab import ADD, BOS, TokenSequence

from oracles import (
    micro_instance,
    random_prefixes,
    reference_js_loss,
    reference_kl_loss,
    reference_rollout_divergences,
    reference_sft_loss,
    reference_token_weights,
)

CFG = TaskConfig(modulus=3, chain_length=2)  # vocab size 8
TEACHER = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
CORPUS = generate_corpus(TEACHER, generate_problems(CFG, 6, seed=211), seed=212, max_len=12)

TRANSFORMS = (
    WeightTransform("constant-one"),
    WeightTransform("sigmoid", tau=2.0),
    WeightTransform("raw-ratio"),
    WeightTransform("clip-exp", clip=1.5),
    WeightTransform("relu"),
    WeightTransform("sequence-sigmoid", tau=0.5, tau_convention="multiply"),
)
BASES = {"sft": None, "forward-kl": "forward", "reverse-kl": "reverse", "symmetric-kl": "symmetric"}


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


STUDENTS = {
    "tabular-1": lambda: TabularPolicy(CFG.vocab(), 1, 0.5 * rng_of(1).standard_normal(8**2)),
    "tabular-2": lambda: TabularPolicy(CFG.vocab(), 2, 0.5 * rng_of(2).standard_normal(8**3)),
    "feedforward": lambda: FeedForwardPolicy(
        CFG.vocab(), order=2, embed_dim=2, hidden_dim=3, init_scale=0.3, rng=rng_of(3)
    ),
}


def assert_rel_close(got, want, rel=1e-12):
    """Equal non-finite entries; finite ones within ``rel`` of the largest |want|."""
    got, want = np.atleast_1d(np.asarray(got, dtype=np.float64)), np.atleast_1d(np.asarray(want, dtype=np.float64))
    assert got.shape == want.shape
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    scale = np.max(np.abs(want[finite]), initial=0.0)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= rel * scale


@pytest.mark.parametrize("student", sorted(STUDENTS))
@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda t: t.kind)
def test_kernel_matches_per_token_reference(student, base, transform):
    policy = STUDENTS[student]()
    spec = ObjectiveSpec(base, transform)
    with np.errstate(divide="ignore", invalid="ignore"):
        for record in CORPUS:
            got = evaluate_objective(policy, record, spec, TEACHER)
            weights = reference_token_weights(policy, record, transform)
            if BASES[base] is None:
                loss, grad = reference_sft_loss(policy, record, weights)
            else:
                loss, grad = reference_kl_loss(policy, record, TEACHER, BASES[base], weights)
            assert_rel_close(got.token_weights, weights)
            assert_rel_close(got.loss, loss)
            assert_rel_close(got.grad.values, grad.values)


@pytest.mark.parametrize("student", sorted(STUDENTS))
@pytest.mark.parametrize("beta", (0.0, 0.3, 1.0))
def test_js_kernel_matches_per_token_reference(student, beta):
    policy = STUDENTS[student]()
    for record in CORPUS:
        rollout = sample_sequence(policy, record.question, rng_of(7), max_len=12)
        for supervision in (record.trace, rollout):
            loss, grad = js_sequence_loss(policy, TEACHER, record.question, supervision, beta)
            ref_loss, ref_grad = reference_js_loss(policy, TEACHER, record.question, supervision, beta)
            assert_rel_close(loss, ref_loss)
            assert_rel_close(grad.values, ref_grad.values)


def test_kernel_contracts():
    record = CORPUS.records[0]
    policy = STUDENTS["tabular-1"]()
    bad = TokenSequence(record.trace.tokens[:-1] + (99,), "trace")
    bad_record = CorpusRecord(record.question, bad, record.teacher_token_logps, True)
    with pytest.raises(PolicyError):
        evaluate_objective(policy, bad_record, ObjectiveSpec("sft"))
    # a non-finite student log-prob is an objective error under a non-constant transform
    policy.params[:] = np.nan
    with pytest.raises(ObjectiveError):
        record_token_weights(policy, record, WeightTransform("sigmoid"))


@pytest.mark.parametrize("cfg", [TaskConfig(modulus=3, chain_length=2), TaskConfig(modulus=7, chain_length=4)])
def test_teacher_scan_equals_per_prefix_teacher(cfg):
    teacher = teacher_policy(TeacherSpec(0.05, 0.3), cfg)
    for question, trace in random_prefixes(cfg, 600, seed=cfg.modulus):
        scanned = teacher.target_distributions(teacher.trace_targets(question, trace))
        assert scanned.shape == (len(trace), cfg.vocab().size)
        for t in range(len(trace)):
            assert np.array_equal(scanned[t], teacher.next_token_distribution(question + trace[:t]))
    with pytest.raises(PolicyError):
        teacher.trace_targets([BOS], [cfg.vocab().size])


def test_batched_rollout_divergences_match_per_prefix():
    student = STUDENTS["tabular-2"]()
    ff = STUDENTS["feedforward"]()
    for i, record in enumerate(CORPUS):
        rollout = sample_sequence(student, record.question, rng_of(100 + i), max_len=12)
        for pol in (student, ff):
            for toks in (record.trace, rollout, ()):
                got = rollout_divergences(TEACHER, pol, record.question, toks)
                assert_rel_close(got, reference_rollout_divergences(TEACHER, pol, record.question, toks))
    # hand-built policies only have the per-prefix methods
    question, teacher, hand_student = micro_instance()
    for toks in ((0,), (0, 2), (2, 0, 1)):
        got = rollout_divergences(teacher, hand_student, question, toks)
        assert_rel_close(got, reference_rollout_divergences(teacher, hand_student, question, toks))


def test_feedforward_logits_follow_in_place_updates():
    ctx = [BOS, 5, ADD, 6]
    pol = STUDENTS["feedforward"]()

    def fresh_logits(p):
        return FeedForwardPolicy(CFG.vocab(), 2, 2, 3, params=p.params).logits(ctx)

    g = rng_of(9).standard_normal(pol.params.size)
    for optimizer in ("sgd", "adam"):
        before = pol.logits(ctx).copy()
        cfg, state = TrainConfig(optimizer=optimizer), OptimizerState.for_policy(pol)
        _apply_update(pol, GradientBuffer(g.copy()), 0.1, cfg, state)
        assert not np.array_equal(pol.logits(ctx), before)
        assert np.array_equal(pol.logits(ctx), fresh_logits(pol))
    pol.params = pol.params + 1.0
    assert np.array_equal(pol.logits(ctx), fresh_logits(pol))

    # finite differences perturb a clone's params in place: a logit whose
    # forward missed those writes would show a zero numerical gradient
    def logit_of_token_3(p):
        buf = GradientBuffer.for_policy(p)
        dlogits = np.zeros(CFG.vocab().size)
        dlogits[3] = 1.0
        p.accumulate_logit_grad(ctx, dlogits, buf)
        return float(p.logits(ctx)[3]), buf

    assert finite_difference_check(pol, logit_of_token_3, h=1e-5) < 1e-6
