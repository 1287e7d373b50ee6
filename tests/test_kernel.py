"""The whole-trace kernel against the per-token reference in oracles.py.

The kernel scores all T prefixes of a trace with one student forward and one
teacher automaton pass; the reference walks the same prefixes one at a time
through the per-prefix methods. They must agree on loss, gradient and token
weights for every student family, objective base and weight transform.
"""

import numpy as np
import pytest

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
from driftlab.vocab import ADD, BOS, EOS, TokenSequence

from oracles import (
    random_prefixes,
    reference_js_loss,
    reference_kl_loss,
    reference_sft_loss,
    reference_teacher_distribution,
    reference_teacher_target,
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
    """Batched ``trace_targets`` gives, pair by pair, what the task's rules
    give at every prefix, over batches of 1 to 600 pairs of unequal lengths."""
    teacher = teacher_policy(TeacherSpec(0.05, 0.3), cfg)
    pairs = random_prefixes(cfg, 600, seed=cfg.modulus)
    qlen = cfg.question_len
    # the batches hold empty traces, short and malformed questions, questions
    # that the trace completes, and EOS before a trace's last token
    assert any(not trace for _, trace in pairs)
    assert any(len(question) < qlen < len(question) + len(trace) for question, trace in pairs)
    assert any(len(question) >= qlen and reference_teacher_target(cfg, question) < 0 for question, _ in pairs)
    assert any(EOS in trace[:-1] for _, trace in pairs)
    contexts = [question + trace[:t] for question, trace in pairs for t in range(len(trace))]
    want = np.array([reference_teacher_target(cfg, context) for context in contexts])
    offsets = np.cumsum([0] + [len(trace) for _, trace in pairs])
    bounds = [0, 1, 3, 10, 41, 100, 600]
    for a, b in list(zip(bounds[:-1], bounds[1:])) + [(0, len(pairs))]:
        got = teacher.trace_targets([question for question, _ in pairs[a:b]], [trace for _, trace in pairs[a:b]])
        assert got.shape == (offsets[b] - offsets[a],)
        assert np.array_equal(got, want[offsets[a] : offsets[b]])
    dists = teacher.target_distributions(got)
    assert all(np.array_equal(d, reference_teacher_distribution(cfg, 0.05, c)) for d, c in zip(dists, contexts))
    with pytest.raises(PolicyError):
        teacher.trace_targets([[BOS], [BOS]], [[], [cfg.vocab().size]])


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
