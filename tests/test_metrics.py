"""Metric contracts: accuracy, drift curves, trace statistics.

The drift-curve oracle at the bottom enumerates the full rollout tree of a
hand-built micro instance and recomputes every divergence from first
principles, independently of the metrics module.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from driftlab import metrics
from driftlab.metrics import (
    _aggregate_curve,
    exaccerr,
    exaccerr_exact,
    final_answer_accuracy,
    prefix_drift_eval,
    repeated_4gram_fraction,
    trace_quality,
)
from driftlab.policy import FeedForwardPolicy, TabularPolicy
from driftlab.task import TaskConfig, TeacherSpec, generate_problems, teacher_policy
from driftlab.vocab import EOS, TokenSequence

from oracles import (
    PrefixTablePolicy,
    micro_instance,
    oracle_curve,
    reference_aggregate_curve,
    reference_rollout_divergences,
)

CFG = TaskConfig(modulus=7, chain_length=2)
PROBLEMS = generate_problems(CFG, 50, seed=3)


def test_noiseless_teacher_scores_perfect_accuracy():
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), CFG)
    assert final_answer_accuracy(teacher, PROBLEMS, max_len=16) == 1.0


def test_immediate_eos_policy_scores_zero():
    pol = TabularPolicy(CFG.vocab(), 1)
    V = CFG.vocab().size
    for row in range(pol.n_contexts):
        pol.params[row * V + EOS] = 500.0
    assert final_answer_accuracy(pol, PROBLEMS, max_len=16) == 0.0


def test_uniform_policy_greedy_accuracy_exact():
    # greedy over a uniform table always picks token 0 (BOS): no answer marker
    # ever appears, so accuracy is exactly zero for every problem set
    pol = TabularPolicy(CFG.vocab(), 1)
    problems = generate_problems(CFG, 10_000, seed=11)
    assert final_answer_accuracy(pol, problems, max_len=16) == 0.0


def test_repeated_4gram_examples():
    assert repeated_4gram_fraction(TokenSequence((5, 6, 7), "full")) == 0.0
    assert repeated_4gram_fraction(TokenSequence((5, 6, 7, 8, 9, 10), "full")) == 0.0
    tokens = (5, 6, 7, 8) * 3  # a b c d a b c d a b c d
    got = repeated_4gram_fraction(TokenSequence(tokens, "full"))
    assert np.isclose(got, 5.0 / 9.0, atol=1e-15)


def test_trace_quality_hand_fixture():
    """Ten hand-built traces; every statistic below is worked out by hand.

    Tokens: values 5..9, marker M=2, EOS=1. Lengths exclude EOS.
    1. (5,6,M,7,EOS)            len 4, no post, one marker
    2. (5,6,M,7,8,EOS)          len 5, post-answer (one extra token)
    3. (5,M,7,M,7,EOS)          len 5, two markers, post-answer
    4. (5,6,7,8,EOS)            len 4, no marker
    5. (M,7,EOS)                len 2, marker at start
    6. (5,5,5,5,5,5,EOS)        len 6, 3 4-grams all identical -> 1 - 1/3 = 2/3
    7. (5,6,7,8,5,6,7,8,EOS)    len 8, 5 4-grams, 4 distinct -> 1/5
    8. (M,EOS)                  len 1, marker without an answer token
    9. (5,6,M,7,M,EOS)          len 5, two markers, answer then second marker
    10. (6,7,M,8,EOS)           len 4, clean

    mean length = (4+5+5+4+2+6+8+1+5+4)/10 = 44/10 = 4.4
    rep4 = (0+0+0+0+0+2/3+1/5+0+0+0)/10 = (13/15)/10 = 13/150
    post-answer: traces 2 (token 8 after answer 7), 3 (M,7 after answer 7),
                 9 (M after answer 7) -> 3/10
    multi-answer: traces 3 and 9 -> 2/10
    """
    traces = [
        TokenSequence((5, 6, 2, 7, 1), "trace"),
        TokenSequence((5, 6, 2, 7, 8, 1), "trace"),
        TokenSequence((5, 2, 7, 2, 7, 1), "trace"),
        TokenSequence((5, 6, 7, 8, 1), "trace"),
        TokenSequence((2, 7, 1), "trace"),
        TokenSequence((5, 5, 5, 5, 5, 5, 1), "trace"),
        TokenSequence((5, 6, 7, 8, 5, 6, 7, 8, 1), "trace"),
        TokenSequence((2, 1), "trace"),
        TokenSequence((5, 6, 2, 7, 2, 1), "trace"),
        TokenSequence((6, 7, 2, 8, 1), "trace"),
    ]
    report = trace_quality(traces)
    assert report.n_traces == 10
    assert abs(report.mean_length - 4.4) < 1e-15
    assert abs(report.repeated_4gram_fraction - 13.0 / 150.0) < 1e-15
    assert abs(report.post_answer_rate - 0.3) < 1e-15
    assert abs(report.multi_answer_rate - 0.2) < 1e-15


def test_trace_quality_gold_traces_clean():
    traces = [p.gold_trace for p in PROBLEMS]
    report = trace_quality(traces)
    assert report.post_answer_rate == 0.0
    assert report.multi_answer_rate == 0.0
    assert report.mean_length == CFG.chain_length + 2


def test_trace_quality_order_invariant():
    traces = [p.gold_trace for p in PROBLEMS[:10]]
    a = trace_quality(traces)
    b = trace_quality(list(reversed(traces)))
    assert a == b


def test_exaccerr_identical_policies_hits_floor():
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
    curve = exaccerr(teacher, teacher, PROBLEMS[:10], horizons=(1, 2, 4), seed=5, max_len=16)
    assert curve.floor_used
    assert np.all(curve.values == 0.0)


def test_aggregate_curve_equals_running_sum():
    # the vectorized aggregation against a problem-by-problem running sum,
    # with accumulations below the floor, and no problems at all
    rng = np.random.Generator(np.random.PCG64(13))
    horizons = (1, 2, 4, 8)
    for n in (0, 1, 7, 300):
        e_ref, e_self = rng.exponential(size=(n, 4)), rng.exponential(size=(n, 4))
        e_ref[rng.random((n, 4)) < 0.2] = 0.0
        got = _aggregate_curve(e_ref, list(e_self), horizons, 1e-9)
        want = reference_aggregate_curve(list(e_ref), list(e_self), horizons, 1e-9)
        assert np.array_equal(got.values, want.values) and got.floor_used == want.floor_used
        assert want.floor_used or n < 7  # the floor fires in every larger set


def test_exaccerr_constant_divergence_is_zero():
    # teacher and student differ by the same KL at every prefix: the excess
    # ratio cancels for horizons both rollouts can fill
    n = 4  # tokens: 0 filler, 1 EOS, 2, 3
    qlen = 1
    question = TokenSequence((0,), "question")
    # teacher always (0.7, 0.1, 0.1, 0.1); student always (0.4, 0.2, 0.2, 0.2)
    teacher = PrefixTablePolicy(n, {}, qlen, default=[0.7, 0.1, 0.1, 0.1])
    student = PrefixTablePolicy(n, {}, qlen, default=[0.4, 0.2, 0.2, 0.2])

    class P:
        pass

    prob = P()
    prob.question = question
    prob.gold_answer = 0
    curve = exaccerr(teacher, student, [prob] * 64, horizons=(1,), seed=9, max_len=1)
    assert not curve.floor_used
    assert np.allclose(curve.values, 0.0, atol=1e-9)


def test_exaccerr_exact_matches_enumeration_oracle():
    # the student's depth-2 rows give mass past EOS, so max_len 3 cuts leaves
    # of its tree; max_len 2 cuts both trees and max_len 1 leaves one level;
    # horizon 5 lies past every max_len
    question, teacher, student = micro_instance()
    for max_len, horizons in ((3, (1, 2, 3)), (3, (2, 5)), (2, (1, 2, 5)), (1, (1, 5))):
        curve = exaccerr_exact(teacher, student, question, horizons, max_len=max_len)
        expected = oracle_curve(question, teacher, student, horizons, max_len=max_len)
        assert np.allclose(curve.values, expected, atol=1e-9)


def test_exaccerr_exact_rejects_horizons_and_max_len_below_one():
    # the same check as the sampled curve's: no horizon may wrap around to the
    # end of the accumulation or read the empty prefix
    question, teacher, student = micro_instance()
    for horizons in ((-1,), (0,), (), (2, 0)):
        for curve_of in (
            lambda: exaccerr_exact(teacher, student, question, horizons, max_len=3),
            lambda: exaccerr(teacher, student, [SimpleNamespace(question=question)], horizons, seed=1, max_len=3),
        ):
            with pytest.raises(ValueError, match="horizons must be non-empty and >= 1"):
                curve_of()
    with pytest.raises(ValueError, match="max_len must be >= 1"):
        exaccerr_exact(teacher, student, question, (1,), max_len=0)


def test_exaccerr_exact_tree_size_guard(monkeypatch):
    # at max_len 3 the teacher's tree holds 7 leaves and the student's 15
    question, teacher, student = micro_instance()
    monkeypatch.setattr(metrics, "MAX_TREE_ROWS", 14)
    with pytest.raises(ValueError, match="rollout tree too large to enumerate"):
        exaccerr_exact(teacher, student, question, (1, 2, 3), max_len=3)
    exaccerr_exact(teacher, student, question, (1, 2), max_len=2)
    monkeypatch.setattr(metrics, "MAX_TREE_ROWS", 15)
    exaccerr_exact(teacher, student, question, (1, 2, 3), max_len=3)


@pytest.mark.parametrize("family", ("tabular", "feedforward"))
def test_exaccerr_exact_of_package_models_matches_enumeration_oracle(family):
    # the analytic teacher and a trained-family student, through the per-prefix
    # methods that the tree enumeration calls
    cfg = TaskConfig(modulus=3, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    rng, V = np.random.Generator(np.random.PCG64(7)), cfg.vocab().size
    if family == "tabular":
        student = TabularPolicy(cfg.vocab(), 1, rng.standard_normal(V * V))
    else:
        student = FeedForwardPolicy(cfg.vocab(), order=2, embed_dim=3, hidden_dim=4, init_scale=0.5, rng=rng)
    question = generate_problems(cfg, 1, seed=5)[0].question
    curve = exaccerr_exact(teacher, student, question, (1, 2), max_len=2)
    expected = oracle_curve(question, teacher, student, (1, 2), max_len=2)
    assert not curve.floor_used and curve.values[1] != 0.0  # horizon 1 is the shared question's prefix
    assert np.allclose(curve.values, expected, rtol=0.0, atol=1e-9)


def test_exaccerr_sampled_converges_to_exact():
    question, teacher, student = micro_instance()

    class P:
        pass

    prob = P()
    prob.question = question
    prob.gold_answer = 0
    horizons = (1, 2, 3)
    exact = exaccerr_exact(teacher, student, question, horizons, max_len=3)
    sampled = exaccerr(teacher, student, [prob] * 4000, horizons, seed=17, max_len=3)
    # per-problem ratios are bounded here; 4000 draws puts the mean well inside 3 SE
    assert np.allclose(sampled.values, exact.values, atol=12.0)
    assert np.all(np.abs(sampled.values - exact.values) / (np.abs(exact.values) + 1.0) < 0.25)


def test_exaccerr_invariant_under_token_relabeling():
    question, teacher, student = micro_instance()
    horizons = (1, 2, 3)
    base = exaccerr_exact(teacher, student, question, horizons, max_len=3)

    # permute tokens 0 <-> 2 consistently (EOS must stay fixed for termination)
    perm = {0: 2, 1: 1, 2: 0}

    def permute_policy(policy):
        table = {}
        for key, dist in policy.table.items():
            new_key = tuple(perm[t] for t in key)
            new_dist = np.zeros_like(dist)
            for tok, p in enumerate(dist):
                new_dist[perm[tok]] = p
            table[new_key] = new_dist
        return PrefixTablePolicy(3, table, policy.question_len)

    q2 = TokenSequence(tuple(perm[t] for t in question.tokens), "question")
    t2 = permute_policy(teacher)
    s2 = permute_policy(student)
    relabeled = exaccerr_exact(t2, s2, q2, horizons, max_len=3)
    assert np.allclose(relabeled.values, base.values, atol=1e-9)


def test_prefix_drift_single_horizon_direct_kl():
    # horizon {1} on a chain-length-1 task: the curve reduces to the ratio of
    # single-prefix divergences, computable directly
    cfg = TaskConfig(modulus=5, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    problems = generate_problems(cfg, 6, seed=23)
    student = TabularPolicy(cfg.vocab(), 1, 0.3 * np.random.Generator(np.random.PCG64(2)).standard_normal(cfg.vocab().size ** 2))
    base = TabularPolicy(cfg.vocab(), 1)
    curve = prefix_drift_eval(base, student, teacher, problems, horizons=(1,), seed=29, max_len=8)
    expected = []
    for idx, p in enumerate(problems):
        # replicate the paired rollout streams (tags 0: teacher, 1: prefix source)
        d_teacher = reference_rollout_divergences(teacher, student, p.question, [0])[0]
        d_prefix = reference_rollout_divergences(teacher, student, p.question, [0])[0]
        # at horizon 1 only the first position matters and it is prefix-free,
        # so reference and generated accumulations coincide exactly
        expected.append(100.0 * (d_prefix - d_teacher) / d_teacher)
    assert np.allclose(curve.values, np.mean(expected), atol=1e-9)
    assert np.allclose(curve.values, 0.0, atol=1e-9)


def test_exaccerr_sampled_deterministic():
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
    student = TabularPolicy(
        CFG.vocab(), 1, 0.3 * np.random.Generator(np.random.PCG64(4)).standard_normal(CFG.vocab().size ** 2)
    )
    a = exaccerr(teacher, student, PROBLEMS[:20], horizons=(2, 4), seed=41, max_len=16)
    b = exaccerr(teacher, student, PROBLEMS[:20], horizons=(2, 4), seed=41, max_len=16)
    assert np.array_equal(a.values, b.values)


def test_prefix_drift_teacher_as_student_floors():
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
    base = TabularPolicy(CFG.vocab(), 1)
    curve = prefix_drift_eval(base, teacher, teacher, PROBLEMS[:5], horizons=(1, 2), seed=31, max_len=16)
    assert curve.floor_used
    assert np.all(curve.values == 0.0)


def test_prefix_drift_rejects_horizon_beyond_cap():
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), CFG)
    base = TabularPolicy(CFG.vocab(), 1)
    with pytest.raises(ValueError):
        prefix_drift_eval(base, base, teacher, PROBLEMS[:2], horizons=(32,), seed=1, max_len=16)
