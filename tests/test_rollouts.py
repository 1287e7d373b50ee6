"""Lockstep rollouts against the per-problem reference loops in oracles.py.

``rollouts`` advances every question of a set together, one (P, V)
distribution array per step. Each row must emit exactly the tokens that a
one-problem-at-a-time decode emits from the same stream, for every kind of
model: the analytic teacher (through its P-row automaton state), tabular and
feed-forward students (through their window arrays) and hand-built policies
(through a state that keeps each row's context).
"""

import numpy as np
import pytest

from driftlab.metrics import exaccerr, final_answer_accuracy, prefix_drift_eval
from driftlab.policy import (
    FeedForwardPolicy,
    PolicyError,
    TabularPolicy,
    greedy_decode,
    rollouts,
    sample_sequence,
)
from driftlab.task import ProblemInstance, TaskConfig, TeacherSpec, generate_corpus, generate_problems, teacher_policy
from driftlab.vocab import BOS, EOS, MUL, TokenSequence

from oracles import (
    micro_instance,
    random_feedforward,
    random_prefixes,
    reference_accuracy,
    reference_corpus,
    reference_drift_curve,
    reference_rollout,
    reference_rollout_divergences,
    reference_teacher_distribution,
    stream,
)

CFG = TaskConfig(modulus=5, chain_length=3)  # vocab size 10
V = CFG.vocab().size
PROBLEMS = generate_problems(CFG, 12, seed=301)


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def malformed(question):
    """A question with an operator where its first operand should be."""
    toks = list(question.tokens)
    toks[3] = MUL
    return TokenSequence(tuple(toks), "question")


# good questions, a duplicate, a malformed one, a truncated one and a bare BOS
QUESTIONS = (
    [p.question for p in PROBLEMS[:6]]
    + [PROBLEMS[0].question, malformed(PROBLEMS[1].question)]
    + [TokenSequence(PROBLEMS[2].question.tokens[:4], "question"), TokenSequence((BOS,), "question")]
)

MODELS = {
    "teacher": lambda: teacher_policy(TeacherSpec(0.1, 0.3), CFG),
    "teacher-noiseless": lambda: teacher_policy(TeacherSpec(0.0, 0.3), CFG),
    "tabular-1": lambda: TabularPolicy(CFG.vocab(), 1, 0.8 * rng_of(1).standard_normal(V**2)),
    "tabular-2": lambda: TabularPolicy(CFG.vocab(), 2, 0.8 * rng_of(2).standard_normal(V**3)),
    "feedforward": lambda: random_feedforward(CFG.vocab(), 2, 3, 5, 0.5, rng_of(3)),
}


def assert_rows_match(got, model, questions, max_len, streams_of=None, exact_probs=True):
    for i, (question, trace) in enumerate(zip(questions, got.traces)):
        rng = None if streams_of is None else streams_of(i)
        toks, probs = reference_rollout(model, question, max_len, rng)
        assert np.array_equal(trace.tokens, toks)
        assert np.all(got.token_probs[i, len(toks) :] == 0.0)
        if exact_probs:
            assert np.array_equal(got.token_probs[i, : len(toks)], probs)
        else:
            np.testing.assert_allclose(got.token_probs[i, : len(toks)], probs, rtol=1e-12)


def uniforms_of(seed, rows, max_len):
    """Row i: the first ``max_len`` uniforms of stream(seed, i)."""
    return np.array([stream(seed, i).random(max_len) for i in range(rows)]).reshape(rows, max_len)


def test_bulk_uniforms_equal_single_draws():
    # a stream's first n uniforms from one call, as a block row holds them
    for seed in range(200):
        bulk = stream(seed, 3, 1).random(40)
        one_by_one = stream(seed, 3, 1)
        assert np.array_equal(bulk, [one_by_one.random() for _ in range(40)])


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("max_len", (1, 3, 14))
def test_greedy_lockstep_matches_reference(name, max_len):
    model = MODELS[name]()
    got = rollouts(model, QUESTIONS, max_len)
    assert_rows_match(got, model, QUESTIONS, max_len, exact_probs=name != "feedforward")
    for question, trace in zip(QUESTIONS, got.traces):
        assert greedy_decode(model, question, max_len) == trace


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("max_len", (1, 3, 14))
def test_sampled_lockstep_matches_reference(name, max_len):
    model = MODELS[name]()
    # each row's own uniforms, or its own generator drawn from token by token
    uniforms = uniforms_of(41, len(QUESTIONS), max_len)
    for draws in ({"uniforms": uniforms}, {"streams": [stream(41, i) for i in range(len(QUESTIONS))]}):
        got = rollouts(model, QUESTIONS, max_len, **draws)
        assert_rows_match(got, model, QUESTIONS, max_len, lambda i: stream(41, i), exact_probs=name != "feedforward")
    if max_len == 14 and name.startswith("teacher"):
        assert len({len(trace) for trace in got.traces}) > 1  # rows end at different steps
    # the one-row case shares its stream: one draw per token, none after EOS
    rng, ref = rng_of(5), rng_of(5)
    for question in QUESTIONS:
        trace = sample_sequence(model, question, rng, max_len)
        assert list(trace.tokens) == reference_rollout(model, question, max_len, ref)[0]
    assert rng.random() == ref.random()


def test_uniforms_are_one_per_row_and_token():
    model, P = MODELS["tabular-1"](), len(QUESTIONS)
    uniforms = uniforms_of(41, P, 5)
    for draws in (
        {"uniforms": uniforms[1:]},
        {"uniforms": uniforms[:, :4]},
        {"uniforms": uniforms, "streams": [stream(41, i) for i in range(P)]},
    ):
        with pytest.raises(PolicyError, match=f"uniforms must be a \\({P}, 5\\) array"):
            rollouts(model, QUESTIONS, 5, **draws)


def test_duplicate_questions_keep_their_own_streams():
    model = MODELS["tabular-2"]()
    questions = [PROBLEMS[0].question] * 40
    got = rollouts(model, questions, 10, uniforms=uniforms_of(7, 40, 10))
    assert_rows_match(got, model, questions, 10, lambda i: stream(7, i))
    assert len({trace.tokens for trace in got.traces}) > 1


def test_hand_built_policy_rows_are_stacked():
    question, teacher, student = micro_instance()
    questions = [question] * 30
    for model in (teacher, student):
        got = rollouts(model, questions, 3, uniforms=uniforms_of(9, 30, 3))
        assert_rows_match(got, model, questions, 3, lambda i: stream(9, i))
        assert_rows_match(rollouts(model, questions, 3), model, questions, 3)


def test_eos_at_step_zero():
    teacher = MODELS["teacher"]()
    eos_student = TabularPolicy(CFG.vocab(), 1)
    eos_student.params.reshape(V, V)[:, EOS] = 500.0
    questions = [malformed(PROBLEMS[0].question), PROBLEMS[1].question]
    for model, rows in ((teacher, [0]), (eos_student, [0, 1])):
        got = rollouts(model, questions, 6, uniforms=uniforms_of(3, 2, 6))
        for i in rows:
            assert got.traces[i].tokens == (EOS,)
            assert got.token_probs[i, 0] == 1.0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_each_question_checked_against_the_vocabulary(name):
    model = MODELS[name]()
    bad = TokenSequence(PROBLEMS[0].question.tokens + (V + 3,), "full")
    with pytest.raises(PolicyError, match=f"context token {V + 3} outside vocabulary of size {V}"):
        rollouts(model, [PROBLEMS[1].question, bad], 4)
    with pytest.raises(PolicyError, match=f"context token {V + 3} outside vocabulary of size {V}"):
        model.next_token_distribution(list(bad))
    with pytest.raises(PolicyError, match="max_len must be >= 1"):
        rollouts(model, QUESTIONS, 0)


@pytest.mark.parametrize("epsilon", (0.0, 0.1))
@pytest.mark.parametrize("max_len", (1, 4, 12))
def test_corpus_matches_per_record_reference(epsilon, max_len):
    teacher = teacher_policy(TeacherSpec(epsilon, 0.3), CFG)
    bad = ProblemInstance(malformed(PROBLEMS[0].question), PROBLEMS[0].gold_answer, PROBLEMS[0].gold_trace)
    problems = PROBLEMS + [PROBLEMS[3], bad]
    got = generate_corpus(teacher, problems, seed=17, samples_per_problem=2, max_len=max_len)
    want = reference_corpus(teacher, problems, seed=17, samples_per_problem=2, max_len=max_len)
    assert len(got) == len(want) == 2 * len(problems)
    for g, w in zip(got, want):
        assert g.question == w.question
        assert g.trace == w.trace
        assert np.array_equal(g.teacher_token_logps, w.teacher_token_logps)
        assert g.teacher_correct == w.teacher_correct
    assert got.records[-1].trace.tokens == (EOS,)


@pytest.mark.parametrize("cfg", [TaskConfig(modulus=3, chain_length=2), TaskConfig(modulus=7, chain_length=4)])
def test_teacher_rollout_state_equals_per_prefix_teacher(cfg):
    """A P-row state advanced along the emitted tokens, and a fresh one-row
    context per prefix, both give what the task's rules give at that prefix."""
    teacher = teacher_policy(TeacherSpec(0.05, 0.3), cfg)
    pairs = random_prefixes(cfg, 600, seed=cfg.modulus)
    state = teacher.rollout_state([question for question, _ in pairs])
    longest = max(len(trace) for _, trace in pairs)
    for t in range(longest + 1):
        rows = np.array([i for i, (_, trace) in enumerate(pairs) if len(trace) >= t])
        dists = state.distributions(rows)
        for row, dist in zip(rows, dists):
            question, trace = pairs[row]
            want = reference_teacher_distribution(cfg, 0.05, question + trace[:t])
            assert np.array_equal(dist, want)
            assert np.array_equal(teacher.next_token_distribution(question + trace[:t]), want)
        rows = np.array([i for i in rows if len(pairs[i][1]) > t], dtype=np.int64)
        state.advance(rows, np.array([pairs[i][1][t] for i in rows], dtype=np.int64))


def test_metrics_match_per_problem_reference():
    teacher = MODELS["teacher"]()
    student, base = MODELS["tabular-2"](), MODELS["tabular-1"]()
    problems = PROBLEMS + [PROBLEMS[0]]
    horizons = (1, 2, 4, 8)
    got = exaccerr(teacher, student, problems, horizons, seed=23, max_len=12)
    want = reference_drift_curve(teacher, student, problems, horizons, seed=23, max_len=12)
    assert np.array_equal(got.values, want.values) and got.floor_used == want.floor_used
    got = prefix_drift_eval(base, student, teacher, problems, horizons, seed=29, max_len=12)
    want = reference_drift_curve(teacher, student, problems, horizons, seed=29, max_len=12, prefix_source=base)
    assert np.array_equal(got.values, want.values) and got.floor_used == want.floor_used
    for model in (teacher, student, MODELS["feedforward"]()):
        assert final_answer_accuracy(model, problems, max_len=12) == reference_accuracy(model, problems, 12)


@pytest.mark.parametrize("student_name", ["tabular-1", "tabular-2", "feedforward", "teacher"])
def test_fused_divergences_match_per_rollout(student_name):
    # the divergences written during the rollout against one teacher scan and
    # one student forward per finished rollout, for the three sources the drift
    # curves use: the teacher, the student itself and a third policy (an
    # untrained base student)
    teacher = MODELS["teacher"]()
    student = teacher if student_name == "teacher" else MODELS[student_name]()
    base = TabularPolicy(CFG.vocab(), 1)
    ends = set()
    for source in (teacher, student, base):
        for max_len in (5, 10):
            uniforms = uniforms_of(43, len(QUESTIONS), max_len)
            got = rollouts(source, QUESTIONS, max_len, uniforms=uniforms, divergence=(teacher, [student]))
            exact = not isinstance(source, FeedForwardPolicy)
            assert_rows_match(got, source, QUESTIONS, max_len, lambda i: stream(43, i), exact_probs=exact)
            assert got.divergences.shape == (1, len(QUESTIONS), max_len)
            for i, (question, trace) in enumerate(zip(QUESTIONS, got.traces)):
                want = reference_rollout_divergences(teacher, student, question, trace)
                if student_name == "feedforward":
                    np.testing.assert_allclose(got.divergences[0, i, : len(trace)], want, rtol=1e-12, atol=0.0)
                else:
                    assert np.array_equal(got.divergences[0, i, : len(trace)], want)
                assert np.all(got.divergences[0, i, len(trace) :] == 0.0)
                ends.add((len(trace), trace.ends_with_eos))
    assert len({n for n, eos in ends if eos}) > 1  # rows reach EOS at different steps
    assert (5, False) in ends and (10, False) in ends  # and rows hit the length cap


def test_fused_divergences_of_hand_built_policies():
    question, teacher, student = micro_instance()
    questions = [question] * 30
    for source in (teacher, student):
        got = rollouts(source, questions, 3, uniforms=uniforms_of(9, 30, 3), divergence=(teacher, [student]))
        for row, trace in zip(got.divergences[0], got.traces):
            assert np.array_equal(row[: len(trace)], reference_rollout_divergences(teacher, student, question, trace))
    assert got.divergences is not None and rollouts(student, questions, 3).divergences is None


@pytest.mark.parametrize("family", ["tabular", "feedforward"])
def test_grouped_curves_equal_per_student_curves(family):
    # C students scored on shared teacher and prefix-source rollouts, against
    # one curve call per student: C = 1 and C = 3, where the third student of
    # the group is the prefix source itself
    teacher, base = MODELS["teacher"](), MODELS["tabular-1"]()
    if family == "tabular":
        others = [MODELS["tabular-2"](), TabularPolicy(CFG.vocab(), 2, 0.5 * rng_of(7).standard_normal(V**3))]
    else:
        others = [MODELS["feedforward"](), random_feedforward(CFG.vocab(), 3, 2, 4, 0.5, rng_of(8))]
    problems = PROBLEMS + [PROBLEMS[0]]
    horizons = (1, 2, 4, 8)

    def assert_same(got, want):
        assert got.horizons == want.horizons and got.floor_used == want.floor_used
        if family == "tabular":
            assert np.array_equal(got.values, want.values)
        else:
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0.0)

    for group in ([others[0]], [*others, base]):
        curves = exaccerr(teacher, group, problems, horizons, seed=23, max_len=12)
        assert len(curves) == len(group)
        for student, curve in zip(group, curves):
            assert_same(curve, exaccerr(teacher, student, problems, horizons, seed=23, max_len=12))
        curves = prefix_drift_eval(base, group, teacher, problems, horizons, seed=29, max_len=12)
        assert len(curves) == len(group)
        for student, curve in zip(group, curves):
            assert_same(curve, prefix_drift_eval(base, student, teacher, problems, horizons, seed=29, max_len=12))


def test_grouped_divergences_equal_one_student_rollouts():
    # the (C, P, n) divergences of one rollout against C one-student rollouts
    # from the same uniforms, with the source, the teacher and a repeated
    # student among the students
    teacher, source = MODELS["teacher"](), MODELS["tabular-1"]()
    students = [MODELS["tabular-2"](), source, teacher, MODELS["feedforward"]()]
    students.append(students[0])
    uniforms = uniforms_of(47, len(QUESTIONS), 10)
    got = rollouts(source, QUESTIONS, 10, uniforms=uniforms, divergence=(teacher, students))
    assert got.divergences.shape == (len(students), len(QUESTIONS), 10)
    for c, student in enumerate(students):
        one = rollouts(source, QUESTIONS, 10, uniforms=uniforms, divergence=(teacher, [student]))
        assert np.array_equal(one.tokens, got.tokens) and np.array_equal(one.token_probs, got.token_probs)
        assert np.array_equal(one.divergences[0], got.divergences[c])
    assert np.all(got.divergences[2] == 0.0)  # the teacher against itself
    none = rollouts(source, QUESTIONS, 10, uniforms=uniforms, divergence=(teacher, []))
    assert none.divergences.shape == (0, len(QUESTIONS), 10) and np.array_equal(none.tokens, got.tokens)


@pytest.mark.parametrize("student_name", ["tabular-2", "feedforward"])
def test_curves_unchanged_by_stopping_at_the_longest_horizon(student_name):
    # rollouts stop after max(horizons) tokens; a curve with one more horizon
    # at max_len rolls out to max_len, and its other horizons must not move
    teacher, student, base = MODELS["teacher"](), MODELS[student_name](), MODELS["tabular-1"]()
    problems = PROBLEMS + [PROBLEMS[0]]
    horizons = (1, 2, 4)
    cut = exaccerr(teacher, student, problems, horizons, seed=23, max_len=12)
    full = exaccerr(teacher, student, problems, horizons + (12,), seed=23, max_len=12)
    assert np.array_equal(cut.values, full.values[:-1])
    cut = prefix_drift_eval(base, student, teacher, problems, horizons, seed=29, max_len=12)
    full = prefix_drift_eval(base, student, teacher, problems, horizons + (12,), seed=29, max_len=12)
    assert np.array_equal(cut.values, full.values[:-1])
