"""Task, teacher automaton, and corpus contracts.

The heavier oracles here are written from scratch against the task definition:
an independent chain evaluator for gold traces, a prefix re-execution for
teacher expectations, and an exact dynamic program over the teacher automaton
for the corpus success rate.
"""

import math

import numpy as np
import pytest

from driftlab.task import (
    EmptyCorpusError,
    TaskConfig,
    TaskError,
    TeacherSpec,
    answer_index,
    answer_token,
    chain_step,
    filter_teacher_correct,
    generate_corpus,
    generate_problems,
    read_corpus,
    teacher_policy,
    write_corpus,
)
from driftlab.vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, TokenSequence

from oracles import reference_problems


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


# --- independent task semantics (oracle, deliberately re-derived) ------------

def oracle_chain(v0, ops, operands, m):
    vals = []
    v = v0
    for op, a in zip(ops, operands):
        v = (v + a) % m if op == ADD else (v * a) % m
        vals.append(v)
    return vals


def decode_question(q, m):
    v0 = q[1] - 5
    ops = list(q[2::2])
    operands = [t - 5 for t in q[3::2]]
    return v0, ops, operands


def test_chain_step_examples():
    assert chain_step(2, ADD, 3, 5) == 0          # (2+3) mod 5
    assert chain_step(3, MUL, 4, 7) == 5          # 12 mod 7
    assert chain_step(5, ADD, 6, 7) == 4          # 11 mod 7
    # elementwise over arrays, each element as its scalar step
    values, operands = np.array([2, 3, 5, 6, 0]), np.array([3, 4, 6, 6, 5])
    ops = np.array([ADD, MUL, ADD, MUL, MUL])
    got = chain_step(values, ops, operands, 7)
    assert got.tolist() == [chain_step(v, op, a, 7) for v, op, a in zip(values.tolist(), ops.tolist(), operands.tolist())]
    assert got.tolist() == [5, 5, 4, 1, 0]
    with pytest.raises(TaskError, match="unknown operator token 9"):
        chain_step(values, np.array([ADD, MUL, 9, ADD, MUL]), operands, 7)
    with pytest.raises(TaskError, match="unknown operator token 9"):
        chain_step(2, 9, 3, 5)


def test_generated_gold_traces_reverify():
    cfg = TaskConfig(modulus=7, chain_length=3)
    problems = generate_problems(cfg, 10_000, seed=5)
    vocab = cfg.vocab()
    for p in problems:
        v0, ops, operands = decode_question(p.question.tokens, cfg.modulus)
        vals = oracle_chain(v0, ops, operands, cfg.modulus)
        expected = tuple(vocab.value_token(v) for v in vals) + (
            ANSWER_MARK,
            vocab.value_token(vals[-1]),
            EOS,
        )
        assert p.gold_trace.tokens == expected
        assert p.gold_answer == vocab.value_token(vals[-1])


def test_problem_generation_deterministic():
    cfg = TaskConfig()
    a = generate_problems(cfg, 5, seed=3)
    b = generate_problems(cfg, 5, seed=3)
    assert [p.question.tokens for p in a] == [p.question.tokens for p in b]


@pytest.mark.parametrize("modulus", (3, 5, 7, 11, 13, 97))
@pytest.mark.parametrize("ops", ((ADD,), (MUL,), (ADD, MUL)))
def test_problems_equal_scalar_draw_reference(modulus, ops):
    # the array draws of generate_problems against one scalar draw per value
    for chain_length in (1, 2, 5, 9):
        cfg = TaskConfig(modulus=modulus, chain_length=chain_length, ops=ops)
        got = generate_problems(cfg, 40, seed=modulus * chain_length)
        want = reference_problems(cfg, 40, seed=modulus * chain_length)
        for g, w in zip(got, want, strict=True):
            assert g.question.tokens == w.question.tokens
            assert g.gold_answer == w.gold_answer
            assert g.gold_trace == w.gold_trace


def test_noiseless_teacher_reproduces_gold_trace():
    cfg = TaskConfig(modulus=5, chain_length=3)
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    for p in generate_problems(cfg, 20, seed=9):
        trace = []
        ctx = list(p.question.tokens)
        for _ in range(20):
            dist = teacher.next_token_distribution(ctx)
            tok = int(np.argmax(dist))
            assert dist[tok] == 1.0
            trace.append(tok)
            ctx.append(tok)
            if tok == EOS:
                break
        assert tuple(trace) == p.gold_trace.tokens


def test_teacher_distribution_levels():
    cfg = TaskConfig(modulus=5, chain_length=1)  # vocab size 10
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    p = generate_problems(cfg, 1, seed=1)[0]
    dist = teacher.next_token_distribution(p.question)
    expected = p.gold_trace.tokens[0]
    assert np.isclose(dist[expected], 0.9, atol=1e-15)
    others = np.delete(dist, expected)
    assert np.allclose(others, 0.1 / 9, atol=1e-15)
    assert abs(dist.sum() - 1.0) < 1e-12


def expected_next(teacher, context):
    """The teacher's expected token after ``context`` (-1 for its sink), read
    from a one-row automaton state."""
    return int(teacher.rollout_state([context]).targets(np.zeros(1, dtype=np.int64))[0])


def test_teacher_recomputes_from_wrong_prefix():
    # oracle: semantics re-execution from the deviant prefix state
    cfg = TaskConfig(modulus=7, chain_length=3)
    vocab = cfg.vocab()
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    for p in generate_problems(cfg, 50, seed=17):
        v0, ops, operands = decode_question(p.question.tokens, cfg.modulus)
        wrong_v1 = (oracle_chain(v0, ops, operands, cfg.modulus)[0] + 1) % cfg.modulus
        ctx = list(p.question.tokens) + [vocab.value_token(wrong_v1)]
        expected_v2 = oracle_chain(wrong_v1, ops[1:], operands[1:], cfg.modulus)[0]
        assert expected_next(teacher, ctx) == vocab.value_token(expected_v2)


def test_teacher_answer_and_post_answer_expectations():
    cfg = TaskConfig(modulus=5, chain_length=1)
    vocab = cfg.vocab()
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    p = generate_problems(cfg, 1, seed=4)[0]
    v1 = p.gold_trace.tokens[0]
    ctx = list(p.question.tokens) + [v1]
    assert expected_next(teacher, ctx) == ANSWER_MARK
    ctx.append(ANSWER_MARK)
    assert expected_next(teacher, ctx) == v1
    ctx.append(v1)
    assert expected_next(teacher, ctx) == EOS
    # junk after the answer: the sensible continuation is still EOS
    ctx.append(vocab.value_token(0))
    assert expected_next(teacher, ctx) == EOS


def test_teacher_sink_is_point_mass_on_eos():
    cfg = TaskConfig(modulus=5, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    p = generate_problems(cfg, 1, seed=4)[0]
    for junk in (BOS, ADD):
        dist = teacher.next_token_distribution(list(p.question.tokens) + [junk])
        assert dist[EOS] == 1.0 and dist.sum() == 1.0
    after_eos = list(p.question.tokens) + list(p.gold_trace.tokens)
    dist = teacher.next_token_distribution(after_eos)
    assert dist[EOS] == 1.0


def test_epsilon_ordering_enforced():
    with pytest.raises(Exception):
        TeacherSpec(epsilon_instructed=0.3, epsilon_plain=0.1)


def test_corpus_all_correct_at_zero_noise():
    cfg = TaskConfig(modulus=5, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 200, seed=2), seed=3, max_len=16)
    assert all(r.teacher_correct for r in corpus)
    assert all(r.trace.ends_with_eos for r in corpus)


def test_cached_logps_match_analytic_teacher():
    cfg = TaskConfig(modulus=5, chain_length=2)  # vocab size 10
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 100, seed=6), seed=7, max_len=16)
    saw_correct_token = False
    for r in corpus:
        ctx = list(r.question.tokens)
        for t, tok in enumerate(r.trace.tokens):
            dist = teacher.next_token_distribution(ctx)
            assert abs(r.teacher_token_logps[t] - math.log(dist[tok])) < 1e-12
            assert r.teacher_token_logps[t] <= 0.0
            if np.isclose(dist[tok], 0.9):
                saw_correct_token = True
                assert abs(r.teacher_token_logps[t] - math.log(0.9)) < 1e-12
            ctx.append(tok)
    assert saw_correct_token


# --- exact success-probability oracle: DP over the teacher automaton ---------

def success_probability_dp(problem, m, L, eps, max_len):
    """P(trace teacher-correct) under the automaton, by exact enumeration.

    State: (position, phase, steps_done, running, flag) where flag is
    'none' (no marker yet), 'pending' (marker just emitted), or a decision.
    Emissions follow 1-eps on the expected token and eps/(V-1) elsewhere;
    the sink emits EOS with probability one. Truncation at max_len counts
    as incorrect regardless of the flag.
    """
    V = m + 5
    v0, ops, operands = decode_question(problem.question.tokens, m)
    gold = oracle_chain(v0, ops, operands, m)[-1]

    STEPS, ANSWER, POST, SINK = 0, 1, 2, 3
    start = (STEPS, 0, v0, "none")
    states = {start: 1.0}
    p_correct = 0.0

    def expected(phase, steps, running):
        if phase == STEPS:
            if steps < L:
                nxt = (running + operands[steps]) % m if ops[steps] == ADD else (running * operands[steps]) % m
                return 5 + nxt
            return ANSWER_MARK
        if phase == ANSWER:
            return 5 + running
        if phase == POST:
            return EOS
        return None

    for _pos in range(max_len):
        nxt_states = {}

        def put(state, prob):
            nxt_states[state] = nxt_states.get(state, 0.0) + prob

        for (phase, steps, running, flag), prob in states.items():
            exp_tok = expected(phase, steps, running)
            emissions = (
                [(EOS, 1.0)]
                if exp_tok is None
                else [(tok, (1.0 - eps) if tok == exp_tok else eps / (V - 1)) for tok in range(V)]
            )
            for tok, p_tok in emissions:
                if p_tok == 0.0:
                    continue
                p = prob * p_tok
                new_flag = flag
                if flag == "pending":
                    new_flag = "correct" if tok == 5 + gold else "wrong"
                elif flag == "none" and tok == ANSWER_MARK:
                    new_flag = "pending"
                if tok == EOS:
                    if new_flag == "correct":
                        p_correct += p
                    continue
                if phase == SINK:
                    new_state = (SINK, steps, running, new_flag)
                elif phase == STEPS:
                    if 5 <= tok < 5 + m:
                        new_state = (STEPS, min(steps + 1, L), tok - 5, new_flag)
                    elif tok == ANSWER_MARK:
                        new_state = (ANSWER, steps, running, new_flag)
                    else:
                        new_state = (SINK, steps, running, new_flag)
                elif phase == ANSWER:
                    if 5 <= tok < 5 + m:
                        new_state = (POST, steps, running, new_flag)
                    elif tok == ANSWER_MARK:
                        new_state = (ANSWER, steps, running, new_flag)
                    else:
                        new_state = (SINK, steps, running, new_flag)
                else:
                    new_state = (POST, steps, running, new_flag)
                put(new_state, p)
        states = nxt_states
    return p_correct  # leftover mass is truncated, hence incorrect


def test_corpus_success_rate_matches_exact_dp():
    cfg = TaskConfig(modulus=5, chain_length=3)
    eps = 0.3
    max_len = 16
    teacher = teacher_policy(TeacherSpec(0.05, eps, instructed=False), cfg)
    problems = generate_problems(cfg, 100, seed=12)
    corpus = generate_corpus(teacher, problems, seed=13, samples_per_problem=100, max_len=max_len)
    assert len(corpus) == 10_000
    empirical = np.mean([r.teacher_correct for r in corpus])
    probs = [success_probability_dp(p, cfg.modulus, cfg.chain_length, eps, max_len) for p in problems]
    exact = float(np.mean(probs))
    # per-problem Bernoulli variance, 100 draws per problem
    var = float(np.sum([q * (1 - q) for q in probs])) * 100 / (10_000**2)
    assert abs(empirical - exact) < 3 * math.sqrt(var)


def test_filter_identity_and_error():
    cfg = TaskConfig(modulus=5, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 50, seed=21), seed=22, max_len=16)
    kept, stats = filter_teacher_correct(corpus)
    assert len(kept) == 50 and stats.retention_rate == 1.0
    for r in corpus.records:
        r.teacher_correct = False
    with pytest.raises(EmptyCorpusError):
        filter_teacher_correct(corpus)


def test_filter_mixed_counts():
    cfg = TaskConfig(modulus=5, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.0, 0.3), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 100, seed=23), seed=24, max_len=16)
    for i, r in enumerate(corpus.records):
        r.teacher_correct = i < 63
    kept, stats = filter_teacher_correct(corpus)
    assert len(kept) == 63
    assert stats.retention_rate == 0.63
    assert all(r.teacher_correct for r in kept)
    # order preserved
    assert [id(r) for r in kept.records] == [id(r) for r in corpus.records[:63]]


def test_truncated_trace_marked_incorrect():
    cfg = TaskConfig(modulus=5, chain_length=1)
    teacher = teacher_policy(TeacherSpec(0.0, 0.9, instructed=False), cfg)
    # plain teacher with eps=0.9 rarely terminates within 3 tokens
    corpus = generate_corpus(teacher, generate_problems(cfg, 40, seed=31), seed=32, max_len=3)
    truncated = [r for r in corpus if r.truncated]
    assert truncated, "expected at least one truncated trace"
    assert all(not r.teacher_correct for r in truncated)


def test_corpus_record_streams_positional():
    # record streams derive from (seed, record index): regenerating the same
    # problem list reproduces every record bit-for-bit, and a shifted problem
    # list changes them (the stream is positional, not content-keyed)
    cfg = TaskConfig(modulus=5, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    problems = generate_problems(cfg, 12, seed=61)
    a = generate_corpus(teacher, problems, seed=62, max_len=16)
    b = generate_corpus(teacher, problems, seed=62, max_len=16)
    for ra, rb in zip(a, b):
        assert ra.trace.tokens == rb.trace.tokens
        assert np.array_equal(ra.teacher_token_logps, rb.teacher_token_logps)
    shifted = generate_corpus(teacher, problems[1:], seed=62, max_len=16)
    assert shifted.records[0].question.tokens == a.records[1].question.tokens


def test_corpus_round_trip(tmp_path):
    cfg = TaskConfig(modulus=7, chain_length=2)
    teacher = teacher_policy(TeacherSpec(0.1, 0.3), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 30, seed=41), seed=42, max_len=16)
    path = tmp_path / "corpus.txt"
    write_corpus(corpus, path, header_comment="config_hash=deadbeef")
    back = read_corpus(path)
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert a.question.tokens == b.question.tokens
        assert a.trace.tokens == b.trace.tokens
        assert np.array_equal(a.teacher_token_logps, b.teacher_token_logps)  # bit-exact
        assert a.teacher_correct == b.teacher_correct


def test_answer_token_extraction():
    assert answer_token(TokenSequence((5, ANSWER_MARK, 6, EOS), "trace")) == 6
    assert answer_token(TokenSequence((5, 6, EOS), "trace")) is None
    assert answer_token(TokenSequence((5, ANSWER_MARK), "trace")) is None
    # the one marker search behind answer_token and trace quality's post-answer count
    assert answer_index((5, ANSWER_MARK, 6, ANSWER_MARK, 7)) == 2
    assert answer_index((ANSWER_MARK,)) is None and answer_index((5, 6)) is None and answer_index(()) is None
