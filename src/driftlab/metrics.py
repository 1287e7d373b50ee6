"""Evaluation apparatus: answer accuracy, prefix-drift curves, trace quality.

The drift metric compares how far the student's next-token behavior sits from
the teacher's, accumulated along two kinds of prefixes: the teacher's own
rollouts (the distribution training saw) and self- or base-student-generated
rollouts (the distribution inference visits). For a horizon l,

    E_ref(l)  = sum_{t <= l} KL(teacher || student) on reference prefixes
    E_self(l) = sum_{t <= l} KL(teacher || student) on generated prefixes
    value(l)  = 100 * (E_self(l) - E_ref(l)) / E_ref(l), averaged per problem

Rollouts shorter than a horizon contribute up to their length. Problems whose
reference accumulation sits below a small floor are skipped for that horizon
(the curve records that the floor fired); with analytic policies the reference
term can be exactly zero, which never happens with real models.

``exaccerr`` samples one rollout pair per problem; ``exaccerr_exact``
enumerates the full rollout tree of both policies and weights every pair by
its probability, which only makes sense for tiny vocabularies but gives
oracle-grade numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import kl_divergences, rollouts
from .policy import greedy_decode, sample_sequence  # noqa: F401 -- bench/tracer.py wraps these names here
from .task import ProblemInstance, answer_token
from .vocab import ANSWER_MARK, EOS, TokenSequence

KL_FLOOR = 1e-9


@dataclass
class ExAccErrCurve:
    horizons: tuple[int, ...]
    values: np.ndarray
    floor_used: bool


@dataclass
class TraceQualityReport:
    mean_length: float
    repeated_4gram_fraction: float
    post_answer_rate: float
    multi_answer_rate: float
    n_traces: int


def final_answer_accuracy(policy, problems: list[ProblemInstance], max_len: int = 24, traces=None) -> float:
    """Greedy-decode each problem; correct iff the token after the first answer
    marker equals the gold answer. No marker within ``max_len`` counts as wrong.

    ``traces`` are greedy decodes of ``problems`` that the caller has already
    made (for trace quality, say); they are scored instead of decoding again.
    """
    if not problems:
        raise ValueError("need at least one problem")
    if traces is None:
        traces = rollouts(policy, [problem.question for problem in problems], max_len).traces
    hits = sum(answer_token(trace) == problem.gold_answer for problem, trace in zip(problems, traces, strict=True))
    return hits / len(problems)


def rollout_divergences(teacher, student, question: TokenSequence, rollout) -> np.ndarray:
    """Per-position KL(teacher || student) along the given rollout's prefixes,
    from one ``next_token_distribution`` and one ``log_next_token_distribution``
    call per prefix: the form the tree enumeration of ``exaccerr_exact`` needs."""
    full = [*question, *rollout]
    contexts = [full[:t] for t in range(len(full) - len(rollout), len(full))]
    V = teacher.vocab.size
    p = np.array([teacher.next_token_distribution(ctx) for ctx in contexts]).reshape(-1, V)
    q_log = np.array([student.log_next_token_distribution(ctx) for ctx in contexts]).reshape(-1, V)
    return kl_divergences(p, q_log)


def _accumulated(teacher, student, source, questions, max_len: int, seed: int, tag: int, horizons) -> np.ndarray:
    """Roll ``source`` out once per question in lockstep, row idx drawing from
    its own stream SeedSequence([seed, idx, tag]) so that curves are paired
    across policies, and accumulate KL(teacher || student) along each rollout
    up to every horizon: a (P, H) array.

    The divergences come out of the rollout itself. No position past the
    longest horizon is read, so rollouts stop there; a row's first tokens are
    drawn from the same uniforms either way.
    """
    n = min(max_len, max(horizons))
    streams = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, idx, tag]))) for idx in range(len(questions))
    )
    divs = rollouts(source, questions, n, streams, private_streams=True, divergence=(teacher, student)).divergences
    # positions past a row's end hold 0, so its sum stays at its total there
    return np.cumsum(divs, axis=1)[:, [min(h, n) - 1 for h in horizons]]


def _cumulative(divs: np.ndarray, horizons) -> np.ndarray:
    sums = np.concatenate([[0.0], np.cumsum(divs)])
    return np.array([sums[min(h, len(divs))] for h in horizons])


def _aggregate_curve(per_problem_ref, per_problem_self, horizons, floor) -> ExAccErrCurve:
    """Mean over problems of 100 * (E_self - E_ref) / E_ref at each horizon,
    skipping problems whose E_ref lies below ``floor``. The ratios are added
    problem by problem from 0.0, as a running sum would."""
    horizons = tuple(horizons)
    e_ref = np.asarray(per_problem_ref, dtype=np.float64).reshape(-1, len(horizons))
    e_self = np.asarray(per_problem_self, dtype=np.float64).reshape(-1, len(horizons))
    skipped = e_ref < floor
    ratios = np.zeros_like(e_ref)
    np.divide(100.0 * (e_self - e_ref), e_ref, out=ratios, where=~skipped)
    acc = np.cumsum(np.vstack([np.zeros(len(horizons)), ratios]), axis=0)[-1]
    counts = np.count_nonzero(~skipped, axis=0)
    values = np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
    return ExAccErrCurve(horizons=horizons, values=values, floor_used=bool(skipped.any()))


def _drift_curve(teacher, student, source, problems, horizons, seed: int, max_len: int, floor: float) -> ExAccErrCurve:
    """Mean excess of the student's drift on ``source`` rollouts over its drift
    on teacher rollouts, one rollout of each per problem."""
    horizons = tuple(horizons)
    if not horizons or any(h < 1 for h in horizons):
        raise ValueError("horizons must be non-empty and >= 1")
    questions = [problem.question for problem in problems]
    refs = _accumulated(teacher, student, teacher, questions, max_len, seed, 0, horizons)
    selfs = _accumulated(teacher, student, source, questions, max_len, seed, 1, horizons)
    return _aggregate_curve(refs, selfs, horizons, floor)


def exaccerr(
    teacher,
    student,
    problems: list[ProblemInstance],
    horizons,
    seed: int,
    max_len: int = 24,
    floor: float = KL_FLOOR,
) -> ExAccErrCurve:
    """Sampled drift curve: one teacher rollout and one student rollout per problem.

    Rollout streams derive from (seed, problem index), so curves for different
    trained policies evaluated with the same seed are paired comparisons.
    """
    return _drift_curve(teacher, student, student, problems, horizons, seed, max_len, floor)


def prefix_drift_eval(
    prefix_source_policy,
    trained_policy,
    teacher,
    problems: list[ProblemInstance],
    horizons,
    seed: int,
    max_len: int = 24,
    floor: float = KL_FLOOR,
) -> ExAccErrCurve:
    """Drift curve with generated prefixes drawn from a fixed prefix source.

    The prefix source is typically the untrained base student; its partial
    rollouts are truncated at each horizon and the trained policy is scored on
    them, against the same accumulation along teacher-rollout prefixes.
    """
    horizons = tuple(horizons)
    if max(horizons, default=1) > max_len:
        raise ValueError("horizons must stay within the rollout length cap")
    return _drift_curve(teacher, trained_policy, prefix_source_policy, problems, horizons, seed, max_len, floor)


def enumerate_rollouts(policy, question: TokenSequence, max_len: int, prob_floor: float = 0.0, max_leaves: int = 200000):
    """All rollouts (token tuple, probability) of a policy; tiny vocabularies only."""
    leaves: list[tuple[tuple[int, ...], float]] = []
    stack = [((), 1.0)]
    while stack:
        prefix, prob = stack.pop()
        if prefix and prefix[-1] == EOS:
            leaves.append((prefix, prob))
            continue
        if len(prefix) == max_len:
            leaves.append((prefix, prob))
            continue
        dist = policy.next_token_distribution(list(question.tokens) + list(prefix))
        for tok, p in enumerate(dist):
            if p > prob_floor:
                stack.append((prefix + (tok,), prob * float(p)))
        if len(stack) + len(leaves) > max_leaves:
            raise ValueError("rollout tree too large to enumerate")
    return leaves


def exaccerr_exact(
    teacher,
    student,
    question: TokenSequence,
    horizons,
    max_len: int = 8,
    floor: float = KL_FLOOR,
) -> ExAccErrCurve:
    """Expectation-exact drift curve for one question via full tree enumeration.

    Every (teacher rollout, student rollout) pair contributes its probability-
    weighted ratio; pairs whose reference accumulation is below the floor are
    dropped and the remaining mass renormalized.
    """
    horizons = tuple(horizons)
    t_leaves = enumerate_rollouts(teacher, question, max_len)
    s_leaves = enumerate_rollouts(student, question, max_len)
    t_cums = [_cumulative(rollout_divergences(teacher, student, question, toks), horizons) for toks, _ in t_leaves]
    s_cums = [_cumulative(rollout_divergences(teacher, student, question, toks), horizons) for toks, _ in s_leaves]
    values = np.zeros(len(horizons))
    floor_used = False
    for j in range(len(horizons)):
        num = 0.0
        mass = 0.0
        for (_, tp), e_ref in zip(t_leaves, t_cums):
            if e_ref[j] < floor:
                floor_used = True
                continue
            for (_, sp), e_self in zip(s_leaves, s_cums):
                num += tp * sp * 100.0 * (e_self[j] - e_ref[j]) / e_ref[j]
                mass += tp * sp
        values[j] = num / mass if mass > 0.0 else 0.0
    return ExAccErrCurve(horizons=horizons, values=values, floor_used=floor_used)


def repeated_4gram_fraction(trace) -> float:
    """1 - distinct/total over consecutive 4-grams; 0 when fewer than four tokens."""
    toks = trace.up_to_eos() if isinstance(trace, TokenSequence) else tuple(trace)
    total = len(toks) - 3
    if total <= 0:
        return 0.0
    grams = {tuple(toks[i : i + 4]) for i in range(total)}
    return 1.0 - len(grams) / total


def trace_quality(traces) -> TraceQualityReport:
    """Aggregate trace statistics; length and n-grams ignore the EOS terminator."""
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    lengths = []
    rep4 = []
    post_answer = 0
    multi_answer = 0
    for trace in traces:
        toks = trace.up_to_eos()
        lengths.append(len(toks))
        rep4.append(repeated_4gram_fraction(trace))
        if toks.count(ANSWER_MARK) >= 2:
            multi_answer += 1
        if ANSWER_MARK in toks:
            idx = toks.index(ANSWER_MARK)
            if idx + 1 < len(toks) and len(toks) - (idx + 2) >= 1:
                post_answer += 1
    n = len(traces)
    return TraceQualityReport(
        mean_length=float(np.mean(lengths)),
        repeated_4gram_fraction=float(np.mean(rep4)),
        post_answer_rate=post_answer / n,
        multi_answer_rate=multi_answer / n,
        n_traces=n,
    )
