"""Evaluation apparatus: answer accuracy, prefix-drift curves, trace quality.

The drift metric compares how far the student's next-token behavior sits from
the teacher's, accumulated along two kinds of prefixes: the teacher's own
rollouts (the distribution training saw) and self- or base-student-generated
rollouts (the distribution inference visits). For a horizon l,

    E_ref(l)  = sum_{t <= l} KL(teacher || student) on reference prefixes
    E_self(l) = sum_{t <= l} KL(teacher || student) on generated prefixes
    value(l)  = 100 * (E_self(l) - E_ref(l)) / E_ref(l), averaged per problem

Rollouts shorter than a horizon contribute up to their length. Problems whose
reference accumulation sits below ``KL_FLOOR`` are skipped for that horizon
(the curve records that the floor fired); with analytic policies the reference
term can be exactly zero, which never happens with real models.

``exaccerr`` samples one rollout pair per problem; ``exaccerr_exact``
enumerates the full rollout tree of both policies and weights every pair by
its probability, which only makes sense for tiny vocabularies but gives
oracle-grade numbers. Both score KL on the models' P-row ``rollout_state``s,
inside the lockstep rollout or a tree level at a time, never one prefix at a time.
The sampled curves also take a list of students, and score them all on the
same rollouts of the teacher and of the prefix source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import kl_divergences, rollouts
from .policy import greedy_decode, sample_sequence  # noqa: F401 -- bench/tracer.py wraps these names here
from .streams import uniform_block
from .task import ProblemInstance, answer_index, answer_token
from .vocab import ANSWER_MARK, EOS, TokenSequence

KL_FLOOR = 1e-9
# the most rollouts, finished and live, that one tree of ``exaccerr_exact`` may hold
MAX_TREE_ROWS = 200000


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


def _horizon_sums(divs: np.ndarray, horizons) -> np.ndarray:
    """Each row's KL summed up to every horizon, (..., rows, H), from one cumsum
    over the zero-padded (..., rows, n) divergences; past a row's end, and at a
    horizon past n, a row reads its total."""
    n = divs.shape[-1]
    return np.cumsum(divs, axis=-1)[..., [min(h, n) - 1 for h in horizons]]


def _checked_horizons(horizons) -> tuple[int, ...]:
    horizons = tuple(horizons)
    if not horizons or any(h < 1 for h in horizons):
        raise ValueError("horizons must be non-empty and >= 1")
    return horizons


def _aggregate_curve(per_problem_ref, per_problem_self, horizons) -> ExAccErrCurve:
    """Mean over problems of 100 * (E_self - E_ref) / E_ref at each horizon,
    skipping problems whose E_ref lies below ``KL_FLOOR``. The ratios are added
    problem by problem from 0.0, as a running sum would."""
    horizons = tuple(horizons)
    e_ref = np.asarray(per_problem_ref, dtype=np.float64).reshape(-1, len(horizons))
    e_self = np.asarray(per_problem_self, dtype=np.float64).reshape(-1, len(horizons))
    skipped = e_ref < KL_FLOOR
    ratios = np.zeros_like(e_ref)
    np.divide(100.0 * (e_self - e_ref), e_ref, out=ratios, where=~skipped)
    acc = np.cumsum(np.vstack([np.zeros(len(horizons)), ratios]), axis=0)[-1]
    counts = np.count_nonzero(~skipped, axis=0)
    values = np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
    return ExAccErrCurve(horizons=horizons, values=values, floor_used=bool(skipped.any()))


def _drift_curves(
    teacher, students, source, problems, horizons, seed: int, max_len: int
) -> ExAccErrCurve | list[ExAccErrCurve]:
    """Mean excess of each student's drift on generated rollouts over its drift
    on teacher rollouts, one rollout of each per problem: one curve per student
    of a list, or the one curve of a single student.

    Row idx of every rollout draws from its own stream ``stream(seed, idx,
    tag)``, tag 0 for the teacher's and 1 for the generated ones, so that
    curves are paired across students. All students are scored on the same
    teacher rollouts, and on the same rollouts of ``source``; with no source,
    each student rolls itself out. KL(teacher || student) comes out of the
    rollouts themselves. No position past the longest horizon is read, so
    rollouts stop there; a row's first tokens are drawn from the same uniforms
    either way.
    """
    if not isinstance(students, (list, tuple)):
        return _drift_curves(teacher, [students], source, problems, horizons, seed, max_len)[0]
    horizons = _checked_horizons(horizons)
    questions = [problem.question for problem in problems]
    n = min(max_len, max(horizons))

    def accumulated(model, group, tag):
        """The (C, P, H) KL of ``group`` accumulated along ``model``'s rollouts."""
        uniforms = uniform_block((seed, np.arange(len(questions)), tag), n)
        divs = rollouts(model, questions, n, uniforms=uniforms, divergence=(teacher, group)).divergences
        return _horizon_sums(divs, horizons)

    refs = accumulated(teacher, students, 0)
    if source is None:
        selfs = [accumulated(student, [student], 1)[0] for student in students]
    else:
        selfs = accumulated(source, students, 1)
    return [_aggregate_curve(ref, own, horizons) for ref, own in zip(refs, selfs)]


def exaccerr(
    teacher,
    student,
    problems: list[ProblemInstance],
    horizons,
    seed: int,
    max_len: int = 24,
) -> ExAccErrCurve | list[ExAccErrCurve]:
    """Sampled drift curve: one teacher rollout and one student rollout per problem.

    Rollout streams derive from (seed, problem index), so curves for different
    trained policies evaluated with the same seed are paired comparisons.
    Given a list of students, gives a list of their curves, all scored on one
    set of teacher rollouts.
    """
    return _drift_curves(teacher, student, None, problems, horizons, seed, max_len)


def prefix_drift_eval(
    prefix_source_policy,
    trained_policy,
    teacher,
    problems: list[ProblemInstance],
    horizons,
    seed: int,
    max_len: int = 24,
) -> ExAccErrCurve | list[ExAccErrCurve]:
    """Drift curve with generated prefixes drawn from a fixed prefix source.

    The prefix source is typically the untrained base student; its partial
    rollouts are truncated at each horizon and the trained policy is scored on
    them, against the same accumulation along teacher-rollout prefixes.
    Given a list of trained policies, gives a list of their curves, all scored
    on one set of teacher rollouts and one of prefix-source rollouts.
    """
    horizons = tuple(horizons)
    if max(horizons, default=1) > max_len:
        raise ValueError("horizons must stay within the rollout length cap")
    return _drift_curves(teacher, trained_policy, prefix_source_policy, problems, horizons, seed, max_len)


def _rollout_tree(source, teacher, student, question: TokenSequence, max_len: int):
    """Every rollout of ``source`` on ``question``, until EOS or ``max_len``
    tokens, a tree level at a time: the leaves' probabilities and their
    (leaves, max_len) KL(teacher || student) at each prefix, 0 past the end.
    At depth t the live prefixes are the rows of one ``rollout_state`` per
    model, and each row grows by every token the source gives mass."""
    prefixes = np.zeros((1, 0), dtype=np.int64)
    probs, divs = np.ones(1), np.zeros((1, max_len))
    leaf_probs, leaf_divs = [], []
    for t in range(max_len):
        contexts = [[*question, *prefix] for prefix in prefixes.tolist()]
        rows = np.arange(len(contexts))
        p = teacher.rollout_state(contexts).distributions(rows)
        s_state = student.rollout_state(contexts)
        if source is teacher:
            dist, q_log = p, s_state.log_distributions(rows)
        else:
            dist, q_log = s_state.scored(rows)
        divs[:, t] = kl_divergences(p, q_log)
        parent, tok = np.nonzero(dist > 0.0)
        if sum(map(len, leaf_probs)) + parent.size > MAX_TREE_ROWS:
            raise ValueError("rollout tree too large to enumerate")
        prefixes = np.hstack([prefixes[parent], tok[:, None]])
        probs, divs = probs[parent] * dist[parent, tok], divs[parent]
        ends = (tok == EOS) | (t + 1 == max_len)
        leaf_probs.append(probs[ends])
        leaf_divs.append(divs[ends])
        prefixes, probs, divs = prefixes[~ends], probs[~ends], divs[~ends]
        if not probs.size:
            break
    return np.concatenate(leaf_probs), np.vstack(leaf_divs)


def exaccerr_exact(
    teacher,
    student,
    question: TokenSequence,
    horizons,
    max_len: int = 8,
) -> ExAccErrCurve:
    """Expectation-exact drift curve for one question via full tree enumeration.

    Every (teacher rollout, student rollout) pair contributes its probability-
    weighted ratio; pairs whose reference accumulation is below ``KL_FLOOR`` are
    dropped and the remaining mass renormalized.
    """
    horizons = _checked_horizons(horizons)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    t_probs, t_divs = _rollout_tree(teacher, teacher, student, question, max_len)
    s_probs, s_divs = _rollout_tree(student, teacher, student, question, max_len)
    e_ref, e_self = _horizon_sums(t_divs, horizons), _horizon_sums(s_divs, horizons)
    # the sum over pairs of tp * sp * (e_self / e_ref - 1) splits into one sum per tree
    kept = e_ref >= KL_FLOOR
    t_mass = np.where(kept, t_probs[:, None], 0.0)
    mass = s_probs.sum() * t_mass.sum(axis=0)
    num = 100.0 * (s_probs @ e_self * (t_mass / np.where(kept, e_ref, 1.0)).sum(axis=0) - mass)
    values = np.divide(num, mass, out=np.zeros(len(horizons)), where=mass > 0.0)
    return ExAccErrCurve(horizons=horizons, values=values, floor_used=not kept.all())


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
        i = answer_index(toks)
        if i is not None and i + 1 < len(toks):
            post_answer += 1
    n = len(traces)
    return TraceQualityReport(
        mean_length=float(np.mean(lengths)),
        repeated_4gram_fraction=float(np.mean(rep4)),
        post_answer_rate=post_answer / n,
        multi_answer_rate=multi_answer / n,
        n_traces=n,
    )
