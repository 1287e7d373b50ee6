"""Distillation objectives over cached teacher traces.

Every loss shares one kernel, ``batch_loss``: one student forward scores all
N teacher-forced prefixes of a batch of records at once, and its (N, V)
log-softmax is shared by the per-token correction weights and the loss, whose
(N, V) logit gradient goes back through one batched backward. The per-record
losses are its one-record case. The weights are
transforms of the token-level log-density gap

    delta_t = log p_student(y_t | prefix) - log p_teacher(y_t | prefix)

and always enter the loss as stop-gradient constants: they are recomputed from
the live student on every call, but the returned gradient treats them as
fixed. Available transforms: constant-one (plain supervision), a bounded
sigmoid (default), the raw exponential ratio, a clipped exponential, a
one-sided ReLU, and a whole-sequence sigmoid applied to the summed gap.

At unit temperature the sigmoid weight equals p_s / (p_s + p_t): the posterior
probability that the token came from the student rather than the teacher under
an even prior, which is what makes it a calibrated support measure.

The online reference baseline mixes student-rollout prefixes into the batch
and scores each position with a generalized Jensen-Shannon divergence
JS_beta(P, Q) = beta * KL(P || M) + (1 - beta) * KL(Q || M), where P is the
teacher, Q the student, and M = beta * Q + (1 - beta) * P. At beta = 1 this is
KL(P || Q); at beta = 0 it is KL(Q || P).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .policy import _log_softmax, flat_tokens, rollouts, sample_sequence, stacked_windows
from .task import CorpusRecord, TraceCorpus
from .vocab import TokenSequence

TAU_DIVIDE = "divide"
TAU_MULTIPLY = "multiply"

TRANSFORM_KINDS = ("constant-one", "sigmoid", "raw-ratio", "clip-exp", "relu", "sequence-sigmoid")
BASE_KINDS = ("sft", "forward-kl", "reverse-kl", "symmetric-kl", "gkd")
_KL_DIRECTIONS = {"forward-kl": "forward", "reverse-kl": "reverse", "symmetric-kl": "symmetric"}
_KL_BASES = {direction: base for base, direction in _KL_DIRECTIONS.items()}


class ObjectiveError(ValueError):
    pass


def _sigmoid(x):
    """Logistic function, elementwise; exp never overflows on either side of 0."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


@dataclass(frozen=True)
class WeightTransform:
    kind: str = "constant-one"
    tau: float = 1.0
    tau_convention: str = TAU_DIVIDE
    clip: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise ObjectiveError(f"unknown transform kind {self.kind!r}")
        if self.tau <= 0:
            raise ObjectiveError("temperature must be positive")
        if self.clip <= 0:
            raise ObjectiveError("clip bound must be positive")
        if self.tau_convention not in (TAU_DIVIDE, TAU_MULTIPLY):
            raise ObjectiveError(f"unknown tau convention {self.tau_convention!r}")

    def scaled(self, delta):
        if self.tau_convention == TAU_DIVIDE:
            return delta / self.tau
        return delta * self.tau


CONSTANT_ONE = WeightTransform("constant-one")


@dataclass(frozen=True)
class ObjectiveSpec:
    base: str = "sft"
    transform: WeightTransform = CONSTANT_ONE
    gkd_lambda: float = 0.0
    gkd_beta: float = 0.5

    def __post_init__(self) -> None:
        if self.base not in BASE_KINDS:
            raise ObjectiveError(f"unknown objective base {self.base!r}")
        if not 0.0 <= self.gkd_lambda <= 1.0 or not 0.0 <= self.gkd_beta <= 1.0:
            raise ObjectiveError("gkd mixing parameters must lie in [0, 1]")


@dataclass
class LossResult:
    loss: float
    grad: np.ndarray
    token_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))


def token_delta(student_logp, teacher_logp):
    """Log-density gap; both inputs are treated as stop-gradient constants.

    Scalars give a float; arrays give the elementwise gaps.
    """
    s = np.asarray(student_logp, dtype=np.float64)
    t = np.asarray(teacher_logp, dtype=np.float64)
    if not (np.isfinite(s).all() and np.isfinite(t).all()):
        raise ObjectiveError("log-probabilities must be finite")
    return _scalar_or_array(s - t)


def apply_transform(delta, transform: WeightTransform):
    """Per-token weight of a gap, or elementwise weights of an array of gaps."""
    d = np.asarray(delta, dtype=np.float64)
    if not np.isfinite(d).all():
        raise ObjectiveError("delta must be finite")
    kind = transform.kind
    if kind == "constant-one":
        w = np.ones_like(d)
    elif kind == "sigmoid":
        w = _sigmoid(transform.scaled(d))
    elif kind == "raw-ratio":
        w = np.exp(d)
    elif kind == "clip-exp":
        w = np.exp(np.clip(d, -transform.clip, transform.clip))
    elif kind == "relu":
        w = np.maximum(d, 0.0)
    else:
        raise ObjectiveError(f"transform {kind!r} has no per-token form (use sequence_weight)")
    return _scalar_or_array(w)


def sequence_weight(trace_deltas, transform: WeightTransform) -> float:
    """Sigmoid of the summed gap: one weight for the whole trajectory."""
    deltas = list(trace_deltas)
    if not deltas:
        raise ObjectiveError("need at least one delta")
    return float(_sigmoid(transform.scaled(float(sum(deltas)))))


def nce_identity_residual(p_student: float, p_teacher: float) -> float:
    """|sigmoid(log(p_s/p_t)) - p_s/(p_s+p_t)|; zero up to rounding."""
    if not (0.0 < p_student < 1.0 and 0.0 < p_teacher < 1.0):
        raise ObjectiveError("probabilities must lie strictly inside (0, 1)")
    lhs = float(_sigmoid(math.log(p_student / p_teacher)))
    rhs = p_student / (p_student + p_teacher)
    return abs(lhs - rhs)


def _require_cached_logps(record: CorpusRecord) -> None:
    if record.teacher_token_logps is None or len(record.teacher_token_logps) != len(record.trace):
        raise ObjectiveError("record is missing cached teacher log-probabilities")


def _running_sum(terms: np.ndarray) -> float:
    """Left-to-right sum from 0.0: the rounding of a token-by-token accumulation."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


@dataclass
class TraceBatch:
    """B teacher-forced sequences, their N positions stacked record by record.

    Record b owns rows ``offsets[b]:offsets[b + 1]``. Row n holds one
    position: ``tokens`` the token to predict, ``windows`` the student's
    context window, ``teacher_logps`` the cached teacher log-probability of the
    token, and ``teacher_targets`` the analytic teacher's expected token (-1
    for its sink). An array that was not asked for is None. The whole corpus
    is one batch, built once per study; a training step takes its records'
    rows from it.
    """

    offsets: np.ndarray
    tokens: np.ndarray
    windows: np.ndarray | None = None
    teacher_logps: np.ndarray | None = None
    teacher_targets: np.ndarray | None = None

    @classmethod
    def build(cls, questions, traces, student=None, teacher=None, teacher_logps=None) -> "TraceBatch":
        """Stack (question, trace) pairs: context windows for a ``student``,
        expected tokens for a ``teacher``, and the per-record ``teacher_logps``
        when every record has them. Each array is allocated once, at its full
        size."""
        tokens, lengths = flat_tokens(traces)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        windows = None
        if student is not None:
            windows = stacked_windows(student.order, student.vocab.size, questions, traces)
        targets = None if teacher is None else teacher.trace_targets(questions, traces)
        logps = None
        if teacher_logps is not None and all(
            lp is not None and len(lp) == size for lp, size in zip(teacher_logps, lengths.tolist())
        ):
            logps = np.concatenate([np.zeros(0), *teacher_logps])
        return cls(offsets, tokens, windows, logps, targets)

    @classmethod
    def of_corpus(cls, corpus: TraceCorpus, student=None, teacher=None) -> "TraceBatch":
        records = corpus.records
        return cls.build(
            [r.question for r in records], [r.trace for r in records], student, teacher,
            [r.teacher_token_logps for r in records],
        )

    @property
    def row_records(self) -> np.ndarray:
        return np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))

    def take(self, records: np.ndarray) -> "TraceBatch":
        """The batch of the given records, in that order, gathered row by row."""
        lengths = np.diff(self.offsets)[records]
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        rows = np.repeat(self.offsets[records] - offsets[:-1], lengths) + np.arange(offsets[-1])

        def pick(values):
            return None if values is None else values[rows]

        return TraceBatch(
            offsets, self.tokens[rows], pick(self.windows), pick(self.teacher_logps), pick(self.teacher_targets)
        )


def _record_sums(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each record's terms summed left to right from 0.0, as ``_running_sum``
    does, through one zero-padded (B, Tmax + 1) cumsum."""
    lengths = np.diff(offsets)
    owner = np.repeat(np.arange(lengths.size), lengths)
    padded = np.zeros((lengths.size, int(lengths.max(initial=0)) + 1))
    padded[owner, np.arange(terms.size) - offsets[owner] + 1] = terms
    return np.cumsum(padded, axis=1)[np.arange(lengths.size), lengths]


def _teacher_rows(teacher, batch: TraceBatch) -> np.ndarray:
    """(N, V) teacher distributions at the batch's positions."""
    if teacher is None:
        raise ObjectiveError("this objective needs the analytic teacher for full distributions")
    if batch.teacher_targets is None:
        raise ObjectiveError("the batch has no teacher targets: build it with the teacher")
    return teacher.target_distributions(batch.teacher_targets)


def _token_weights(logp: np.ndarray, batch: TraceBatch, transform: WeightTransform) -> np.ndarray:
    """Correction weights at the batch's positions, from the student's (N, V)
    log-softmax; ``sequence-sigmoid`` sums each record's gaps left to right,
    as ``sequence_weight`` does."""
    n = batch.tokens.size
    if transform.kind == "constant-one":
        return np.ones(n)
    if batch.teacher_logps is None:
        raise ObjectiveError("record is missing cached teacher log-probabilities")
    deltas = token_delta(logp[np.arange(n), batch.tokens], batch.teacher_logps)
    if transform.kind == "sequence-sigmoid":
        return np.repeat(_sigmoid(transform.scaled(_record_sums(deltas, batch.offsets))), np.diff(batch.offsets))
    return np.asarray(apply_transform(deltas, transform))


def batch_loss(policy, batch: TraceBatch, spec: ObjectiveSpec, teacher=None, weights=None) -> LossResult:
    """The one loss kernel of every base, over all positions of a batch.

    One student forward and one log-softmax feed the weights (``weights``
    pins them instead), the SFT, KL or JS terms and their logit gradients, and
    one backward. The loss is the records' losses, each summed left to right,
    added in batch order; the gradient is the records' gradients added in
    batch order (reduced per record for tabular students).
    """
    if batch.windows is None:
        raise ObjectiveError("the batch has no context windows: build it with the student")
    logits, cache = policy.forward(batch.windows)
    logp, n = _log_softmax(logits), batch.tokens.size
    if spec.base == "gkd":
        w = np.ones(n)
        terms, dlogits = _js_terms(_teacher_rows(teacher, batch), logp, spec.gkd_beta)
    else:
        w = _token_weights(logp, batch, spec.transform) if weights is None else np.asarray(weights, dtype=np.float64)
        if spec.base == "sft":
            rows = np.arange(n)
            terms = -w * logp[rows, batch.tokens]
            dlogits = w[:, None] * np.exp(logp)
            dlogits[rows, batch.tokens] -= w
        else:
            values, dlogits = _kl_terms(_teacher_rows(teacher, batch), logp, _KL_DIRECTIONS[spec.base])
            terms, dlogits = w * values, w[:, None] * dlogits
    grad = np.zeros_like(policy.params)
    policy.backward(cache, dlogits, grad, batch.row_records)
    return LossResult(loss=_running_sum(_record_sums(terms, batch.offsets)), grad=grad, token_weights=w)


def _record_batch(policy, record: CorpusRecord, teacher=None) -> TraceBatch:
    return TraceBatch.build([record.question], [record.trace], policy, teacher, [record.teacher_token_logps])


def record_token_weights(policy, record: CorpusRecord, transform: WeightTransform) -> np.ndarray:
    """Correction weights for each trace token, computed from the live student."""
    _require_cached_logps(record)
    if transform.kind == "constant-one":
        return np.ones(len(record.trace))
    batch = _record_batch(policy, record)
    return _token_weights(_log_softmax(policy.forward(batch.windows)[0]), batch, transform)


def sft_loss_frozen(policy, record: CorpusRecord, weights: np.ndarray) -> LossResult:
    """Weighted negative log-likelihood with the weights held fixed."""
    return batch_loss(policy, _record_batch(policy, record), ObjectiveSpec("sft"), weights=weights)


def sft_loss(policy, record: CorpusRecord, transform: WeightTransform = CONSTANT_ONE) -> LossResult:
    _require_cached_logps(record)
    return batch_loss(policy, _record_batch(policy, record), ObjectiveSpec("sft", transform))


def _kl_terms(p_teacher: np.ndarray, q_log: np.ndarray, direction: str):
    """Per-position divergence values and their gradients w.r.t. the student logits.

    forward is KL(teacher || student), reverse KL(student || teacher), symmetric their mean.
    Rows are positions: (T, V) teacher distributions and student log-distributions
    give T values and (T, V) logit gradients.
    """
    q = np.exp(q_log)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(p_teacher)
        if direction in ("forward", "symmetric"):
            # teacher zeros contribute nothing (0 log 0 convention)
            fwd = np.where(p_teacher > 0.0, p_teacher * (log_p - q_log), 0.0).sum(axis=-1)
            fwd_dlogits = q - p_teacher
        if direction in ("reverse", "symmetric"):
            s = q_log - log_p
            # entries with q = 0 contribute nothing (0 log 0 convention); q is only
            # exactly zero for hand-built policies, softmax students never hit this
            rev = np.where(q > 0.0, q * s, 0.0).sum(axis=-1)
            rev_dlogits = np.where(q > 0.0, q * (s - rev[..., None]), 0.0)
    if direction == "forward":
        return fwd, fwd_dlogits
    if direction == "reverse":
        return rev, rev_dlogits
    return 0.5 * (fwd + rev), 0.5 * (fwd_dlogits + rev_dlogits)


def kl_loss_frozen(policy, record: CorpusRecord, teacher, direction: str, weights: np.ndarray) -> LossResult:
    """Token-weighted full-vocabulary divergence on teacher-trace prefixes,
    with the weights held fixed."""
    if direction not in _KL_BASES:
        raise ObjectiveError(f"unknown KL direction {direction!r}")
    spec = ObjectiveSpec(_KL_BASES[direction])
    return batch_loss(policy, _record_batch(policy, record, teacher), spec, teacher, weights)


def _js_terms(p_teacher: np.ndarray, q_log: np.ndarray, beta: float):
    """Generalized JS divergence values and gradients w.r.t. student logits, per row.

    Support bookkeeping: tokens outside both supports contribute nothing and
    get zero gradient; the mixture is positive wherever either side is.
    """
    q = np.exp(q_log)
    mix = beta * q + (1.0 - beta) * p_teacher
    safe_mix = np.where(mix > 0.0, mix, 1.0)
    log_mix = np.log(safe_mix)
    value = np.zeros(q.shape[:-1])
    infinite = np.zeros(q.shape[:-1], dtype=bool)
    if beta > 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            value += beta * np.where(p_teacher > 0.0, p_teacher * (np.log(p_teacher) - log_mix), 0.0).sum(axis=-1)
    support_q = q > 0.0
    if beta < 1.0:
        # student mass outside the mixture's support: the divergence is
        # genuinely infinite (only reachable at beta=0 with a noiseless teacher)
        infinite = np.any(support_q & (mix <= 0.0), axis=-1)
        with np.errstate(invalid="ignore"):
            value += (1.0 - beta) * np.where(support_q, q * (q_log - log_mix), 0.0).sum(axis=-1)
    dq = -(beta**2) * np.where(mix > 0.0, p_teacher / safe_mix, 0.0)
    if beta < 1.0:
        rel = np.where(support_q, q_log - log_mix, 0.0)
        dq = dq + (1.0 - beta) * (rel + 1.0 - beta * q / safe_mix)
    dlogits = q * (dq - np.sum(q * dq, axis=-1, keepdims=True))
    value[infinite] = np.inf
    dlogits[infinite] = 0.0
    return value, dlogits


def js_sequence_loss(policy, teacher, question: TokenSequence, supervision: TokenSequence, beta: float):
    """Sum of per-position generalized JS terms along one supervision sequence."""
    batch = TraceBatch.build([question], [supervision], policy, teacher)
    result = batch_loss(policy, batch, ObjectiveSpec("gkd", gkd_beta=beta), teacher)
    return result.loss, result.grad


def gkd_step(
    policy,
    teacher,
    records,
    gkd_lambda: float,
    gkd_beta: float,
    uniforms: np.ndarray,
    max_len: int = 24,
):
    """One online-baseline step over a batch of B records.

    Each record's prefix source is a fresh student rollout on its question
    with probability ``gkd_lambda``, otherwise its stored teacher trace. All
    draws come from the 1-D ``uniforms``, so a seeded rerun replays the step
    exactly: the first B are the source uniforms (a record is student-sourced
    when its uniform is below ``gkd_lambda``), the next S * max_len an (S,
    max_len) block of token uniforms for the S student-sourced records, in
    record order. The policy is fixed within the step, so the S rollouts are
    one lockstep ``rollouts`` call (a row's uniforms past its EOS go unused),
    and every record's sequence is scored in one kernel call. Returns the
    summed LossResult and the list of (source, supervision sequence) pairs.
    """
    if not 0.0 <= gkd_lambda <= 1.0 or not 0.0 <= gkd_beta <= 1.0:
        raise ObjectiveError("gkd mixing parameters must lie in [0, 1]")
    used = [("teacher", r.trace) for r in records]
    students = np.flatnonzero(uniforms[: len(used)] < gkd_lambda)
    if students.size:
        block = uniforms[len(used) : len(used) + students.size * max_len].reshape(students.size, max_len)
        sampled = rollouts(policy, [records[i].question for i in students], max_len, uniforms=block)
        for i, trace in zip(students.tolist(), sampled.traces):
            used[i] = ("student", trace)
    batch = TraceBatch.build([r.question for r in records], [s for _, s in used], policy, teacher)
    spec = ObjectiveSpec("gkd", gkd_lambda=gkd_lambda, gkd_beta=gkd_beta)
    return batch_loss(policy, batch, spec, teacher), used


# no caller in src/: kept only because bench/tracer.py patches this name
_sample_trace = sample_sequence


def evaluate_objective(policy, record: CorpusRecord, spec: ObjectiveSpec, teacher=None) -> LossResult:
    """One record's loss under an offline base: the kernel's one-record case."""
    if spec.base == "gkd":
        raise ObjectiveError("the online base is evaluated per batch via gkd_step")
    if spec.base in _KL_DIRECTIONS and teacher is None:
        raise ObjectiveError(f"{spec.base} needs the analytic teacher for full distributions")
    _require_cached_logps(record)
    return batch_loss(policy, _record_batch(policy, record, teacher), spec, teacher)


def frozen_weight_evaluator(record: CorpusRecord, spec: ObjectiveSpec, teacher=None, weights: np.ndarray | None = None):
    """Loss evaluator with the correction weights pinned at given values.

    Used by gradient checks: the returned callable recomputes the loss at any
    parameter point while treating the weights as constants, which is exactly
    the contract the analytic gradient implements.
    """
    if spec.base == "gkd":
        raise ObjectiveError("freeze rollouts explicitly for the online base")

    def evaluator(policy):
        if weights is None:
            raise ObjectiveError("weights must be precomputed for the frozen evaluator")
        result = batch_loss(policy, _record_batch(policy, record, teacher), spec, teacher, weights)
        return result.loss, result.grad

    return evaluator
