"""Synthetic modular chain-arithmetic task and its analytic noisy expert.

A problem is a start value followed by a chain of (operator, operand) steps
mod m. The question encodes ``BOS v0 op1 a1 ... opL aL``; the reference trace
emits each running value, an answer marker, the final value again, and EOS.

The teacher is an explicit automaton, not a trained model: at every prefix it
re-derives the semantically correct continuation from the tokens actually
emitted (so it keeps behaving sensibly after its own or a student's mistake)
and places ``1 - eps`` on that continuation, spreading ``eps`` uniformly over
the rest of the vocabulary. Prefixes with no sensible continuation get a point
mass on EOS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .policy import check_tokens, sample_token
from .vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, VALUE_BASE, TokenSequence, Vocabulary


class TaskError(ValueError):
    pass


class EmptyCorpusError(RuntimeError):
    """Filtering removed every record; training cannot proceed."""


@dataclass(frozen=True)
class TaskConfig:
    modulus: int = 7
    chain_length: int = 4
    ops: tuple[int, ...] = (ADD, MUL)

    def __post_init__(self) -> None:
        if self.modulus < 3:
            raise TaskError("modulus must be >= 3 so chance accuracy stays below 0.5")
        if self.chain_length < 1:
            raise TaskError("chain_length must be >= 1")
        if not self.ops or any(op not in (ADD, MUL) for op in self.ops):
            raise TaskError("ops must be a non-empty subset of {ADD, MUL}")

    @property
    def question_len(self) -> int:
        return 2 + 2 * self.chain_length

    def vocab(self) -> Vocabulary:
        return Vocabulary(self.modulus)


def chain_step(value: int, op: int, operand: int, modulus: int) -> int:
    if op == ADD:
        return (value + operand) % modulus
    if op == MUL:
        return (value * operand) % modulus
    raise TaskError(f"unknown operator token {op}")


@dataclass(frozen=True)
class ProblemInstance:
    question: TokenSequence
    gold_answer: int
    gold_trace: TokenSequence


def generate_problem(cfg: TaskConfig, rng: np.random.Generator) -> ProblemInstance:
    """Uniformly sample start value, operators, and operands; derive the gold trace."""
    vocab = cfg.vocab()
    m = cfg.modulus
    v0 = int(rng.integers(m))
    ops = [int(cfg.ops[rng.integers(len(cfg.ops))]) for _ in range(cfg.chain_length)]
    operands = [int(rng.integers(m)) for _ in range(cfg.chain_length)]
    question = [BOS, vocab.value_token(v0)]
    values = []
    v = v0
    for op, a in zip(ops, operands):
        question.extend([op, vocab.value_token(a)])
        v = chain_step(v, op, a, m)
        values.append(v)
    answer = vocab.value_token(values[-1])
    trace = [vocab.value_token(u) for u in values] + [ANSWER_MARK, answer, EOS]
    return ProblemInstance(
        question=TokenSequence(tuple(question), "question"),
        gold_answer=answer,
        gold_trace=TokenSequence(tuple(trace), "trace"),
    )


def generate_problems(cfg: TaskConfig, n: int, seed: int) -> list[ProblemInstance]:
    """n problems with per-index derived streams, so any slice is reproducible."""
    out = []
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        out.append(generate_problem(cfg, rng))
    return out


@dataclass(frozen=True)
class TeacherSpec:
    epsilon_instructed: float = 0.05
    epsilon_plain: float = 0.3
    instructed: bool = True

    def __post_init__(self) -> None:
        for name, e in (("epsilon_instructed", self.epsilon_instructed), ("epsilon_plain", self.epsilon_plain)):
            if not 0.0 <= e < 1.0:
                raise TaskError(f"{name} must lie in [0, 1), got {e}")
        if self.epsilon_instructed >= self.epsilon_plain:
            raise TaskError("the instruction must strictly improve the teacher")

    @property
    def epsilon(self) -> float:
        return self.epsilon_instructed if self.instructed else self.epsilon_plain


_PHASE_STEPS = 0
_PHASE_ANSWER = 1
_PHASE_POST = 2
_PHASE_SINK = 3


class ChainTeacher:
    """Analytic expert policy over full (question + trace prefix) contexts.

    The automaton phases: emitting chain values, emitting the answer after the
    marker, expecting EOS after the answer, and a sink for prefixes with no
    correct continuation (point mass on EOS). Stray value tokens update the
    running value, so the expert continues consistently from wrong states.
    """

    family = "analytic-teacher"

    def __init__(self, spec: TeacherSpec, cfg: TaskConfig):
        self.spec = spec
        self.cfg = cfg
        self.vocab = cfg.vocab()
        self.epsilon = spec.epsilon

    def _parse_question(self, tokens):
        cfg = self.cfg
        lo, hi = VALUE_BASE, VALUE_BASE + cfg.modulus
        q = tokens[: cfg.question_len]
        if len(q) < cfg.question_len or q[0] != BOS or not lo <= q[1] < hi:
            return None
        ops, operands = q[2::2], q[3::2]
        if any(op != ADD and op != MUL for op in ops) or not all(lo <= a < hi for a in operands):
            return None
        return q[1] - lo, ops, [a - lo for a in operands]

    def _scan(self, tokens: list[int], start: int) -> list[int | None]:
        """Run the automaton once along ``tokens``; return the expected next token
        (None for the sink) after each prefix tokens[:n], start <= n <= len(tokens)."""
        check_tokens(tokens, self.vocab.size)
        m, L, qlen = self.cfg.modulus, self.cfg.chain_length, self.cfg.question_len
        end = len(tokens)
        parsed = self._parse_question(tokens)
        if parsed is None:
            return [None] * (end - start + 1)
        running, ops, operands = parsed
        # prefixes shorter than the question have no sensible continuation
        targets: list[int | None] = [None] * max(0, qlen - start)
        steps = 0
        phase = _PHASE_STEPS
        for n in range(qlen, end + 1):
            if phase == _PHASE_SINK:
                targets.extend([None] * (end + 1 - max(n, start)))
                break
            if n >= start:
                if phase == _PHASE_STEPS and steps < L:
                    targets.append(VALUE_BASE + chain_step(running, ops[steps], operands[steps], m))
                elif phase == _PHASE_STEPS:
                    targets.append(ANSWER_MARK)
                elif phase == _PHASE_ANSWER:
                    targets.append(VALUE_BASE + running)
                else:
                    targets.append(EOS)
            if n == end:
                break
            tok = tokens[n]
            is_value = VALUE_BASE <= tok < VALUE_BASE + m
            if tok == EOS:
                phase = _PHASE_SINK
            elif phase == _PHASE_STEPS:
                if is_value:
                    running = tok - VALUE_BASE
                    steps = min(steps + 1, L)
                elif tok == ANSWER_MARK:
                    phase = _PHASE_ANSWER
                else:
                    phase = _PHASE_SINK
            elif phase == _PHASE_ANSWER:
                if is_value:
                    phase = _PHASE_POST
                elif tok != ANSWER_MARK:
                    phase = _PHASE_SINK
            # _PHASE_POST absorbs everything but EOS: the correct continuation stays EOS
        return targets

    def expected_next(self, context) -> int | None:
        """Semantically correct continuation for this prefix, or None for the sink."""
        tokens = list(context)
        return self._scan(tokens, len(tokens))[-1]

    def _distributions(self, targets) -> np.ndarray:
        """One row per expected token: ``1 - eps`` on it, or a point mass on EOS for None."""
        V = self.vocab.size
        dists = np.full((len(targets), V), self.epsilon / (V - 1))
        for row, target in enumerate(targets):
            if target is None:
                dists[row] = 0.0
                dists[row, EOS] = 1.0
            else:
                dists[row, target] = 1.0 - self.epsilon
        return dists

    def next_token_distribution(self, context) -> np.ndarray:
        return self._distributions([self.expected_next(context)])[0]

    def trace_distributions(self, question, trace) -> np.ndarray:
        """(T, V) distributions at every prefix question + trace[:t], from one
        automaton pass; row t equals ``next_token_distribution`` of that prefix."""
        q, trace = list(question), list(trace)
        return self._distributions(self._scan(q + trace, len(q))[: len(trace)])

    def log_next_token_distribution(self, context) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.next_token_distribution(context))


def teacher_policy(spec: TeacherSpec, cfg: TaskConfig) -> ChainTeacher:
    return ChainTeacher(spec, cfg)


@dataclass
class CorpusRecord:
    question: TokenSequence
    trace: TokenSequence
    teacher_token_logps: np.ndarray
    teacher_correct: bool

    @property
    def truncated(self) -> bool:
        return not self.trace.ends_with_eos


@dataclass
class TraceCorpus:
    records: list[CorpusRecord]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


@dataclass(frozen=True)
class FilterStats:
    n_input: int
    n_retained: int

    @property
    def retention_rate(self) -> float:
        return self.n_retained / self.n_input if self.n_input else 0.0


def answer_token(trace: TokenSequence) -> int | None:
    """First token after the first answer marker, or None if absent."""
    toks = trace.tokens
    if ANSWER_MARK in toks:
        idx = toks.index(ANSWER_MARK)
        if idx + 1 < len(toks):
            return toks[idx + 1]
    return None


def _sample_with_logps(teacher: ChainTeacher, question: TokenSequence, rng: np.random.Generator, max_len: int):
    ctx = list(question.tokens)
    toks: list[int] = []
    logps: list[float] = []
    for _ in range(max_len):
        dist = teacher.next_token_distribution(ctx)
        tok = sample_token(dist, rng)
        toks.append(tok)
        logps.append(float(np.log(dist[tok])))
        ctx.append(tok)
        if tok == EOS:
            break
    return toks, logps


def generate_corpus(
    teacher: ChainTeacher,
    problems: list[ProblemInstance],
    seed: int,
    samples_per_problem: int = 1,
    max_len: int = 24,
) -> TraceCorpus:
    """Sample teacher traces with exact cached log-probabilities.

    Each record's stream is derived from (seed, record index), so parallel and
    serial generation produce identical corpora. Traces that hit ``max_len``
    without EOS are kept but flagged teacher-incorrect.
    """
    if samples_per_problem < 1:
        raise TaskError("samples_per_problem must be >= 1")
    records = []
    for p_idx, problem in enumerate(problems):
        for s in range(samples_per_problem):
            r_idx = p_idx * samples_per_problem + s
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r_idx])))
            toks, logps = _sample_with_logps(teacher, problem.question, rng, max_len)
            trace = TokenSequence(tuple(toks), "trace")
            correct = trace.ends_with_eos and answer_token(trace) == problem.gold_answer
            records.append(
                CorpusRecord(
                    question=problem.question,
                    trace=trace,
                    teacher_token_logps=np.array(logps, dtype=np.float64),
                    teacher_correct=bool(correct),
                )
            )
    return TraceCorpus(records)


def filter_teacher_correct(corpus: TraceCorpus) -> tuple[TraceCorpus, FilterStats]:
    """Keep only records whose final answer matched; order preserved."""
    kept = [r for r in corpus.records if r.teacher_correct]
    stats = FilterStats(n_input=len(corpus.records), n_retained=len(kept))
    if not kept:
        raise EmptyCorpusError("no teacher-correct records survived filtering")
    return TraceCorpus(kept), stats


def write_corpus(corpus: TraceCorpus, path, header_comment: str | None = None) -> None:
    """One record per line: question, trace, logps, correct flag (tab-separated)."""
    lines = []
    if header_comment:
        lines.append(f"# {header_comment}")
    for r in corpus.records:
        lines.append(
            "\t".join(
                [
                    " ".join(str(t) for t in r.question.tokens),
                    " ".join(str(t) for t in r.trace.tokens),
                    " ".join(repr(float(v)) for v in r.teacher_token_logps),
                    "1" if r.teacher_correct else "0",
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_corpus(path) -> TraceCorpus:
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            q, t, lp, flag = line.split("\t")
            toks = tuple(int(v) for v in t.split())
            records.append(
                CorpusRecord(
                    question=TokenSequence(tuple(int(v) for v in q.split()), "question"),
                    trace=TokenSequence(toks, "trace"),
                    teacher_token_logps=np.array([float(v) for v in lp.split()], dtype=np.float64),
                    teacher_correct=flag == "1",
                )
            )
    return TraceCorpus(records)
