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

import functools
from dataclasses import dataclass

import numpy as np

from .policy import RolloutState, check_tokens, rollouts
from .vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, N_SPECIAL, VALUE_BASE, TokenSequence, Vocabulary


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
    m, L = cfg.modulus, cfg.chain_length
    # three calls draw what 2L + 1 scalar calls would: PCG64 hands out the
    # same 32-bit words to an array draw as to the same number of single ones
    v0 = int(rng.integers(m))
    ops = [int(cfg.ops[i]) for i in rng.integers(len(cfg.ops), size=L).tolist()]
    operands = rng.integers(m, size=L).tolist()
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


# Automaton states, one integer each: the sink (0), after the answer, where
# only EOS is correct (1), after the answer marker with running value r
# (2 + r), and emitting chain values with running value r after k steps
# (2 + m + k*m + r, 0 <= k <= L).
_SINK = 0
_POST = 1


def _transition(m: int, L: int, state: int, tok: int) -> int:
    """The state after ``tok`` is emitted in ``state``."""
    is_value = VALUE_BASE <= tok < VALUE_BASE + m
    if tok == EOS or state == _SINK:
        return _SINK
    if state == _POST:
        # absorbs everything but EOS: the correct continuation stays EOS
        return _POST
    if state < 2 + m:  # after the answer marker
        if is_value:
            return _POST
        return state if tok == ANSWER_MARK else _SINK
    steps, running = divmod(state - 2 - m, m)
    if is_value:
        return 2 + m + min(steps + 1, L) * m + tok - VALUE_BASE
    return 2 + running if tok == ANSWER_MARK else _SINK


def _emission(m: int, L: int, state: int, op: int, operand: int) -> int:
    """The correct next token in ``state`` (-1 for the sink), where the
    question's next chain step is ``op operand``."""
    if state == _SINK:
        return -1
    if state == _POST:
        return EOS
    if state < 2 + m:
        return VALUE_BASE + state - 2
    steps, running = divmod(state - 2 - m, m)
    if steps == L:
        return ANSWER_MARK
    return VALUE_BASE + chain_step(running, op, operand, m)


@functools.lru_cache(maxsize=None)
def _automaton(m: int, L: int):
    """The rules tabulated for modulus m and chain length L, as nested tuples
    and as read-only arrays: the next state per (state, token), the chain step
    whose operator and operand each state's emission reads (0 if it reads
    none), and the emission per (state, operator token, operand)."""
    states = range(2 + m * (L + 2))
    nxt = tuple(tuple(_transition(m, L, state, tok) for tok in range(N_SPECIAL + m)) for state in states)
    step = tuple(min(max(state - 2 - m, 0) // m, L - 1) for state in states)
    emit = tuple(
        tuple(tuple(_emission(m, L, state, op, a) if op in (ADD, MUL) else -1 for a in range(m)) for op in range(MUL + 1))
        for state in states
    )
    arrays = tuple(np.array(table, dtype=np.int64) for table in (nxt, step, emit))
    for array in arrays:
        array.flags.writeable = False
    return (nxt, step, emit, *arrays)


class ChainTeacher:
    """Analytic expert policy over full (question + trace prefix) contexts.

    The automaton states: emitting chain values, emitting the answer after the
    marker, expecting EOS after the answer, and a sink for prefixes with no
    correct continuation (point mass on EOS). Stray value tokens update the
    running value, so the expert continues consistently from wrong states.

    The rules are written once, in ``_transition`` and ``_emission``, and
    tabulated once per (modulus, chain length). The scan of one
    teacher-forced trace and the P-row state of a lockstep rollout only look
    states up in those tables.
    """

    family = "analytic-teacher"

    def __init__(self, spec: TeacherSpec, cfg: TaskConfig):
        self.spec = spec
        self.cfg = cfg
        self.vocab = cfg.vocab()
        self.epsilon = spec.epsilon
        (self._next, self._step, self._emit, self._next_array, self._step_array, self._emit_array) = _automaton(
            cfg.modulus, cfg.chain_length
        )
        # row t + 1 has ``1 - eps`` on token t; row 0 is the sink's point mass on EOS
        V = self.vocab.size
        self._dist_rows = np.full((V + 1, V), self.epsilon / (V - 1))
        self._dist_rows[np.arange(1, V + 1), np.arange(V)] = 1.0 - self.epsilon
        self._dist_rows[0] = 0.0
        self._dist_rows[0, EOS] = 1.0

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

    def _walk(self, tokens: list[int]):
        """The state after each prefix tokens[:n], 0 <= n <= len(tokens), and
        the question's operators and operands. Prefixes shorter than the
        question, and every prefix of a malformed question, are in the sink."""
        check_tokens(tokens, self.vocab.size)
        qlen, L = self.cfg.question_len, self.cfg.chain_length
        parsed = self._parse_question(tokens)
        if parsed is None:
            return [_SINK] * (len(tokens) + 1), [ADD] * L, [0] * L
        v0, ops, operands = parsed
        state = 2 + self.cfg.modulus + v0
        states = [_SINK] * qlen + [state]
        nxt = self._next
        for tok in tokens[qlen:]:
            state = nxt[state][tok]
            states.append(state)
        return states, ops, operands

    def _scan(self, tokens: list[int], start: int) -> np.ndarray:
        """Run the automaton once along ``tokens``; return the expected next token
        (-1 for the sink) after each prefix tokens[:n], start <= n <= len(tokens)."""
        states, ops, operands = self._walk(tokens)
        emit, step = self._emit, self._step
        return np.array([emit[s][ops[step[s]]][operands[step[s]]] for s in states[start:]], dtype=np.int64)

    def expected_next(self, context) -> int | None:
        """Semantically correct continuation for this prefix, or None for the sink."""
        tokens = list(context)
        target = int(self._scan(tokens, len(tokens))[-1])
        return None if target < 0 else target

    def target_distributions(self, targets: np.ndarray) -> np.ndarray:
        """One row per expected token: ``1 - eps`` on it, or a point mass on EOS for -1."""
        return self._dist_rows[targets + 1]

    def next_token_distribution(self, context) -> np.ndarray:
        tokens = list(context)
        return self.target_distributions(self._scan(tokens, len(tokens)))[-1]

    def trace_targets(self, question, trace) -> np.ndarray:
        """The expected token (-1 for the sink) at every prefix question +
        trace[:t], from one automaton pass. They depend on the task alone, not
        on epsilon."""
        q, trace = list(question), list(trace)
        return self._scan(q + trace, len(q))[: len(trace)]

    def log_next_token_distribution(self, context) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.next_token_distribution(context))

    def rollout_state(self, questions) -> "_TeacherState":
        return _TeacherState(self, questions)


class _TeacherState(RolloutState):
    """The automaton in P growing contexts: each question is parsed once, and
    each row's state then advances by one table lookup per emitted token. A
    context shorter than a question sits in the sink until it is one long, and
    is parsed then."""

    def __init__(self, teacher: ChainTeacher, questions):
        self.teacher = teacher
        P, L = len(questions), teacher.cfg.chain_length
        self.states = np.empty(P, dtype=np.int64)
        self.ops, self.operands = np.empty((P, L), dtype=np.int64), np.empty((P, L), dtype=np.int64)
        self.short = {}
        for i, question in enumerate(questions):
            ctx = list(question)
            states, self.ops[i], self.operands[i] = teacher._walk(ctx)
            self.states[i] = states[-1]
            if len(ctx) < teacher.cfg.question_len:
                self.short[i] = ctx

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        t = self.teacher
        states = self.states[rows]
        step = t._step_array[states]
        return t.target_distributions(t._emit_array[states, self.ops[rows, step], self.operands[rows, step]])

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        self.states[rows] = self.teacher._next_array[self.states[rows], tokens]
        if not self.short:
            return
        for i, tok in zip(rows.tolist(), tokens.tolist()):
            ctx = self.short.get(i)
            if ctx is not None:
                ctx.append(tok)
                if len(ctx) == self.teacher.cfg.question_len:
                    del self.short[i]
                    states, self.ops[i], self.operands[i] = self.teacher._walk(ctx)
                    self.states[i] = states[-1]


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


def generate_corpus(
    teacher: ChainTeacher,
    problems: list[ProblemInstance],
    seed: int,
    samples_per_problem: int = 1,
    max_len: int = 24,
) -> TraceCorpus:
    """Sample teacher traces with exact cached log-probabilities.

    Each record's stream is derived from (seed, record index), so parallel and
    serial generation produce identical corpora. All records are sampled in
    lockstep, and each caches the log of the probabilities its tokens were
    drawn with. Traces that hit ``max_len`` without EOS are kept but flagged
    teacher-incorrect.
    """
    if samples_per_problem < 1:
        raise TaskError("samples_per_problem must be >= 1")
    sources = [problem for problem in problems for _ in range(samples_per_problem)]
    streams = (
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r_idx]))) for r_idx in range(len(sources))
    )
    sampled = rollouts(teacher, [p.question for p in sources], max_len, streams, private_streams=True)
    records = []
    for problem, trace, probs in zip(sources, sampled.traces, sampled.token_probs):
        correct = trace.ends_with_eos and answer_token(trace) == problem.gold_answer
        records.append(
            CorpusRecord(
                question=problem.question,
                trace=trace,
                teacher_token_logps=np.log(probs[: len(trace)]),
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


def read_corpus(path, vocab: Vocabulary | None = None) -> TraceCorpus:
    """Read a corpus written by ``write_corpus``, checking every record line.

    A line must have the four fields, a log-probability per trace token, each
    finite and at most 0, and a correct flag of 0 or 1; with ``vocab``, every
    token must lie in it. Any other line raises TaskError naming the file and
    the line number.
    """
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                records.append(_parse_record(line, vocab))
            except ValueError as exc:
                raise TaskError(f"{path} line {lineno}: {exc}") from None
    return TraceCorpus(records)


def _parse_record(line: str, vocab: Vocabulary | None) -> CorpusRecord:
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, found {len(fields)}")
    q, t, lp, flag = fields
    question, trace = [int(v) for v in q.split()], [int(v) for v in t.split()]
    if vocab is not None:
        check_tokens(question + trace, vocab.size)
    logps = np.array([float(v) for v in lp.split()], dtype=np.float64)
    if len(logps) != len(trace):
        raise ValueError(f"{len(logps)} log-probabilities for a trace of {len(trace)} tokens")
    if not np.all(np.isfinite(logps) & (logps <= 0.0)):
        raise ValueError("log-probabilities must be finite and at most 0")
    if flag not in ("0", "1"):
        raise ValueError(f"correct flag must be 0 or 1, found {flag!r}")
    return CorpusRecord(
        question=TokenSequence(tuple(question), "question"),
        trace=TokenSequence(tuple(trace), "trace"),
        teacher_token_logps=logps,
        teacher_correct=flag == "1",
    )
