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
from itertools import chain

import numpy as np

from .policy import RolloutState, check_tokens, rollouts, stream
from .streams import uniform_block, word_block
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
    """n problems with per-index derived streams, so any slice is reproducible:
    problem i is ``generate_problem(cfg, stream(seed, i))``. All n are drawn
    together from the first words of their streams; a problem whose words
    would take the bounded draw's rejection branch (about one draw in 2^32 / m)
    is drawn again by ``generate_problem`` from its stream."""
    problems, rejected = _problems_of_words(cfg, word_block((seed, np.arange(n)), len(_word_bounds(cfg))))
    for i in np.flatnonzero(rejected).tolist():
        problems[i] = generate_problem(cfg, stream(seed, i))
    return problems


def _word_bounds(cfg: TaskConfig) -> list[int]:
    """The bound of the draw each stream word makes in ``generate_problem``:
    the start value, one operator per step (none when there is one operator
    to pick, as ``integers(1)`` reads no word), then one operand per step."""
    k, L = len(cfg.ops), cfg.chain_length
    return [cfg.modulus] + [k] * (L if k > 1 else 0) + [cfg.modulus] * L


def _problems_of_words(cfg: TaskConfig, words: np.ndarray) -> tuple[list[ProblemInstance], np.ndarray]:
    """The problems ``generate_problem`` draws from each row of 32-bit stream
    words, when no draw is rejected, and the rows where one is.

    A word w draws ``integers(b)`` as numpy does (Lemire's method): the high
    half of w * b, unless the low half falls below 2^32 mod b, where numpy
    rejects w and reads the next word."""
    m, L = cfg.modulus, cfg.chain_length
    bounds = _word_bounds(cfg)
    scaled = words.astype(np.uint64) * np.array(bounds, dtype=np.uint64)
    rejected = ((scaled & 0xFFFFFFFF) < np.array([(1 << 32) % b for b in bounds], dtype=np.uint64)).any(axis=1)
    draws = (scaled >> 32).astype(np.int64)
    n = len(draws)
    v0, operands = draws[:, 0], draws[:, len(bounds) - L :]
    op_index = draws[:, 1 : L + 1] if len(cfg.ops) > 1 else np.zeros((n, L), dtype=np.int64)
    ops = np.asarray(cfg.ops, dtype=np.int64)[op_index]
    values = np.empty((n, L), dtype=np.int64)
    v = v0
    for j in range(L):
        v = np.where(ops[:, j] == ADD, v + operands[:, j], v * operands[:, j]) % m
        values[:, j] = v
    questions = np.empty((n, cfg.question_len), dtype=np.int64)
    questions[:, 0], questions[:, 1] = BOS, VALUE_BASE + v0
    questions[:, 2::2], questions[:, 3::2] = ops, VALUE_BASE + operands
    answers = VALUE_BASE + values[:, -1:]
    traces = np.hstack([VALUE_BASE + values, np.full((n, 1), ANSWER_MARK), answers, np.full((n, 1), EOS)])
    problems = [
        ProblemInstance(TokenSequence(tuple(q), "question"), t[-2], TokenSequence(tuple(t), "trace"))
        for q, t in zip(questions.tolist(), traces.tolist())
    ]
    return problems, rejected


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
    question's next chain step is the tokens ``op operand`` (-1 if they are
    not an operator and a value)."""
    if state == _SINK:
        return -1
    if state == _POST:
        return EOS
    if state < 2 + m:
        return VALUE_BASE + state - 2
    steps, running = divmod(state - 2 - m, m)
    if steps == L:
        return ANSWER_MARK
    if op not in (ADD, MUL) or operand < VALUE_BASE:
        return -1
    return VALUE_BASE + chain_step(running, op, operand - VALUE_BASE, m)


@functools.lru_cache(maxsize=None)
def _automaton(m: int, L: int):
    """The rules tabulated for modulus m and chain length L, as read-only
    arrays: the next state per (state, token), the chain step whose operator
    and operand each state's emission reads (0 if it reads none), and the
    emission per (state, operator token, operand token)."""
    states, tokens = range(2 + m * (L + 2)), range(N_SPECIAL + m)
    nxt = [[_transition(m, L, state, tok) for tok in tokens] for state in states]
    step = [min(max(state - 2 - m, 0) // m, L - 1) for state in states]
    emit = [[[_emission(m, L, state, op, a) for a in tokens] for op in tokens] for state in states]
    arrays = tuple(np.array(table, dtype=np.int64) for table in (nxt, step, emit))
    for array in arrays:
        array.flags.writeable = False
    return arrays


class ChainTeacher:
    """Analytic expert policy over full (question + trace prefix) contexts.

    The automaton states: emitting chain values, emitting the answer after the
    marker, expecting EOS after the answer, and a sink for prefixes with no
    correct continuation (point mass on EOS). Stray value tokens update the
    running value, so the expert continues consistently from wrong states.

    The rules are written once, in ``_transition`` and ``_emission``, and
    tabulated once per (modulus, chain length). One evaluator reads those
    tables, the P-row state ``_TeacherState``: a lockstep rollout advances
    one, the per-prefix methods are its one-row case, and ``trace_targets``
    walks one along the traces.
    """

    family = "analytic-teacher"

    def __init__(self, spec: TeacherSpec, cfg: TaskConfig):
        self.spec = spec
        self.cfg = cfg
        self.vocab = cfg.vocab()
        self.epsilon = spec.epsilon
        self._next, self._step, self._emit = _automaton(cfg.modulus, cfg.chain_length)
        # a well-formed question's token bounds by position: BOS, the start
        # value, then per step an operator (ADD and MUL are adjacent ids) and a value
        top = VALUE_BASE + cfg.modulus - 1
        self._question_lo = np.array([BOS, VALUE_BASE] + [ADD, VALUE_BASE] * cfg.chain_length)
        self._question_hi = np.array([BOS, top] + [MUL, top] * cfg.chain_length)
        # row t has ``1 - eps`` on token t; the last row, which -1 picks, is
        # the sink's point mass on EOS
        eye = np.eye(self.vocab.size)
        self._dist_rows = np.vstack([np.where(eye > 0, 1.0 - self.epsilon, self.epsilon / (len(eye) - 1)), eye[EOS]])

    def target_distributions(self, targets: np.ndarray) -> np.ndarray:
        """One row per expected token: ``1 - eps`` on it, or a point mass on EOS for -1."""
        return self._dist_rows[targets]

    def next_token_distribution(self, context) -> np.ndarray:
        return self.rollout_state([context]).distributions(np.zeros(1, dtype=np.int64))[0]

    def log_next_token_distribution(self, context) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.next_token_distribution(context))

    def trace_targets(self, questions, traces) -> np.ndarray:
        """The expected token (-1 for the sink) at every prefix question +
        trace[:t] of B (question, trace) pairs, as (N,) ids stacked pair by
        pair, from one state over the questions walked along the traces. They
        depend on the task alone, not on epsilon."""
        state = self.rollout_state(questions)
        check_tokens(list(chain.from_iterable(traces)), self.vocab.size)
        states = [s for i, trace in enumerate(traces) for s in state.walk(i, trace)]
        rows = np.repeat(np.arange(len(traces)), [len(trace) for trace in traces])
        return state.targets(rows, np.array(states, dtype=np.int64))

    def rollout_state(self, contexts) -> "_TeacherState":
        return _TeacherState(self, contexts)


class _TeacherState(RolloutState):
    """The automaton in P growing contexts. The question blocks of all P are
    parsed together, and a short or malformed one gives the sink. A context
    shorter than a question sits in the sink until it is one long, and is
    parsed then; every other token moves a row by one lookup in the
    next-state array."""

    def __init__(self, teacher: ChainTeacher, contexts):
        self.teacher = teacher
        qlen = teacher.cfg.question_len
        contexts = [list(context) for context in contexts]
        check_tokens(list(chain.from_iterable(contexts)), teacher.vocab.size)
        self.states, self.ops, self.operands = self._parse([context[:qlen] for context in contexts])
        self.short = {i: context for i, context in enumerate(contexts) if len(context) < qlen}
        for i, context in enumerate(contexts):
            if len(context) > qlen:
                self.walk(i, context[qlen:])

    def _parse(self, questions):
        """The start state and the (Q, L) operator and operand tokens of Q
        question blocks. A short block is padded with BOS, which no position
        past the first allows; the sink emits -1 whatever tokens it reads."""
        t = self.teacher
        qlen = t.cfg.question_len
        q = np.array([block + [BOS] * (qlen - len(block)) for block in questions], dtype=np.int64).reshape(-1, qlen)
        ok = ((q >= t._question_lo) & (q <= t._question_hi)).all(axis=1)
        return (q[:, 1] + (2 + t.cfg.modulus - VALUE_BASE)) * ok, q[:, 2::2], q[:, 3::2]

    def targets(self, rows: np.ndarray, states: np.ndarray | None = None) -> np.ndarray:
        """The expected next token (-1 for the sink) of ``rows``, in their
        current states or in the given ``states``."""
        if states is None:
            states = self.states[rows]
        step = self.teacher._step[states]
        return self.teacher._emit[states, self.ops[rows, step], self.operands[rows, step]]

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        return self.teacher.target_distributions(self.targets(rows))

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        self.states[rows] = self.teacher._next[self.states[rows], tokens]
        if self.short:
            for i, tok in zip(rows.tolist(), tokens.tolist()):
                if i in self.short:
                    self.walk(i, [tok])

    def walk(self, i: int, tokens: list[int]) -> list[int]:
        """Advance row i along ``tokens``, one token at a time, and return its
        state before each; a short row grows, and is parsed once it is a
        question long."""
        before, state = [], self.states.item(i)
        for tok in tokens:
            before.append(state)
            context = self.short.get(i)
            if context is None:
                state = self.teacher._next.item(state, tok)
                continue
            context.append(tok)
            if len(context) == self.teacher.cfg.question_len:
                (state,), (self.ops[i],), (self.operands[i],) = self._parse([self.short.pop(i)])
        self.states[i] = state
        return before


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
    uniforms = uniform_block((seed, np.arange(len(sources))), max_len)
    sampled = rollouts(teacher, [p.question for p in sources], max_len, uniforms=uniforms)
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
