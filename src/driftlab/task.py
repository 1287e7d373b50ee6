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
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .policy import RolloutState, check_tokens, flat_pairs, flat_tokens, rollouts, undecodable_line
from .streams import integers_block, uniform_block
from .vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, N_SPECIAL, VALUE_BASE, TokenSequence, Vocabulary


class TaskError(ValueError):
    pass


class EmptyCorpusError(RuntimeError):
    """Filtering removed every record; training cannot proceed."""


MAX_TEACHER_ENTRIES = 2**27  # of the teacher's largest table, 1 GiB of int64


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
        m, L = self.modulus, self.chain_length
        entries = (2 + m * (L + 2)) * (N_SPECIAL + m) ** 2  # the cells of ``_automaton``'s emit table
        if entries > MAX_TEACHER_ENTRIES:
            raise TaskError(
                f"modulus = {m} and chain_length = {L} need a teacher table of {entries} entries, "
                f"more than {MAX_TEACHER_ENTRIES}"
            )

    @property
    def question_len(self) -> int:
        return 2 + 2 * self.chain_length

    def vocab(self) -> Vocabulary:
        return Vocabulary(self.modulus)


def chain_step(value, op, operand, modulus: int):
    """One chain step, ``(value + operand)`` for ADD or ``(value * operand)``
    for MUL, mod ``modulus``: elementwise over arrays, an int for scalars."""
    op = np.asarray(op)
    unknown = op[(op != ADD) & (op != MUL)]
    if unknown.size:
        raise TaskError(f"unknown operator token {unknown.flat[0]}")
    step = np.where(op == ADD, value + operand, value * operand) % modulus
    return step if step.ndim else int(step)


@dataclass(frozen=True)
class ProblemInstance:
    question: TokenSequence
    gold_answer: int
    gold_trace: TokenSequence


def generate_problems(cfg: TaskConfig, n: int, seed: int) -> list[ProblemInstance]:
    """n problems with per-index derived streams, so any slice is reproducible:
    problem i draws its start value, then its L operators, then its L operands,
    each by one ``integers`` call of stream (seed, i), and derives its gold trace."""
    m, L = cfg.modulus, cfg.chain_length
    draws = integers_block((seed, np.arange(n)), [m] + [len(cfg.ops)] * L + [m] * L)
    v0, ops, operands = draws[:, 0], np.asarray(cfg.ops, dtype=np.int64)[draws[:, 1 : L + 1]], draws[:, L + 1 :]
    values = np.empty((n, L), dtype=np.int64)
    v = v0
    for j in range(L):
        v = chain_step(v, ops[:, j], operands[:, j], m)
        values[:, j] = v
    questions = np.empty((n, cfg.question_len), dtype=np.int64)
    questions[:, 0], questions[:, 1] = BOS, VALUE_BASE + v0
    questions[:, 2::2], questions[:, 3::2] = ops, VALUE_BASE + operands
    answers = VALUE_BASE + values[:, -1:]
    traces = np.hstack([VALUE_BASE + values, np.full((n, 1), ANSWER_MARK), answers, np.full((n, 1), EOS)])
    questions = TokenSequence.from_rows(questions.tolist(), "question")
    golds = TokenSequence.from_rows(traces.tolist(), "trace")
    return [ProblemInstance(q, t.tokens[-2], t) for q, t in zip(questions, golds)]


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


@functools.lru_cache(maxsize=None)
def _automaton(m: int, L: int):
    """The rules tabulated for modulus m and chain length L, each filling its
    block of read-only int64 arrays in place: the next state per (state,
    token), the chain step whose operator and operand each state's emission
    reads (0 if none), and the correct next token per (state, operator token,
    operand token), -1 for the sink."""
    n_states, V, values = 2 + m * (L + 2), N_SPECIAL + m, slice(VALUE_BASE, VALUE_BASE + m)
    nxt = np.zeros((n_states, V), dtype=np.int64)  # the sink by default
    emit = np.full((n_states, V, V), -1, dtype=np.int64)
    # after the answer: absorbs everything, and only EOS is correct
    nxt[_POST], emit[_POST] = _POST, EOS
    # after the marker with running value r: answer r; a value ends it, a marker changes nothing
    nxt[2 : 2 + m, values], nxt[2 : 2 + m, ANSWER_MARK] = _POST, np.arange(2, 2 + m)
    emit[2 : 2 + m] = (VALUE_BASE + np.arange(m))[:, None, None]
    # emitting chain values with running value r after k steps, as (k, r, ...)
    # blocks: a value becomes the running value (k capped at L) and the marker
    # moves to the answer; the correct token is step k's chain value (if the
    # question holds an operator and a value there), and the marker at k = L
    chain_nxt, chain_emit = nxt[2 + m :].reshape(L + 1, m, V), emit[2 + m :].reshape(L + 1, m, V, V)
    chain_nxt[:, :, values] = (2 + m + m * np.minimum(np.arange(1, L + 2), L))[:, None, None] + np.arange(m)
    chain_nxt[:, :, ANSWER_MARK] = 2 + np.arange(m)
    for op in (ADD, MUL):
        chain_emit[:L, :, op, values] = VALUE_BASE + chain_step(np.arange(m)[:, None], op, np.arange(m), m)
    chain_emit[L] = ANSWER_MARK
    nxt[:, EOS] = _SINK
    step = np.minimum(np.maximum(np.arange(n_states) - 2 - m, 0) // m, L - 1)
    for array in (nxt, step, emit):
        array.flags.writeable = False
    return nxt, step, emit


class ChainTeacher:
    """Analytic expert policy over full (question + trace prefix) contexts.

    The automaton states: emitting chain values, emitting the answer after the
    marker, expecting EOS after the answer, and a sink for prefixes with no
    correct continuation (point mass on EOS). Stray value tokens update the
    running value, so the expert continues consistently from wrong states.

    The rules are written once, as the array fills of ``_automaton``, which
    tabulates them once per (modulus, chain length). One evaluator reads those
    tables, ``_prefix_states``, which steps P contexts together: the P-row
    ``_TeacherState`` of a lockstep rollout starts from it, the per-prefix
    methods are its one-row case, and ``trace_targets`` reads it at every
    trace position.
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

    def trace_targets(self, questions, traces) -> np.ndarray:
        """The expected token (-1 for the sink) at every prefix question +
        trace[:t] of B (question, trace) pairs, as (N,) ids stacked pair by
        pair, from the automaton stepped along all pairs together. They
        depend on the task alone, not on epsilon."""
        tokens, q, t, rows, ends = flat_pairs(questions, traces)
        check_tokens(tokens, self.vocab.size)
        ends -= (np.cumsum(q + t) - (q + t))[rows]  # now each prefix's end in its own pair
        states, ops, operands = self._prefix_states(tokens, q + t, ends, rows)
        return self._expected(states, rows, ops, operands)

    def rollout_state(self, contexts) -> "_TeacherState":
        return _TeacherState(self, contexts)

    def _prefix_states(self, tokens: np.ndarray, lengths: np.ndarray, ends=None, rows=None):
        """The automaton over P contexts laid end to end in ``tokens``, stepped
        along all of them together: its state after the first ends[i] tokens
        of context rows[i], for each i (by default, after each whole context),
        and the (P, L) operator and operand tokens of each context's question
        block.

        A block reads the first question-length tokens of its context; a
        short one is padded with BOS, which no position past the first
        allows, so the prefixes before a question length are the sink. Past a
        context's end the states follow its padding and mean nothing."""
        qlen = self.cfg.question_len
        width = max(int(lengths.max(initial=0)), qlen)
        padded = np.full((lengths.size, width), BOS)
        # row i of the grid: context i, then BOS up to the width (a mask built
        # by repeat, since a broadcast comparison allocates ufunc buffers)
        fill = np.repeat(np.tile([True, False], lengths.size), np.stack([lengths, width - lengths], axis=1).ravel())
        np.place(padded, fill, tokens)
        block, ctx = padded[:, :qlen], padded.T
        ok = ((block >= self._question_lo) & (block <= self._question_hi)).all(axis=1)
        states = np.zeros((width + 1, lengths.size), dtype=np.int64)
        states[qlen] = (block[:, 1] + (2 + self.cfg.modulus - VALUE_BASE)) * ok
        for p in range(qlen, width):
            states[p + 1] = self._next[states[p], ctx[p]]
        if ends is None:
            ends, rows = lengths, np.arange(lengths.size)
        return states[ends, rows], block[:, 2::2].copy(), block[:, 3::2].copy()

    def _expected(self, states: np.ndarray, rows: np.ndarray, ops: np.ndarray, operands: np.ndarray) -> np.ndarray:
        """The expected next token (-1 for the sink) in each of N states, of
        contexts ``rows`` whose questions hold the (P, L) operator and operand tokens."""
        step = self._step[states]
        return self._emit[states, ops[rows, step], operands[rows, step]]


class _TeacherState(RolloutState):
    """The automaton in P growing contexts, all parsed and stepped together
    by ``ChainTeacher._prefix_states``. A context shorter than a question
    sits in the sink until it is one long, and is parsed then; every other
    token moves a row by one lookup in the next-state array."""

    def __init__(self, teacher: ChainTeacher, contexts):
        self.teacher = teacher
        tokens, lengths = flat_tokens(contexts)
        check_tokens(tokens, teacher.vocab.size)
        self.states, self.ops, self.operands = teacher._prefix_states(tokens, lengths)
        ends = np.cumsum(lengths)
        short = np.flatnonzero(lengths < teacher.cfg.question_len).tolist()
        self.short = {i: tokens[ends[i] - lengths[i] : ends[i]].tolist() for i in short}

    def targets(self, rows: np.ndarray) -> np.ndarray:
        """The expected next token (-1 for the sink) of ``rows``."""
        return self.teacher._expected(self.states[rows], rows, self.ops, self.operands)

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        return self.teacher.target_distributions(self.targets(rows))

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        self.states[rows] = self.teacher._next[self.states[rows], tokens]
        if self.short:
            for i, tok in zip(rows.tolist(), tokens.tolist()):
                if i in self.short:
                    self._grow(i, tok)

    def _grow(self, i: int, tok: int) -> None:
        """Append ``tok`` to short row i, and parse the row once it is a question long."""
        context = self.short[i]
        context.append(tok)
        qlen = self.teacher.cfg.question_len
        if len(context) == qlen:
            states, ops, operands = self.teacher._prefix_states(np.array(self.short.pop(i)), np.array([qlen]))
            self.states[i], self.ops[i], self.operands[i] = states[0], ops[0], operands[0]


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


def answer_index(tokens) -> int | None:
    """Index of the token after the first answer marker, or None if no token follows one."""
    i = tokens.index(ANSWER_MARK) + 1 if ANSWER_MARK in tokens else 0
    return i if 0 < i < len(tokens) else None


def answer_token(trace: TokenSequence) -> int | None:
    """First token after the first answer marker, or None if absent."""
    i = answer_index(trace.tokens)
    return None if i is None else trace.tokens[i]


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
    # every record's log-probabilities in one flat array, each record's a slice of it
    logps = np.log(sampled.token_probs[np.arange(max_len) < sampled.lengths[:, None]])
    ends = np.cumsum(sampled.lengths).tolist()
    records = [
        CorpusRecord(
            problem.question,
            trace,
            logps[end - len(trace) : end],
            trace.ends_with_eos and answer_token(trace) == problem.gold_answer,
        )
        for problem, trace, end in zip(sources, sampled.traces, ends)
    ]
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
                    " ".join(map(str, r.question.tokens)),
                    " ".join(map(str, r.trace.tokens)),
                    " ".join(map(repr, r.teacher_token_logps.tolist())),
                    "1" if r.teacher_correct else "0",
                ]
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_corpus(path, vocab: Vocabulary | None = None) -> TraceCorpus:
    """Read a corpus written by ``write_corpus``, checking every record line.

    A line must have the four fields, a non-empty question and trace, a
    log-probability per trace token, each finite and at most 0, a correct flag
    of 0 or 1, and no trace token after an EOS; with ``vocab``, every token
    must lie in it. Each line's fields are parsed as it is read, and the checks
    run once over all lines, on flat token, length and log-probability arrays.
    The first line that fails one raises TaskError naming the file, the line
    number and, from ``_line_error``, what is wrong with it.
    """
    linenos, questions, traces, logps, flags, unparsed = [], [], [], [], [], None
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                try:
                    q, t, lp, flag = line.split("\t")
                    question, trace = list(map(int, q.split())), list(map(int, t.split()))
                    lp = np.array(lp.split(), dtype=np.float64)
                except ValueError:  # not four fields, or a word that does not parse
                    unparsed = lineno
                    break
                linenos.append(lineno)
                questions.append(question)
                traces.append(trace)
                logps.append(lp)
                flags.append(flag)
    except UnicodeDecodeError:
        raise TaskError(f"{path} line {undecodable_line(path)}: not UTF-8 text") from None
    q_tokens, q_lengths = _int64_rows(questions)
    t_tokens, t_lengths = _int64_rows(traces)
    flat_logps = np.concatenate([np.zeros(0), *logps])
    lp_lengths = np.fromiter(map(len, logps), np.int64, len(logps))
    bad = (q_lengths == 0) | (t_lengths == 0) | (lp_lengths != t_lengths)
    bad |= np.array([flag not in ("0", "1") for flag in flags], dtype=bool)
    lp_rows = np.repeat(np.arange(bad.size), lp_lengths)
    bad[lp_rows[~(np.isfinite(flat_logps) & (flat_logps <= 0.0))]] = True
    t_rows = np.repeat(np.arange(bad.size), t_lengths)
    last = np.cumsum(t_lengths)[t_rows] - 1
    bad[t_rows[(t_tokens == EOS) & (np.arange(t_tokens.size) != last)]] = True
    if vocab is not None:
        q_rows = np.repeat(np.arange(bad.size), q_lengths)
        bad[q_rows[(q_tokens < 0) | (q_tokens >= vocab.size)]] = True
        bad[t_rows[(t_tokens < 0) | (t_tokens >= vocab.size)]] = True
    first = linenos[int(bad.argmax())] if bad.any() else unparsed
    if first is not None:
        raise TaskError(f"{path} line {first}: {_line_error(path, first, vocab)}")
    questions = TokenSequence.from_rows(questions, "question")
    traces = TokenSequence.from_rows(traces, "trace")
    return TraceCorpus([CorpusRecord(*fields, flag == "1") for *fields, flag in zip(questions, traces, logps, flags)])


def _int64_rows(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``flat_tokens`` of rows of Python ints, with a row that holds a token
    outside int64 laid out as an empty row, which ``read_corpus`` rejects."""
    try:
        return flat_tokens(rows)
    except OverflowError:
        return flat_tokens([row if _in_int64(row) else [] for row in rows])


def _in_int64(tokens: list[int]) -> bool:
    return all(-(2**63) <= v < 2**63 for v in tokens)


def _line_error(path, lineno: int, vocab: Vocabulary | None) -> str:
    """What is wrong with line ``lineno`` of a corpus, from the checks of
    ``read_corpus`` made on that line alone, in this order: its fields, its
    tokens, its log-probabilities, its flag, its trace's EOS, empty fields,
    then tokens outside int64."""
    with open(path, encoding="utf-8") as fh:
        line = next(islice(fh, lineno - 1, None)).rstrip("\n")
    fields = line.split("\t")
    if len(fields) != 4:
        return f"expected 4 tab-separated fields, found {len(fields)}"
    q, t, lp, flag = fields
    try:
        question, trace = [int(v) for v in q.split()], [int(v) for v in t.split()]
        if vocab is not None:
            check_tokens(question + trace, vocab.size)
        logps = [float(v) for v in lp.split()]
    except ValueError as exc:
        return str(exc)
    if len(logps) != len(trace):
        return f"{len(logps)} log-probabilities for a trace of {len(trace)} tokens"
    if not all(math.isfinite(v) and v <= 0.0 for v in logps):
        return "log-probabilities must be finite and at most 0"
    if flag not in ("0", "1"):
        return f"correct flag must be 0 or 1, found {flag!r}"
    if EOS in trace[:-1]:
        return "trace has tokens after its EOS"
    if not question or not trace:
        return f"empty {'question' if not question else 'trace'} field"
    if not _in_int64(question + trace):
        return "token outside the int64 range"
    raise RuntimeError(f"{path} line {lineno} failed a corpus check that the line alone passes")
