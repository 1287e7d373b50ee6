"""Autoregressive softmax policies with exact analytic gradients.

Two trainable families share one interface:

* ``TabularPolicy`` keeps an explicit logit row per context of the last k
  tokens. Exact and fast; the workhorse for oracle-checked experiments.
* ``FeedForwardPolicy`` embeds the last k tokens, concatenates, and runs one
  tanh hidden layer. Small enough to finite-difference, large enough to
  exercise real backprop.

Contexts shorter than the order are left-padded with BOS. Log-probabilities
are always computed as log-softmax of logits, never as ``log`` of a stored
probability, so they stay finite. All arithmetic is float64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .vocab import BOS, EOS, TokenSequence, Vocabulary

SNAPSHOT_MAGIC = "driftlab-policy v1"


class PolicyError(ValueError):
    """Input-domain errors: bad contexts, malformed snapshots, shape mismatches."""


class NonDeterministicLossError(RuntimeError):
    """A loss evaluator returned different values for identical inputs."""


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, for one logit row or a (T, V) stack."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, for one logit row or a (P, V) stack."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def check_tokens(tokens, vocab_size: int) -> None:
    """Raise PolicyError unless every token, of a list or an int array, lies in the vocabulary."""
    if not len(tokens):
        return
    low, high = (tokens.min(), tokens.max()) if isinstance(tokens, np.ndarray) else (min(tokens), max(tokens))
    if low < 0 or high >= vocab_size:
        bad = next(t for t in tokens if not 0 <= t < vocab_size)
        raise PolicyError(f"context token {bad} outside vocabulary of size {vocab_size}")


class ParametricPolicy:
    """Shared machinery for trainable softmax policies.

    A family declares ``family``, ``SHAPE`` (the names of its size arguments
    after the vocabulary, in constructor and snapshot-header order) and
    implements ``forward(windows)``, which maps a (T, k) array of context
    windows to (T, V) logits plus a cache, and ``backward(cache, dlogits,
    grad)``. Scoring a whole teacher-forced trace and scoring a single context
    are the T-row and the one-row case of the same two calls. A gradient is a
    float64 array shaped like ``params``.
    """

    family: str
    SHAPE: tuple[str, ...]

    def __init__(self, vocab: Vocabulary, order: int):
        if order < 1:
            raise PolicyError(f"{self.family} order must be >= 1")
        self.vocab, self.order = vocab, order

    def _init_params(self, n: int, params: np.ndarray | None) -> None:
        """A float64 copy of ``params`` as the (n,) parameter vector, or zeros without it."""
        params = np.zeros(n) if params is None else np.array(params, dtype=np.float64)
        if params.shape != (n,):
            raise PolicyError(f"{self.family} params must have shape ({n},), got {params.shape}")
        self.params = params

    def clone(self) -> "ParametricPolicy":
        """The same family and sizes, with a copy of the parameters."""
        return type(self)(self.vocab, *(getattr(self, key) for key in self.SHAPE), params=self.params)

    def forward(self, windows: np.ndarray):
        """(T, V) logits for a stack of windows, and the cache ``backward`` needs."""
        raise NotImplementedError

    def backward(self, cache, dlogits: np.ndarray, grad: np.ndarray, row_records=None) -> None:
        """Add the parameter gradient of (T, V) d(loss)/d(logits) rows into ``grad``.

        ``row_records`` gives each row's record when the rows stack several
        records in order; a family may use it to reduce per record first.
        """
        raise NotImplementedError

    def logits(self, context) -> np.ndarray:
        return self.forward(_question_windows(self, [context]))[0][0]

    def next_token_distribution(self, context) -> np.ndarray:
        return _softmax(self.logits(context))

    def log_next_token_distribution(self, context) -> np.ndarray:
        return _log_softmax(self.logits(context))

    def accumulate_logit_grad(self, context, dlogits: np.ndarray, grad: np.ndarray) -> None:
        """Backpropagate a d(loss)/d(logits) vector for one context into ``grad``."""
        _, cache = self.forward(_question_windows(self, [context]))
        self.backward(cache, np.asarray(dlogits)[None, :], grad)

    def rollout_state(self, questions) -> "RolloutState":
        return _WindowState(self, questions)


class TabularPolicy(ParametricPolicy):
    """Order-k table of logits: one row of size V per context index."""

    family = "tabular"
    SHAPE = ("order",)

    def __init__(self, vocab: Vocabulary, order: int = 1, params: np.ndarray | None = None):
        super().__init__(vocab, order)
        V = vocab.size
        self.n_contexts = V**order
        self._init_params(self.n_contexts * V, params)
        self._place = V ** np.arange(order - 1, -1, -1, dtype=np.int64)

    def context_index(self, context) -> int:
        return int(_question_windows(self, [context])[0].dot(self._place))

    def rollout_state(self, questions) -> "RolloutState":
        return _TableState(self, questions)

    def forward(self, windows):
        rows = windows.dot(self._place)
        return self.params.reshape(self.n_contexts, -1).take(rows, axis=0), rows

    def backward(self, rows, dlogits, grad, row_records=None) -> None:
        if row_records is not None:
            # one partial sum per (record, context) in row order, then the
            # partials added record by record: the rounding of one buffer per record
            pairs, pair_of_row = np.unique(row_records * self.n_contexts + rows, return_inverse=True)
            partials = np.zeros((pairs.size, dlogits.shape[1]))
            np.add.at(partials, pair_of_row, dlogits)
            rows, dlogits = pairs % self.n_contexts, partials
        np.add.at(grad.reshape(self.n_contexts, -1), rows, dlogits)


class FeedForwardPolicy(ParametricPolicy):
    """One-hidden-layer tanh network over the concatenated last-k embeddings.

    Parameter layout (flat, in order): embedding table (V, d), input weights
    (H, k*d), input bias (H,), output weights (V, H), output bias (V,).
    The reshaped views of ``params`` are built once per assignment, so
    in-place updates of ``params`` reach the forward pass without a copy.
    """

    family = "feedforward"
    SHAPE = ("order", "embed_dim", "hidden_dim")

    def __init__(
        self,
        vocab: Vocabulary,
        order: int = 2,
        embed_dim: int = 8,
        hidden_dim: int = 16,
        params: np.ndarray | None = None,
    ):
        super().__init__(vocab, order)
        self.embed_dim, self.hidden_dim = embed_dim, hidden_dim
        V, d, H = vocab.size, embed_dim, hidden_dim
        self._slices, n = [], 0
        for shape in ((V, d), (H, order * d), (H,), (V, H), (V,)):
            size = int(np.prod(shape))
            self._slices.append((n, n + size, shape))
            n += size
        self._init_params(n, params)

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._params = value
        self._views = self._unflatten(value)

    def _unflatten(self, flat: np.ndarray):
        """Views (E, W1, b1, W2, b2) into a flat parameter-shaped vector."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._slices]

    def forward(self, windows):
        E, W1, b1, W2, b2 = self._views
        X = E[windows].reshape(len(windows), self.order * self.embed_dim)
        H = np.tanh(X @ W1.T + b1)
        return H @ W2.T + b2, (windows, X, H)

    def backward(self, cache, dlogits, grad, row_records=None) -> None:
        # every row in one product, whatever records they belong to: the sums
        # round differently from a per-record reduction, in the last digits
        windows, X, H = cache
        E, W1, _, W2, _ = self._views
        gE, gW1, gb1, gW2, gb2 = self._unflatten(grad)
        gW2 += dlogits.T @ H
        gb2 += dlogits.sum(axis=0)
        dpre = (dlogits @ W2) * (1.0 - H * H)
        gW1 += dpre.T @ X
        gb1 += dpre.sum(axis=0)
        np.add.at(gE, windows, (dpre @ W1).reshape(windows.shape + (self.embed_dim,)))


# each family by the name its snapshots and configs give
POLICY_FAMILIES = {family.family: family for family in (TabularPolicy, FeedForwardPolicy)}


def stacked_windows(order: int, vocab_size: int, questions, traces) -> np.ndarray:
    """(N, k) context windows of every teacher-forced prefix of B (question,
    trace) pairs, stacked pair by pair: row t of a pair holds the last k tokens
    of question + trace[:t], left-padded with BOS."""
    tokens, q, _, _, ends = flat_pairs(questions, traces, pad=order)
    if q.size and q.min() < 1:
        raise PolicyError("context must be non-empty (sequences start at BOS)")
    check_tokens(tokens, vocab_size)
    # the index laid out (k, N): a short inner axis would make numpy buffer each operand
    return tokens[(ends + np.arange(-order, 0)[:, None]).T]


def flat_pairs(questions, traces, pad: int = 0):
    """B (question, trace) pairs laid end to end as one int64 array, each
    after ``pad`` BOS tokens; the (B,) question and trace lengths; and, for the
    N prefixes question + trace[:t] stacked pair by pair, each one's pair and
    the index in the flat array where it ends."""
    bos = (BOS,) * pad
    tokens, lengths = flat_tokens(chain.from_iterable((bos, q, t) for q, t in zip(questions, traces)))
    q, t = lengths[1::3], lengths[2::3]
    rows = np.repeat(np.arange(t.size), t)
    # prefix i of pair b is question + trace[:i - (pair b's first prefix)],
    # so it ends (the pads and questions up to b's) + i tokens in
    return tokens, q, t, rows, np.cumsum(pad + q)[rows] + np.arange(rows.size)


def flat_tokens(rows) -> tuple[np.ndarray, np.ndarray]:
    """The tokens of a sequence of token rows laid end to end, as one int64
    array, and the rows' lengths. A ``TokenSequence`` row is read through its
    tuple, with no Python-level ``__len__`` or ``__iter__`` call."""
    rows = [row.tokens if isinstance(row, TokenSequence) else row for row in rows]
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    return np.fromiter(chain.from_iterable(rows), np.int64, lengths.sum()), lengths


class RolloutState:
    """P growing contexts of one model, advanced together by ``rollouts``: the
    next-token distributions of any rows, and one emitted token per row."""

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_distributions(self, rows: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.distributions(rows))

    def scored(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distributions and the log-distributions of ``rows`` together."""
        return self.distributions(rows), self.log_distributions(rows)

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        raise NotImplementedError


def _question_windows(policy: ParametricPolicy, questions) -> np.ndarray:
    """The (P, k) windows of P questions: the last k tokens of each, left-padded
    with BOS, read as the first prefix of each question given a one-token trace."""
    return stacked_windows(policy.order, policy.vocab.size, questions, [(EOS,)] * len(questions))


class _WindowState(RolloutState):
    """P growing contexts of a trainable policy, kept as a (P, k) window array:
    one ``forward`` call gives the next-token distributions of any rows."""

    def __init__(self, policy: ParametricPolicy, questions):
        self.policy = policy
        self.windows = _question_windows(policy, questions)

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        return _softmax(self.policy.forward(self.windows[rows])[0])

    def log_distributions(self, rows: np.ndarray) -> np.ndarray:
        return _log_softmax(self.policy.forward(self.windows[rows])[0])

    def scored(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        logits = self.policy.forward(self.windows[rows])[0]
        return _softmax(logits), _log_softmax(logits)

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        self.windows[rows, :-1] = self.windows[rows, 1:]
        self.windows[rows, -1] = tokens


class _TableState(RolloutState):
    """P growing contexts of a tabular policy, kept as one context index per
    row. The policy's table does not change during a rollout, so the softmax
    and the log-softmax of all its (V**k, V) logits are computed once, on
    first use, and each step gathers rows of them. A row whose window drops
    its oldest token and takes ``token`` moves to ``idx * V % V**k + token``."""

    def __init__(self, policy: TabularPolicy, questions):
        self.logits = policy.params.reshape(policy.n_contexts, -1)
        self.idx = _question_windows(policy, questions).dot(policy._place)

    @functools.cached_property
    def probs(self) -> np.ndarray:
        return _softmax(self.logits)

    @functools.cached_property
    def logp(self) -> np.ndarray:
        return _log_softmax(self.logits)

    def distributions(self, rows: np.ndarray) -> np.ndarray:
        return self.probs[self.idx[rows]]

    def log_distributions(self, rows: np.ndarray) -> np.ndarray:
        return self.logp[self.idx[rows]]

    def scored(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = self.idx[rows]
        return self.probs[idx], self.logp[idx]

    def advance(self, rows: np.ndarray, tokens: np.ndarray) -> None:
        n_contexts, V = self.logits.shape
        self.idx[rows] = self.idx[rows] * V % n_contexts + tokens


def kl_divergences(p: np.ndarray, q_log: np.ndarray) -> np.ndarray:
    """KL(p || q) of each row, from the distributions p and the log-distributions
    of q; a token that p gives no mass adds nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * (np.log(p) - q_log), 0.0).sum(axis=-1)


@dataclass
class Rollouts:
    """P rollouts made in lockstep. ``tokens[i, t]`` is row i's token t and
    ``token_probs[i, t]`` the probability the model gave it; ``divergences[c, i, t]``
    is KL(teacher || student c) at row i's prefix question + trace[:t] when
    ``rollouts`` was given a teacher and C students. All three are 0 past a row's end."""

    tokens: np.ndarray
    token_probs: np.ndarray
    divergences: np.ndarray | None = None

    @functools.cached_property
    def lengths(self) -> np.ndarray:
        """Row i's length, up to and including its EOS."""
        eos = self.tokens == EOS
        return np.where(eos.any(axis=1), eos.argmax(axis=1) + 1, self.tokens.shape[1])

    @functools.cached_property
    def traces(self) -> list[TokenSequence]:
        """Row i's trace, up to and including its EOS."""
        rows = zip(self.tokens.tolist(), self.lengths.tolist())
        return TokenSequence.from_rows([row[:n] for row, n in rows], "trace")


def stream(*entropy) -> np.random.Generator:
    """The PCG64 generator of the seed sequence of ``entropy``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def rollouts(model, questions, max_len: int, uniforms=None, divergence=None) -> Rollouts:
    """Roll out every question together, until EOS or ``max_len`` tokens.

    Each step makes one (P, V) array of next-token distributions for the live
    rows and picks one token per row: the argmax (ties to the lowest index)
    without ``uniforms``, otherwise an inverse-CDF draw. Row i's token t draws
    ``uniforms[i, t]`` from a (P, max_len) array, such as a ``uniform_block``
    of one stream per row; a row's uniforms past its EOS go unused.

    Given ``divergence=(teacher, students)``, a teacher and a sequence of C
    students, each step also writes KL(teacher || student c) at every live
    row's prefix into ``divergences[c]``, a (C, P, max_len) array. Every model
    follows the emitted tokens in one P-row state of its own, which a model
    given twice shares; a student rolled out gives its distributions and
    log-distributions together.

    Each model keeps its own P-row state, from ``model.rollout_state(questions)``:
    the context indices of a tabular policy, the window array of a
    feed-forward one, the teacher's automaton.
    """
    if max_len < 1:
        raise PolicyError("max_len must be >= 1")
    P = len(questions)
    if uniforms is not None and np.shape(uniforms) != (P, max_len):
        raise PolicyError(f"uniforms must be a ({P}, {max_len}) array")
    state = model.rollout_state(questions)
    tokens = np.zeros((P, max_len), dtype=np.int64)
    probs = np.zeros((P, max_len))
    states, divergences = {id(model): state}, None
    if divergence is not None:
        teacher, students = divergence
        for m in (teacher, *students):
            if id(m) not in states:
                states[id(m)] = m.rollout_state(questions)
        t_state, s_states = states[id(teacher)], [states[id(s)] for s in students]
        source_scored = any(s is state for s in s_states)
        divergences = np.zeros((len(students), P, max_len))
    live = np.arange(P)
    for t in range(max_len):
        if not live.size:
            break
        if divergence is None:
            dists = state.distributions(live)
        else:
            logs = {}  # the log-distributions of each student state, once per step
            if source_scored:
                dists, logs[id(state)] = state.scored(live)
            else:
                dists = state.distributions(live)
            p = dists if t_state is state else t_state.distributions(live)
            for c, s in enumerate(s_states):
                if id(s) not in logs:
                    logs[id(s)] = s.log_distributions(live)
                divergences[c, live, t] = kl_divergences(p, logs[id(s)])
        if uniforms is None:
            toks = dists.argmax(axis=1)
        else:
            # the inverse CDF: the first token whose cumulative sum exceeds u,
            # and the last token for a u at or past the rounded total
            cdf = dists.cumsum(axis=1)
            cdf[:, -1] = np.inf
            toks = (cdf > uniforms[live, t][:, None]).argmax(axis=1)
        tokens[live, t] = toks
        probs[live, t] = dists[np.arange(live.size), toks]
        going = toks != EOS
        if np.count_nonzero(going) < live.size:
            live, toks = live[going], toks[going]
        if t + 1 < max_len:
            for s in states.values():
                s.advance(live, toks)
    return Rollouts(tokens, probs, divergences)


def sample_sequence(policy, question: TokenSequence, rng: np.random.Generator, max_len: int) -> TokenSequence:
    """Autoregressively sample until EOS or ``max_len`` tokens: the one-row
    case of ``rollouts``. It takes one ``rng.random()`` per emitted token and
    none after EOS, so that a generator shared with other draws stays in step:
    the rollout reads ``max_len`` uniforms, and ``rng`` is then put back (also
    when the rollout raises) and advanced by the trace's length."""
    state = rng.bit_generator.state
    try:  # a max_len below 1 draws no uniforms and meets rollouts' own check
        trace = rollouts(policy, [question], max_len, uniforms=rng.random((1, max(max_len, 0)))).traces[0]
    finally:
        rng.bit_generator.state = state
    rng.random(len(trace))
    return trace


def greedy_decode(policy, question: TokenSequence, max_len: int) -> TokenSequence:
    """Greedy rollout, the one-row case of ``rollouts``; argmax ties break
    toward the lowest token index."""
    return rollouts(policy, [question], max_len).traces[0]


def finite_difference_check(policy, loss_evaluator, h: float = 1e-5) -> float:
    """Max relative error between the evaluator's gradient and central differences.

    ``loss_evaluator(policy) -> (loss, gradient array)`` must be deterministic;
    this is verified by evaluating twice. Each parameter is perturbed by +-h.
    """
    if h <= 0:
        raise PolicyError("h must be positive")
    loss1, grad = loss_evaluator(policy)
    loss2, _ = loss_evaluator(policy)
    if loss1 != loss2:
        raise NonDeterministicLossError(f"loss evaluator not deterministic: {loss1} vs {loss2}")
    work = policy.clone()
    base = policy.params.copy()
    worst = 0.0
    for i in range(base.size):
        work.params[:] = base
        work.params[i] = base[i] + h
        up, _ = loss_evaluator(work)
        work.params[i] = base[i] - h
        down, _ = loss_evaluator(work)
        fd = (up - down) / (2.0 * h)
        err = abs(grad[i] - fd) / (abs(fd) + 1e-12)
        worst = max(worst, err)
    work.params[:] = base
    return worst


def undecodable_line(path) -> int | None:
    """The number of the first line of a file that is not UTF-8 text."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return None


def save_policy(policy: ParametricPolicy, path) -> None:
    """Write a plain-text snapshot: versioned header, then one parameter per line.

    Parameters are serialized with ``repr`` so the round-trip is bit-exact.
    """
    lines = [SNAPSHOT_MAGIC, f"family={policy.family}", f"modulus={policy.vocab.modulus}"]
    lines.append(f"vocab_size={policy.vocab.size}")
    lines += [f"{key}={getattr(policy, key)}" for key in policy.SHAPE]
    lines.append(f"n_params={policy.params.size}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.writelines(f"{v!r}\n" for v in policy.params.tolist())


def load_policy(path) -> ParametricPolicy:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise PolicyError(f"snapshot {path} line {undecodable_line(path)}: not UTF-8 text") from None
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise PolicyError(f"not a policy snapshot: {path}")
    header: dict[str, str] = {}
    i = 1
    while i < len(lines) and "=" in lines[i]:
        key, val = lines[i].split("=", 1)
        header[key] = val
        i += 1
        if key == "n_params":
            break

    def header_int(key: str) -> int:
        if key not in header:
            raise PolicyError(f"snapshot {path} has no {key}= header line")
        try:
            return int(header[key])
        except ValueError:
            raise PolicyError(f"snapshot {path}: {key}={header[key]!r} is not an integer") from None

    n = header_int("n_params")
    if len(lines) < i + n:
        raise PolicyError(f"snapshot {path} truncated: expected {n} params, found {len(lines) - i}")
    params = np.empty(n)
    for j, text in enumerate(lines[i : i + n]):
        try:
            params[j] = float(text)
        except ValueError:
            params[j] = np.nan  # reported below, as nan and inf are
        if not np.isfinite(params[j]):
            raise PolicyError(f"snapshot {path} line {i + j + 1}: parameter {text!r} is not a finite number")
    extra = next((k for k in range(i + n, len(lines)) if lines[k].strip()), None)
    if extra is not None:
        raise PolicyError(f"snapshot {path} line {extra + 1}: unexpected line after the {n} parameters")
    vocab = Vocabulary(header_int("modulus"))
    if vocab.size != header_int("vocab_size"):
        raise PolicyError("snapshot vocab_size inconsistent with modulus")
    family = POLICY_FAMILIES.get(header.get("family"))
    if family is None:
        raise PolicyError(f"unknown policy family {header.get('family')!r}")
    return family(vocab, *(header_int(key) for key in family.SHAPE), params=params)
