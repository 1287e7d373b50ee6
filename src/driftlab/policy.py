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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .vocab import BOS, EOS, TokenSequence, Vocabulary

FAMILY_TABULAR = "tabular"
FAMILY_FEEDFORWARD = "feedforward"

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
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def check_tokens(tokens, vocab_size: int) -> None:
    """Raise PolicyError unless every token lies in the vocabulary."""
    if tokens and (min(tokens) < 0 or max(tokens) >= vocab_size):
        bad = next(t for t in tokens if not 0 <= t < vocab_size)
        raise PolicyError(f"context token {bad} outside vocabulary of size {vocab_size}")


@dataclass
class GradientBuffer:
    """Flat gradient accumulator shaped like a policy's parameter vector."""

    values: np.ndarray

    @classmethod
    def for_policy(cls, policy: "ParametricPolicy") -> "GradientBuffer":
        return cls(np.zeros_like(policy.params))

    def zero(self) -> None:
        self.values.fill(0.0)

    def add(self, other: "GradientBuffer", scale: float = 1.0) -> None:
        self.values += scale * other.values

    def check_finite(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise PolicyError("gradient buffer contains non-finite entries")


class ParametricPolicy:
    """Shared machinery for trainable softmax policies.

    A family implements ``forward(windows)``, which maps a (T, k) array of
    context windows to (T, V) logits plus a cache, and ``backward(cache,
    dlogits, buf)``. Scoring a whole teacher-forced trace and scoring a single
    context are the T-row and the one-row case of the same two calls.
    """

    family: str
    order: int
    vocab: Vocabulary
    params: np.ndarray

    def _windows(self, tokens: list[int], start: int, stop: int) -> np.ndarray:
        """(stop - start, k) windows: row i holds the last k tokens of tokens[: start + i]."""
        if start < 1:
            raise PolicyError("context must be non-empty (sequences start at BOS)")
        check_tokens(tokens, self.vocab.size)
        k = self.order
        padded = np.array([BOS] * k + tokens, dtype=np.int64)
        return padded[start + np.arange(stop - start)[:, None] + np.arange(k)]

    def _context_window(self, context) -> np.ndarray:
        """The (1, k) window of a single context; built directly, as decoding
        calls this once per token."""
        toks = list(context)
        if not toks:
            raise PolicyError("context must be non-empty (sequences start at BOS)")
        check_tokens(toks, self.vocab.size)
        window = toks[-self.order :]
        return np.array([[BOS] * (self.order - len(window)) + window], dtype=np.int64)

    def trace_windows(self, question, trace) -> np.ndarray:
        """(T, k) windows of the T teacher-forced prefixes question + trace[:t]."""
        q, full = _joined(question, trace)
        return self._windows(full, q, len(full))

    def forward(self, windows: np.ndarray):
        """(T, V) logits for a stack of windows, and the cache ``backward`` needs."""
        raise NotImplementedError

    def backward(self, cache, dlogits: np.ndarray, buf: GradientBuffer) -> None:
        """Add the parameter gradient of (T, V) d(loss)/d(logits) rows into ``buf``."""
        raise NotImplementedError

    def logits(self, context) -> np.ndarray:
        return self.forward(self._context_window(context))[0][0]

    def next_token_distribution(self, context) -> np.ndarray:
        return _softmax(self.logits(context))

    def log_next_token_distribution(self, context) -> np.ndarray:
        return _log_softmax(self.logits(context))

    def accumulate_logit_grad(self, context, dlogits: np.ndarray, buf: GradientBuffer) -> None:
        """Backpropagate a d(loss)/d(logits) vector for one context into ``buf``."""
        _, cache = self.forward(self._context_window(context))
        self.backward(cache, np.asarray(dlogits)[None, :], buf)

    def clone(self) -> "ParametricPolicy":
        raise NotImplementedError


class TabularPolicy(ParametricPolicy):
    """Order-k table of logits: one row of size V per context index."""

    family = FAMILY_TABULAR

    def __init__(self, vocab: Vocabulary, order: int = 1, params: np.ndarray | None = None):
        if order < 1:
            raise PolicyError("tabular order must be >= 1")
        self.vocab = vocab
        self.order = order
        V = vocab.size
        self.n_contexts = V**order
        n = self.n_contexts * V
        if params is None:
            self.params = np.zeros(n, dtype=np.float64)
        else:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (n,):
                raise PolicyError(f"tabular params must have shape ({n},), got {params.shape}")
            self.params = params.copy()
        self._place = V ** np.arange(order - 1, -1, -1, dtype=np.int64)

    def context_index(self, context) -> int:
        return int(self._context_window(context)[0].dot(self._place))

    def forward(self, windows):
        rows = windows.dot(self._place)
        return self.params.reshape(self.n_contexts, -1).take(rows, axis=0), rows

    def backward(self, rows, dlogits, buf: GradientBuffer) -> None:
        np.add.at(buf.values.reshape(self.n_contexts, -1), rows, dlogits)

    def clone(self) -> "TabularPolicy":
        return TabularPolicy(self.vocab, self.order, self.params)


class FeedForwardPolicy(ParametricPolicy):
    """One-hidden-layer tanh network over the concatenated last-k embeddings.

    Parameter layout (flat, in order): embedding table (V, d), input weights
    (H, k*d), input bias (H,), output weights (V, H), output bias (V,).
    The reshaped views of ``params`` are built once per assignment, so
    in-place updates of ``params`` reach the forward pass without a copy.
    """

    family = FAMILY_FEEDFORWARD

    def __init__(
        self,
        vocab: Vocabulary,
        order: int = 2,
        embed_dim: int = 8,
        hidden_dim: int = 16,
        params: np.ndarray | None = None,
        init_scale: float = 0.1,
        rng: np.random.Generator | None = None,
    ):
        if order < 1:
            raise PolicyError("feedforward order must be >= 1")
        self.vocab = vocab
        self.order = order
        self.embed_dim = embed_dim
        self.hidden_dim = hidden_dim
        V, d, H = vocab.size, embed_dim, hidden_dim
        self._shapes = ((V, d), (H, order * d), (H,), (V, H), (V,))
        n = sum(int(np.prod(shape)) for shape in self._shapes)
        if params is not None:
            params = np.asarray(params, dtype=np.float64)
            if params.shape != (n,):
                raise PolicyError(f"feedforward params must have shape ({n},), got {params.shape}")
            self.params = params.copy()
        elif rng is not None:
            self.params = init_scale * rng.standard_normal(n)
        else:
            self.params = np.zeros(n, dtype=np.float64)

    @property
    def params(self) -> np.ndarray:
        return self._params

    @params.setter
    def params(self, value: np.ndarray) -> None:
        self._params = value
        self._views = self._unflatten(value)

    def _unflatten(self, flat: np.ndarray):
        """Views (E, W1, b1, W2, b2) into a flat parameter-shaped vector."""
        views, start = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            views.append(flat[start : start + size].reshape(shape))
            start += size
        return views

    def forward(self, windows):
        E, W1, b1, W2, b2 = self._views
        X = E[windows].reshape(len(windows), self.order * self.embed_dim)
        H = np.tanh(X @ W1.T + b1)
        return H @ W2.T + b2, (windows, X, H)

    def backward(self, cache, dlogits, buf: GradientBuffer) -> None:
        windows, X, H = cache
        E, W1, _, W2, _ = self._views
        gE, gW1, gb1, gW2, gb2 = self._unflatten(buf.values)
        gW2 += dlogits.T @ H
        gb2 += dlogits.sum(axis=0)
        dpre = (dlogits @ W2) * (1.0 - H * H)
        gW1 += dpre.T @ X
        gb1 += dpre.sum(axis=0)
        np.add.at(gE, windows, (dpre @ W1).reshape(windows.shape + (self.embed_dim,)))

    def clone(self) -> "FeedForwardPolicy":
        return FeedForwardPolicy(
            self.vocab,
            self.order,
            self.embed_dim,
            self.hidden_dim,
            params=self.params,
        )


@dataclass
class TraceScores:
    """Student log-distributions at every prefix of one teacher-forced trace.

    ``logp`` is (T, V); ``backward(dlogits, buf)`` adds the parameter gradient
    of (T, V) d(loss)/d(logits) rows into ``buf``.
    """

    logp: np.ndarray
    backward: Callable[[np.ndarray, GradientBuffer], None]


def score_trace(policy, question, trace) -> TraceScores:
    """One forward over all T prefixes question + trace[:t] of a trace.

    Trainable policies run it as one batched call. Any other object with the
    per-prefix methods ``log_next_token_distribution`` and
    ``accumulate_logit_grad`` gets its per-prefix calls stacked instead.
    """
    if isinstance(policy, ParametricPolicy):
        logits, cache = policy.forward(policy.trace_windows(question, trace))
        return TraceScores(_log_softmax(logits), lambda dlogits, buf: policy.backward(cache, dlogits, buf))
    contexts = _prefixes(question, trace)
    logp = np.array([policy.log_next_token_distribution(ctx) for ctx in contexts]).reshape(-1, policy.vocab.size)

    def backward(dlogits, buf):
        for ctx, row in zip(contexts, dlogits):
            policy.accumulate_logit_grad(ctx, row, buf)

    return TraceScores(logp, backward)


def trace_distributions(model, question, trace) -> np.ndarray:
    """(T, V) next-token distributions at every prefix question + trace[:t].

    Uses the model's own one-pass ``trace_distributions`` when it has one (the
    analytic teacher does), and stacks per-prefix calls otherwise.
    """
    if hasattr(model, "trace_distributions"):
        return model.trace_distributions(question, trace)
    contexts = _prefixes(question, trace)
    return np.array([model.next_token_distribution(ctx) for ctx in contexts]).reshape(-1, model.vocab.size)


def _joined(question, trace) -> tuple[int, list[int]]:
    """Question length and the question and trace tokens as one list."""
    q = list(question)
    return len(q), q + list(trace)


def _prefixes(question, trace) -> list[list[int]]:
    q, full = _joined(question, trace)
    return [full[:t] for t in range(q, len(full))]


def sample_token(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw; deterministic given the generator state."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


def sample_sequence(policy, question: TokenSequence, rng: np.random.Generator, max_len: int) -> TokenSequence:
    """Autoregressively sample until EOS or ``max_len`` tokens."""
    if max_len < 1:
        raise PolicyError("max_len must be >= 1")
    ctx = list(question.tokens)
    out: list[int] = []
    for _ in range(max_len):
        tok = sample_token(policy.next_token_distribution(ctx), rng)
        out.append(tok)
        ctx.append(tok)
        if tok == EOS:
            break
    return TokenSequence(tuple(out), "trace")


def greedy_decode(policy, question: TokenSequence, max_len: int) -> TokenSequence:
    """Greedy rollout; argmax ties break toward the lowest token index."""
    if max_len < 1:
        raise PolicyError("max_len must be >= 1")
    ctx = list(question.tokens)
    out: list[int] = []
    for _ in range(max_len):
        tok = int(np.argmax(policy.next_token_distribution(ctx)))
        out.append(tok)
        ctx.append(tok)
        if tok == EOS:
            break
    return TokenSequence(tuple(out), "trace")


def log_prob_sequence(policy, question: TokenSequence, trace: TokenSequence) -> float:
    """Sum of per-token conditional log-probabilities of ``trace`` (EOS included)."""
    if len(trace) == 0:
        raise PolicyError("cannot score an empty trace")
    logp = score_trace(policy, question, trace).logp
    return float(logp[np.arange(len(trace)), list(trace.tokens)].sum())


def accumulate_weighted_grad_logp(policy, context, token: int, weight: float, buf: GradientBuffer) -> GradientBuffer:
    """Add ``weight * d log pi(token | context) / d params`` into ``buf``."""
    if not np.isfinite(weight):
        raise PolicyError("weight must be finite")
    if weight == 0.0:
        return buf
    probs = policy.next_token_distribution(context)
    dlogits = -weight * probs
    dlogits[token] += weight
    policy.accumulate_logit_grad(context, dlogits, buf)
    return buf


def finite_difference_check(policy, loss_evaluator, h: float = 1e-5) -> float:
    """Max relative error between the evaluator's gradient and central differences.

    ``loss_evaluator(policy) -> (loss, GradientBuffer)`` must be deterministic;
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
        err = abs(grad.values[i] - fd) / (abs(fd) + 1e-12)
        worst = max(worst, err)
    work.params[:] = base
    return worst


def save_policy(policy: ParametricPolicy, path) -> None:
    """Write a plain-text snapshot: versioned header, then one parameter per line.

    Parameters are serialized with ``repr`` so the round-trip is bit-exact.
    """
    lines = [SNAPSHOT_MAGIC]
    lines.append(f"family={policy.family}")
    lines.append(f"modulus={policy.vocab.modulus}")
    lines.append(f"vocab_size={policy.vocab.size}")
    lines.append(f"order={policy.order}")
    if policy.family == FAMILY_FEEDFORWARD:
        lines.append(f"embed_dim={policy.embed_dim}")
        lines.append(f"hidden_dim={policy.hidden_dim}")
    lines.append(f"n_params={policy.params.size}")
    lines.extend(repr(float(v)) for v in policy.params)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_policy(path) -> ParametricPolicy:
    with open(path) as fh:
        lines = fh.read().splitlines()
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
    n = int(header["n_params"])
    params = np.array([float(v) for v in lines[i : i + n]], dtype=np.float64)
    if params.size != n:
        raise PolicyError(f"snapshot truncated: expected {n} params, found {params.size}")
    vocab = Vocabulary(int(header["modulus"]))
    if vocab.size != int(header["vocab_size"]):
        raise PolicyError("snapshot vocab_size inconsistent with modulus")
    family = header["family"]
    if family == FAMILY_TABULAR:
        return TabularPolicy(vocab, int(header["order"]), params)
    if family == FAMILY_FEEDFORWARD:
        return FeedForwardPolicy(
            vocab,
            int(header["order"]),
            int(header["embed_dim"]),
            int(header["hidden_dim"]),
            params=params,
        )
    raise PolicyError(f"unknown policy family {family!r}")
