"""Shared test-side oracles: hand-built policies, tree enumeration, and the
per-token reference losses.

Everything here is deliberately independent of the package internals it is
used to check; divergences and rollout trees are recomputed from scratch.
The reference losses walk a trace one prefix at a time through the public
per-prefix methods (``log_next_token_distribution``,
``accumulate_logit_grad``, the teacher's ``next_token_distribution``), which
is the form the whole-trace kernel in ``driftlab.objectives`` replaces.
"""

import math

import numpy as np

from driftlab.policy import GradientBuffer
from driftlab.vocab import EOS, SimpleVocab, TokenSequence


class PrefixTablePolicy:
    """Hand-built policy: full next-token tables keyed by the trace prefix."""

    family = "hand-built"

    def __init__(self, n_tokens, table, question_len, default=None):
        self.vocab = SimpleVocab(n_tokens)
        self.table = {tuple(k): np.asarray(v, dtype=np.float64) for k, v in table.items()}
        self.question_len = question_len
        self.default = None if default is None else np.asarray(default, dtype=np.float64)

    def next_token_distribution(self, context):
        key = tuple(context[self.question_len :])
        if key in self.table:
            return self.table[key].copy()
        if self.default is not None:
            return self.default.copy()
        point = np.zeros(self.vocab.size)
        point[EOS] = 1.0
        return point

    def log_next_token_distribution(self, context):
        with np.errstate(divide="ignore"):
            return np.log(self.next_token_distribution(context))


def micro_instance():
    """3-token micro world (tokens: 0 'a', 1 EOS, 2 'b'), single-step flavor."""
    n = 3
    question = TokenSequence((0,), "question")
    teacher = PrefixTablePolicy(
        n,
        {
            (): [0.6, 0.1, 0.3],
            (0,): [0.2, 0.5, 0.3],
            (2,): [0.1, 0.7, 0.2],
            (0, 0): [0.0, 1.0, 0.0],
            (0, 2): [0.0, 1.0, 0.0],
            (2, 0): [0.0, 1.0, 0.0],
            (2, 2): [0.0, 1.0, 0.0],
        },
        question_len=1,
    )
    student = PrefixTablePolicy(
        n,
        {
            (): [0.3, 0.2, 0.5],
            (0,): [0.4, 0.4, 0.2],
            (2,): [0.25, 0.5, 0.25],
            (0, 0): [0.1, 0.8, 0.1],
            (0, 2): [0.2, 0.6, 0.2],
            (2, 0): [0.3, 0.4, 0.3],
            (2, 2): [0.1, 0.6, 0.3],
        },
        question_len=1,
    )
    return question, teacher, student


def enumerate_tree(policy, question, max_len):
    done = []
    frontier = [((), 1.0)]
    while frontier:
        prefix, prob = frontier.pop()
        if prefix and prefix[-1] == EOS or len(prefix) == max_len:
            done.append((prefix, prob))
            continue
        dist = policy.next_token_distribution(list(question.tokens) + list(prefix))
        for tok, p in enumerate(dist):
            if p > 0:
                frontier.append((prefix + (tok,), prob * float(p)))
    return done


def oracle_kl(p, q):
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0)


def oracle_curve(question, teacher, student, horizons, max_len, floor=1e-9):
    """Exact expected drift curve by brute-force pair enumeration."""
    t_rolls = enumerate_tree(teacher, question, max_len)
    s_rolls = enumerate_tree(student, question, max_len)

    def cums(prefix):
        out = []
        total = 0.0
        ctx = list(question.tokens)
        for tok in prefix:
            p = teacher.next_token_distribution(ctx)
            q = student.next_token_distribution(ctx)
            total += oracle_kl(p, q)
            out.append(total)
            ctx.append(tok)
        return out

    values = []
    for h in horizons:
        num = 0.0
        mass = 0.0
        for t_prefix, tp in t_rolls:
            e_t = cums(t_prefix)
            e_t_h = e_t[min(h, len(e_t)) - 1] if e_t else 0.0
            if e_t_h < floor:
                continue
            for s_prefix, sp in s_rolls:
                e_s = cums(s_prefix)
                e_s_h = e_s[min(h, len(e_s)) - 1] if e_s else 0.0
                num += tp * sp * 100.0 * (e_s_h - e_t_h) / e_t_h
                mass += tp * sp
        values.append(num / mass if mass else 0.0)
    return values


def hand_fixture_traces():
    """Ten hand-built traces with hand-computed statistics.

    Tokens: values 5..9, marker M=2, EOS=1; lengths exclude EOS.
    mean length  = (4+5+5+4+2+6+8+1+5+4)/10 = 4.4
    rep-4gram    = (0+0+0+0+0+2/3+1/5+0+0+0)/10 = 13/150
    post-answer  = traces 2, 3, 9 -> 0.3
    multi-answer = traces 3, 9    -> 0.2
    """
    traces = [
        TokenSequence((5, 6, 2, 7, 1), "trace"),
        TokenSequence((5, 6, 2, 7, 8, 1), "trace"),
        TokenSequence((5, 2, 7, 2, 7, 1), "trace"),
        TokenSequence((5, 6, 7, 8, 1), "trace"),
        TokenSequence((2, 7, 1), "trace"),
        TokenSequence((5, 5, 5, 5, 5, 5, 1), "trace"),
        TokenSequence((5, 6, 7, 8, 5, 6, 7, 8, 1), "trace"),
        TokenSequence((2, 1), "trace"),
        TokenSequence((5, 6, 2, 7, 2, 1), "trace"),
        TokenSequence((6, 7, 2, 8, 1), "trace"),
    ]
    expected = {
        "mean_length": 4.4,
        "repeated_4gram_fraction": 13.0 / 150.0,
        "post_answer_rate": 0.3,
        "multi_answer_rate": 0.2,
    }
    return traces, expected


# --- per-token reference losses ------------------------------------------------


def _sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x)) if x >= 0 else math.exp(x) / (1.0 + math.exp(x))


def _scaled(delta, transform):
    return delta / transform.tau if transform.tau_convention == "divide" else delta * transform.tau


def reference_weight(delta, transform):
    """Scalar weight of one log-density gap, written out per transform."""
    kind = transform.kind
    if kind == "constant-one":
        return 1.0
    if kind == "sigmoid":
        return _sigmoid(_scaled(delta, transform))
    if kind == "raw-ratio":
        return math.exp(delta)
    if kind == "clip-exp":
        return math.exp(min(max(delta, -transform.clip), transform.clip))
    if kind == "relu":
        return max(delta, 0.0)
    raise ValueError(f"no per-token form for {kind!r}")


def reference_token_weights(policy, record, transform):
    """Correction weights from one student call per trace prefix."""
    if transform.kind == "constant-one":
        return np.ones(len(record.trace))
    ctx = list(record.question.tokens)
    deltas = []
    for tok, teacher_logp in zip(record.trace.tokens, record.teacher_token_logps):
        deltas.append(float(policy.log_next_token_distribution(ctx)[tok]) - float(teacher_logp))
        ctx.append(tok)
    if transform.kind == "sequence-sigmoid":
        return np.full(len(deltas), _sigmoid(_scaled(sum(deltas), transform)))
    return np.array([reference_weight(d, transform) for d in deltas])


def reference_sft_loss(policy, record, weights):
    """Weighted negative log-likelihood, one prefix at a time."""
    buf = GradientBuffer(np.zeros_like(policy.params))
    ctx = list(record.question.tokens)
    loss = 0.0
    for t, tok in enumerate(record.trace.tokens):
        w = float(weights[t])
        logp = policy.log_next_token_distribution(ctx)
        loss -= w * float(logp[tok])
        dlogits = w * np.exp(logp)
        dlogits[tok] -= w
        policy.accumulate_logit_grad(ctx, dlogits, buf)
        ctx.append(tok)
    return loss, buf


def reference_kl_terms(p, q_log, direction):
    """One position's divergence and its gradient w.r.t. the student logits."""
    q = np.exp(q_log)
    mask = p > 0.0
    fwd = float(np.sum(p[mask] * (np.log(p[mask]) - q_log[mask])))
    fwd_d = q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        s = q_log - np.log(p)
    rev = float(np.sum(np.where(q > 0.0, q * s, 0.0)))
    rev_d = np.where(q > 0.0, q * (s - rev), 0.0)
    if direction == "forward":
        return fwd, fwd_d
    if direction == "reverse":
        return rev, rev_d
    return 0.5 * (fwd + rev), 0.5 * (fwd_d + rev_d)


def reference_kl_loss(policy, record, teacher, direction, weights):
    """Token-weighted divergence, one teacher and one student call per prefix."""
    buf = GradientBuffer(np.zeros_like(policy.params))
    ctx = list(record.question.tokens)
    loss = 0.0
    for t, tok in enumerate(record.trace.tokens):
        w = float(weights[t])
        p, q_log = teacher.next_token_distribution(ctx), policy.log_next_token_distribution(ctx)
        value, dlogits = reference_kl_terms(p, q_log, direction)
        loss += w * value
        policy.accumulate_logit_grad(ctx, w * dlogits, buf)
        ctx.append(tok)
    return loss, buf


def reference_js_loss(policy, teacher, question, supervision, beta):
    """Generalized JS sequence loss, one position at a time."""
    buf = GradientBuffer(np.zeros_like(policy.params))
    ctx = list(question.tokens)
    loss = 0.0
    for tok in supervision.tokens:
        p = teacher.next_token_distribution(ctx)
        q_log = policy.log_next_token_distribution(ctx)
        q = np.exp(q_log)
        mix = beta * q + (1.0 - beta) * p
        safe = np.where(mix > 0.0, mix, 1.0)
        value = 0.0
        if beta > 0.0:
            mask = p > 0.0
            value += beta * float(np.sum(p[mask] * (np.log(p[mask]) - np.log(safe[mask]))))
        if beta < 1.0 and np.any((q > 0.0) & (mix <= 0.0)):
            # student mass outside the mixture's support: infinite, no gradient
            loss += float("inf")
            ctx.append(tok)
            continue
        if beta < 1.0:
            value += (1.0 - beta) * float(np.sum(np.where(q > 0.0, q * (q_log - np.log(safe)), 0.0)))
        dq = -(beta**2) * np.where(mix > 0.0, p / safe, 0.0)
        if beta < 1.0:
            dq = dq + (1.0 - beta) * (np.where(q > 0.0, q_log - np.log(safe), 0.0) + 1.0 - beta * q / safe)
        loss += value
        policy.accumulate_logit_grad(ctx, q * (dq - float(np.sum(q * dq))), buf)
        ctx.append(tok)
    return loss, buf


def reference_rollout_divergences(teacher, student, question, rollout):
    """KL(teacher || student) at each prefix of a rollout, one call pair per prefix."""
    ctx = list(question.tokens)
    out = []
    for tok in rollout:
        p = teacher.next_token_distribution(ctx)
        q_log = student.log_next_token_distribution(ctx)
        mask = p > 0.0
        out.append(float(np.sum(p[mask] * (np.log(p[mask]) - q_log[mask]))))
        ctx.append(tok)
    return np.array(out)
