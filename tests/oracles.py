"""Shared test-side oracles: hand-built policies, tree enumeration, and the
per-token reference losses.

Everything here is deliberately independent of the package internals it is
used to check; divergences and rollout trees are recomputed from scratch.
The reference losses walk a trace one prefix at a time through the public
per-prefix methods (``log_next_token_distribution``,
``accumulate_logit_grad``, the teacher's ``next_token_distribution``), which
is the form the whole-trace kernel in ``driftlab.objectives`` replaces. The
reference rollouts likewise decode one problem at a time, one
``next_token_distribution`` call per token, which is the form the lockstep
``driftlab.policy.rollouts`` replaces.
"""

import math
from dataclasses import dataclass

import numpy as np

from driftlab.metrics import ExAccErrCurve
from driftlab.objectives import evaluate_objective, js_sequence_loss
from driftlab.policy import FeedForwardPolicy, PolicyError, RolloutState
from driftlab.task import (
    CorpusRecord,
    ProblemInstance,
    TaskError,
    TraceCorpus,
    answer_token,
    chain_step,
    generate_problems,
)
from driftlab.training import (
    OptimizerState,
    RunHistory,
    StepRecord,
    TrainAbortError,
    _apply_update,
    _batches,
    clip_global_norm,
    lr_at,
)
from driftlab.vocab import ADD, ANSWER_MARK, BOS, EOS, MUL, VALUE_BASE, TokenSequence, VocabularyError


@dataclass(frozen=True)
class SimpleVocab:
    """Bare token space for hand-built policies; EOS keeps its reserved index 1."""

    n_tokens: int

    def __post_init__(self) -> None:
        if self.n_tokens < 2:
            raise VocabularyError("need at least 2 tokens (something plus EOS)")

    @property
    def size(self) -> int:
        return self.n_tokens


class PrefixTablePolicy:
    """Hand-built policy: full next-token tables keyed by the trace prefix.
    Its lockstep state keeps each row's context and stacks per-row calls."""

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

    def rollout_state(self, questions):
        return _PrefixTableState(self, questions)


class _PrefixTableState(RolloutState):
    def __init__(self, policy, questions):
        self.policy, self.contexts = policy, [list(q) for q in questions]

    def distributions(self, rows):
        return np.array([self.policy.next_token_distribution(self.contexts[i]) for i in rows])

    def advance(self, rows, tokens):
        for i, tok in zip(rows.tolist(), tokens.tolist()):
            self.contexts[i].append(tok)


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


def accumulate_weighted_grad_logp(policy, context, token, weight, buf):
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
    buf = np.zeros_like(policy.params)
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
    buf = np.zeros_like(policy.params)
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
    buf = np.zeros_like(policy.params)
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
    """KL(teacher || student) at each prefix of a rollout, one call pair per
    prefix. The one-row results are stacked and each row is summed over the
    whole vocabulary, zeros included, so that a row rounds as the same row of
    a P-row array does."""
    ctx = list(question)
    p, q_log = [], []
    for tok in rollout:
        p.append(teacher.next_token_distribution(ctx))
        if student is teacher:
            with np.errstate(divide="ignore"):
                q_log.append(np.log(p[-1]))
        else:
            q_log.append(student.log_next_token_distribution(ctx))
        ctx.append(tok)
    p, q_log = (np.array(rows).reshape(-1, teacher.vocab.size) for rows in (p, q_log))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * (np.log(p) - q_log), 0.0).sum(axis=-1)


def reference_horizon_sums(divs, horizons):
    """The divergences added left to right from 0.0 up to each horizon; a
    horizon past the rollout reads its total."""
    sums = [0.0]
    for d in divs:
        sums.append(sums[-1] + float(d))
    return np.array([sums[min(h, len(divs))] for h in horizons])


def reference_teacher_target(cfg, context):
    """The analytic teacher's expected next token after ``context`` (-1 for
    its sink), re-derived from the task's rules one token at a time.

    The first question-length tokens must read BOS, a start value, then an
    operator (ADD or MUL) and an operand value per step; a shorter or other
    block is the sink. Past it, a value token becomes the running value and
    counts a step (at most L), and the answer marker moves on to the answer;
    there a value ends the answer, and a repeated marker changes nothing;
    after the answer only EOS is expected, whatever comes. EOS, and any other
    token in the chain or at the answer, sink the prefix for good.
    """
    m, L, qlen = cfg.modulus, cfg.chain_length, cfg.question_len

    def residue(tok):
        return tok - VALUE_BASE if VALUE_BASE <= tok < VALUE_BASE + m else None

    question, tail = list(context[:qlen]), list(context[qlen:])
    if len(question) < qlen or question[0] != BOS or None in [residue(t) for t in question[1::2]]:
        return -1
    if any(op not in (ADD, MUL) for op in question[2::2]):
        return -1
    ops, operands = question[2::2], [residue(a) for a in question[3::2]]
    running, steps, phase = residue(question[1]), 0, "chain"
    for tok in tail:
        if tok == EOS:
            return -1
        if phase == "chain" and residue(tok) is not None:
            running, steps = residue(tok), min(steps + 1, L)
        elif phase == "chain" and tok == ANSWER_MARK:
            phase = "answer"
        elif phase == "answer" and residue(tok) is not None:
            phase = "after"
        elif phase != "after" and not (phase == "answer" and tok == ANSWER_MARK):
            return -1
    if phase == "after":
        return EOS
    if phase == "answer":
        return VALUE_BASE + running
    if steps == L:
        return ANSWER_MARK
    a = operands[steps]
    return VALUE_BASE + ((running + a) % m if ops[steps] == ADD else (running * a) % m)


def reference_teacher_distribution(cfg, epsilon, context):
    """``1 - epsilon`` on the expected token and ``epsilon`` spread evenly
    over the rest; a point mass on EOS in the sink."""
    V, target = cfg.vocab().size, reference_teacher_target(cfg, context)
    dist = np.full(V, epsilon / (V - 1))
    if target < 0:
        dist[:] = 0.0
        target, epsilon = EOS, 0.0
    dist[target] = 1.0 - epsilon
    return dist


def reference_automaton(m, L):
    """``driftlab.task._automaton`` tabulated one cell at a time from scalar
    rules: the next state per (state, token), the chain step each state's
    emission reads, and the emission per (state, operator, operand token).
    States: the sink (0), after the answer (1), after the answer marker with
    running value r (2 + r), and emitting chain values with running value r
    after k steps (2 + m + k*m + r, 0 <= k <= L)."""
    sink, post = 0, 1

    def transition(state, tok):
        is_value = VALUE_BASE <= tok < VALUE_BASE + m
        if tok == EOS or state == sink:
            return sink
        if state == post:
            return post
        if state < 2 + m:
            if is_value:
                return post
            return state if tok == ANSWER_MARK else sink
        steps, running = divmod(state - 2 - m, m)
        if is_value:
            return 2 + m + min(steps + 1, L) * m + tok - VALUE_BASE
        return 2 + running if tok == ANSWER_MARK else sink

    def emission(state, op, operand):
        if state == sink:
            return -1
        if state == post:
            return EOS
        if state < 2 + m:
            return VALUE_BASE + state - 2
        steps, running = divmod(state - 2 - m, m)
        if steps == L:
            return ANSWER_MARK
        if op not in (ADD, MUL) or operand < VALUE_BASE:
            return -1
        return VALUE_BASE + chain_step(running, op, operand - VALUE_BASE, m)

    states, tokens = range(2 + m * (L + 2)), range(VALUE_BASE + m)
    nxt = [[transition(state, tok) for tok in tokens] for state in states]
    step = [min(max(state - 2 - m, 0) // m, L - 1) for state in states]
    emit = [[[emission(state, op, a) for a in tokens] for op in tokens] for state in states]
    return tuple(np.array(table, dtype=np.int64) for table in (nxt, step, emit))


def random_prefixes(cfg, n, seed):
    """Question/trace splits: well-formed questions followed by random trace
    tokens (EOS mid-trace, repeated answer markers), truncated questions, and
    fully random token strings."""
    rng = np.random.Generator(np.random.PCG64(seed))
    V = cfg.vocab().size
    problems = generate_problems(cfg, n, seed=seed)
    special = [ANSWER_MARK, ANSWER_MARK, EOS, BOS, ADD, MUL]
    out = []
    for i, p in enumerate(problems):
        tail = list(p.gold_trace.tokens[: rng.integers(0, len(p.gold_trace) + 1)])
        for _ in range(rng.integers(0, 8)):
            pos = int(rng.integers(0, len(tail) + 1))
            tok = special[rng.integers(len(special))] if rng.random() < 0.5 else int(rng.integers(V))
            tail.insert(pos, tok)
        kind = i % 3
        if kind == 0:
            full = list(p.question.tokens) + tail
        elif kind == 1:
            full = list(p.question.tokens[: rng.integers(0, cfg.question_len)]) + tail
        else:
            full = [int(t) for t in rng.integers(0, V, size=rng.integers(0, 24))]
        cut = int(rng.integers(0, len(full) + 1))
        out.append((full[:cut], full[cut:]))
    return out


# --- scalar-draw reference problems ---------------------------------------------


def reference_problems(cfg, n, seed):
    """``generate_problems`` with one scalar ``integers`` call per drawn value:
    problem i takes v0, then the L operators, then the L operands from stream
    (seed, i)."""
    vocab, m, L = cfg.vocab(), cfg.modulus, cfg.chain_length
    out = []
    for i in range(n):
        rng = stream(seed, i)
        v0 = int(rng.integers(m))
        ops = [int(cfg.ops[rng.integers(len(cfg.ops))]) for _ in range(L)]
        operands = [int(rng.integers(m)) for _ in range(L)]
        question, values, v = [BOS, vocab.value_token(v0)], [], v0
        for op, a in zip(ops, operands):
            question += [op, vocab.value_token(a)]
            v = chain_step(v, op, a, m)
            values.append(v)
        answer = vocab.value_token(values[-1])
        trace = [vocab.value_token(u) for u in values] + [ANSWER_MARK, answer, EOS]
        out.append(ProblemInstance(TokenSequence(tuple(question), "question"), answer, TokenSequence(tuple(trace), "trace")))
    return out


# --- per-problem reference rollouts --------------------------------------------


def stream(*entropy):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def reference_normals(entropy, n):
    """n standard normals of ``stream(*entropy)`` by Box-Muller: the uniforms
    in pairs, the radius from the first of a pair and the angle from the second,
    the cosine normal first."""
    u = stream(*entropy).random(n + n % 2)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[0::2])), 2.0 * np.pi * u[1::2]
    out = np.empty(len(u))
    out[0::2], out[1::2] = radius * np.cos(angle), radius * np.sin(angle)
    return out[:n]


def random_feedforward(vocab, order, embed_dim, hidden_dim, scale, rng):
    """A feed-forward student with parameters ``scale * rng.standard_normal(n)``."""
    n = FeedForwardPolicy(vocab, order, embed_dim, hidden_dim).params.size
    return FeedForwardPolicy(vocab, order, embed_dim, hidden_dim, params=scale * rng.standard_normal(n))


def reference_window(context, order, vocab_size):
    """The (1, k) window of one context, built as a list: its last ``order``
    tokens, left-padded with BOS, after the checks every window builder makes."""
    toks = list(context)
    if not toks:
        raise PolicyError("context must be non-empty (sequences start at BOS)")
    bad = next((t for t in toks if not 0 <= t < vocab_size), None)
    if bad is not None:
        raise PolicyError(f"context token {bad} outside vocabulary of size {vocab_size}")
    window = toks[-order:]
    return np.array([[BOS] * (order - len(window)) + window], dtype=np.int64)


def reference_rollout(model, question, max_len, rng=None, uniforms=None):
    """One rollout, one ``next_token_distribution`` call per token: the argmax
    without ``rng`` or ``uniforms``, else an inverse-CDF draw of one
    ``rng.random()`` per token, or of ``uniforms[t]`` for token t.
    Returns the tokens and the probability of each."""
    ctx = list(question)
    toks, probs = [], []
    for t in range(max_len):
        dist = model.next_token_distribution(ctx)
        if rng is None and uniforms is None:
            tok = int(np.argmax(dist))
        else:
            u = rng.random() if uniforms is None else uniforms[t]
            tok = min(int(np.searchsorted(np.cumsum(dist), u, side="right")), len(dist) - 1)
        toks.append(tok)
        probs.append(float(dist[tok]))
        ctx.append(tok)
        if tok == EOS:
            break
    return toks, probs


def reference_corpus(teacher, problems, seed, samples_per_problem=1, max_len=24):
    """Teacher corpus, one record at a time, each from stream (seed, record index)."""
    records = []
    for p_idx, problem in enumerate(problems):
        for s in range(samples_per_problem):
            rng = stream(seed, p_idx * samples_per_problem + s)
            toks, probs = reference_rollout(teacher, problem.question, max_len, rng)
            trace = TokenSequence(tuple(toks), "trace")
            correct = trace.ends_with_eos and answer_token(trace) == problem.gold_answer
            logps = np.array([float(np.log(p)) for p in probs], dtype=np.float64)
            records.append(CorpusRecord(problem.question, trace, logps, bool(correct)))
    return TraceCorpus(records)


def reference_read_corpus(path, vocab=None):
    """``read_corpus`` one line at a time: each record line is split, parsed
    with ``int`` and ``float`` and checked in turn, and the first line that
    fails a check raises TaskError naming the file and the line."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            try:
                records.append(_reference_record(line, vocab))
            except ValueError as exc:
                raise TaskError(f"{path} line {lineno}: {exc}") from None
    return TraceCorpus(records)


def _reference_record(line, vocab):
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, found {len(fields)}")
    q, t, lp, flag = fields
    question, trace = [int(v) for v in q.split()], [int(v) for v in t.split()]
    if vocab is not None:
        bad = [tok for tok in question + trace if not 0 <= tok < vocab.size]
        if bad:
            raise ValueError(f"context token {bad[0]} outside vocabulary of size {vocab.size}")
    logps = np.array([float(v) for v in lp.split()], dtype=np.float64)
    if len(logps) != len(trace):
        raise ValueError(f"{len(logps)} log-probabilities for a trace of {len(trace)} tokens")
    if not np.all(np.isfinite(logps) & (logps <= 0.0)):
        raise ValueError("log-probabilities must be finite and at most 0")
    if flag not in ("0", "1"):
        raise ValueError(f"correct flag must be 0 or 1, found {flag!r}")
    if EOS in trace[:-1]:
        raise ValueError("trace has tokens after its EOS")
    if not question:
        raise ValueError("empty question field")
    if not trace:
        raise ValueError("empty trace field")
    if vocab is None and not all(-(2**63) <= tok < 2**63 for tok in question + trace):
        raise ValueError("token outside the int64 range")
    return CorpusRecord(TokenSequence(tuple(question), "question"), TokenSequence(tuple(trace), "trace"), logps, flag == "1")


def reference_accuracy(policy, problems, max_len):
    hits = 0
    for problem in problems:
        trace = TokenSequence(tuple(reference_rollout(policy, problem.question, max_len)[0]), "trace")
        hits += answer_token(trace) == problem.gold_answer
    return hits / len(problems)


def reference_aggregate_curve(per_problem_ref, per_problem_self, horizons, floor):
    """The drift curve from per-problem accumulations, one problem and one
    horizon at a time: a running sum of the ratios of the problems whose
    reference accumulation reaches ``floor``."""
    acc = np.zeros(len(horizons))
    counts = np.zeros(len(horizons), dtype=np.int64)
    floor_used = False
    for e_ref, e_self in zip(per_problem_ref, per_problem_self):
        for j in range(len(horizons)):
            if e_ref[j] < floor:
                floor_used = True
                continue
            acc[j] += 100.0 * (e_self[j] - e_ref[j]) / e_ref[j]
            counts[j] += 1
    values = np.where(counts > 0, acc / np.maximum(counts, 1), 0.0)
    return ExAccErrCurve(horizons=tuple(horizons), values=values, floor_used=floor_used)


def reference_drift_curve(teacher, student, problems, horizons, seed, max_len, prefix_source=None, floor=1e-9):
    """``exaccerr`` (no ``prefix_source``) or ``prefix_drift_eval``, one problem
    at a time: per problem a full-length teacher rollout from stream (seed,
    idx, 0) and a student or prefix-source rollout from stream (seed, idx, 1),
    each scored after the fact by ``reference_rollout_divergences``, and the
    curve aggregated by a running sum."""
    horizons = tuple(horizons)
    refs, selfs = [], []
    for idx, problem in enumerate(problems):
        y_teacher, _ = reference_rollout(teacher, problem.question, max_len, stream(seed, idx, 0))
        if prefix_source is None:
            y_self, _ = reference_rollout(student, problem.question, max_len, stream(seed, idx, 1))
        else:
            y_self, _ = reference_rollout(prefix_source, problem.question, max(horizons), stream(seed, idx, 1))
        for rollout, sums in ((y_teacher, refs), (y_self, selfs)):
            divs = reference_rollout_divergences(teacher, student, problem.question, rollout)
            sums.append(reference_horizon_sums(divs, horizons))
    return reference_aggregate_curve(refs, selfs, horizons, floor)


# --- per-record reference training loop ----------------------------------------


def reference_gkd_step(policy, teacher, records, gkd_lambda, gkd_beta, rng, max_len):
    """One online step, one record at a time: all B source draws first, then
    one (S, max_len) block of token uniforms for the S student-sourced records
    in record order; then per record its rollout (an inverse-CDF draw of one
    row of the block per token) or teacher trace, and its JS loss."""
    buf = np.zeros_like(policy.params)
    total, n_tokens = 0.0, 0
    on_policy = [rng.random() < gkd_lambda for _ in records]
    rows = iter(rng.random((sum(on_policy), max_len)))
    for record, student in zip(records, on_policy):
        supervision = record.trace
        if student:
            tokens, _ = reference_rollout(policy, record.question, max_len, uniforms=next(rows))
            supervision = TokenSequence(tuple(tokens), "trace")
        loss, grad = js_sequence_loss(policy, teacher, record.question, supervision, gkd_beta)
        total += loss
        buf += grad
        n_tokens += len(supervision)
    return total, buf, np.ones(n_tokens)


def reference_train(cfg, corpus, objective, init_policy, teacher=None, max_len=24, *, seed):
    """``driftlab.training.train`` scoring each record of a batch on its own:
    one ``evaluate_objective`` call per record (or one JS loss per record for
    the online base), the step's loss and gradient summed record by record."""
    policy = init_policy.clone()
    records = corpus.records
    n = len(records)
    total_steps = cfg.epochs * ((n + cfg.batch_size - 1) // cfg.batch_size)
    state = OptimizerState.for_policy(policy)
    history = RunHistory()
    step = 0
    for epoch in range(cfg.epochs):
        perm = stream(seed, epoch).permutation(n)
        for batch in _batches(n, cfg.batch_size, perm):
            grad = np.zeros_like(policy.params)
            loss = 0.0
            weights = []
            if objective.base == "gkd":
                loss, step_grad, w = reference_gkd_step(
                    policy, teacher, [records[i] for i in batch], objective.gkd_lambda, objective.gkd_beta,
                    stream(seed, 5, step), max_len,
                )
                grad += step_grad
                weights.append(w)
            else:
                for i in batch:
                    result = evaluate_objective(policy, records[i], objective, teacher)
                    loss += result.loss
                    grad += result.grad
                    weights.append(result.token_weights)
            scale = 1.0 / len(batch)
            loss *= scale
            grad *= scale
            if not np.isfinite(loss):
                raise TrainAbortError(step, f"non-finite loss at step {step}")
            pre_norm = clip_global_norm(grad, cfg.clip_norm)
            lr = lr_at(step, total_steps, cfg)
            _apply_update(policy, grad, lr, cfg, state)
            allw = np.concatenate(weights)
            history.steps.append(
                StepRecord(step, lr, float(loss), pre_norm, min(pre_norm, cfg.clip_norm),
                           float(allw.mean()), float(allw.min()), float(allw.max()))
            )
            step += 1
    return policy, history
