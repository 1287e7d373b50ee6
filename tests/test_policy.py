"""Policy-layer contracts: normalization, exact gradients, sampling, snapshots."""

import math

import numpy as np
import pytest

from driftlab.policy import (
    GradientBuffer,
    NonDeterministicLossError,
    PolicyError,
    TabularPolicy,
    _log_softmax,
    _WindowState,
    finite_difference_check,
    greedy_decode,
    load_policy,
    rollouts,
    sample_sequence,
    save_policy,
    stacked_windows,
)
from driftlab.vocab import BOS, EOS, TokenSequence, Vocabulary

from oracles import accumulate_weighted_grad_logp, random_feedforward, reference_window

VOCAB = Vocabulary(3)  # size 8
CTX = TokenSequence((BOS, VOCAB.value_token(1)), "question")


def rng_of(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_ff(seed=0, order=2, embed_dim=3, hidden_dim=4):
    return random_feedforward(VOCAB, order, embed_dim, hidden_dim, 0.3, rng_of(seed))


def test_zero_init_tabular_is_uniform():
    pol = TabularPolicy(VOCAB, 1)
    dist = pol.next_token_distribution(CTX)
    assert np.allclose(dist, 1.0 / VOCAB.size, atol=1e-15)


def test_distributions_sum_to_one():
    for pol in (TabularPolicy(VOCAB, 2, rng_of(1).standard_normal(VOCAB.size**2 * VOCAB.size)),
                random_ff(2)):
        for ctx in ((BOS,), (BOS, 5, 6), (BOS, 3, 4, 7)):
            assert abs(pol.next_token_distribution(ctx).sum() - 1.0) < 1e-9


def test_single_hot_logit_matches_direct_softmax():
    # oracle: direct exp/sum over the full logit row at 64-bit precision
    pol = TabularPolicy(VOCAB, 1)
    row = pol.context_index(CTX)
    V = VOCAB.size
    pol.params[row * V + 3] = 10.0
    dist = pol.next_token_distribution(CTX)
    logits = [10.0 if i == 3 else 0.0 for i in range(V)]
    denom = sum(math.exp(z) for z in logits)
    expected = [math.exp(z) / denom for z in logits]
    assert np.allclose(dist, expected, rtol=0, atol=1e-15)


def test_out_of_vocabulary_context_rejected():
    pol = TabularPolicy(VOCAB, 1)
    with pytest.raises(PolicyError):
        pol.next_token_distribution((BOS, VOCAB.size))
    with pytest.raises(PolicyError):
        pol.next_token_distribution(())


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_rollout_windows_equal_per_question_context_windows(order):
    # contexts shorter than, as long as and longer than the order, with and
    # without a leading BOS, a bare BOS and a TokenSequence, built as one
    # padded array; each one-row call reads the same window
    rng = rng_of(order)
    questions = [[BOS] + rng.integers(0, VOCAB.size, size=n).tolist() for n in (0, 1, 2, 4, 7, 0, 3)]
    questions += [rng.integers(1, VOCAB.size, size=n).tolist() for n in (1, 2, 3, 5, 6)] + [CTX]
    want = np.vstack([reference_window(q, order, VOCAB.size) for q in questions])
    # a feed-forward state keeps the windows, a tabular one their context indices
    policy = random_ff(order=order)
    state = policy.rollout_state(questions)
    assert state.windows.dtype == want.dtype and np.array_equal(state.windows, want)
    assert policy.rollout_state([]).windows.shape == (0, order)
    for q, window in zip(questions, want):
        assert np.array_equal(policy.logits(q), policy.forward(window[None, :])[0][0])
    policy = TabularPolicy(VOCAB, order)
    state = policy.rollout_state(questions)
    assert state.idx.dtype == want.dtype and np.array_equal(state.idx, want.dot(policy._place))
    assert [policy.context_index(q) for q in questions] == want.dot(policy._place).tolist()
    assert policy.rollout_state([]).idx.shape == (0,)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_table_state_equals_window_state(order):
    # the context indices and the gathered softmax table of a tabular state,
    # against the window array and per-step forward of the feed-forward
    # family's state over the same policy, and against one context window per
    # row, along random tokens: questions shorter and longer than the order,
    # each step advancing a random subset of the rows
    rng = rng_of(10 + order)
    policy = TabularPolicy(VOCAB, order, rng.standard_normal(VOCAB.size ** (order + 1)))
    questions = [[BOS] + rng.integers(0, VOCAB.size, size=n).tolist() for n in (0, 1, 2, 3, 4, 6, 9)] + [CTX]
    table, windows = policy.rollout_state(questions), _WindowState(policy, questions)
    contexts = [list(q) for q in questions]
    everyone = np.arange(len(questions))
    for _ in range(3 * order + 2):
        want = np.vstack([reference_window(c, order, VOCAB.size) for c in contexts])
        assert np.array_equal(windows.windows, want)
        assert np.array_equal(table.idx, want.dot(policy._place))
        for got, ref in ((table.distributions(everyone), windows.distributions(everyone)),
                         (table.log_distributions(everyone), windows.log_distributions(everyone)),
                         *zip(table.scored(everyone), windows.scored(everyone))):
            assert np.array_equal(got, ref)
        rows = np.flatnonzero(rng.random(len(questions)) < 0.7)
        assert np.array_equal(table.distributions(rows), windows.distributions(rows))
        toks = rng.integers(0, VOCAB.size, size=rows.size)
        table.advance(rows, toks)
        windows.advance(rows, toks)
        for i, tok in zip(rows.tolist(), toks.tolist()):
            contexts[i].append(tok)


def test_rollout_windows_reject_what_context_windows_reject():
    # the P-row state and the one-row calls raise the reference's message
    for policy in (TabularPolicy(VOCAB, 2), random_ff(order=2)):
        for questions in ([[BOS, 3], []], [[BOS, 3], [BOS, VOCAB.size + 2, -1]], [[BOS, -1]]):
            bad = next(q for q in questions if not q or not all(0 <= t < VOCAB.size for t in q))
            with pytest.raises(PolicyError) as want:
                reference_window(bad, policy.order, VOCAB.size)
            for call in (lambda: policy.rollout_state(questions), lambda: policy.next_token_distribution(bad)):
                with pytest.raises(PolicyError) as got:
                    call()
                assert str(got.value) == str(want.value)


def trace_log_prob(policy, question, trace):
    """Summed log-probability of ``trace`` (EOS included) after ``question``,
    from one teacher-forced ``forward`` call."""
    windows = stacked_windows(policy.order, policy.vocab.size, [question], [trace])
    logp = _log_softmax(policy.forward(windows)[0])
    return float(logp[np.arange(len(trace)), list(trace)].sum())


def test_log_prob_uniform_policy():
    pol = TabularPolicy(VOCAB, 1)
    trace = TokenSequence((5, 6, 7, EOS), "trace")
    assert np.isclose(trace_log_prob(pol, CTX, trace), -4 * math.log(VOCAB.size), atol=1e-12)


def test_log_prob_deterministic_policy_is_zero():
    pol = TabularPolicy(VOCAB, 1)
    pol.params[:] = 0.0
    # 500-logit spikes make the policy numerically deterministic along the trace;
    # contexts (6, 5, 7) are distinct so the spikes never share a row
    trace = (5, 7, EOS)
    ctx_tokens = list(CTX.tokens)
    V = VOCAB.size
    for tok in trace:
        row = pol.context_index(ctx_tokens)
        pol.params[row * V + tok] = 500.0
        ctx_tokens.append(tok)
    lp = trace_log_prob(pol, CTX, TokenSequence(trace, "trace"))
    assert abs(lp) < 1e-12


def test_log_prob_matches_stepwise_product_oracle():
    pol = random_ff(3)
    rng = rng_of(7)
    trace_tokens = tuple(int(rng.integers(VOCAB.size - 1)) for _ in range(4)) + (EOS,)
    trace = TokenSequence(trace_tokens, "trace") if trace_tokens[-1] == EOS else None
    # oracle: multiply next_token_distribution entries step by step
    ctx = list(CTX.tokens)
    prod = 1.0
    for tok in trace_tokens:
        prod *= float(pol.next_token_distribution(ctx)[tok])
        ctx.append(tok)
    lp = trace_log_prob(pol, CTX, TokenSequence(trace_tokens, "full"))
    assert np.isclose(lp, math.log(prod), atol=1e-12)


def test_log_prob_equals_sum_of_log_distribution_entries():
    pol = TabularPolicy(VOCAB, 1, rng_of(11).standard_normal(VOCAB.size**2))
    trace = TokenSequence((6, 5, EOS), "trace")
    ctx = list(CTX.tokens)
    total = 0.0
    for tok in trace.tokens:
        total += math.log(float(pol.next_token_distribution(ctx)[tok]))
        ctx.append(tok)
    assert abs(trace_log_prob(pol, CTX, trace) - total) < 1e-12


def test_forced_eos_sampling():
    pol = TabularPolicy(VOCAB, 1)
    pol.params[:] = 0.0
    for row in range(pol.n_contexts):
        pol.params[row * VOCAB.size + EOS] = 500.0
    seq = sample_sequence(pol, CTX, rng_of(0), max_len=10)
    assert seq.tokens == (EOS,)


def test_sampling_determinism():
    pol = random_ff(5)
    a = sample_sequence(pol, CTX, rng_of(123), max_len=12)
    b = sample_sequence(pol, CTX, rng_of(123), max_len=12)
    assert a.tokens == b.tokens


def test_first_token_frequencies_match_uniform():
    # m=5 task vocabulary; oracle = exact multinomial expectation 1/V per token
    vocab = Vocabulary(5)
    pol = TabularPolicy(vocab, 1)
    n = 100_000
    rng = rng_of(2024)
    question = TokenSequence((BOS,), "question")
    # one lockstep call: row i draws the i-th uniform of the shared stream, as
    # the i-th of n one-row sample_sequence calls would
    first = rollouts(pol, [question] * n, 1, uniforms=rng.random((n, 1))).tokens[:, 0]
    counts = np.bincount(first, minlength=vocab.size)
    p = 1.0 / vocab.size
    se = math.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 3 * se)


def test_weighted_grad_logp_zero_weight_noop():
    pol = TabularPolicy(VOCAB, 1)
    buf = GradientBuffer.for_policy(pol)
    accumulate_weighted_grad_logp(pol, CTX, 5, 0.0, buf)
    assert not buf.values.any()


def test_weighted_grad_logp_uniform_closed_form():
    pol = TabularPolicy(VOCAB, 1)
    buf = GradientBuffer.for_policy(pol)
    accumulate_weighted_grad_logp(pol, CTX, 5, 1.0, buf)
    V = VOCAB.size
    row = pol.context_index(CTX)
    block = buf.values[row * V : (row + 1) * V]
    expected = -np.full(V, 1.0 / V)
    expected[5] += 1.0
    assert np.allclose(block, expected, atol=1e-15)
    rest = np.delete(buf.values.reshape(-1, V), row, axis=0)
    assert not rest.any()


def test_weighted_grad_logp_feedforward_matches_finite_differences():
    pol = random_ff(9)
    token = 6

    def evaluator(p):
        buf = GradientBuffer.for_policy(p)
        accumulate_weighted_grad_logp(p, CTX, token, 1.0, buf)
        # loss convention: fd checks d(loss)/d(params), so negate log-prob
        buf.values *= -1.0
        return -float(p.log_next_token_distribution(CTX)[token]), buf

    assert finite_difference_check(pol, evaluator, h=1e-5) < 1e-4


def test_finite_difference_constant_loss():
    pol = TabularPolicy(VOCAB, 1)

    def evaluator(p):
        return 1.5, GradientBuffer.for_policy(p)

    assert finite_difference_check(pol, evaluator, h=1e-5) == 0.0


def test_finite_difference_detects_nondeterminism():
    pol = TabularPolicy(VOCAB, 1)
    state = {"n": 0}

    def evaluator(p):
        state["n"] += 1
        return float(state["n"]), GradientBuffer.for_policy(p)

    with pytest.raises(NonDeterministicLossError):
        finite_difference_check(pol, evaluator)


def test_greedy_ties_break_to_lowest_index():
    pol = TabularPolicy(VOCAB, 1)
    decoded = greedy_decode(pol, CTX, max_len=3)
    assert decoded.tokens == (BOS, BOS, BOS)  # uniform rows: argmax is index 0


@pytest.mark.parametrize("make", [
    lambda: TabularPolicy(VOCAB, 2, rng_of(31).standard_normal(VOCAB.size**2 * VOCAB.size)),
    lambda: random_ff(32),
])
def test_snapshot_round_trip_bit_exact(tmp_path, make):
    pol = make()
    path = tmp_path / "policy.txt"
    save_policy(pol, path)
    back = load_policy(path)
    assert back.family == pol.family
    assert back.order == pol.order
    assert back.vocab.size == pol.vocab.size
    assert np.array_equal(back.params, pol.params)  # bit-exact
