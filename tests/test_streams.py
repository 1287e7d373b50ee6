"""Stream blocks against numpy's own generators, and the teacher's tables
against their scalar tabulation.

Row i of ``uniform_block(entropy, n)`` must equal ``stream(*entropy_i).random(n)``
bit for bit, and row i of ``word_block`` the 32-bit words that stream's
``integers`` draws from, for every entropy layout driftlab uses. Problem sets
drawn from word blocks must equal ``generate_problem`` on each problem's own
stream, a rejected bounded draw included. ``seed_words`` must equal
``SeedSequence.generate_state(1)``, ``permutations`` each epoch's
``Generator.permutation``, and the online steps of ``train`` the first draws
of their streams, so that no run needs ``numpy.random`` for them.
``normal_block`` must equal a Box-Muller transform of each stream's uniforms.
"""

import numpy as np
import pytest

from driftlab import harness, streams, task, training
from driftlab.config import default_config, parse_config
from driftlab.objectives import ObjectiveSpec
from driftlab.policy import TabularPolicy, stream
from driftlab.streams import normal_block, permutations, seed_words, uniform_block, word_block
from driftlab.task import TaskConfig, TeacherSpec, generate_corpus, generate_problem, generate_problems, teacher_policy
from driftlab.training import TrainConfig, train
from driftlab.vocab import ADD, MUL
from oracles import reference_automaton, reference_normals

# word values at the edges of SeedSequence's int-to-words split, and the tags
# of every stream layout: problems (seed, i), corpus (seed, r), drift
# (rollout_seed, idx, 0|1), init (seed, 14), permutation (seed, epoch), GKD
# (seed, 5, step), and the problem and rollout seed tags 11, 12, 13
EDGES = [0, 1, 5, 11, 12, 13, 14, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def entropy_columns(rng, rows, n_columns):
    """``n_columns`` uint64 columns, each value an edge value, a 32-bit or a
    64-bit random word, or a small index, chosen at random per row."""
    columns = []
    for _ in range(n_columns):
        kinds = rng.integers(4, size=rows)
        values = np.select(
            [kinds == 0, kinds == 1, kinds == 2],
            [
                np.array(EDGES, dtype=np.uint64)[rng.integers(len(EDGES), size=rows)],
                rng.integers(2**32, size=rows, dtype=np.uint64),
                rng.integers(2**64, size=rows, dtype=np.uint64, endpoint=False),
            ],
            rng.integers(1000, size=rows).astype(np.uint64),
        )
        columns.append(values)
    return columns


def assert_block_rows_equal_streams(columns, n_uniforms, n_words):
    """Each row's stream gives the block's uniforms, then the block's words
    past the 2 * n_uniforms that those uniforms consumed."""
    uniforms = uniform_block(columns, n_uniforms)
    words = word_block(columns, 2 * n_uniforms + n_words)
    rows = len(uniforms)
    assert uniforms.shape == (rows, n_uniforms) and words.shape == (rows, 2 * n_uniforms + n_words)
    assert words.dtype == np.uint32
    tuples = list(zip(*[c.tolist() if isinstance(c, np.ndarray) else [c] * rows for c in columns]))
    want_uniforms, want_words = np.empty_like(uniforms), np.empty((rows, n_words), dtype=np.uint32)
    for i, entropy in enumerate(tuples):
        rng = stream(*entropy)
        want_uniforms[i] = rng.random(n_uniforms)
        want_words[i] = rng.integers(2**32, size=n_words, dtype=np.uint32)
    bad = (uniforms != want_uniforms).any(axis=1) | (words[:, 2 * n_uniforms :] != want_words).any(axis=1)
    assert not bad.any(), [tuples[i] for i in np.flatnonzero(bad)[:5]]


def test_blocks_equal_generators_on_100k_tuples():
    rng = np.random.default_rng(2014)
    total = 0
    for n_columns, rows in ((1, 16000), (2, 36000), (3, 36000), (4, 8000), (5, 4000)):
        assert_block_rows_equal_streams(entropy_columns(rng, rows, n_columns), 2, 3)
        total += rows
    assert total >= 100_000


@pytest.mark.parametrize(
    "columns",
    [
        # the layouts in use, with the row index as the array column
        [1234, np.arange(300)],
        [2**32 - 1, np.arange(300), 1],
        [0, np.arange(300), 0],
        [7, np.arange(300) % 3, 5],
        # ints of more than 64 bits, and tuples of more than four words
        [2**100 + 3, np.arange(50)],
        [2**200, np.arange(50), 2**64 - 1, 2**40],
        [np.full(50, 2**64 - 1, dtype=np.uint64), np.arange(50), 2**64 - 1],
    ],
    ids=["problems", "drift-edge", "drift-zero", "gkd", "wide-int", "long-tuple", "all-ones"],
)
def test_long_blocks_equal_generators(columns):
    # deep into each stream, where the jump-ahead powers are large
    assert_block_rows_equal_streams(columns, 70, 41)


def test_odd_word_counts_and_empty_blocks():
    for n in (0, 1, 7):
        words = word_block([9, np.arange(4)], n)
        assert words.shape == (4, n)
        for i in range(4):
            assert np.array_equal(words[i], stream(9, i).integers(2**32, size=n, dtype=np.uint32))
    assert uniform_block([9, np.arange(0)], 5).shape == (0, 5)
    assert uniform_block([9, np.arange(3)], 0).shape == (3, 0)


@pytest.mark.parametrize("columns", [[-1], [3, -2], [3, np.array([0, 4, -1])]])
def test_negative_entropy_raises_as_seed_sequence_does(columns):
    entropy = [c[-1] if isinstance(c, np.ndarray) else c for c in columns]
    with pytest.raises(ValueError) as want:
        np.random.SeedSequence([int(e) for e in entropy])
    with pytest.raises(ValueError) as got:
        uniform_block(columns, 3)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1036])
@pytest.mark.parametrize("columns", [[np.arange(5), 14], [2**64 - 1, np.arange(3), 0]], ids=["init", "edge"])
def test_normal_block_is_box_muller_over_the_stream(columns, n):
    block = normal_block(columns, n)
    rows = len(block)
    assert block.shape == (rows, n) and block.dtype == np.float64
    tuples = list(zip(*[c.tolist() if isinstance(c, np.ndarray) else [c] * rows for c in columns]))
    for row, entropy in zip(block, tuples, strict=True):
        assert np.array_equal(row, reference_normals(entropy, n)), entropy


def test_normal_block_moments():
    # mean 0 and standard deviation 1, each within 4 standard errors
    draws = normal_block((2026, np.arange(100)), 1000).ravel()
    assert draws.size == 10**5 and np.isfinite(draws).all()
    assert abs(draws.mean()) < 4 / np.sqrt(draws.size)
    assert abs(draws.std() - 1.0) < 4 / np.sqrt(2 * draws.size)


def test_feedforward_init_draws_from_its_stream():
    # the study's initial feed-forward student: init_scale times the normals of stream (seed, 14)
    cfg = parse_config("[train]\nfamily = feedforward\ninit_scale = 0.25\n")
    for seed in (0, 3):
        params = harness.make_student(cfg, seed).params
        assert np.array_equal(params, 0.25 * reference_normals((seed, 14), params.size))


@pytest.mark.parametrize("ops", [(ADD,), (MUL,), (ADD, MUL), (MUL, ADD)])
def test_problems_equal_scalar_generate_problem(ops):
    for modulus in range(3, 14):
        for chain_length in range(1, 9):
            cfg = TaskConfig(modulus, chain_length, ops)
            seed = 1000 * modulus + chain_length
            got = generate_problems(cfg, 12, seed)
            assert got == [generate_problem(cfg, stream(seed, i)) for i in range(12)]


def test_problems_of_wide_seeds_equal_scalar_generate_problem():
    cfg = TaskConfig(11, 8)
    for seed in (0, 2**32 - 1, 2**32, 2**64 - 1, 2**90 + 17):
        assert generate_problems(cfg, 20, seed) == [generate_problem(cfg, stream(seed, i)) for i in range(20)]
    assert generate_problems(cfg, 0, 3) == []


def test_rejected_bounded_draw_falls_back_to_the_stream(monkeypatch):
    # numpy rejects a word w for integers(m) when (w * m) mod 2^32 < 2^32 mod m,
    # 1 for m = 5: the word 0 is rejected. Words of real streams hit this about
    # once in 2^32 / m draws, so the rejected rows here are made by hand.
    cfg = TaskConfig(5, 3)
    true_words = word_block([41, np.arange(6)], 7)
    crafted = true_words.copy()
    crafted[1, 0] = 0  # the start value
    crafted[4, 6] = 0  # the last operand
    _, rejected = task._problems_of_words(cfg, crafted)
    assert rejected.tolist() == [False, True, False, False, True, False]
    _, rejected = task._problems_of_words(cfg, true_words)
    assert not rejected.any()
    # generate_problems draws the flagged rows again from their streams
    monkeypatch.setattr(task, "word_block", lambda entropy, n: crafted)
    assert generate_problems(cfg, 6, 41) == [generate_problem(cfg, stream(41, i)) for i in range(6)]



def test_seed_words_equal_seed_sequence_states():
    rng = np.random.default_rng(16)
    rows = [(e,) for e in EDGES] + [(7, 11), (7, 12), (7, 13, 0), (2**100 + 3, 13, 2**64)]
    rows += [tuple(EDGES[i] for i in rng.integers(len(EDGES), size=k)) for k in (2, 3, 4, 5, 6) for _ in range(40)]
    got = seed_words(rows)
    assert got.dtype == np.uint32
    assert got.tolist() == [int(np.random.SeedSequence(list(row)).generate_state(1)[0]) for row in rows]
    # a study's problem and rollout seeds, derived in one pass
    cfg = default_config()
    e = cfg.eval.seed
    want = [np.random.SeedSequence(list(row)).generate_state(1)[0] for row in [(e, 11), (e, 12)]]
    assert harness._derived_seeds(e, cfg.train.seeds)[:2] == tuple(int(w) for w in want)
    for s in cfg.train.seeds + (2**33,):
        assert harness.rollout_seed(cfg, s) == int(np.random.SeedSequence([e, 13, s]).generate_state(1)[0])


PERMUTATION_SIZES = sorted({0, 1, 2, 3, 568, 3753} | {2**k + d for k in range(1, 13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5])
def test_permutations_equal_generator_permutations(seed):
    for n in PERMUTATION_SIZES:
        perms = permutations(seed, 2, n)
        assert perms.dtype == np.int64 and perms.shape == (2, n) and not perms.flags.writeable
        for epoch in range(2):
            assert np.array_equal(perms[epoch], stream(seed, epoch).permutation(n)), (seed, n, epoch)


def test_permutations_that_run_out_of_words_draw_a_longer_block(monkeypatch):
    # the first block, of all epochs, is cut to one word, which no shuffle of
    # three or more fits in: each epoch then reads a longer block of its own
    longer = []

    def cut_first_block(entropy, n):
        if isinstance(entropy[1], np.ndarray):
            return word_block(entropy, n)[:, :1]
        longer.append((entropy, n))
        return word_block(entropy, n)

    monkeypatch.setattr(streams, "word_block", cut_first_block)
    permutations.cache_clear()
    try:
        for n in (3, 17, 568):
            perms = permutations(11, 3, n)
            for epoch in range(3):
                assert np.array_equal(perms[epoch], stream(11, epoch).permutation(n)), (n, epoch)
    finally:
        permutations.cache_clear()
    assert [entropy for entropy, _ in longer] == [(11, epoch) for _ in range(3) for epoch in range(3)]


@pytest.mark.parametrize("gkd_lambda", [0.0, 0.5, 1.0])
def test_online_steps_read_the_first_draws_of_their_streams(monkeypatch, gkd_lambda):
    # step s of train reads stream (seed, 5, s): its B source uniforms, then
    # an (S, max_len) block for the S student-sourced records, the last,
    # short batch included
    cfg = TaskConfig(5, 2)
    teacher = teacher_policy(TeacherSpec(), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 11, seed=3), seed=4, max_len=8)
    seen, real_step = [], training.gkd_step

    def recording_step(policy, teacher, records, lam, beta, uniforms, max_len):
        seen.append((len(records), uniforms.copy()))
        return real_step(policy, teacher, records, lam, beta, uniforms, max_len=max_len)

    monkeypatch.setattr(training, "gkd_step", recording_step)
    spec = ObjectiveSpec("gkd", gkd_lambda=gkd_lambda)
    train(TrainConfig(epochs=2, batch_size=4), corpus, spec, TabularPolicy(cfg.vocab(), 1), teacher, max_len=8, seed=9)
    assert [size for size, _ in seen] == [4, 4, 3] * 2
    students = []
    for step, (size, uniforms) in enumerate(seen):
        rng = stream(9, 5, step)
        sources = rng.random(size)
        n_students = int((sources < gkd_lambda).sum())
        assert np.array_equal(uniforms[:size], sources)
        block = uniforms[size : size + n_students * 8].reshape(n_students, 8)
        assert np.array_equal(block, rng.random((n_students, 8)))
        students.append(n_students)
    if gkd_lambda in (0.0, 1.0):
        assert sum(students) == gkd_lambda * 22
    else:
        assert 0 < sum(students) < 22


def test_online_steps_draw_at_most_32_steps_per_block(monkeypatch):
    # an epoch of 70 steps draws its rows in blocks of 32, 32 and 6 steps, and
    # every step's row is the one that one block over all steps holds
    cfg = TaskConfig(5, 2)
    teacher = teacher_policy(TeacherSpec(), cfg)
    corpus = generate_corpus(teacher, generate_problems(cfg, 70, seed=3), seed=4, max_len=6)
    seen, blocks = [], []
    real_step, real_block = training.gkd_step, training.uniform_block

    def recording_step(policy, teacher, records, lam, beta, uniforms, max_len):
        seen.append(uniforms.copy())
        return real_step(policy, teacher, records, lam, beta, uniforms, max_len=max_len)

    def recording_block(entropy, n):
        blocks.append(len(entropy[2]))
        return real_block(entropy, n)

    monkeypatch.setattr(training, "gkd_step", recording_step)
    monkeypatch.setattr(training, "uniform_block", recording_block)
    spec = ObjectiveSpec("gkd", gkd_lambda=0.5)
    train(TrainConfig(epochs=2, batch_size=1), corpus, spec, TabularPolicy(cfg.vocab(), 1), teacher, max_len=6, seed=9)
    assert blocks == [32, 32, 6] * 2
    assert np.array_equal(np.array(seen), real_block((9, 5, np.arange(140)), 1 + 6))


def test_automaton_equals_the_scalar_tabulation():
    for m in range(3, 14):
        for L in range(1, 9):
            for got, want in zip(task._automaton(m, L), reference_automaton(m, L), strict=True):
                assert got.dtype == want.dtype == np.int64 and not got.flags.writeable
                assert np.array_equal(got, want), (m, L)
