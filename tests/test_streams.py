"""Stream blocks against numpy's own generators.

Row i of ``uniform_block(entropy, n)`` must equal ``stream(*entropy_i).random(n)``
bit for bit, and row i of ``word_block`` the 32-bit words that stream's
``integers`` draws from, for every entropy layout driftlab uses. Problem sets
drawn from word blocks must equal ``generate_problem`` on each problem's own
stream, a rejected bounded draw included.
"""

import numpy as np
import pytest

from driftlab import task
from driftlab.policy import stream
from driftlab.streams import uniform_block, word_block
from driftlab.task import TaskConfig, generate_problem, generate_problems
from driftlab.vocab import ADD, MUL

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

