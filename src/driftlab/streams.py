"""The first draws of many seeded streams at once.

Every random draw in driftlab comes from ``policy.stream(*entropy)``, the
PCG64 generator of numpy's ``SeedSequence`` of the entropy words. Bulk callers
need the first n draws of one such stream per row: ``uniform_block`` and
``word_block`` compute them for N entropy tuples in one pass of numpy array
code, and row i of a block equals, bit for bit, what ``stream(*entropy_i)``
gives: ``random(n)`` for the uniforms, and its first n 32-bit words (the ones
``integers`` draws from) for the words. ``seed_words`` and ``permutations``
replace ``SeedSequence.generate_state`` and ``Generator.permutation``.
``normal_block`` makes standard normals of the uniforms by Box-Muller (Box and
Muller, 1958), not by numpy's ziggurat, so its draws are not ``standard_normal``'s.

The arithmetic follows numpy's published algorithms: ``SeedSequence``'s
hash-mixing of the entropy into a pool of four uint32 words and its
``generate_state``; PCG64's seeding and its 128-bit linear congruential step,
with the XSL-RR output function (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
2014); and ``random()``'s 53-bit conversion. The 128-bit state is kept as
(hi, lo) pairs of uint64 arrays, and the state before every draw comes from one
jump-ahead by precomputed multiplier powers, so a block costs a fixed number of
array operations whatever its width. Every constant is a Python int masked to
the width it is used at, and all wrapping arithmetic is on arrays, which wrap
silently where numpy scalars would warn.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1

# SeedSequence: the pool size and the hash constants of its mixing
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def uniform_block(entropy, n: int) -> np.ndarray:
    """(N, n) uniforms in [0, 1): row i is ``stream(*entropy_i).random(n)``.

    ``entropy`` is a sequence of columns, each a non-negative int shared by
    every row or a 1-D integer array with one value per row; row i's tuple
    takes its value from each column in order.
    """
    return (_outputs(entropy, n) >> 11) * (1.0 / 9007199254740992.0)


def normal_block(entropy, n: int) -> np.ndarray:
    """(N, n) standard normals: Box-Muller over each row's ``uniform_block`` of
    2 ceil(n / 2) uniforms, pair j = (u[2j], u[2j + 1]) giving normals 2j and
    2j + 1; log1p(-u) keeps u = 0 finite. ``entropy`` is as for ``uniform_block``."""
    u = uniform_block(entropy, n + n % 2)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:, 0::2])), 2.0 * np.pi * u[:, 1::2]
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=2).reshape(len(u), -1)[:, :n]


def word_block(entropy, n: int) -> np.ndarray:
    """(N, n) uint32 words: row i is the first n 32-bit words of
    ``stream(*entropy_i)``, low half of each 64-bit output first, the words
    that ``integers`` draws from. ``entropy`` is as for ``uniform_block``."""
    out = _outputs(entropy, (n + 1) // 2)
    words = np.stack([out & _M32, out >> 32], axis=2).astype(np.uint32)
    return words.reshape(out.shape[0], 2 * out.shape[1])[:, :n]


def seed_words(rows) -> np.ndarray:
    """(N,) uint32: item i is ``SeedSequence(rows[i]).generate_state(1)[0]``,
    for N tuples of non-negative ints, of any lengths, mixed in one pass."""
    words, width = zip(*(_entropy_words(row) for row in rows))
    grid = np.zeros((len(words), max(w.shape[1] for w in words)), dtype=np.uint32)
    for i, row_words in enumerate(words):
        grid[i, : row_words.shape[1]] = row_words[0]
    return (_generate_state(grid, np.concatenate(width))[0] & _M32).astype(np.uint32)


@functools.lru_cache(maxsize=4)
def permutations(seed: int, epochs: int, n: int) -> np.ndarray:
    """(epochs, n) read-only int64: row e is ``stream(seed, e).permutation(n)``,
    cached for the runs at one seed. Each row reads ``word_block`` words, 1.39 n
    on average, and reads a longer block of its stream if 1.5 n run out."""
    perms, width = np.empty((epochs, n), dtype=np.int64), n + n // 2 + 16
    for epoch, words in enumerate(word_block((seed, np.arange(epochs)), width).tolist()):
        while (perm := _shuffled(words, n)) is None:
            width *= 2
            words = word_block((seed, epoch), width)[0].tolist()
        perms[epoch] = perm
    perms.flags.writeable = False
    return perms


def _shuffled(words: list[int], n: int) -> list[int] | None:
    """``arange(n)`` shuffled as numpy does, None if the 32-bit ``words`` run
    out: Fisher-Yates from i = n - 1 down to 1, j in [0, i] the next word
    masked to the bits of i, drawn again while above i (``random_interval``)."""
    perm, words = list(range(n)), iter(words)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        for word in words:
            j = word & mask
            if j <= i:
                break
        else:
            return None
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def _outputs(entropy, n: int) -> np.ndarray:
    """(N, n) uint64: the first n 64-bit outputs of each row's PCG64."""
    seed_hi, seed_lo, seq_hi, seq_lo = _generate_state(*_entropy_words(entropy))
    # seeding: inc = 2 * initseq + 1, then state = inc + initstate before the
    # step that ends seeding; draw k outputs the state k + 1 steps past it
    inc = ((seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1)
    base = _add128((seed_hi, seed_lo), inc)
    mult, incs = _jumps(n)
    hi, lo = _add128(
        _mul128(tuple(x[:, None] for x in base), mult),
        _mul128(tuple(x[:, None] for x in inc), incs),
    )
    # XSL-RR: the two halves xor-ed, rotated right by the top six bits
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _entropy_words(entropy):
    """The uint32 entropy words of every row, as ``SeedSequence`` assembles
    them (each int as its little-endian 32-bit words, 0 as one word), zero
    padded to a common width, and the number of words of each row."""
    columns = []  # per column: its words, low first, and how many each row has
    for col in entropy:
        if isinstance(col, np.ndarray):
            if not np.issubdtype(col.dtype, np.integer):
                raise TypeError("seed must be integer")
            if np.issubdtype(col.dtype, np.signedinteger) and (col < 0).any():
                raise ValueError("expected non-negative integer")
            col = col.astype(np.uint64)
            columns.append(([col & _M32, col >> 32], 1 + (col > _M32)))
        else:
            value = operator.index(col)
            if value < 0:
                raise ValueError("expected non-negative integer")
            col_words = [(value >> s) & _M32 for s in range(0, max(value.bit_length(), 1), 32)]
            columns.append((col_words, len(col_words)))
    rows = next((len(count) for _, count in columns if isinstance(count, np.ndarray)), 1)
    words = np.zeros((rows, max(_POOL, sum(len(col_words) for col_words, _ in columns))), dtype=np.uint32)
    width, index = np.zeros(rows, dtype=np.int64), np.arange(rows)
    for col_words, count in columns:
        # a row whose int is one word gets a 0 high word past its end, which
        # the next column's first word overwrites or which stays as padding
        for j, word in enumerate(col_words):
            words[index, width + j] = word
        width += count
    return words, width


def _generate_state(words: np.ndarray, width: np.ndarray):
    """PCG64's seed from each row's SeedSequence: ``generate_state(4, uint64)``
    as (initstate hi, initstate lo, initseq hi, initseq lo) uint64 arrays.

    A row of fewer than four entropy words mixes as if zero words padded it
    to four, so all rows of up to four are mixed together; longer rows are
    mixed per word count."""
    pools = np.empty((len(words), _POOL), dtype=np.uint32)
    short = width <= _POOL
    pools[short] = _mixed_pool(words[short, :_POOL])
    for w in sorted(set(width[~short].tolist())):
        rows = width == w
        pools[rows] = _mixed_pool(words[rows, :w])
    state = _hashed(np.tile(pools, 2), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)).astype(np.uint64)
    return [state[:, 2 * k] | (state[:, 2 * k + 1] << 32) for k in range(_POOL)]


def _mixed_pool(words: np.ndarray) -> np.ndarray:
    """SeedSequence's mixing of (N, W) entropy words, W >= 4, into (N, 4) pools;
    the hashes of one source into the other pool words are taken at once."""
    h, k = _hash_constants(_INIT_A, _MULT_A, _POOL * words.shape[1]), _POOL
    pool = _hashed(words[:, :_POOL], h[: _POOL + 1])
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashed(pool[:, src, None], h[k : k + _POOL]))
        k += _POOL - 1
    for src in range(_POOL, words.shape[1]):
        pool = _mix(pool, _hashed(words[:, src, None], h[k : k + _POOL + 1]))
        k += _POOL
    return pool


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The n + 1 uint32 constants of n hashes in a row: init, then each times mult."""
    return np.array(list(itertools.accumulate(range(n), lambda h, _: h * mult & _M32, initial=init)), np.uint32)


def _hashed(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each values[..., j], with constants h[j] and h[j + 1]."""
    values = (values ^ h[:-1]) * h[1:]
    return values ^ (values >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


@functools.lru_cache(maxsize=16)
def _jumps(n: int):
    """M^k and 1 + M + ... + M^(k-1), mod 2^128, for k = 2 .. n + 1, as
    (hi, lo) uint64 arrays: k LCG steps take a state s to M^k s plus that sum
    times the increment."""
    mult, total, powers, sums = _PCG_MULT, 1, [], []
    for _ in range(n):
        total = (total + mult) & ((1 << 128) - 1)
        mult = (mult * _PCG_MULT) & ((1 << 128) - 1)
        powers.append(mult)
        sums.append(total)
    return _split128(powers), _split128(sums)


def _split128(values):
    """Read-only (hi, lo) uint64 arrays of 128-bit Python ints."""
    halves = (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _M64 for v in values], dtype=np.uint64),
    )
    for half in halves:
        half.flags.writeable = False
    return halves


def _mul128(a, b):
    """a * b mod 2^128, of (hi, lo) uint64 array pairs."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _M32, al >> 32, bl & _M32, bl >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + ah * bl + al * bh
    return hi, al * bl


def _add128(a, b):
    """a + b mod 2^128, of (hi, lo) uint64 array pairs."""
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]), lo
