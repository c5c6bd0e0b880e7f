"""Per-path generators whose PCG64 seeds come from one numpy pass per block.

path_rng(master_seed, n) has the same PCG64 state and stream as
np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(n,))),
but does not spawn.  That SeedSequence hashes its entropy words (the master
seed's uint32 words, zero-padded to the pool size, then n) into a pool of 4
uint32 words with O'Neill's seed_seq hash and NumPy's constants, and PCG64
seeds itself from the pool's generate_state(4, uint64).  The spawn key is the
last word, so the pool before it is numpy's own SeedSequence(master_seed).pool.
This module ports only the steps after it: the 4 hash-and-mix steps that take
n in, and the 8 output words, as elementwise uint32 arithmetic over a block
of BLOCK consecutive keys.

Kept in its own module so that `import dilastab` does not load numpy.random.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

BLOCK = 1024

# numpy/random/bit_generator.pyx
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF


def _mix(x, y):
    # a Python int x and a uint32 array y: each product is reduced, and the difference wraps
    out = ((MIX_MULT_L * x & MASK32) - (MIX_MULT_R * y & MASK32)) & MASK32
    return out ^ (out >> XSHIFT)


def _hash(value, hc, mult):
    """One hash step on value with constant hc; returns it and the next constant."""
    nxt = hc * mult & MASK32
    value = (value ^ hc) * nxt & MASK32
    return value ^ (value >> XSHIFT), nxt


# a block is 32 KiB: a few serve interleaved seeds, many would raise the peak memory
@lru_cache(maxsize=4)
def _block_seeds(master_seed, block):
    """PCG64's 4 uint64 seed words for the spawn keys of block: one row per key."""
    pool = SeedSequence(master_seed).pool.tolist()
    # the pool took one hash step per padded word, 12 to mix them and 4 per
    # word beyond the pool's 4; the constant is INIT_A * MULT_A**steps
    extra = max(0, -(-int(master_seed).bit_length() // 32) - POOL_SIZE)
    hc = INIT_A * pow(MULT_A, 16 + 4 * extra, MASK32 + 1) & MASK32
    keys = np.arange(block * BLOCK, (block + 1) * BLOCK, dtype=np.uint32)
    mixed = []
    for word in pool:
        value, hc = _hash(keys, hc, MULT_A)
        mixed.append(_mix(word, value))
    state = np.empty((BLOCK, 2 * POOL_SIZE), dtype=np.uint32)
    hc = INIT_B
    for i in range(2 * POOL_SIZE):
        state[:, i], hc = _hash(mixed[i % POOL_SIZE], hc, MULT_B)
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seeds.flags.writeable = False
    return seeds


class _PathWords(ISeedSequence):
    """SeedSequence(master_seed, spawn_key=(n,)) as PCG64 reads it: 4 uint64 seed words.

    Any call but PCG64's generate_state(4, uint64) builds that SeedSequence.
    """

    def __init__(self, entropy, n, words):
        self._entropy = entropy
        self._n = n
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._words
        return SeedSequence(self._entropy, spawn_key=(self._n,)).generate_state(n_words, dtype)


# the blocks of the spawn keys 0 <= n <= MASK32, those of one uint32 word
_BLOCKS = (MASK32 + 1) // BLOCK


def path_rng(master_seed, n):
    """The stream of np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(n,))).

    Python and numpy integers take one path, as Python ints (a numpy int8 n
    would overflow in n % BLOCK); any other input, a negative one and a
    spawn key of more than one word are SeedSequence's own to take or refuse.
    """
    try:
        seed, (block, offset) = index(master_seed), divmod(index(n), BLOCK)
    except TypeError:  # not an integer
        seed = block = -1
    if seed < 0 or not 0 <= block < _BLOCKS:
        return np.random.default_rng(SeedSequence(master_seed, spawn_key=(n,)))
    return Generator(PCG64(_PathWords(master_seed, n, _block_seeds(seed, block)[offset])))
