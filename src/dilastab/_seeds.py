"""Per-path generators whose PCG64 seeds come from one numpy pass per block.

path_rng(master_seed, n) returns exactly
np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(n,))).
That SeedSequence hashes its entropy words (the master seed's uint32 words,
zero-padded to the pool size, then n) into a pool of 4 uint32 words with
O'Neill's seed_seq hash and NumPy's constants, and PCG64 seeds itself from
the pool's generate_state(4, uint64).  The spawn key is the last word, so the
pool before it is numpy's own SeedSequence(master_seed).pool.  This module
ports only the steps after it: the 4 hash-and-mix steps that take n in, and
the 8 output words, as elementwise uint32 arithmetic over a block of BLOCK
consecutive keys.

Kept in its own module so that `import dilastab` does not load numpy.random.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

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


class _PathSeed(ISpawnableSeedSequence):
    """SeedSequence(master_seed, spawn_key=(n,)) with PCG64's seed words at hand.

    The first generate_state(4, uint64) call, PCG64's, returns the
    precomputed words; every other use builds the real SeedSequence.
    """

    __slots__ = ("_entropy", "_n", "_words", "_seq")

    def __init__(self, entropy, n, words):
        self._entropy = entropy
        self._n = n
        self._words = words
        self._seq = None

    def _real(self):
        if self._seq is None:
            self._seq = SeedSequence(self._entropy, spawn_key=(self._n,))
        return self._seq

    def generate_state(self, n_words, dtype=np.uint32):
        words, self._words = self._words, None
        if words is not None and n_words == 4 and dtype is np.uint64:
            return words
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)

    def __getattr__(self, name):
        # entropy, spawn_key, pool, n_children_spawned, ...; slots are never looked up here
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self._real(), name)

    def __reduce__(self):
        return self._real().__reduce__()

    def __repr__(self):
        return repr(self._real())


_INTS = (int, np.integer)


def path_rng(master_seed, n):
    """np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(n,)))."""
    if not (
        isinstance(master_seed, _INTS)
        and isinstance(n, _INTS)
        and master_seed >= 0
        and 0 <= n <= MASK32
    ):
        return np.random.default_rng(SeedSequence(master_seed, spawn_key=(n,)))
    # int(): a numpy int8 n would overflow in n % BLOCK
    block, offset = divmod(int(n), BLOCK)
    seeds = _block_seeds(master_seed, block)
    return Generator(PCG64(_PathSeed(master_seed, n, seeds[offset])))
