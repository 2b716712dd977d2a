"""``np.random.default_rng(seed).random(k)`` for many seeds in one array pass.

numpy's own algorithms, bit for bit, over arrays of seeds and without
``numpy.random``: ``SeedSequence`` hashes each seed's 32-bit words into a
pool of 4 and expands it into 4 uint64 words, in uint32 arithmetic that
wraps; ``PCG64`` (O'Neill 2014) takes those as its 128-bit state and
stream, held as uint64 (hi, lo) limbs, and a draw is ``(next64 >> 11) 2^-53``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's LCG multiplier M, PCG_DEFAULT_MULTIPLIER_128, as the uint64 limbs
# (hi, lo, lo >> 32, lo & (2^32 - 1))
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LIMBS = tuple(np.uint64(_PCG_MULT >> s & m) for s, m in ((64, _M64), (0, _M64), (32, _M32), (0, _M32)))


@lru_cache(maxsize=None)
def _consts(init, mult, first, count) -> tuple:
    """The constants of SeedSequence's hash calls first .. first + count - 1,
    as (xor, multiplier) (count, 1) uint32 columns: call c xors its value
    with init mult^c, then multiplies it by init mult^(c+1), mod 2^32."""
    powers = np.array([init * pow(mult, c, 1 << 32) & _M32 for c in range(first, first + count + 1)], np.uint32)
    return powers[:-1, None], powers[1:, None]


def _hash(value, consts):
    """SeedSequence's hashmix, one call per row of ``consts``."""
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _seed_state(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, uint64) of every seed, (4, n)."""
    top = int(seeds.max(initial=0))
    width = (top.bit_length() + 31) // 32
    # a seed's words, least significant first, by uint64 shifts below 2^64 and
    # as Python ints past it; past its top word, 0s, which is what the pool
    # hashes in place of a missing word
    split = seeds if width > 2 else seeds.astype(np.uint64)
    words = np.zeros((max(4, width), len(seeds)), np.uint32)
    for j in range(width):
        words[j] = (split >> (32 * j)) & _M32
    pool = _hash(words[:4], _consts(_INIT_A, _MULT_A, 0, 4))
    for src in range(4):
        # the three destinations read the same source word: one (3, n) update
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _consts(_INIT_A, _MULT_A, 4 + 3 * src, 3)))
    for j in range(4, len(words)):
        # a word past the fourth mixes into every pool word, where it exists
        mixed = _mix(pool, _hash(words[j], _consts(_INIT_A, _MULT_A, 16 + 4 * (j - 4), 4)))
        pool = np.where(words[j:].any(axis=0), mixed, pool)
    state = _hash(np.concatenate((pool, pool)), _consts(_INIT_B, _MULT_B, 0, 8)).astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


def _step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step: (hi, lo) of x M + inc mod 2^128, for x = (hi, lo)."""
    m_hi, m_lo, m1, m0 = _LIMBS
    lo0, lo1 = lo & _M32, lo >> 32
    # the high 64 bits of m_lo lo, from 32-bit halves (Warren, Hacker's Delight, 8-2)
    cross = m1 * lo0 + (m0 * lo0 >> 32)
    mid = m0 * lo1 + (cross & _M32)
    top = m1 * lo1 + (cross >> 32) + (mid >> 32) + m_hi * lo + m_lo * hi + inc_hi
    lo = m_lo * lo + inc_lo
    return top + (lo < inc_lo), lo


def standard_doubles(seeds, k: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(k)`` of each seed, as the rows of
    a (len(seeds), k) array.  Seeds are an integer ndarray, or ints >= 0 of
    any size."""
    if not isinstance(seeds, np.ndarray):
        seeds = np.array(list(seeds), dtype=object)
    if seeds.size and seeds.min() < 0:
        raise ValueError(f"a seed must be non-negative, not {seeds.min()}")
    s_hi, s_lo, q_hi, q_lo = _seed_state(seeds)  # initstate, initseq
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1  # inc = initseq << 1 | 1
    # PCG64 seeds its state as (initstate + inc) M + inc and steps it before each draw
    lo = s_lo + inc_lo
    hi, lo = _step(s_hi + inc_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    draws = np.empty((k, len(seeds)), np.uint64)
    for row in draws:
        hi, lo = _step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
        xsl, rot = hi ^ lo, hi >> 58
        row[:] = xsl >> rot | xsl << (-rot & 63)
    return ((draws >> 11).astype(float) * 2.0**-53).T
