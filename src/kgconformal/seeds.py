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

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's LCG multiplier, PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    width = max(4, (int(seeds.max(initial=0)).bit_length() + 31) // 32)
    # a seed's words, least significant first; past its top word, 0s, which
    # is what the pool hashes in place of a missing word
    words = np.array([(seeds >> (32 * j)) & _M32 for j in range(width)], dtype=np.uint32)
    pool = _hash(words[:4], _consts(_INIT_A, _MULT_A, 0, 4))
    for src in range(4):
        # the three destinations read the same source word: one (3, n) update
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], _consts(_INIT_A, _MULT_A, 4 + 3 * src, 3)))
    for j in range(4, width):
        # a word past the fourth mixes into every pool word, where it exists
        mixed = _mix(pool, _hash(words[j], _consts(_INIT_A, _MULT_A, 16 + 4 * (j - 4), 4)))
        pool = np.where(((seeds >> (32 * j)) > 0).astype(bool), mixed, pool)
    state = _hash(np.concatenate((pool, pool)), _consts(_INIT_B, _MULT_B, 0, 8)).astype(np.uint64)
    return state[0::2] | (state[1::2] << 32)


@lru_cache(maxsize=None)
def _affine(k: int) -> tuple:
    """M^(j+2) and 1 + M + ... + M^(j+2) mod 2^128 for j < k, each as the
    limbs (hi, lo, lo >> 32, lo & (2^32 - 1)) in (k, 1) uint64 columns.

    PCG64 seeds its state as s = (inc + initstate) M + inc and steps it to
    s M + inc before each draw, so draw j reads the state
    M^(j+2) initstate + (1 + M + ... + M^(j+2)) inc."""
    mults, totals = [_PCG_MULT**2 & _M128], [(1 + _PCG_MULT + _PCG_MULT**2) & _M128]
    for _ in range(k - 1):
        mults.append(mults[-1] * _PCG_MULT & _M128)
        totals.append((totals[-1] + mults[-1]) & _M128)

    def limbs(values):
        parts = ((64, _M64), (0, _M64), (32, _M32), (0, _M32))
        return tuple(np.array([v >> s & mask for v in values], dtype=np.uint64)[:, None] for s, mask in parts)

    return limbs(mults[:k]), limbs(totals[:k])


def _mul128(a, hi, lo):
    """(hi, lo) of a x mod 2^128, for the constants a in _affine's limbs and
    x = (hi, lo)."""
    a_hi, a_lo, a1, a0 = a
    # the high 64 bits of a_lo lo, from 32-bit halves
    low, mid1, mid2 = a0 * (lo & _M32), a0 * (lo >> 32), a1 * (lo & _M32)
    carry = (low >> 32) + (mid1 & _M32) + (mid2 & _M32)
    top = a1 * (lo >> 32) + (mid1 >> 32) + (mid2 >> 32) + (carry >> 32)
    return top + a_hi * lo + a_lo * hi, a_lo * lo


def standard_doubles(seeds, k: int) -> np.ndarray:
    """``np.random.default_rng(seed).random(k)`` of each seed, as the rows of
    a (len(seeds), k) array.  Seeds are ints >= 0 of any size."""
    seeds = np.array(list(seeds), dtype=object)
    if len(seeds) and seeds.min() < 0:
        raise ValueError(f"a seed must be non-negative, not {seeds.min()}")
    s_hi, s_lo, q_hi, q_lo = _seed_state(seeds)  # initstate, initseq
    m_hi, m_lo = _mul128(_affine(k)[0], s_hi, s_lo)
    t_hi, t_lo = _mul128(_affine(k)[1], q_hi << 1 | q_lo >> 63, q_lo << 1 | 1)  # inc = initseq << 1 | 1
    lo = m_lo + t_lo
    hi = m_hi + t_hi + (lo < m_lo)
    # XSL-RR: hi ^ lo rotated right by the state's top 6 bits
    xsl, rot = hi ^ lo, hi >> 58
    return (((xsl >> rot | xsl << (-rot & 63)) >> 11).astype(float) * 2.0**-53).T
