"""numpy's PCG64 seeding and output, computed without numpy.random.

``default_rng(x)`` seeds a PCG64 bit generator from ``SeedSequence(x)``.
The functions here reproduce that seeding, PCG64's raw 64-bit words and
``Generator.uniform(-1, 1)``'s transform of them bit for bit, so that a
run can derive its draws in bulk, or without importing numpy.random at
all.  References: O'Neill, *PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation*,
HMC-CS-2014-0905 (the XSL-RR output); NumPy NEP 19, which keeps the
streams of ``SeedSequence`` and PCG64 stable across releases.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(n: int) -> list[int]:
    """The 32-bit words SeedSequence takes from a nonnegative int, low word
    first (one word for 0)."""
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def _pcg64_states(words: Sequence[np.ndarray]) -> list[dict[str, int]]:
    """The PCG64 ``{"state", "inc"}`` seeded from a SeedSequence, per lane.

    words are the uint32 entropy words the SeedSequence assembles, each an
    array with one entry per lane: default_rng([seed, t]) for several t is
    seed's words, repeated across the lanes, then the t's, which needs
    t < 2**32.  numpy's SeedSequence hashing runs on all lanes at once;
    then PCG64's seeding from generate_state(4, uint64).
    """
    const = [0x43B0D7E5, 0x931E8875]

    def hashmix(value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(const[0])
        const[0] = const[0] * const[1] & _M32
        value = value * np.uint32(const[0])
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * y
        return r ^ r >> 16

    # mix_entropy: a pool of 4 words, then the words past the pool
    pool = [hashmix(words[i] if i < len(words) else np.zeros_like(words[0])) for i in range(4)]
    for i, j in itertools.permutations(range(4), 2):
        pool[j] = mix(pool[j], hashmix(pool[i]))
    for word, j in itertools.product(words[4:], range(4)):
        pool[j] = mix(pool[j], hashmix(word))
    # generate_state(4, uint64): 8 uint32 outputs, paired low word first
    const[:] = 0x8B51F9DD, 0x58F38DED
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = ((out[2 * k] | out[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in zip(w0, w1, w2, w3):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        states.append({"state": ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _M128, "inc": inc})
    return states


def _pcg64_raw(state: dict[str, int], count: int) -> list[int]:
    """The first count words ``random_raw`` gives from a PCG64 state.

    Each step is state <- state * MULT + inc mod 2**128, and its word is the
    XSL-RR output of the new state: the high half xor the low half, rotated
    right by the top 6 bits.  Python ints, for the few hundred words of a
    kernel; the trial scenarios take theirs from numpy's own random_raw.
    """
    s, inc = state["state"], state["inc"]
    words = []
    for _ in range(count):
        s = (s * _PCG64_MULT + inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        words.append((x >> rot | x << (64 - rot)) & _M64)
    return words


def _uniform_from_raw(words: np.ndarray) -> np.ndarray:
    """Generator.uniform(-1, 1) draws from raw PCG64 words, written over them.

    Returns the float64 view of words.  uniform draws low + (high - low) *
    next_double, and PCG64's next_double is (w >> 11) * 2**-53.  At
    low = -1, high = 1 the exact result is a multiple of 2**-52 in [-1, 1),
    which a float holds, so every rounding mode, fused multiply-add or not,
    gives numpy's draw bit for bit.
    """
    floats = words.view(np.float64)
    np.right_shift(words, 11, out=words)
    np.multiply(words, 2.0**-52, out=floats)
    np.subtract(floats, 1.0, out=floats)
    return floats
