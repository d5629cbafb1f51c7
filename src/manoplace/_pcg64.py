"""numpy's ``default_rng(seed)`` stream in pure Python, bit for bit.

numpy seeds its default generator, PCG64 (O'Neill 2014, XSL-RR 128/64),
through ``SeedSequence``: the seed's 32-bit words are hashed into a pool of
four words, and the pool gives the four 64-bit words of the initial state
(words 0 and 1) and of the increment (words 2 and 3). ``Pcg64`` repeats that
seeding and the two draws the generator uses, ``uniform`` and ``integers``,
so generated instances equal numpy's without importing it. Each draw costs
about half a microsecond of 128-bit integer arithmetic. A P-PoP instance
takes P*P + 2*P uniform draws, so beyond about 300 PoPs generating it takes
longer than importing numpy and drawing there would.
"""

from __future__ import annotations

from itertools import islice

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    entropy = [seed >> s & MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, words = INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _outputs(state: int, inc: int):
    """PCG64's 64-bit outputs from ``state``: each steps the LCG, then
    permutes the new state (XSL-RR: xor the halves, rotate by the top 6 bits)."""
    while True:
        state = (state * MULTIPLIER + inc) & MASK128
        x, rot = (state >> 64 ^ state) & MASK64, state >> 122
        yield (x >> rot | x << 64 - rot) & MASK64


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed)`` for a seed >= 0."""

    def __init__(self, seed: int):
        w = _seed_words(seed)
        inc = ((w[2] << 64 | w[3]) << 1 | 1) & MASK128
        self._outputs = _outputs(((inc + (w[0] << 64 | w[1])) * MULTIPLIER + inc) & MASK128, inc)
        self._half = None  # the upper half of a 64-bit output, kept for the next 32-bit draw

    def uniform(self, low: float, high: float, count: int) -> list[float]:
        """``uniform(low, high, size=count)``: ``low + (high - low) * u`` with
        ``u`` the top 53 bits of a 64-bit output over 2**53."""
        scale = high - low
        return [low + scale * ((x >> 11) * 2**-53) for x in islice(self._outputs, count)]

    def _next32(self) -> int:
        """The low half of a 64-bit output, then its high half."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = next(self._outputs)
        self._half = x >> 32
        return x & MASK32

    def integers(self, n: int, count: int) -> list[int]:
        """``integers(0, n, size=count)`` by numpy's Lemire rule on 32-bit
        draws. ``n`` is a PoP count, so always below 2**32, the bound of
        numpy's 32-bit branch; ``n == 1`` draws nothing."""
        if n == 1:
            return [0] * count
        threshold = (MASK32 - (n - 1)) % n
        out = []
        for _ in range(count):
            m = self._next32() * n
            while m & MASK32 < threshold:
                m = self._next32() * n
            out.append(m >> 32)
        return out
