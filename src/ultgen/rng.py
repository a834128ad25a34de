"""Deterministic 64-bit PRNG used for fuzzing.

SplitMix-style generator; the exact update formula is documented in
docs/formats.md so other implementations can reproduce identical candidate
streams from the same seed.
"""

from __future__ import annotations

from typing import Iterable

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic generator over 64-bit state.

    next() returns values in [0, 2**64); helpers derive bounded ints,
    signed ints, and floats from that stream.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def below(self, n: int) -> int:
        """Uniform-ish value in [0, n) via modulo reduction (documented bias)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.next() % n

    def below_each(self, sizes: Iterable[int]) -> list[int]:
        """`[self.below(n) for n in sizes]`, drawn in one call: the same
        values, the same state after, the same ValueError for an n < 1.
        It repeats `next` inline, because the fuzzer's random phase draws
        one whole vector per candidate and the two calls per value cost
        more than the arithmetic."""
        state = self._state
        out = []
        for n in sizes:
            if n <= 0:
                self._state = state
                raise ValueError("below() requires n >= 1")
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append((z ^ (z >> 31)) % n)
        self._state = state
        return out

    def signed64(self) -> int:
        """Full-range two's-complement 64-bit signed value."""
        v = self.next()
        return v - (1 << 64) if v >= (1 << 63) else v

    def float01(self) -> float:
        """Float in [0, 1) with 53 random mantissa bits."""
        return (self.next() >> 11) * (2.0 ** -53)

    def coin(self) -> bool:
        return bool(self.next() & 1)
