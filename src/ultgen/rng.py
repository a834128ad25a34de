"""Deterministic 64-bit PRNG used for fuzzing.

SplitMix-style generator; the exact update formula is documented in
docs/formats.md so other implementations can reproduce identical candidate
streams from the same seed.

Output i of a seed depends only on `seed + (i + 1) * gamma`, so every
generator started from one seed draws the same sequence. `take` reads it
from one table shared by the process: the outputs of the seed last read
through it, in order, drawn no further than some reader has asked. What
the table holds follows from the seed alone, so sharing it changes no
generator's values. It takes no lock: readers of two seeds in two
threads could each replace the other's table between its check and its
read, and ultgen draws from one thread.
"""

from __future__ import annotations

from array import array
from typing import Optional

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# The shared table: `_table[i]` is output i of `_table_seed`. Unsigned
# 64-bit slots hold a value in 8 bytes, where a list would hold an int
# object per value.
_table_seed: Optional[int] = None
_table = array("Q")


def _mix(z: int) -> int:
    """The output of a generator whose state has just become `z`."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _outputs(seed: int, end: int) -> array:
    """The shared table, made to hold the first `end` outputs of `seed`.
    A new seed replaces the old one's outputs."""
    global _table_seed, _table
    if seed != _table_seed:
        _table_seed, _table = seed, array("Q")
    _table.extend(
        _mix((seed + i * _GAMMA) & _MASK64) for i in range(len(_table) + 1, end + 1)
    )
    return _table


class SplitMix64:
    """Deterministic generator over 64-bit state.

    next() returns values in [0, 2**64); helpers derive bounded ints,
    signed ints, and floats from that stream. The state after `i` draws is
    `seed + i * gamma`, so the generator keeps its seed and `i`.
    """

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._drawn = 0

    def next(self) -> int:
        self._drawn += 1
        return _mix((self._seed + self._drawn * _GAMMA) & _MASK64)

    def take(self, k: int) -> array:
        """The next `k` outputs, `[self.next() for _ in range(k)]` as an
        array: the same values, the same state after. They are read from
        the shared table of the seed, so generators of one seed compute
        each output once between them."""
        start = self._drawn
        end = self._drawn = start + k
        if self._seed != _table_seed or len(_table) < end:
            return _outputs(self._seed, end)[start:end]
        return _table[start:end]

    def below(self, n: int) -> int:
        """Uniform-ish value in [0, n) via modulo reduction (documented bias)."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return self.next() % n

    def signed64(self) -> int:
        """Full-range two's-complement 64-bit signed value."""
        v = self.next()
        return v - (1 << 64) if v >= (1 << 63) else v

    def float01(self) -> float:
        """Float in [0, 1) with 53 random mantissa bits."""
        return (self.next() >> 11) * (2.0 ** -53)

    def coin(self) -> bool:
        return bool(self.next() & 1)
