"""Deterministic pseudo-random numbers for fixtures and sampling.

Everything random in this package flows from a single 64-bit seed through
splitmix64: the state advances by the odd constant 0x9E3779B97F4A7C15 and
each output is finalized with two xorshift-multiply rounds.  The algorithm
is a handful of integer operations, so streams reproduce bit-for-bit on
any platform or implementation.  Bounded draws use plain modulo reduction
``next_u64() % n``.  Each value in [0, n) then has weight floor(2**64 / n)
or one more, so its probability is off from 1/n by less than n / 2**64
relative: under 2**-32 for n < 2**32.  Sampled checks draw ranks of
domains up to the 2**62 size guard, where the bias is large: over 7**22
ranks some are drawn with weight 5 and the rest with weight 4.  The draw
stays as it is, because sampled witnesses and the goldens depend on the
stream.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Draw an integer in [0, n)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def below_array(self, n: int, count: int) -> np.ndarray:
        """The next ``count`` draws of ``below(n)``, n >= 1: draw k finalizes
        state + k * gamma in one wrapping pass of np.uint64 constants only."""
        z = np.uint64(self._state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + count * _GAMMA) & _MASK64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return ((z ^ (z >> np.uint64(31))) % np.uint64(n)).astype(np.int64)
