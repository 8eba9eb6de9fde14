"""Deterministic pseudo-random number generator for seeded sweeps.

Everything random in this package flows through :class:`SplitMix64`, a
64-bit mixing generator with a fixed, documented update rule.  Platform
randomness (``random``, hash seeds, OS entropy) is never used, so a seed
reproduces the same stream on every machine and Python build, and the
algorithm is simple enough to reimplement in another language when a
fixture has to be regenerated elsewhere.

Update rule (all arithmetic modulo 2**64):

    state += 0x9E3779B97F4B9C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit mixing generator with a fixed update rule."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_u64(self) -> int:
        """Advance the state and return the next 64-bit output."""
        self._state = (self._state + 0x9E3779B97F4B9C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n).  Plain modulo reduction; the bias is
        negligible for the small ranges used here (n << 2**64)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
