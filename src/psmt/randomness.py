"""Seeded randomness sources for honest parties and adversaries.

All draws go through ``draw(n)`` which returns ``(value, taint)``.  The
plain source returns untainted values from a Mersenne stream.  The
tracing/enumerating sources are used by the privacy analyzer: they give
every draw a sequential index, taint the result with that index, and can
pin selected indices to enumerated values.
"""

from __future__ import annotations

import random


def _canon(seed):
    """Canonical seed form with process-independent behavior.

    ``random.Random`` seeds strings through a cryptographic hash but
    falls back to the built-in ``hash`` for tuples, which is randomized
    per process for any embedded string.  Composite seeds are therefore
    flattened to their ``repr``.
    """
    if seed is None or isinstance(seed, (int, float, str, bytes, bytearray)):
        return seed
    return repr(seed)


class Randomness:
    """Deterministic stream of uniform draws. Single-owner; never shared."""

    def __init__(self, seed):
        self._rng = random.Random(_canon(seed))

    def draw(self, n: int) -> tuple[int, None]:
        return self._rng.randrange(n), None


class TracingRandomness:
    """Assigns each draw a global index and taints results with it.

    ``pinned`` maps draw index -> value, overriding the reference value.
    Reference values are a pure function of (seed, index) so the same
    index yields the same value across runs regardless of draw order.
    """

    def __init__(self, seed, base: int = 0, pinned: dict[int, int] | None = None):
        self._seed = seed
        self._base = base
        self.pinned = pinned or {}
        self.draws = 0
        self.moduli: dict[int, int] = {}

    def draw(self, n: int) -> tuple[int, frozenset[int]]:
        idx = self._base + self.draws
        self.draws += 1
        self.moduli[idx] = n
        if idx in self.pinned:
            value = self.pinned[idx] % n
        else:
            value = random.Random(_canon((self._seed, idx))).randrange(n)
        return value, frozenset((idx,))


def derive_trial_seed(master_seed, trial: int):
    """Counter-based per-trial seed derivation."""
    return (master_seed, trial)
