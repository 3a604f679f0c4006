"""Seeded randomness sources for honest parties and adversaries.

All draws go through ``draw(n)`` which returns ``(value, taint)``.  The
plain source returns untainted values from a Mersenne stream.  The
tracing source is used by the privacy analyzer: it gives every draw a
sequential index, taints the result with that index (a sampled draw is a
``TracedElement``), can pin selected indices to enumerated values, and
keeps the ledger of what the run observed (see ``TracingRandomness``).
It also hands out the message as the variable ``MESSAGE``, so the
privacy analyzer can trace one run for every message.
"""

from __future__ import annotations

import random

from .field import FieldElement, FieldSpec, TracedElement, peek

# the message variable: above every draw index, and never a draw
MESSAGE = 1 << 62


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
    """Deterministic stream of uniform draws.  A party's own stream has
    one owner; a source handed to a protocol's ``rng`` serves every
    honest party of the run.

    The seed is canonicalised (``_canon``) and the Mersenne stream
    seeded at the first draw: many streams, such as the receiver's and
    the adversary's, are built on every run and never drawn from.
    """

    def __init__(self, seed):
        self._seed = seed
        self._rng = None

    def draw(self, n: int) -> tuple[int, None]:
        if self._rng is None:
            self._rng = random.Random(_canon(self._seed))
        return self._rng.randrange(n), None


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    """SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014)."""
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class TracingRandomness:
    """Assigns each draw a global index and taints results with it.

    ``pinned`` maps draw index -> value, overriding the reference value.
    Reference values are SplitMix64 of the index over a 64-bit stream
    base taken from the seed, so the same index yields the same value
    across runs and processes regardless of draw order.

    ``FieldSpec.sample`` turns a draw into a ``TracedElement`` whose
    polynomial is the draw's variable.  The ledger ``observed`` holds
    every draw whose value may have steered the run: the support of each
    traced value read outside the traced operations, and every draw
    handed back as a raw int (a tie coin, say).  ``atoms`` maps each
    opaque atom variable (< 0), a quotient by a non-constant or a value
    ``sharing`` computed on raw ints, to the draws it depends on.  The
    message variable ``MESSAGE`` (see ``message``) counts as a draw in
    these sets but is never in ``moduli``: nothing pins or enumerates it.
    """

    def __init__(self, seed, pinned: dict[int, int] | None = None):
        self._stream = random.Random(_canon(seed)).getrandbits(64)
        self.pinned = pinned or {}
        self.draws = 0
        self.moduli: dict[int, int] = {}
        self.observed: set[int] = set()
        self.atoms: dict[int, frozenset[int]] = {}

    def draw(self, n: int) -> tuple[int, frozenset[int]]:
        idx = self.draws
        self.draws += 1
        self.moduli[idx] = n
        if idx in self.pinned:
            value = self.pinned[idx] % n
        else:
            value = _splitmix64(self._stream + idx * _GOLDEN) % n
        # a raw int can steer the run; ``element`` clears the mark for a
        # draw that becomes a polynomial variable instead
        self.observed.add(idx)
        return value, frozenset((idx,))

    def element(self, spec: FieldSpec, value: int,
                taint: frozenset[int]) -> TracedElement:
        """The draw just made by ``FieldSpec.sample``, as a traced element."""
        (idx,) = taint
        self.observed.discard(idx)
        return TracedElement(spec, value, taint, {((idx, 1),): 1}, self)

    def message(self, m: FieldElement) -> TracedElement:
        """``m`` as the message variable: its raw value, the polynomial
        ``MESSAGE`` and the taint {MESSAGE}."""
        return TracedElement(m.spec, peek(m), frozenset((MESSAGE,)),
                             {((MESSAGE, 1),): 1}, self)

    # -- the ledger ----------------------------------------------------------

    def support(self, poly: dict) -> set[int]:
        """Draws a polynomial depends on, through its atoms too."""
        out: set[int] = set()
        for mono in poly:
            for v, _ in mono:
                if v >= 0:
                    out.add(v)
                else:
                    out |= self.atoms[v]
        return out

    def observe(self, poly: dict) -> None:
        self.observed |= self.support(poly)

    def atom(self, support) -> dict:
        """A fresh opaque variable over ``support``, as a polynomial."""
        var = -1 - len(self.atoms)
        self.atoms[var] = frozenset(support)
        return {((var, 1),): 1}


def derive_trial_seed(master_seed, trial: int):
    """Counter-based per-trial seed derivation."""
    return (master_seed, trial)
