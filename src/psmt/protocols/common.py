"""Helpers shared by the message transmission protocols.

Receivers never trust payload shapes: anything arriving on a possibly
corrupted channel is coerced into the expected shape, with the field's
zero substituted for missing or malformed components.
"""

from __future__ import annotations

from ..authcodes import LinearKey, QuadKey
from ..field import FieldElement, FieldSpec
from ..randomness import Randomness
from ..sharing import ReceivedWord, SharingParams, share


def _rngs(rng_a, rng_b, seed):
    """The parties' randomness: given sources, else streams from ``seed``."""
    if rng_a is None:
        rng_a = Randomness((seed, "A"))
    if rng_b is None:
        rng_b = Randomness((seed, "B"))
    return rng_a, rng_b


def as_field(spec: FieldSpec, value) -> FieldElement:
    if isinstance(value, FieldElement) and value.spec == spec:
        return value
    return spec.zero()


def as_field_vec(spec: FieldSpec, value, n: int) -> tuple:
    items = value if isinstance(value, tuple) else ()
    return tuple(as_field(spec, items[i] if i < len(items) else None)
                 for i in range(n))


def as_linear_key(spec: FieldSpec, value) -> LinearKey:
    a, b = as_field_vec(spec, value, 2)
    return LinearKey(a, b)


def as_quad_key(spec: FieldSpec, value) -> QuadKey:
    a, b, c = as_field_vec(spec, value, 3)
    return QuadKey(a, b, c)


def share_vector(secret: FieldElement, n: int, k: int, rng) -> tuple:
    """Fresh (k+1)-out-of-n sharing; returns the n shares in point order."""
    params = SharingParams(n, k, secret.spec)
    return share(secret, params, rng).shares


def subset_word(spec: FieldSpec, pairs, n_points: int, k: int) -> ReceivedWord:
    """Word over the standard points 1..n_points with only ``pairs`` present.

    ``pairs`` is an iterable of (point_index, element); other slots are
    marked missing rather than zero-filled.
    """
    params = SharingParams(n_points, k, spec)
    entries = [None] * n_points
    for i, e in pairs:
        entries[i] = as_field(spec, e)
    return ReceivedWord(tuple(entries), params)

