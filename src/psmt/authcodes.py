"""One-time unconditionally secure authentication codes.

Linear keys (a, b) authenticate one message as a*M + b; quadratic keys
(a, b, c) authenticate up to two messages as a*M^2 + b*M + c.  Key reuse
discipline belongs to protocol logic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PsmtError
from .field import FieldElement, FieldSpec


@dataclass(frozen=True)
class LinearKey:
    a: FieldElement
    b: FieldElement

    @classmethod
    def random(cls, spec: FieldSpec, rng) -> "LinearKey":
        return cls(spec.sample(rng), spec.sample(rng))


@dataclass(frozen=True)
class QuadKey:
    a: FieldElement
    b: FieldElement
    c: FieldElement

    @classmethod
    def random(cls, spec: FieldSpec, rng) -> "QuadKey":
        return cls(spec.sample(rng), spec.sample(rng), spec.sample(rng))


def auth_linear(message: FieldElement, key: LinearKey) -> FieldElement:
    return key.a * message + key.b


def auth_quad(message: FieldElement, key: QuadKey) -> FieldElement:
    return key.a * message * message + key.b * message + key.c


def auth(message, key):
    """Authenticate a field element under a linear or a quadratic key."""
    if isinstance(key, LinearKey):
        return auth_linear(message, key)
    return auth_quad(message, key)


def verify(message, tag, key) -> bool:
    try:
        return auth(message, key) == tag
    except PsmtError:
        return False
