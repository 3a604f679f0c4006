"""Adversary tampering strategies for the simulators.

A strategy is a callable ``f(ctx) -> payload`` applied to every payload
crossing a corrupted channel or node; ``ctx`` carries the round, the
location, the original payload, the accumulated adversary view, a
seeded adversary randomness source, and a scratch state dict.
"""

from __future__ import annotations

from .errors import ParamError
from .field import FieldElement, FieldSpec


def _map_elements(payload, f):
    """``payload`` with ``f`` applied to every field element, keeping shape."""
    if isinstance(payload, FieldElement):
        return f(payload)
    if isinstance(payload, tuple):
        return tuple([_map_elements(v, f) for v in payload])
    return payload


def random_tamperer(spec: FieldSpec):
    """Replace every field element with a fresh uniform one, keeping shape."""
    def strategy(ctx):
        return _map_elements(ctx.payload,
                             lambda x: spec.element(ctx.rng.draw(spec.order)[0]))
    return strategy


def shift_tamperer():
    """Add one to every field element; minimal, always-detectable damage."""
    def strategy(ctx):
        return _map_elements(ctx.payload, lambda x: x + x.spec.one())
    return strategy


def constant_replacer(value):
    """Replace the whole payload with a fixed value.

    With half the channels of an even-sized majority vote, this stages
    the coin-flip split: the receiver sees two equal-weight candidate
    values and can only guess.
    """
    def strategy(ctx):
        return value
    return strategy


def format_corruptor():
    """Replace payloads with shape-violating garbage."""
    def strategy(ctx):
        return ("garbage", ctx.round)
    return strategy


def stop_forger():
    """Replace everything with the literal acknowledgement "stop"."""
    def strategy(ctx):
        return "stop"
    return strategy


def scripted(script: dict, default=None):
    """Replay a {(round, where): payload} script, else forward or default."""
    def strategy(ctx):
        key = (ctx.round, ctx.where)
        if key in script:
            return script[key]
        return ctx.payload if default is None else default
    return strategy


BUILTIN = {
    "passive": lambda spec: None,
    "random": random_tamperer,
    "shift": lambda spec: shift_tamperer(),
    "junk": lambda spec: format_corruptor(),
    "stop": lambda spec: stop_forger(),
}


def build(name: str, spec: FieldSpec):
    """Look up a named strategy; ``constant:<int>`` replays one element."""
    if name in BUILTIN:
        return BUILTIN[name](spec)
    if name.startswith("constant:"):
        return constant_replacer(spec.element(int(name.split(":", 1)[1])))
    raise ParamError(f"unknown adversary strategy {name!r}")
