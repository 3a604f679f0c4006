"""Protocol registry.

Every protocol is described by a ``ProtocolDescriptor`` with a uniform
``run(message, ..., adversary=None, seed=0, rng=None)`` entry point and
metadata used by the command line and the analyzers.  A given ``rng`` is
the one randomness source of every honest party; without it each party
draws from its own stream of ``seed``.  The entry point's signature is
the one declaration of the parameters a protocol takes beyond the
uniform ones (``k``, ``u``, ``graph``, ``n_forward``, ...): the command
line requires each that has no default.  A channel entry's channels are
its ``channels(k, u)``, the one declaration in ``common.CHANNELS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ParamError
from . import directed, hypernet, perfect
from .common import CHANNELS


@dataclass(frozen=True)
class ProtocolDescriptor:
    name: str
    run: Callable
    kind: str                 # "channels", "hypergraph", or "neighbor"
    perfectly_reliable: bool  # delta == 0
    private: bool             # epsilon == 0 claimed
    round_bound: Callable | None = None   # (k, u) -> max simulator rounds

    @property
    def channels(self) -> Callable | None:   # common.CHANNELS; None for graphs
        return CHANNELS.get(self.name)


REGISTRY: dict[str, ProtocolDescriptor] = {}


def _register(desc: ProtocolDescriptor) -> None:
    REGISTRY[desc.name] = desc


_register(ProtocolDescriptor(
    "oneway", directed.oneway, "channels",
    perfectly_reliable=False, private=True,
    round_bound=lambda k, u: 2 * k + 1))
_register(ProtocolDescriptor(
    "single-feedback", directed.single_feedback, "channels",
    perfectly_reliable=False, private=True,
    round_bound=lambda k, u: 3))
_register(ProtocolDescriptor(
    "subset-exchange", directed.subset_exchange, "channels",
    perfectly_reliable=False, private=True))
_register(ProtocolDescriptor(
    "feedback-efficient", directed.feedback_efficient, "channels",
    perfectly_reliable=False, private=True,
    round_bound=lambda k, u: 2 * k + 2 + u))
_register(ProtocolDescriptor(
    "perfect-oneway", perfect.perfect_oneway, "channels",
    perfectly_reliable=True, private=True,
    round_bound=lambda k, u: 1))
_register(ProtocolDescriptor(
    "perfect-3k", perfect.perfect_3k, "channels",
    perfectly_reliable=True, private=True,
    round_bound=lambda k, u: 3))
_register(ProtocolDescriptor(
    "perfect-u1", perfect.perfect_u1, "channels",
    perfectly_reliable=True, private=True))
_register(ProtocolDescriptor(
    "perfect-general", perfect.perfect_general, "channels",
    perfectly_reliable=True, private=True))
_register(ProtocolDescriptor(
    "perfect-efficient", perfect.perfect_efficient, "channels",
    perfectly_reliable=True, private=True,
    round_bound=lambda k, u: 11 * max(u, 1)))
_register(ProtocolDescriptor(
    "perfect-shared", perfect.perfect_shared_feedback, "channels",
    perfectly_reliable=True, private=True))
_register(ProtocolDescriptor(
    "hyper-reliable", hypernet.hypergraph_reliable, "hypergraph",
    perfectly_reliable=True, private=False))
_register(ProtocolDescriptor(
    "hyper-private", hypernet.hypergraph_private, "hypergraph",
    perfectly_reliable=False, private=True))
_register(ProtocolDescriptor(
    "neighbor-exchange", hypernet.neighbor_exchange, "neighbor",
    perfectly_reliable=False, private=True))


def get(name: str) -> ProtocolDescriptor:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ParamError(f"unknown protocol {name!r}") from None


def names() -> list[str]:
    return sorted(REGISTRY)
