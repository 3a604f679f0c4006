"""Round-synchronous network simulators with a byzantine adversary.

Two models:

* ``PathNetwork`` — the abstract channel model.  The sender and receiver
  are joined by unidirectional atomic channels ("AB", i) forward and
  ("BA", j) backward.  A round is one call, ``end_round(sends)``, with
  at most one payload per channel: each is exposed to the adversary on a
  corrupted channel, possibly replaced (active mode), and delivered.
  The channels of each shape (n_forward, n_backward) and their ``str``
  order are fixed once, in one table: a round looks its channels up
  there and handles them in that order.

* ``HyperNet`` — node-level multicast.  A round is one call,
  ``end_round(sends)``: each send crosses one hyperedge of its origin,
  every recipient of that hyperedge overhears it, and a corrupted origin
  may replace it.  ``transmit`` routes payloads along node paths, one
  hop per round.

Both keep the adversary, the round counter, the view and the transcript
the same way, and both tamper through one step, ``_tamper``.  The
transcript logs every send as (round, where, sent, delivered).

``broadcast`` is one ``PathNetwork`` round of a public value; it returns
the receiver's majority verdict (``recv_broadcast``).  ``reliable_send``
is one round of an idealized reliable channel, which may lose a public
payload but never modifies it; its loss coin is drawn only when it can
lose.

Payloads are arbitrary nested tuples of field elements, ints and
strings.  Honest payloads stay hashable so that majority votes work; a
majority vote counts an unhashable payload from the adversary as None.
The adversary's view (``AdversaryView``) decomposes into (path, leaf)
pairs, descending into non-empty tuples; an empty tuple is a leaf.  Its
canonical form, and both privacy analyzers, read that one decomposition;
one walk over an unhashable leaf's structure (``unfold``) serves both.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from typing import Any, Callable

from .errors import ParamError
from .field import FieldElement, peek
from .randomness import Randomness
from .topology import Hypergraph

_COIN_RESOLUTION = 10**6  # reliable_send's loss coin ranges over it


@dataclass
class AdversaryView:
    """Everything the adversary observes during a run."""

    events: list = dc_field(default_factory=list)   # (round, where, payload)
    public: list = dc_field(default_factory=list)   # (round, label, payload)

    def record(self, rnd: int, where, payload) -> None:
        self.events.append((rnd, where, payload))

    def announce(self, rnd: int, label, payload) -> None:
        self.public.append((rnd, label, payload))

    def leaves(self) -> list:
        """Flatten to (path, leaf) pairs, descending into non-empty tuples;
        an empty tuple is a leaf, and a traced element keeps its taint."""
        out = []

        def walk(prefix, value):
            if isinstance(value, tuple) and value:
                for i, v in enumerate(value):
                    walk(prefix + (i,), v)
            else:
                out.append((prefix, value))

        for i, (rnd, where, payload) in enumerate(self.events):
            walk(("event", i, rnd, where), payload)
        for i, (rnd, label, payload) in enumerate(self.public):
            walk(("public", i, rnd, label), payload)
        return out

    def canonical(self) -> tuple:
        """Hashable value of the whole view: its leaves, each by
        ``leaf_key``, and an unhashable one (a list, a dict, an object
        with ``__eq__``) by its structure, ``unfold(value, leaf_key)``."""
        out = []
        for path, value in self.leaves():
            key = leaf_key(value)
            try:
                hash(key)
            except TypeError:
                key = unfold(value, leaf_key)
            out.append((path, key))
        return tuple(out)


def leaf_key(value):
    """Taint-free image of one view leaf: a field element by its value,
    read without observing it."""
    if isinstance(value, FieldElement):
        return ("F", peek(value))
    return value


_ATOMS = (FieldElement, str, bytes, int, float, complex, type, type(None))


def unfold(value, atom: Callable, seen: set | None = None):
    """Hashable key of a value's structure, at any depth: a container by
    its items, an object by its type and its ``__dict__`` and
    ``__slots__`` values, and a field element, string or number by
    ``atom``.  A container or object met a second time (a cycle, a shared
    child) is keyed ``("seen",)``."""
    if isinstance(value, _ATOMS):
        return atom(value)
    seen = set() if seen is None else seen
    if id(value) in seen:
        return ("seen",)
    seen.add(id(value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(unfold(c, atom, seen) for c in value))
    if isinstance(value, dict):
        parts = [(unfold(a, atom, seen), unfold(b, atom, seen)) for a, b in value.items()]
    elif isinstance(value, (list, tuple)):
        parts = [unfold(c, atom, seen) for c in value]
    else:
        names = list(getattr(value, "__dict__", ()))
        for cls in type(value).__mro__:
            slots = cls.__dict__.get("__slots__", ())
            names += [slots] if isinstance(slots, str) else slots
        parts = [(name, unfold(getattr(value, name, None), atom, seen)) for name in names]
    return (type(value).__qualname__, tuple(parts))


@dataclass
class TamperContext:
    """Arguments handed to an active strategy for one corrupted payload."""

    round: int
    where: Any            # channel or node
    payload: Any
    view: AdversaryView
    rng: Randomness
    state: dict           # persists across calls within one run


@dataclass(frozen=True)
class AdversarySpec:
    """Which channels/nodes are corrupted and what the adversary does.

    ``strategy(ctx) -> payload`` returns the replacement for each payload
    crossing a corrupted channel or node; ``None`` strategy = passive.
    """

    corrupted: frozenset = frozenset()
    strategy: Callable | None = None
    seed: Any = 0

    @property
    def active(self) -> bool:
        return self.strategy is not None


class _Simulator:
    """What both simulators share: the adversary, the round counter, the
    adversary's view, the transcript and one tampering step."""

    def __init__(self, adversary: AdversarySpec | None):
        self.adversary = adversary or AdversarySpec()
        self.round = 0
        self.view = AdversaryView()
        self.transcript: list = []
        self._adv_rng = (Randomness(("adversary", self.adversary.seed))
                         if self.adversary.active else None)
        self._adv_state: dict = {}

    def _tamper(self, where, payload):
        """What crosses the corrupted location ``where``: the active
        strategy's replacement, else the payload itself."""
        strategy = self.adversary.strategy
        if strategy is None:
            return payload
        return strategy(TamperContext(
            self.round, where, payload, self.view, self._adv_rng, self._adv_state))


@lru_cache(maxsize=256)
def _channel_ranks(n_forward: int, n_backward: int) -> dict:
    """Each channel of a ``PathNetwork`` of this shape, ("AB", i) and
    ("BA", j), mapped to its rank in ``str`` order: ('AB', 10) comes
    before ('AB', 2).  Built once per shape."""
    channels = [("AB", i) for i in range(n_forward)] + [("BA", j) for j in range(n_backward)]
    return {ch: rank for rank, ch in enumerate(sorted(channels, key=str))}


class PathNetwork(_Simulator):
    """Atomic-channel model with end-of-round adversarial tampering."""

    def __init__(self, n_forward: int, n_backward: int,
                 adversary: AdversarySpec | None = None):
        if n_forward < 1:
            raise ParamError("need at least one forward channel")
        if n_backward < 0:
            raise ParamError(f"backward channel count {n_backward} is negative")
        self.n_forward = n_forward
        self.n_backward = n_backward
        self._ranks = _channel_ranks(n_forward, n_backward)
        super().__init__(adversary)
        for ch in self.adversary.corrupted:
            if ch not in self._ranks:
                raise ParamError(f"corrupted channel {ch!r} does not exist")

    def end_round(self, sends: dict) -> dict:
        """One round: ``sends`` maps each channel used, ("AB", i) or
        ("BA", j), to its payload.  Every channel is checked before any is
        tampered; then, in ``str`` order of the channels, each payload is
        recorded and possibly replaced on a corrupted channel, delivered,
        and the round counter advances.

        Returns {channel: payload} for every channel that carried data.
        """
        ranks = self._ranks
        if not sends.keys() <= ranks.keys():
            bad = next(ch for ch in sends if ch not in ranks)
            raise ParamError(f"no such channel {bad!r}")
        corrupted = self.adversary.corrupted
        rnd, log = self.round, self.transcript.append
        delivered = {}
        for ch in sorted(sends, key=ranks.__getitem__):
            sent = payload = sends[ch]
            if ch in corrupted:
                self.view.record(rnd, ch, payload)
                payload = self._tamper(ch, payload)
            delivered[ch] = payload
            log((rnd, ch, sent, payload))
        self.round = rnd + 1
        return delivered


_PLAIN = {str, int, bool, float, type(None)}   # hashable leaves of most votes


def _hashable(value) -> bool:
    """Whether ``value`` can be hashed, decided without hashing a field
    element: a traced one would record the read as an observation."""
    if isinstance(value, tuple):
        for v in value:
            if not (type(v) in _PLAIN or isinstance(v, FieldElement) or _hashable(v)):
                return False
        return True
    if isinstance(value, FieldElement):
        return True
    try:
        hash(value)
    except TypeError:
        return False
    return True


def majority_of(values, tie_rng: Randomness):
    """Most frequent value; ties broken by a uniform coin of the receiver
    over the tied values in ``str`` order.

    Votes are grouped by identity, and only the first copy of each object
    is tested.  An unhashable one counts as ``None``: it cannot be
    compared with the honest copies, so it votes for "nothing received".
    The few distinct values left merge by ``==``, each group keeping its
    first vote, as a dict of the votes would.  No field element is
    hashed, so a vote over copies of a traced value observes nothing.
    """
    groups: list = []   # [value, count, first object], in order of appearance
    for v in values:
        for group in groups:
            if group[2] is v:
                group[1] += 1
                break
        else:
            rep = v if _hashable(v) else None
            for group in groups:
                if group[0] is rep or group[0] == rep:
                    group[1] += 1
                    break
            else:
                groups.append([rep, 1, v])
    if not groups:
        return None
    top = max(count for _, count, _ in groups)
    tied = [rep for rep, count, _ in groups if count == top]
    if len(tied) == 1:
        return tied[0]
    tied.sort(key=str)
    idx, _ = tie_rng.draw(len(tied))
    return tied[idx]


def broadcast(net: PathNetwork, fwd, value, tie_rng: Randomness, extras=None):
    """One round: the public value on the forward channels ``fwd``,
    optionally with per-channel private extras bundled alongside.  Returns
    the receiver's (verdict, extras), read by ``recv_broadcast`` from the
    round's deliveries with ties broken by ``tie_rng``."""
    net.view.announce(net.round, "AB", value)
    sends = {("AB", ch): (value, extras.get(ch) if extras else None) for ch in fwd}
    return recv_broadcast(net.end_round(sends), fwd, tie_rng)


def recv_broadcast(delivered: dict, fwd, tie_rng: Randomness):
    """Receiver side of ``broadcast``: the majority value over ``fwd`` and
    the extras of the channels that carried it."""
    values = [delivered.get(("AB", ch)) for ch in fwd]
    firsts = [v[0] if isinstance(v, tuple) and len(v) == 2 else None
              for v in values]
    winner = majority_of(firsts, tie_rng)
    extras = {ch: v[1] for ch, v in zip(fwd, values)
              if isinstance(v, tuple) and len(v) == 2 and v[0] == winner}
    return winner, extras


# ---------------------------------------------------------------------------
# node-level multicast simulation


class HyperNet(_Simulator):
    """Rounds of hyperedge sends over a multicast hypergraph.

    A corrupted node overhears every hyperedge whose recipient set it
    belongs to (or that it originates) and may replace payloads it
    sends.
    """

    def __init__(self, graph: Hypergraph, adversary: AdversarySpec | None = None):
        super().__init__(adversary)
        self.graph = graph
        bad = self.adversary.corrupted - graph.nodes
        if bad:
            raise ParamError(f"corrupted nodes {sorted(bad)} not in graph")
        if {graph.sender, graph.receiver} & self.adversary.corrupted:
            raise ParamError("sender and receiver are incorruptible")
        self._edges_from: dict = {}
        for origin, recipients in graph.hyperedges:
            self._edges_from.setdefault(origin, []).append(recipients)
        for origin in self._edges_from:
            self._edges_from[origin].sort(key=lambda r: sorted(r))

    def _edge_to(self, origin, nxt) -> frozenset:
        for recipients in self._edges_from.get(origin, ()):
            if nxt in recipients:
                return recipients
        raise ParamError(f"no hyperedge from {origin} reaching {nxt}")

    def validate_path(self, path) -> None:
        if len(path) < 2:
            raise ParamError(f"route {path!r} needs at least two nodes")
        for a, b in zip(path, path[1:]):
            self._edge_to(a, b)

    def end_round(self, sends: dict) -> dict:
        """One round: ``sends`` maps each label to (origin, node, payload),
        a payload on the hyperedge of ``origin`` that reaches ``node``;
        every recipient of that hyperedge hears the same value.  Every
        hyperedge is looked up before any send is tampered; then, in label
        order, a corrupted origin may replace its payload, a corrupted node
        on the edge records what it carries, the transcript logs
        ``(round, (label, origin), sent, heard)``, and the round counter
        advances.

        Returns {label: payload heard}.
        """
        edges = {label: self._edge_to(origin, node)
                 for label, (origin, node, _) in sends.items()}
        heard = {}
        for label in sorted(sends, key=str):
            origin, _, sent = sends[label]
            payload = (self._tamper(origin, sent)
                       if origin in self.adversary.corrupted else sent)
            if (edges[label] | {origin}) & self.adversary.corrupted:
                self.view.record(self.round, (origin, tuple(sorted(edges[label]))),
                                 payload)
            heard[label] = payload
            self.transcript.append((self.round, (label, origin), sent, payload))
        self.round += 1
        return heard

    def transmit(self, routes: dict) -> dict:
        """Route {route_id: (path, payload)}; one hop per round, in parallel.

        Every route is validated before the first round.  Returns
        {route_id: delivered payload}.  The round counter advances by the
        length of the longest path.
        """
        for path, _ in routes.values():
            self.validate_path(path)
        state = dict(routes)
        delivered = {}
        while state:
            heard = self.end_round({rid: (path[0], path[1], payload)
                                    for rid, (path, payload) in state.items()})
            for rid, payload in heard.items():
                path = state.pop(rid)[0][1:]
                if len(path) > 1:
                    state[rid] = (path, payload)
                else:
                    delivered[rid] = payload
        return delivered


def reliable_send(net: _Simulator, label, payload, delta_r: float,
                  rng: Randomness):
    """One round of an idealized reliable channel: the payload is public
    (announced to the adversary) and never modified, but it is lost, and
    ``None`` delivered, with probability ``delta_r`` by a coin from
    ``rng``, drawn only when ``delta_r > 0``: no coin can lose it at 0.
    The transcript logs ``(round, ("reliable", label), payload,
    delivered)``; the round carries no other send."""
    where = ("reliable", label)
    net.view.announce(net.round, where, payload)
    delivered = payload
    if delta_r > 0:
        coin, _ = rng.draw(_COIN_RESOLUTION)
        if coin < delta_r * _COIN_RESOLUTION:
            delivered = None
    net.transcript.append((net.round, where, payload, delivered))
    net.end_round({})
    return delivered


@dataclass
class Outcome:
    """Result of one protocol execution."""

    delivered: Any          # receiver's output message (or None)
    succeeded: bool         # delivered == sent message
    failed: bool            # receiver detected failure / gave up
    rounds: int
    view: AdversaryView
    transcript: list
    detail: str = ""
