"""Helpers shared by the message transmission protocols.

Receivers never trust payload shapes.  Every read of a delivered payload
or broadcast verdict goes through one coercion:

* ``as_field`` and its vector and key forms: an element of the run's
  field, the field's zero for anything else;
* ``fields``: the first n items of a tuple, ``None`` for each missing one;
* ``tagged``: the n items after a string tag, else ``None``;
* ``as_indices``: the ints in ``range(bound)`` among a tuple's items.

The rule is sound: every coerced value is a payload the adversary could
have sent in the expected shape, so acting on the coercion gives it
nothing it could not get anyway.  The images of these helpers are also
the finite alphabet of payloads a receiver can tell apart.

Each channel construction declares its channels once, in ``CHANNELS``;
the perfect ones lie on or above ``least_forward``, the lower bound on
forward channels, and ``perfect-oneway`` and ``perfect-general`` attain it.
``network`` builds every channel entry's ``PathNetwork`` from it,
``first`` cuts a recursion's channels to a sub-protocol's count, and
``run_on_channels`` runs a perfect body with each party's ``_rng`` and
closes the run with ``finish``.
"""

from __future__ import annotations

from functools import lru_cache

from ..authcodes import LinearKey, QuadKey
from ..errors import PreconditionError
from ..field import FieldElement, FieldSpec
from ..netsim import Outcome, PathNetwork
from ..randomness import Randomness
from ..sharing import SharingParams, share


def _rng(rng, seed, party: str):
    """The randomness of ``party``: the one source ``rng`` that every
    honest party shares when it is given, else the party's own stream
    from ``seed``.  An entry point asks only for the parties that draw."""
    return rng if rng is not None else Randomness((seed, party))


def fields(value, n: int) -> tuple:
    """The first n items of a tuple payload, ``None`` for each missing one."""
    items = value[:n] if isinstance(value, tuple) else ()
    return items + (None,) * (n - len(items))


def tagged(value, tag: str, n: int) -> tuple | None:
    """The n items of a payload ``(tag, x1, ..., xn)``, else ``None``."""
    if isinstance(value, tuple) and len(value) == n + 1 and value[0] == tag:
        return value[1:]
    return None


def as_indices(value, bound: int) -> tuple:
    """The ints in ``range(bound)`` among a tuple payload's items."""
    items = value if isinstance(value, tuple) else ()
    return tuple(i for i in items if isinstance(i, int) and 0 <= i < bound)


def as_field(spec: FieldSpec, value) -> FieldElement:
    if isinstance(value, FieldElement) and (value.spec is spec or value.spec == spec):
        return value
    return spec.zero()


def as_field_vec(spec: FieldSpec, value, n: int) -> tuple:
    return tuple(as_field(spec, v) for v in fields(value, n))


def as_linear_key(spec: FieldSpec, value) -> LinearKey:
    a, b = as_field_vec(spec, value, 2)
    return LinearKey(a, b)


def as_quad_key(spec: FieldSpec, value) -> QuadKey:
    a, b, c = as_field_vec(spec, value, 3)
    return QuadKey(a, b, c)


def least_forward(k: int, u: int) -> int:
    """The fewest forward channels on which a perfectly reliable and private
    protocol exists against k corrupted channels, with u backward ones:
    3k+1 without feedback (Dolev, Dwork, Waarts and Yung, JACM 1993), and
    max(3k+1-2u, 2k+1) with u >= 1 ("Perfectly Secure Message Transmission
    Revisited", on mixed one-way and two-way channels)."""
    return 3 * k + 1 if u == 0 else max(3 * k + 1 - 2 * u, 2 * k + 1)


# (k, u) -> (n_forward, n_backward) of each channel construction, None where
# it does not apply (no construction tolerates k < 0, perfect-3k needs k >= 1
# for a forward channel); oneway and subset-exchange take more forward channels
CHANNELS = {
    "oneway": lambda k, u: (2 * k + 1, 0) if k >= 0 else None,
    "single-feedback": lambda k, u: (2, 1) if k == 1 else None,
    "subset-exchange": lambda k, u: (max(k + 1, 2 * k + 1 - u), u) if k >= 0 else None,
    "feedback-efficient": lambda k, u: (2 * k + 1 - u, u) if 1 <= u <= k else None,
    "perfect-oneway": lambda k, u: (least_forward(k, 0), 0) if k >= 0 else None,
    "perfect-3k": lambda k, u: (3 * k, 1) if k >= 1 else None,
    "perfect-u1": lambda k, u: (3 * k - 1, 1) if k >= 2 else None,
    "perfect-general": lambda k, u: (least_forward(k, u), u) if k >= 2 and u >= 1 else None,
    "perfect-efficient": lambda k, u: (3 * k + 1 - u, u) if 0 <= u <= k else None,
    "perfect-shared": lambda k, u: (3 * k + 1 - u, u) if 1 <= u <= k else None,
}


def network(name: str, adversary, k: int, u: int | None = None,
            n_forward: int | None = None) -> PathNetwork:
    """The network ``name`` declares at (k, u), or with ``n_forward`` forward
    channels: refused where the declaration is ``None`` or exceeds them."""
    counts = CHANNELS[name](k, u)
    if counts is None:
        raise PreconditionError(f"{name} does not apply at k={k}, u={u}")
    least, n_backward = counts
    if n_forward is not None and n_forward < least:
        raise PreconditionError(f"{name} needs {least} forward channels, have {n_forward}")
    return PathNetwork(least if n_forward is None else n_forward, n_backward, adversary)


def first(fwd, name: str, k: int, u: int | None = None) -> list:
    """The first of ``fwd`` that ``name`` declares at (k, u); a recursion
    never hands a sub-protocol fewer."""
    return fwd[:CHANNELS[name](k, u)[0]]


def run_on_channels(name: str, body, message, k: int, adversary, seed, rng,
                    u: int | None = None) -> Outcome:
    """The outcome of ``body(message, k, net, fwd, back, rng_a, rng_b)``
    on every channel of ``name``'s network; without feedback B draws nothing."""
    net = network(name, adversary, k, u)
    rng_b = _rng(rng, seed, "B") if net.n_backward else None
    result = body(message, k, net, list(range(net.n_forward)),
                  list(range(net.n_backward)), _rng(rng, seed, "A"), rng_b)
    return finish(message, net, result)


def finish(message, net, result,
           detail: str = "receiver could not determine the message") -> Outcome:
    """The run's outcome; a ``None`` result is a detected failure."""
    if result is None:
        return Outcome(None, False, True, net.round, net.view, net.transcript,
                       detail)
    return Outcome(result, result == message, False, net.round, net.view,
                   net.transcript)


@lru_cache(maxsize=256)
def sharing_params(n: int, k: int, spec: FieldSpec) -> SharingParams:
    """(k+1)-out-of-n parameters over the points 1..n, built once."""
    return SharingParams(n, k, spec)


def share_vector(secret: FieldElement, n: int, k: int, rng) -> tuple:
    """Fresh (k+1)-out-of-n sharing; returns the n shares in point order."""
    return share(secret, sharing_params(n, k, secret.spec), rng).shares
