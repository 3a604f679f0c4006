"""The one declaration of the sweeps the tests run.

Perfect reliability and privacy must hold for every placement of at
most k corruptions and every adversary strategy, so the tests sweep
placements times strategies over the registry.  The pieces:

* ``STRATEGIES``: the five fixed strategies by their command line
  names; ``fixed_strategies(spec)`` builds them.  A sweep seeds each
  strategy's runs with its index, so the order is part of the sweep.
* ``FORGER``: a test-only strategy that forges well-formed echoes,
  which none of the five does; ``build`` builds it and the five by name.
* ``units`` and ``nodes``: the corruptible units of a configuration (a
  unit is what one corruption takes down), and ``placements``: the
  corrupted sets made of them.
* ``on_channels``: a channel entry's parameters at (k, u) and the units
  of the channels it declares there.
* ``ENTRIES``: per registry entry, the parameters and corruptible units
  of one configuration.
* ``PRIVATE_CASES``: acceptance criterion 4's passive privacy cases.
"""

import inspect
import itertools

from psmt import fixtures, protocols, strategies

STRATEGIES = ("shift", "random", "junk", "stop", "constant:0")


def fixed_strategies(spec) -> list:
    return [strategies.build(name, spec) for name in STRATEGIES]


# "junk" sends ("garbage", round) and the others leave "stop" and "OK" as
# they are, so only this strategy reaches the sender's echo comparisons
# with a tagged echo that differs from the receiver's
FORGER = "forge-echo"


def forge_echo(ctx):
    """Every payload on a feedback channel ``("BA", j)`` becomes the empty
    echo ``("vec", ())``; everything else passes through."""
    if isinstance(ctx.where, tuple) and ctx.where[0] == "BA":
        return ("vec", ())
    return ctx.payload


def build(name, spec):
    """The strategy a sweep runs under ``name``: ``FORGER`` or a CLI name."""
    return forge_echo if name == FORGER else strategies.build(name, spec)


def units(n_forward, n_backward, shared=0) -> list:
    """Single channels, plus joint pairs for shared relay nodes: each of
    the last ``shared`` forward paths carries one feedback channel, and
    the two fall together."""
    found = [frozenset({("AB", i)}) for i in range(n_forward - shared)]
    if shared:
        found += [frozenset({("AB", n_forward - shared + j), ("BA", j)})
                  for j in range(shared)]
    else:
        found += [frozenset({("BA", j)}) for j in range(n_backward)]
    return found


def nodes(*names) -> list:
    return [frozenset({name}) for name in names]


def placements(units, sizes):
    """Every union of ``size`` distinct units, for each size in turn."""
    for size in sizes:
        for combo in itertools.combinations(units, size):
            yield frozenset().union(*combo)


def on_channels(name, k=1, u=None, shared=False):
    """(parameters, units) of channel entry ``name`` at (k, u): each
    parameter its entry point requires, channel counts from the entry's
    declaration, and one unit per declared channel (the last u forward
    ones joint with a feedback channel when ``shared``)."""
    desc = protocols.get(name)
    n_forward, n_backward = desc.channels(k, u)
    given = {"k": k, "u": u, "n_forward": n_forward, "n_backward": n_backward}
    params = {p: given[p] for p, v in inspect.signature(desc.run).parameters.items()
              if p in given and v.default is v.empty}
    return params, units(n_forward, n_backward, n_backward if shared else 0)


# registry entry: (parameters, corruptible units)
ENTRIES = {
    "oneway": on_channels("oneway"),
    "single-feedback": on_channels("single-feedback"),
    "subset-exchange": on_channels("subset-exchange", 1, 1),
    "feedback-efficient": on_channels("feedback-efficient", 1, 1),
    "perfect-oneway": on_channels("perfect-oneway"),
    "perfect-3k": on_channels("perfect-3k"),
    "perfect-u1": on_channels("perfect-u1", 2),
    "perfect-general": on_channels("perfect-general", 2, 1),
    "perfect-efficient": on_channels("perfect-efficient", 1, 1),
    "perfect-shared": on_channels("perfect-shared", 1, 1),
    "hyper-reliable": ({"k": 1, "graph": fixtures.get("fig5")},
                       nodes("v1", "v2", "v", "u1", "u2")),
    "hyper-private": ({"k": 1, "graph": fixtures.get("duo")}, nodes("x", "y")),
    "neighbor-exchange": ({}, nodes("C", "D", "F")),
}
assert sorted(ENTRIES) == protocols.names(), "ENTRIES must cover the registry"

# acceptance criterion 4, each in its entry's configuration:
# (label, registry entry, parameters, passively corrupted set, field order)
PRIVATE_CASES = [
    (label, name, ENTRIES[name][0], frozenset(corrupted), q)
    for label, name, corrupted, q in [
        ("oneway", "oneway", {("AB", 0)}, 5),
        ("single-feedback fwd", "single-feedback", {("AB", 0)}, 5),
        ("single-feedback back", "single-feedback", {("BA", 0)}, 5),
        ("subset-exchange fwd", "subset-exchange", {("AB", 0)}, 5),
        ("subset-exchange back", "subset-exchange", {("BA", 0)}, 5),
        ("feedback-efficient fwd", "feedback-efficient", {("AB", 0)}, 5),
        ("feedback-efficient back", "feedback-efficient", {("BA", 0)}, 5),
        ("perfect-oneway", "perfect-oneway", {("AB", 0)}, 5),
        ("perfect-3k fwd", "perfect-3k", {("AB", 0)}, 5),
        ("perfect-3k back", "perfect-3k", {("BA", 0)}, 5),
        ("perfect-u1", "perfect-u1", {("AB", 0), ("BA", 0)}, 7),
        ("perfect-general", "perfect-general", {("AB", 0), ("BA", 0)}, 7),
        ("perfect-efficient", "perfect-efficient", {("AB", 0)}, 5),
        ("perfect-shared", "perfect-shared", {("AB", 2), ("BA", 0)}, 5),
        ("hyper-private", "hyper-private", {"x"}, 5),
        # every mask, tag and pad leaf is eliminated by optimistic
        # sampling, so these certify symbolically with one replay, of the
        # message variable, at any field size (tests/test_privacy.py
        # checks GF(3), GF(5), GF(2^16))
        ("neighbor-exchange C", "neighbor-exchange", {"C"}, 2),
        ("neighbor-exchange F", "neighbor-exchange", {"F"}, 2),
    ]]
