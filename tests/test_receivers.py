"""Receivers never crash on a payload an adversary can send."""

import pytest
from hypothesis import given, settings, strategies as st

from psmt import fixtures, protocols
from psmt.field import GF, FieldElement
from psmt.netsim import AdversarySpec, Outcome, recv_broadcast
from psmt.protocols.common import as_field, as_field_vec
from psmt.randomness import Randomness
from psmt.strategies import scripted

import sweep

SPEC = GF(7)
OTHER = GF(5)

# (protocol, corrupted channel or node, keyword arguments)
UNHASHABLE_CASES = [
    ("perfect-3k", ("AB", 0), {"k": 1}),
    ("perfect-general", ("AB", 0), {"k": 2, "u": 1}),
    ("perfect-shared", ("AB", 0), {"k": 1, "u": 1}),
    ("perfect-u1", ("AB", 0), {"k": 2}),
    ("hyper-reliable", "v1", {"k": 1, "graph": fixtures.get("fig5")}),
    ("subset-exchange", ("AB", 0), {"k": 1, "n_forward": 2, "n_backward": 1}),
]


@pytest.mark.parametrize("name,where,kw", UNHASHABLE_CASES,
                         ids=[c[0] for c in UNHASHABLE_CASES])
def test_unhashable_payload_on_one_corrupted_location(name, where, kw):
    spec = GF(2**16)
    desc = protocols.get(name)
    adversary = AdversarySpec(frozenset({where}), scripted({}, default=([1], None)))
    for seed in range(3):
        message = spec.element(1234 + seed)
        out = desc.run(message, adversary=adversary, seed=seed, **kw)
        assert out.succeeded, (name, seed, out.detail)


leaves = st.one_of(
    st.none(),
    st.integers(-10, 10),
    st.text(max_size=3),
    st.integers(0, 6).map(SPEC.element),
    st.integers(0, 4).map(OTHER.element),
)
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple)),
    max_leaves=12,
)
fuzz = settings(derandomize=True, max_examples=300, deadline=None)


@fuzz
@given(payloads)
def test_as_field_zero_fills_anything_else(value):
    got = as_field(SPEC, value)
    assert isinstance(got, FieldElement) and got.spec == SPEC
    if not (isinstance(value, FieldElement) and value.spec == SPEC):
        assert got == SPEC.zero()
    else:
        assert got == value


@fuzz
@given(payloads, st.integers(0, 5))
def test_as_field_vec_has_the_asked_length(value, n):
    got = as_field_vec(SPEC, value, n)
    assert len(got) == n
    assert all(isinstance(e, FieldElement) and e.spec == SPEC for e in got)


@fuzz
@given(st.lists(payloads, min_size=1, max_size=5), st.integers(0, 6))
def test_recv_broadcast_survives_any_minority(junk, value):
    # an honest majority carries (value, extra); the rest is arbitrary
    fwd = list(range(2 * len(junk) + 1))
    honest = (SPEC.element(value), "extra")
    delivered = {("AB", ch): honest for ch in fwd[len(junk):]}
    delivered.update({("AB", ch): p for ch, p in zip(fwd, junk)})
    winner, extras = recv_broadcast(delivered, fwd, Randomness(0))
    assert winner == SPEC.element(value)
    assert all(extras[ch] == "extra" for ch in fwd[len(junk):])


@fuzz
@given(st.lists(payloads, max_size=5))
def test_recv_broadcast_never_raises(junk):
    delivered = {("AB", ch): p for ch, p in enumerate(junk)}
    recv_broadcast(delivered, range(len(junk) + 1), Randomness(0))


# ---------------------------------------------------------------------------
# whole protocol runs against junk, beyond the tolerated corruption bound

FUZZ_SPEC = GF(11)
TAGS = ("vec", "drop", "help", "ok", "faulty", "continue", "masks", "done")


def _junk_atoms():
    return [None, 0, 1, 2, 5, -1, 99, "", "x", "stop", "OK", [0], {"a": 1},
            FUZZ_SPEC.element(3), OTHER.element(2), (), (0,), (0, 1), (99, 0),
            (FUZZ_SPEC.element(1),) * 3, (OTHER.element(1), None)]


def _junk_value(rng):
    """One shape-violating payload: an atom, a tuple of the wrong length,
    a tuple carrying a protocol tag followed by junk, or such a tagged
    tuple in the (value, extra) shape of a broadcast."""
    atoms = _junk_atoms()
    kind, _ = rng.draw(6)
    if kind == 0:
        return atoms[rng.draw(len(atoms))[0]]
    size, _ = rng.draw(4)
    items = tuple(atoms[rng.draw(len(atoms))[0]] for _ in range(size))
    if kind == 1:
        return items
    items = (TAGS[rng.draw(len(TAGS))[0]],) + items
    return items if kind < 4 else (items, atoms[rng.draw(len(atoms))[0]])


def _shifted(x):
    if isinstance(x, FieldElement):
        return x + x.spec.one()
    if isinstance(x, tuple):
        return tuple(_shifted(v) for v in x)
    return x


def junk_per_round(ctx):
    """Per round, one choice for every corrupted location: forward the
    payload, shift its field elements, or replace it by one junk value.
    Corrupted locations agree, so a forged verdict can win a vote."""
    if ctx.round not in ctx.state:
        kind, _ = ctx.rng.draw(4)
        ctx.state[ctx.round] = (kind, _junk_value(ctx.rng))
    kind, junk = ctx.state[ctx.round]
    if kind == 0:
        return ctx.payload
    if kind == 1:
        return _shifted(ctx.payload)
    return junk


# (protocol, keyword arguments, every corruptible unit): each entry's
# sweep configuration, two of them larger
LARGER = {"perfect-general": sweep.on_channels("perfect-general", 3, 2),
          "perfect-efficient": sweep.on_channels("perfect-efficient", 2, 2)}
FUZZ_CASES = [(name, *LARGER.get(name, case)) for name, case in sweep.ENTRIES.items()]


RUNS = 600   # runs per protocol, at least three per corruption set


def test_fuzz_cases_cover_the_registry():
    assert sorted(c[0] for c in FUZZ_CASES) == protocols.names()


@pytest.mark.parametrize("name,kw,units", FUZZ_CASES,
                         ids=[c[0] for c in FUZZ_CASES])
def test_every_run_ends_in_an_outcome_under_junk(name, kw, units):
    """Up to every unit corrupted, so far beyond the bound that only the
    receivers' coercions stand between junk and an exception."""
    desc = protocols.get(name)
    sets = list(sweep.placements(units, range(1, len(units) + 1)))
    for n_set, corrupted in enumerate(sets):
        for seed in range(max(3, RUNS // len(sets))):
            adversary = AdversarySpec(corrupted, junk_per_round,
                                      seed=(n_set, seed))
            out = desc.run(FUZZ_SPEC.element(seed + 4), adversary=adversary,
                           seed=seed, **kw)
            assert isinstance(out, Outcome), (corrupted, seed)
            # what a receiver outputs is an element of the run's field
            assert out.delivered is None or out.delivered.spec == FUZZ_SPEC
