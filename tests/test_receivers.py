"""Receivers never crash on a payload an adversary can send."""

import pytest
from hypothesis import given, settings, strategies as st

from psmt import fixtures, protocols
from psmt.field import GF, FieldElement
from psmt.netsim import AdversarySpec, recv_broadcast
from psmt.protocols.common import as_field, as_field_vec
from psmt.randomness import Randomness
from psmt.strategies import scripted

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
