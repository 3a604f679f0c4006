"""Channel-model protocols with statistical reliability and perfect privacy."""

import pytest

from psmt.errors import PreconditionError
from psmt.field import GF
from psmt.netsim import AdversarySpec
from psmt.protocols.directed import (
    feedback_efficient,
    oneway,
    single_feedback,
    subset_exchange,
)
from psmt.randomness import Randomness
from psmt.strategies import random_tamperer, scripted, shift_tamperer

import sweep

BIG = GF(2**16)


def _assert_safe(outcome, message):
    # either the correct message or an explicit failure, never a wrong one
    if outcome.succeeded:
        assert outcome.delivered == message
    else:
        assert outcome.failed and outcome.delivered is None


def test_oneway_honest_runs():
    rng = Randomness("oneway-honest")
    for k in (1, 2):
        for _ in range(40):
            m = BIG.sample(rng)
            out = oneway(m, k, seed=m.value)
            assert out.succeeded and out.delivered == m
            assert out.rounds == 2 * k + 1


def test_oneway_adversarial_sweep():
    m = BIG.element(1234)
    for k in (1, 2):
        units = sweep.on_channels("oneway", k)[1]
        for corrupted in sweep.placements(units, range(1, k + 1)):
            for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
                out = oneway(m, k, AdversarySpec(corrupted, strategy, seed=s),
                             seed=7)
                # at most k shares can be destroyed: delivery always succeeds
                assert out.succeeded and out.delivered == m


def test_oneway_extra_channels_and_precondition():
    m = BIG.element(5)
    out = oneway(m, 1, n_forward=5, seed=0)
    assert out.succeeded
    with pytest.raises(PreconditionError):
        oneway(m, 2, n_forward=4)


def test_single_feedback_honest_and_adversarial():
    rng = Randomness("sf-honest")
    for _ in range(40):
        m = BIG.sample(rng)
        out = single_feedback(m, seed=m.value)
        assert out.succeeded and out.rounds <= 3
    m = BIG.element(77)
    for ch in (("AB", 0), ("AB", 1), ("BA", 0)):
        for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
            out = single_feedback(
                m, AdversarySpec(frozenset({ch}), strategy, seed=s), seed=9)
            _assert_safe(out, m)
            assert out.rounds <= 3


def test_single_feedback_forward_tamper_recovers():
    # tampering one forward channel forces the echo path and still delivers
    m = BIG.element(4242)
    out = single_feedback(
        m, AdversarySpec(frozenset({("AB", 1)}), shift_tamperer()), seed=3)
    assert out.succeeded and out.delivered == m
    assert out.rounds == 3


def test_single_feedback_scripted_fake_ok():
    # the corrupted feedback channel forges an early "OK" acknowledgement
    # even though it tampered with a forward share in round 0
    m = BIG.element(999)
    strategy = scripted({(1, ("BA", 0)): "OK"}, default=None)

    def combined(ctx):
        if ctx.where == ("AB", 0) and ctx.round == 0:
            return ("junk",)
        return strategy(ctx)

    out = single_feedback(
        m, AdversarySpec(frozenset({("AB", 0), ("BA", 0)}), combined), seed=1)
    # the fake OK cannot make the receiver accept: B already rejected the
    # tampered shares and only accepts an authenticated retransmission
    _assert_safe(out, m)


def test_subset_exchange_honest_and_adversarial():
    rng = Randomness("sub-honest")
    for _ in range(20):
        m = BIG.sample(rng)
        out = subset_exchange(m, 1, 2, 1, seed=m.value)
        assert out.succeeded
    m = BIG.element(31337)
    for corrupted in sweep.placements(sweep.on_channels("subset-exchange", 1, 1)[1], [1]):
        for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
            out = subset_exchange(
                m, 1, 2, 1, AdversarySpec(corrupted, strategy, seed=s), seed=5)
            _assert_safe(out, m)
    with pytest.raises(PreconditionError):
        subset_exchange(m, 2, 2, 1)


def test_feedback_efficient_honest_and_adversarial():
    rng = Randomness("fe-honest")
    for k, u in ((1, 1), (2, 1), (2, 2)):
        for _ in range(15):
            m = BIG.sample(rng)
            out = feedback_efficient(m, k, u, seed=m.value)
            assert out.succeeded
            assert out.rounds <= 2 * k + 2 + u
    m = BIG.element(2024)
    for k, u in ((1, 1), (2, 1), (2, 2)):
        units = sweep.on_channels("feedback-efficient", k, u)[1]
        for corrupted in sweep.placements(units, range(1, k + 1)):
            for s, strategy in enumerate(sweep.fixed_strategies(BIG)):
                out = feedback_efficient(
                    m, k, u, AdversarySpec(corrupted, strategy, seed=s), seed=2)
                _assert_safe(out, m)
                assert out.rounds <= 2 * k + 2 + u


def test_feedback_efficient_precondition():
    with pytest.raises(PreconditionError):
        feedback_efficient(BIG.element(1), 1, 2)
    with pytest.raises(PreconditionError):
        feedback_efficient(BIG.element(1), 1, 0)


def _spoil_phase_one_key(payload):
    """Phase one on a corrupted forward channel: break the carried key so
    that no share gathers k+1 valid tags and the fallback must run."""
    (a, b), carried = payload
    return ((a + a.spec.one(), b), carried)


def test_feedback_efficient_nonce_tags_do_not_reveal_their_keys():
    # Holding the nonce bundle's channel, the adversary sees every tag on
    # the nonce pair (d, e).  Were both tagged under one key (a, b), the
    # two tags would give a = (t1 - t2)/(d - e), b = t1 - a*d, and the
    # adversary could re-tag a shifted pair so that the sender merges the
    # channels into one class and pads the message with a forged nonce.
    k, u = 2, 2

    def retag(ctx):
        payload = ctx.payload
        if ctx.where == ("AB", 0) and ctx.round < 2 * k + 1 - u:
            return _spoil_phase_one_key(payload)
        if ctx.where != ("BA", 0) or payload[0] is None:
            return payload
        (bundle, keys), one = payload, BIG.one()
        (d, e), beta, alphas = bundle
        if d == e:
            return payload
        forged = []
        for t1, t2 in alphas:
            a = (t1 - t2) / (d - e)
            b = t1 - a * d
            forged.append((a * (d + one) + b, a * (e + one) + b))
        return (((d + one, e + one), beta, tuple(forged)), keys)

    corrupted = frozenset({("AB", 0), ("BA", 0)})
    for seed in range(20):
        m = BIG.element(3000 + seed)
        out = feedback_efficient(m, k, u, AdversarySpec(corrupted, retag, seed=seed),
                                 seed=seed)
        assert out.succeeded, (seed, out.detail)


def test_feedback_efficient_refuses_a_pad_of_k_known_keys():
    # An index list naming only the corrupted channel makes a pad the
    # adversary knows: it saw that channel's fallback key.  The receiver
    # must apply the sender's rule and want more than k key components.
    forged = BIG.element(777)

    def forge(ctx):
        payload = ctx.payload
        if len(payload) == 2:
            return _spoil_phase_one_key(payload)
        if len(payload) == 3:
            ctx.state["quad"] = payload
            return payload
        a, b, _ = ctx.state["quad"]
        return ((), (0,), forged + a, a * (forged + a) + b)

    for seed in range(10):
        m = BIG.element(1000 + seed)
        out = feedback_efficient(
            m, 1, 1, AdversarySpec(frozenset({("AB", 0)}), forge, seed=seed), seed=seed)
        assert out.succeeded and out.delivered == m, (seed, out.delivered)


def test_failure_rate_shrinks_with_field_size():
    # a forged share needs k+1 forged tags to verify, so the wrong-delivery
    # rate scales like 1/|F|^2: clearly visible at GF(7), rarer at GF(49)
    def failures(spec):
        bad = 0
        for t in range(400):
            m = spec.element(t % 7)
            out = oneway(m, 1, AdversarySpec(frozenset({("AB", 0)}),
                                             random_tamperer(spec), seed=t),
                         seed=t)
            if not (out.succeeded and out.delivered == m):
                bad += 1
        return bad

    small, large = failures(GF(7)), failures(GF(49))
    assert small > 0
    assert large < small
