"""Perfectly reliable protocols: zero failures under any placement/strategy."""

import pytest

from psmt import strategies
from psmt.errors import PreconditionError
from psmt.field import GF, FieldElement
from psmt.netsim import AdversarySpec
from psmt.protocols import perfect
from psmt.protocols.perfect import (
    perfect_3k,
    perfect_efficient,
    perfect_general,
    perfect_oneway,
    perfect_shared_feedback,
    perfect_u1,
)
from psmt.randomness import Randomness
from psmt.strategies import stop_forger

import sweep


def _sweep(run, spec, k, units, trials_per=1):
    rng = Randomness(("perfect-sweep", run.__name__, k))
    for corrupted in sweep.placements(units, range(1, k + 1)):
        for s, strategy in enumerate(sweep.fixed_strategies(spec)):
            m = spec.sample(rng)
            out = run(m, AdversarySpec(corrupted, strategy, seed=s))
            assert out.succeeded and out.delivered == m, (
                f"{run.__name__} failed at {sorted(map(sorted, [corrupted]))} "
                f"strategy {s}: {out.detail}")


def test_perfect_oneway():
    spec = GF(11)
    for k in (1, 2):
        out = perfect_oneway(spec.element(6), k, seed=1)
        assert out.succeeded and out.rounds == 1
        _sweep(lambda m, a, k=k: perfect_oneway(m, k, a), spec, k,
               sweep.on_channels("perfect-oneway", k)[1])


def test_perfect_3k():
    spec = GF(11)
    for k in (1, 2):
        out = perfect_3k(spec.element(3), k, seed=1)
        assert out.succeeded and out.rounds <= 3
        _sweep(lambda m, a, k=k: perfect_3k(m, k, a), spec, k,
               sweep.on_channels("perfect-3k", k)[1])


def test_perfect_u1():
    spec = GF(11)
    k = 2
    out = perfect_u1(spec.element(9), k, seed=1)
    assert out.succeeded
    _sweep(lambda m, a: perfect_u1(m, k, a), spec, k,
           sweep.on_channels("perfect-u1", k)[1])
    with pytest.raises(PreconditionError):
        perfect_u1(spec.element(1), 1)


def test_perfect_general():
    spec = GF(11)
    k, u = 2, 1
    out = perfect_general(spec.element(2), k, u, seed=1)
    assert out.succeeded
    _sweep(lambda m, a: perfect_general(m, k, u, a), spec, k,
           sweep.on_channels("perfect-general", k, u)[1])
    with pytest.raises(PreconditionError):
        perfect_general(spec.element(1), 1, 1)
    with pytest.raises(PreconditionError):
        perfect_general(spec.element(1), 2, 0)


def test_perfect_efficient():
    spec = GF(11)
    for k, u in ((1, 1), (2, 1), (2, 2)):
        out = perfect_efficient(spec.element(8), k, u, seed=1)
        assert out.succeeded
        assert out.rounds <= 11 * max(u, 1)
        _sweep(lambda m, a, k=k, u=u: perfect_efficient(m, k, u, a), spec, k,
               sweep.on_channels("perfect-efficient", k, u)[1])
    # u = 0 degenerates to the single-round protocol
    out = perfect_efficient(spec.element(8), 1, 0, seed=1)
    assert out.succeeded
    with pytest.raises(PreconditionError):
        perfect_efficient(spec.element(1), 1, 2)


def test_perfect_shared_feedback():
    spec = GF(11)
    for k, u in ((1, 1), (2, 1), (2, 2)):
        out = perfect_shared_feedback(spec.element(5), k, u, seed=1)
        assert out.succeeded
        # node-level corruption: the last u forward channels each share a
        # relay with one feedback channel and fall jointly
        _sweep(lambda m, a, k=k, u=u: perfect_shared_feedback(m, k, u, a),
               spec, k, sweep.on_channels("perfect-shared", k, u, shared=True)[1])
    with pytest.raises(PreconditionError):
        perfect_shared_feedback(spec.element(1), 2, 0)


def test_shared_feedback_bails_after_u_plus_one_open_sub_rounds():
    # beyond the bound (4 of 6 forward channels, k = 2): shares shifted at
    # random keep the receiver answering "continue", so no sub-protocol
    # round closes and the sender broadcasts a bail after u+1 of them
    spec = GF(11)

    def sometimes_shift(ctx):
        v, _ = ctx.rng.draw(5)
        p = ctx.payload
        return p + p.spec.one() if v == 0 and isinstance(p, FieldElement) else p

    adversary = AdversarySpec(frozenset(("AB", i) for i in range(4)),
                              sometimes_shift, seed=18)
    out = perfect_shared_feedback(spec.element(5), 2, 1, adversary)
    verdicts = [payload[0] for _, _, payload in out.view.public]
    assert verdicts == ["help", "continue", "ok", "continue", "bail"]
    assert out.rounds == 2 * 2 * 3 + 2  # u+1 rounds of two 3-round stages, bail, final shares


def test_u1_answers_a_forged_stop_with_done():
    # once every echo matched, the sender answers the receiver's stop with
    # ("done",) whatever arrives: a stop forged into a well-formed echo
    # draws no list of the positions that differ from the shares
    spec = GF(11)

    def forge_stop(ctx):
        return ("vec", (spec.zero(),) * 5) if ctx.payload == "stop" else ctx.payload

    out = perfect_u1(spec.element(4), 2, AdversarySpec(frozenset({("BA", 0)}), forge_stop))
    stops = [rnd for rnd, _, payload in out.view.events if payload == "stop"]
    assert len(stops) == 1
    assert [v for rnd, _, v in out.view.public if rnd == stops[0] + 1] == [("done",)]
    assert out.succeeded


def test_perfect_protocols_never_report_failure_under_bound():
    # the failed flag must stay unset for every placement within k: a
    # perfectly reliable protocol is not allowed to give up
    spec = GF(11)
    k = 1
    for corrupted in sweep.placements(sweep.on_channels("perfect-3k", k)[1],
                                      range(1, k + 1)):
        out = perfect_3k(spec.element(7), k,
                         AdversarySpec(corrupted, stop_forger()))
        assert not out.failed


def test_determinism():
    spec = GF(11)
    a = perfect_efficient(spec.element(4), 2, 1, seed=42)
    b = perfect_efficient(spec.element(4), 2, 1, seed=42)
    assert a.view.canonical() == b.view.canonical()
    assert a.rounds == b.rounds and a.delivered == b.delivered


@pytest.mark.parametrize("run, corrupted, decodes", [
    (lambda m, adv: perfect_u1(m, 2, adv), None, 5),
    # a mismatched echo: only the reshare is decoded
    (lambda m, adv: perfect_u1(m, 2, adv), {("AB", 4)}, 1),
    (lambda m, adv: perfect_u1(m, 2, adv), {("AB", 0)}, 1),
    # a mismatch in the first permutation: the recursion into k=2, u=1
    # decodes its five guesses
    (lambda m, adv: perfect_general(m, 3, 2, adv), {("BA", 0)}, 5),
], ids=["u1-passive", "u1-AB4-shift", "u1-AB0-shift", "general-BA0-shift"])
def test_receiver_decodes_only_the_words_it_reads(monkeypatch, run, corrupted, decodes):
    spec = GF(11)
    calls = []
    real = perfect.correct_errors
    monkeypatch.setattr(perfect, "correct_errors",
                        lambda word, e: calls.append(e) or real(word, e))
    adversary = None if corrupted is None else AdversarySpec(
        frozenset(corrupted), strategies.build("shift", spec))
    out = run(spec.element(3), adversary)
    assert out.succeeded
    assert len(calls) == decodes
