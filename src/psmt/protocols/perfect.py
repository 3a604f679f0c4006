"""Perfectly reliable and perfectly private transmission protocols.

These protocols never fail against an adversary within the tolerated
corruption bound: the receiver always outputs exactly the sent message.
All of them combine bounded-distance decoding of fresh MDS sharings with
feedback-channel echoes; when the sender can pin a fault down to one
forward/backward channel pair, both ends drop the pair and fall back to
a protocol tolerating one corruption fewer.

Each entry point is one ``common.run_on_channels`` call on the channels
``common.CHANNELS`` declares.  Every body takes ``(message, k, net, fwd,
back, rng_a, rng_b)``; where a recursion hands over more channels than a
sub-protocol declares, ``first`` cuts them by the sub-protocol's name.

Every round is one ``PathNetwork.end_round(sends)`` call with all of its
sends.  ``_share_round`` sends fresh shares and returns the word the
receiver reads, and ``netsim.broadcast`` sends the sender's verdict and
returns the receiver's majority reading of it.

The receiver decodes a word only once it knows it will read the result.
The echo protocols keep each round's word and decode the guesses after
every echo has matched, stopping at the first guess that differs; once
a fault is pinned, only the reshare is decoded.  The pad phase
reconstructs its two pads only when it returns their sum.
"""

from __future__ import annotations

from itertools import permutations

from ..field import FieldElement
from ..netsim import AdversarySpec, Outcome, broadcast
from ..sharing import CLEAN, ReceivedWord, correct_errors, detect_errors, reconstruct
from .common import (
    as_field,
    as_field_vec,
    as_indices,
    first,
    run_on_channels,
    share_vector,
    sharing_params,
    tagged,
)


def _share_on(net, fwd, secret, k, rng_a):
    """One round of fresh (k+1)-out-of-len(fwd) shares, one per channel of
    ``fwd``: the shares sent and the round's deliveries."""
    shares = share_vector(secret, len(fwd), k, rng_a)
    return shares, net.end_round({("AB", ch): s for ch, s in zip(fwd, shares)})


def _share_round(net, fwd, secret, k, rng_a):
    """``_share_on`` and the word the receiver reads on the same channels."""
    shares, delivered = _share_on(net, fwd, secret, k, rng_a)
    return shares, _recv_word(secret.spec, delivered, fwd, k)


def _recv_word(spec, delivered, fwd, k) -> ReceivedWord:
    entries = tuple([as_field(spec, delivered.get(("AB", ch))) for ch in fwd])
    return ReceivedWord(entries, sharing_params(len(fwd), k, spec))


def _decode(word, e):
    """The secret decoded at radius e, or ``None``."""
    decoded = correct_errors(word, e)
    return decoded.secret if decoded else None


def _agreed(words, e):
    """The secret every word decodes to at radius e, else ``None``.  The
    words are decoded in turn, up to the first that differs."""
    guess = _decode(words[0], e)
    if guess is None or not all(_decode(w, e) == guess for w in words[1:]):
        return None
    return guess


def _echoed(spec, feedback, n):
    """The word a ``("vec", entries)`` feedback echoes, else ``None``."""
    vec = tagged(feedback, "vec", 1)
    return None if vec is None else as_field_vec(spec, vec[0], n)


def _differing(echoed, shares):
    """The positions where an echo differs from the shares sent, in order
    and only as far as they are read."""
    return (pos for pos, (e, s) in enumerate(zip(echoed, shares)) if e != s)


def _without(word, drop):
    """The secret read from the slots of ``word`` that ``drop`` does not
    flag, else ``None`` when k or fewer are left."""
    word = ReceivedWord(tuple(None if flagged else e
                              for e, flagged in zip(word.entries, drop)), word.params)
    return reconstruct(word) if len(word.present()) > word.params.k else None


def _drop_pair(recurse, pair, message, k, net, fwd, back, rng_a, rng_b):
    """The sender names the faulty (forward, feedback) position ``pair``,
    and both ends run ``recurse`` without it, tolerating one corruption
    fewer."""
    broadcast(net, fwd, ("faulty",) + pair, rng_b)
    sub_fwd = [ch for pos, ch in enumerate(fwd) if pos != pair[0]]
    sub_back = [q for pos, q in enumerate(back) if pos != pair[1]]
    return recurse(message, k - 1, net, sub_fwd, sub_back, rng_a, rng_b)


def _echo_tail(net, fwd, q, word, shares, rng_b, b_result=None):
    """Feedback channel q carries the receiver's word back unless it has
    already decoded (``b_result``); the sender broadcasts the positions
    that differ from what it sent, and the receiver reconstructs from the
    rest."""
    n = len(fwd)
    reply = "stop" if b_result is not None else ("vec", word.entries)
    delivered = net.end_round({("BA", q): reply})
    echoed = _echoed(word.params.field, delivered.get(("BA", q)), n)
    verdict = ("done",) if echoed is None else ("drop", tuple(_differing(echoed, shares)))
    verdict, _ = broadcast(net, fwd, verdict, rng_b)
    if b_result is not None:
        return b_result
    drop = tagged(verdict, "drop", 1)
    if drop is None:
        return None
    bad = as_indices(drop[0], n)
    return _without(word, [pos in bad for pos in range(n)])


# ---------------------------------------------------------------------------
# forward-only base case: a single round


def _oneway_perfect(message, k, net, fwd, back, rng_a, rng_b):
    _, word = _share_round(net, first(fwd, "perfect-oneway", k), message, k, rng_a)
    return _decode(word, k)


# ---------------------------------------------------------------------------
# one feedback channel: shares, then an echo of the word


def _threek_one_feedback(message, k, net, fwd, back, rng_a, rng_b):
    shares, word = _share_round(net, fwd, message, k, rng_a)
    return _echo_tail(net, fwd, back[0], word, shares, rng_b, _decode(word, k - 1))


# ---------------------------------------------------------------------------
# one feedback channel: one echoed share per round


def _echo_rounds(message, k, net, fwd, back, tuples, rng_a, rng_b):
    """Per tuple h, fresh shares, and feedback channel back[i] echoes
    entry h[i] of the receiver's word; ``("ok",) + h`` is broadcast while
    every echo matches.  Returns the words, the last shares and the first
    mismatch (position in ``fwd``, position in ``back``), else ``None``.
    The receiver decodes the words only once every echo has matched."""
    spec = message.spec
    words = []
    for h in tuples:
        shares, word = _share_round(net, fwd, message, k, rng_a)
        words.append(word)
        delivered = net.end_round(
            {("BA", q): word.entries[h[i]] for i, q in enumerate(back)})
        for i, q in enumerate(back):
            if as_field(spec, delivered.get(("BA", q))) != shares[h[i]]:
                return words, shares, (h[i], i)
        broadcast(net, fwd, ("ok",) + h, rng_b)
    return words, shares, None


def _u1_protocol(message, k, net, fwd, back, rng_a, rng_b):
    n, q, spec = len(fwd), back[0], message.spec
    words, shares, mismatch = _echo_rounds(
        message, k, net, fwd, [q], [(i,) for i in range(n)], rng_a, rng_b)
    if mismatch is not None:
        # the sender pins the fault to this forward channel or the
        # feedback channel; reshare with threshold k over the others
        others = [ch for pos, ch in enumerate(fwd) if pos != mismatch[0]]
        reshares = share_vector(message, n - 1, k - 1, rng_a)
        _, got = broadcast(net, fwd, ("faulty", mismatch[0]), rng_b,
                           {ch: reshares[pos] for pos, ch in enumerate(others)})
        entries = tuple(as_field(spec, got.get(ch)) for ch in others)
        return _decode(ReceivedWord(entries, sharing_params(n - 1, k - 1, spec)),
                       k - 1)
    # every echo matched: decide from the guesses, else echo the last word
    guess = _agreed(words, k - 1)
    if guess is not None:
        net.end_round({("BA", q): "stop"})
        broadcast(net, fwd, ("done",), rng_b)
        return guess
    return _echo_tail(net, fwd, q, words[-1], shares, rng_b)


# ---------------------------------------------------------------------------
# shared pad phase: stop/go feedback, then two additive pads, error
# detection, fault isolation


def _pad_phase(message, k, net, fwd, back, rng_a, rng_b, recurse, b_prior):
    """The receiver asks to stop if it already holds ``b_prior``; unless
    every feedback channel says stop, the message is padded twice and
    each pad checked for errors, recursing with one corruption fewer
    once a fault is pinned to a channel pair."""
    delivered = net.end_round(
        {("BA", q): "stop" if b_prior is not None else "go" for q in back})
    if all(delivered.get(("BA", q)) == "stop" for q in back):
        broadcast(net, fwd, ("done",), rng_b)
        return b_prior
    broadcast(net, fwd, ("pad",), rng_b)
    spec = message.spec
    n = len(fwd)
    r1_a = spec.sample(rng_a)
    pads = []
    for value in (r1_a, message - r1_a):
        shares, word = _share_round(net, fwd, value, k, rng_a)
        pads.append(word)
        clean = detect_errors(word) == CLEAN
        delivered = net.end_round(
            {("BA", q): "OK" if clean else ("vec", word.entries) for q in back})
        echoes = (_echoed(spec, delivered.get(("BA", q)), n) for q in back)
        fault = next(((pos_p, pos_q) for pos_q, echoed in enumerate(echoes)
                      if echoed is not None for pos_p in _differing(echoed, shares)),
                     None)
        if fault is not None:
            result = _drop_pair(recurse, fault, message, k, net, fwd, back,
                                rng_a, rng_b)
            return b_prior if b_prior is not None else result
        broadcast(net, fwd, ("continue",), rng_b)
        if not clean:
            # the receiver's plea for help was suppressed; only possible
            # outside the tolerated corruption bound
            return b_prior
    if b_prior is not None:
        return b_prior
    # both pads arrived clean
    return reconstruct(pads[0]) + reconstruct(pads[1])


# ---------------------------------------------------------------------------
# general protocol: u backward channels, exponential


def _general_protocol(message, k, net, fwd, back, rng_a, rng_b):
    u = len(back)
    fwd = first(fwd, "perfect-general", k, u)
    if u == 1 or k == 2:
        return _u1_protocol(message, k, net, fwd, back, rng_a, rng_b)
    n = len(fwd)
    words, _, mismatch = _echo_rounds(
        message, k, net, fwd, back, permutations(range(n), u), rng_a, rng_b)
    if mismatch is None:
        return _pad_phase(message, k, net, fwd, back, rng_a, rng_b,
                          _general_protocol, _agreed(words, k - u))
    return _drop_pair(_general_protocol, mismatch, message, k, net, fwd, back,
                      rng_a, rng_b)


# ---------------------------------------------------------------------------
# efficient protocol: u backward channels, rounds linear in u


def _efficient_protocol(message, k, net, fwd, back, rng_a, rng_b):
    u = len(back)
    if u == 0:
        return _oneway_perfect(message, k, net, fwd, back, rng_a, rng_b)
    fwd = first(fwd, "perfect-efficient", k, u)
    _, word = _share_round(net, fwd, message, k, rng_a)
    return _pad_phase(message, k, net, fwd, back, rng_a, rng_b,
                      _efficient_protocol, _decode(word, k - u))


# ---------------------------------------------------------------------------
# public entry points


def perfect_oneway(message: FieldElement, k: int, adversary: AdversarySpec | None = None,
                   seed=0, rng=None) -> Outcome:
    """Shares over the forward channels alone, one round."""
    return run_on_channels("perfect-oneway", _oneway_perfect, message, k,
                           adversary, seed, rng)


def perfect_3k(message: FieldElement, k: int, adversary: AdversarySpec | None = None,
               seed=0, rng=None) -> Outcome:
    """Shares, then the receiver's word echoed unless it decoded: 3 rounds."""
    return run_on_channels("perfect-3k", _threek_one_feedback, message, k,
                           adversary, seed, rng)


def perfect_u1(message: FieldElement, k: int, adversary: AdversarySpec | None = None,
               seed=0, rng=None) -> Outcome:
    """One echoed share per round, and a reshare once a fault is pinned."""
    return run_on_channels("perfect-u1", _u1_protocol, message, k, adversary, seed, rng)


def perfect_general(message: FieldElement, k: int, u: int,
                    adversary: AdversarySpec | None = None, seed=0, rng=None) -> Outcome:
    """Every u-permutation of shares echoed; a pinned fault drops a pair."""
    return run_on_channels("perfect-general", _general_protocol, message, k,
                           adversary, seed, rng, u)


def perfect_efficient(message: FieldElement, k: int, u: int,
                      adversary: AdversarySpec | None = None, seed=0, rng=None) -> Outcome:
    """One share round and the pad phase, rounds linear in u."""
    return run_on_channels("perfect-efficient", _efficient_protocol, message, k,
                           adversary, seed, rng, u)


# ---------------------------------------------------------------------------
# shared-feedback protocol: the first n_forward - u forward channels are
# disjoint from the u backward channels


def _shared_sub(message, k, u, net, fwd_all, q, rng_a, rng_b):
    """One feedback channel's sub-protocol: the message it recovers, else
    ``None``.  The receiver keeps tracking the sender's reliable
    broadcasts after writing the channel off, so both ends stay in
    lock-step.
    """
    spec = message.spec
    ab_a = list(fwd_all)
    ab_b = list(fwd_all)
    j_cnt = 0
    b_active = True
    b_asked_r0 = False
    b_r0 = None
    for _ in range(u + 1):
        r0_a = spec.sample(rng_a)
        b_result = None
        for stage in range(2):  # stage 0 carries a pad, stage 1 the rest
            n_j = len(ab_a)
            if n_j < k + 1:
                broadcast(net, fwd_all, ("bail",), rng_b)
                return None
            shares, delivered = _share_on(
                net, ab_a, r0_a if stage == 0 else message - r0_a, k, rng_a)

            b_sent = None
            b_val = None
            if b_active:
                word = _recv_word(spec, delivered, ab_b, k)
                if stage == 0 and j_cnt == 0:
                    b_val = _decode(word, k - u)
                elif detect_errors(word) == CLEAN:
                    b_val = reconstruct(word)
                if b_val is not None:
                    b_sent = "ok"
                elif stage == 1 and b_asked_r0:
                    b_sent = "continue"
                else:
                    b_sent = "vec"
                    if stage == 0:
                        b_asked_r0 = True
            delivered = net.end_round(
                {} if b_sent is None else
                {("BA", q): ("vec", word.entries) if b_sent == "vec" else b_sent})

            # the sender turns the raw feedback into a reliable verdict
            fb = delivered.get(("BA", q))
            if fb == "ok":
                verdict = ("ok",)
            elif stage == 1 and fb == "continue":
                verdict = ("continue",)
            else:
                echoed = _echoed(spec, fb, n_j) or (spec.zero(),) * n_j
                bad = tuple(ab_a[pos] for pos in _differing(echoed, shares))
                ab_a = [ch for ch in ab_a if ch not in bad]
                verdict = ("help", echoed, bad)
            verdict, _ = broadcast(net, fwd_all, verdict, rng_b)
            sub_done = stage == 1 and fb != "continue"

            if not b_active:
                continue
            # receiver-side handling of the verdict
            if verdict == ("continue",) and b_sent == "continue":
                j_cnt += 1
                continue
            help_ = tagged(verdict, "help", 2)
            got = None
            if verdict == ("ok",) and b_sent == "ok":
                got = b_val
            elif (help_ is not None and b_sent == "vec"
                    and as_field_vec(spec, help_[0], len(ab_b)) == word.entries):
                bad_v = as_indices(help_[1], net.n_forward)
                got = _without(word, [ch in bad_v for ch in ab_b])
                ab_b = [ch for ch in ab_b if ch not in bad_v]
            if got is None:
                b_active = False
            elif stage == 0:
                b_r0 = got
            else:
                b_result = b_r0 + got
        if sub_done:
            return b_result
    broadcast(net, fwd_all, ("bail",), rng_b)
    return None


def _shared_protocol(message, k, net, fwd, back, rng_a, rng_b):
    u = len(back)
    got = [m for m in (_shared_sub(message, k, u, net, fwd, q, rng_a, rng_b)
                       for q in back) if m is not None]
    # final phase: message shares over the channels disjoint from feedback
    _, word = _share_round(net, fwd[:len(fwd) - u], message, k, rng_a)
    return got[0] if got else _decode(word, k - u)


def perfect_shared_feedback(message: FieldElement, k: int, u: int,
                            adversary: AdversarySpec | None = None,
                            seed=0, rng=None) -> Outcome:
    """Feedback channels that may intersect the last u forward paths.

    A feedback channel sharing nodes with a forward path means one
    corruption can take out both; callers model that by corrupting the
    channel pair ("AB", n_forward - u + j) together with ("BA", j).
    """
    return run_on_channels("perfect-shared", _shared_protocol, message, k,
                           adversary, seed, rng, u)
