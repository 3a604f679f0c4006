"""Perfectly reliable and perfectly private transmission protocols.

These protocols never fail against an adversary within the tolerated
corruption bound: the receiver always outputs exactly the sent message.
All of them combine bounded-distance decoding of fresh MDS sharings with
feedback-channel echoes; when the sender can pin a fault down to one
forward/backward channel pair, both ends drop the pair and fall back to
a protocol tolerating one corruption fewer.
"""

from __future__ import annotations

from itertools import permutations

from ..errors import PreconditionError
from ..field import FieldElement
from ..netsim import AdversarySpec, Outcome, PathNetwork, broadcast, recv_broadcast
from ..sharing import CLEAN, ReceivedWord, correct_errors, detect_errors, reconstruct
from .common import (
    _rngs,
    as_field,
    as_field_vec,
    as_indices,
    finish,
    first,
    share_vector,
    sharing_params,
    tagged,
)


def _share_on(net, fwd, secret, k, rng_a):
    """One round: fresh (k+1)-out-of-len(fwd) shares, one per channel."""
    shares = share_vector(secret, len(fwd), k, rng_a)
    for pos, ch in enumerate(fwd):
        net.send_ab(ch, shares[pos])
    return shares


def _recv_word(spec, delivered, fwd, k) -> ReceivedWord:
    entries = tuple(as_field(spec, delivered.get(("AB", ch))) for ch in fwd)
    return ReceivedWord(entries, sharing_params(len(fwd), k, spec))


def _echoed(spec, feedback, n):
    """The word a ``("vec", entries)`` feedback echoes, else ``None``."""
    vec = tagged(feedback, "vec", 1)
    return None if vec is None else as_field_vec(spec, vec[0], n)


def _echo_tail(net, fwd, q, word, shares, rng_b, b_result=None):
    """Feedback channel q carries the receiver's word back unless it has
    already decoded (``b_result``); the sender broadcasts the positions
    that differ from what it sent, and the receiver reconstructs from the
    rest."""
    spec = word.params.field
    n = len(fwd)
    net.send_ba(q, "stop" if b_result is not None else ("vec", word.entries))
    delivered = net.end_round()
    echoed = _echoed(spec, delivered.get(("BA", q)), n)
    if echoed is not None:
        bad = tuple(i for i in range(n) if echoed[i] != shares[i])
        broadcast(net, fwd, ("drop", bad))
    else:
        broadcast(net, fwd, ("done",))
    delivered = net.end_round()
    if b_result is not None:
        return b_result
    verdict, _ = recv_broadcast(delivered, fwd, rng_b)
    drop = tagged(verdict, "drop", 1)
    if drop is None:
        return None
    bad = as_indices(drop[0], n)
    word = ReceivedWord(tuple(None if i in bad else e
                              for i, e in enumerate(word.entries)), word.params)
    return reconstruct(word) if len(word.present()) > word.params.k else None


# ---------------------------------------------------------------------------
# forward-only base case: 3k+1 channels, single round


def _oneway_perfect(message, k, net, fwd, rng_a, rng_b):
    n = 3 * k + 1
    fwd = first(fwd, n)
    spec = message.spec
    _share_on(net, fwd, message, k, rng_a)
    delivered = net.end_round()
    word = _recv_word(spec, delivered, fwd, k)
    decoded = correct_errors(word, k)
    return decoded.secret if decoded else None


# ---------------------------------------------------------------------------
# single feedback channel, 3k forward channels, any k >= 1


def _threek_one_feedback(message, k, net, fwd, q, rng_a, rng_b):
    n = 3 * k
    fwd = first(fwd, n)
    shares = _share_on(net, fwd, message, k, rng_a)
    delivered = net.end_round()
    word = _recv_word(message.spec, delivered, fwd, k)
    decoded = correct_errors(word, k - 1)
    return _echo_tail(net, fwd, q, word, shares, rng_b,
                      decoded.secret if decoded is not None else None)


# ---------------------------------------------------------------------------
# 3k-1 forward channels plus one feedback channel, k >= 2


def _u1_protocol(message, k, net, fwd, q, rng_a, rng_b):
    n = 3 * k - 1
    fwd = first(fwd, n)
    spec = message.spec
    guesses = []
    last_word = None
    last_shares = None
    for big_i in range(n):
        shares = _share_on(net, fwd, message, k, rng_a)
        delivered = net.end_round()
        word = _recv_word(spec, delivered, fwd, k)
        last_word, last_shares = word, shares
        decoded = correct_errors(word, k - 1)
        guesses.append(decoded.secret if decoded else None)
        net.send_ba(q, word.entries[big_i])
        delivered = net.end_round()
        echo = as_field(spec, delivered.get(("BA", q)))
        if echo == shares[big_i]:
            broadcast(net, fwd, ("ok", big_i))
            delivered = net.end_round()
            recv_broadcast(delivered, fwd, rng_b)
            continue
        # the sender pins the fault to this forward channel or the
        # feedback channel; reshare with threshold k over the others
        others = [ch for pos, ch in enumerate(fwd) if pos != big_i]
        reshares = share_vector(message, n - 1, k - 1, rng_a)
        extras = {ch: reshares[pos] for pos, ch in enumerate(others)}
        broadcast(net, fwd, ("faulty", big_i), extras)
        delivered = net.end_round()
        _, got = recv_broadcast(delivered, fwd, rng_b)
        entries = tuple(as_field(spec, got.get(ch)) for ch in others)
        decoded = correct_errors(
            ReceivedWord(entries, sharing_params(n - 1, k - 1, spec)), k - 1)
        return decoded.secret if decoded else None
    # every echo matched: the receiver decides from its round guesses
    if guesses[0] is not None and all(g == guesses[0] for g in guesses):
        net.send_ba(q, "stop")
        net.end_round()
        broadcast(net, fwd, ("done",))
        net.end_round()
        return guesses[0]
    return _echo_tail(net, fwd, q, last_word, last_shares, rng_b)


# ---------------------------------------------------------------------------
# shared pad phase: stop/go feedback, then two additive pads, error
# detection, fault isolation


def _pad_phase(message, k, net, fwd, back, rng_a, rng_b, recurse, b_prior):
    """The receiver asks to stop if it already holds ``b_prior``; unless
    every feedback channel says stop, the message is padded twice and
    each pad checked for errors, recursing with one corruption fewer
    once a fault is pinned to a channel pair."""
    for q in back:
        net.send_ba(q, "stop" if b_prior is not None else "go")
    delivered = net.end_round()
    if all(delivered.get(("BA", q)) == "stop" for q in back):
        broadcast(net, fwd, ("done",))
        net.end_round()
        return b_prior
    broadcast(net, fwd, ("pad",))
    delivered = net.end_round()
    recv_broadcast(delivered, fwd, rng_b)
    spec = message.spec
    n = len(fwd)
    r1_a = spec.sample(rng_a)
    stage_vals_a = (r1_a, message - r1_a)
    recovered_b = []
    for stage in range(2):
        shares = _share_on(net, fwd, stage_vals_a[stage], k, rng_a)
        delivered = net.end_round()
        word = _recv_word(spec, delivered, fwd, k)
        clean = detect_errors(word) == CLEAN
        if clean:
            recovered_b.append(reconstruct(word))
            for q in back:
                net.send_ba(q, "OK")
        else:
            for q in back:
                net.send_ba(q, ("vec", word.entries))
        delivered = net.end_round()
        fault = None
        for pos_q, q in enumerate(back):
            echoed = _echoed(spec, delivered.get(("BA", q)), n)
            if echoed is not None:
                for pos_p in range(n):
                    if echoed[pos_p] != shares[pos_p]:
                        fault = (pos_p, pos_q)
                        break
            if fault:
                break
        if fault is not None:
            broadcast(net, fwd, ("faulty", fault[0], fault[1]))
            delivered = net.end_round()
            recv_broadcast(delivered, fwd, rng_b)
            sub_fwd = [ch for pos, ch in enumerate(fwd) if pos != fault[0]]
            sub_back = [q for pos, q in enumerate(back) if pos != fault[1]]
            result = recurse(message, k - 1, net, sub_fwd, sub_back,
                             rng_a, rng_b)
            return b_prior if b_prior is not None else result
        broadcast(net, fwd, ("continue",))
        delivered = net.end_round()
        recv_broadcast(delivered, fwd, rng_b)
        if not clean:
            # the receiver's plea for help was suppressed; only possible
            # outside the tolerated corruption bound
            return b_prior
    if b_prior is not None:
        return b_prior
    return recovered_b[0] + recovered_b[1]


# ---------------------------------------------------------------------------
# general protocol: max(3k+1-2u, 2k+1) forward, u backward, exponential


def _general_protocol(message, k, net, fwd, back, rng_a, rng_b):
    u = len(back)
    if u == 1 or k == 2:
        return _u1_protocol(message, k, net, fwd, back[0], rng_a, rng_b)
    n = max(3 * k + 1 - 2 * u, 2 * k + 1)
    fwd = first(fwd, n)
    spec = message.spec
    guesses = []
    for h in permutations(range(n), u):
        shares = _share_on(net, fwd, message, k, rng_a)
        delivered = net.end_round()
        word = _recv_word(spec, delivered, fwd, k)
        decoded = correct_errors(word, k - u)
        guesses.append(decoded.secret if decoded else None)
        for i, q in enumerate(back):
            net.send_ba(q, word.entries[h[i]])
        delivered = net.end_round()
        mismatch = None
        for i, q in enumerate(back):
            echo = as_field(spec, delivered.get(("BA", q)))
            if echo != shares[h[i]]:
                mismatch = (h[i], i)
                break
        if mismatch is None:
            broadcast(net, fwd, ("ok",) + h)
            delivered = net.end_round()
            recv_broadcast(delivered, fwd, rng_b)
            continue
        broadcast(net, fwd, ("faulty", mismatch[0], mismatch[1]))
        delivered = net.end_round()
        recv_broadcast(delivered, fwd, rng_b)
        sub_fwd = [ch for pos, ch in enumerate(fwd) if pos != mismatch[0]]
        sub_back = [q for pos, q in enumerate(back) if pos != mismatch[1]]
        return _general_protocol(message, k - 1, net, sub_fwd, sub_back,
                                 rng_a, rng_b)
    agreed = guesses[0] is not None and all(g == guesses[0] for g in guesses)
    return _pad_phase(message, k, net, fwd, back, rng_a, rng_b,
                      _general_protocol, guesses[0] if agreed else None)


# ---------------------------------------------------------------------------
# efficient protocol: 3k+1-u forward, u backward, linear in u


def _efficient_protocol(message, k, net, fwd, back, rng_a, rng_b):
    u = len(back)
    if u == 0:
        return _oneway_perfect(message, k, net, fwd, rng_a, rng_b)
    n = 3 * k + 1 - u
    fwd = first(fwd, n)
    _share_on(net, fwd, message, k, rng_a)
    delivered = net.end_round()
    word = _recv_word(message.spec, delivered, fwd, k)
    decoded = correct_errors(word, k - u)
    return _pad_phase(message, k, net, fwd, back, rng_a, rng_b,
                      _efficient_protocol,
                      decoded.secret if decoded is not None else None)


# ---------------------------------------------------------------------------
# public entry points


def perfect_oneway(message: FieldElement, k: int,
                   adversary: AdversarySpec | None = None,
                   rng_a=None, rng_b=None, seed=0) -> Outcome:
    """3k+1 forward channels, no feedback, single round."""
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(3 * k + 1, 0, adversary)
    result = _oneway_perfect(message, k, net, list(range(3 * k + 1)),
                             rng_a, rng_b)
    return finish(message, net, result)


def perfect_3k(message: FieldElement, k: int,
               adversary: AdversarySpec | None = None,
               rng_a=None, rng_b=None, seed=0) -> Outcome:
    """3k forward channels plus one feedback channel, any k >= 1."""
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(3 * k, 1, adversary)
    result = _threek_one_feedback(message, k, net, list(range(3 * k)), 0,
                                  rng_a, rng_b)
    return finish(message, net, result)


def perfect_u1(message: FieldElement, k: int,
               adversary: AdversarySpec | None = None,
               rng_a=None, rng_b=None, seed=0) -> Outcome:
    """3k-1 forward channels plus one feedback channel, k >= 2."""
    if k < 2:
        raise PreconditionError("this construction needs k >= 2")
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(3 * k - 1, 1, adversary)
    result = _u1_protocol(message, k, net, list(range(3 * k - 1)), 0,
                          rng_a, rng_b)
    return finish(message, net, result)


def perfect_general(message: FieldElement, k: int, u: int,
                    adversary: AdversarySpec | None = None,
                    rng_a=None, rng_b=None, seed=0) -> Outcome:
    """max(3k+1-2u, 2k+1) forward and u backward channels, k >= 2."""
    if k < 2 or u < 1:
        raise PreconditionError("this construction needs k >= 2 and u >= 1")
    n = max(3 * k + 1 - 2 * u, 2 * k + 1)
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(n, u, adversary)
    result = _general_protocol(message, k, net, list(range(n)),
                               list(range(u)), rng_a, rng_b)
    return finish(message, net, result)


def perfect_efficient(message: FieldElement, k: int, u: int,
                      adversary: AdversarySpec | None = None,
                      rng_a=None, rng_b=None, seed=0) -> Outcome:
    """3k+1-u forward and u backward channels, rounds linear in u."""
    if not 0 <= u <= k:
        raise PreconditionError("need 0 <= u <= k")
    n = 3 * k + 1 - u
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(n, u, adversary)
    result = _efficient_protocol(message, k, net, list(range(n)),
                                 list(range(u)), rng_a, rng_b)
    return finish(message, net, result)


# ---------------------------------------------------------------------------
# shared-feedback protocol: 3k+1-u forward channels of which 3k+1-2u are
# disjoint from the u backward channels


def _shared_sub(message, k, u, net, fwd_all, q, rng_a, rng_b):
    """One feedback channel's sub-protocol.

    Returns (recovered_message_or_None, channel_written_off).  The
    receiver keeps tracking the sender's reliable broadcasts after
    writing the channel off, so both ends stay in lock-step.
    """
    spec = message.spec
    ab_a = list(fwd_all)
    ab_b = list(fwd_all)
    j_cnt = 0
    b_active = True
    b_asked_r0 = False
    b_r0 = None

    def bcast(value):
        broadcast(net, fwd_all, value)
        delivered = net.end_round()
        verdict, _ = recv_broadcast(delivered, fwd_all, rng_b)
        return verdict

    for _ in range(u + 1):
        r0_a = spec.sample(rng_a)
        sub_done = False
        b_result = None
        for stage in range(2):  # stage 0 carries a pad, stage 1 the rest
            n_j = len(ab_a)
            if n_j < k + 1:
                bcast(("bail",))
                return None, True
            shares = _share_on(net, ab_a, r0_a if stage == 0 else message - r0_a,
                               k, rng_a)
            delivered = net.end_round()

            b_sent = None
            b_val = None
            if b_active:
                word = _recv_word(spec, delivered, ab_b, k)
                if stage == 0 and j_cnt == 0:
                    decoded = correct_errors(word, k - u)
                    b_val = decoded.secret if decoded else None
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
                net.send_ba(q, ("vec", word.entries) if b_sent == "vec" else b_sent)
            delivered = net.end_round()

            # the sender turns the raw feedback into a reliable verdict
            fb = delivered.get(("BA", q))
            if fb == "ok":
                verdict = bcast(("ok",))
                if stage == 1:
                    sub_done = True
            elif stage == 1 and fb == "continue":
                verdict = bcast(("continue",))
            else:
                echoed = _echoed(spec, fb, n_j) or (spec.zero(),) * n_j
                bad = tuple(ch for pos, ch in enumerate(ab_a)
                            if echoed[pos] != shares[pos])
                ab_a = [ch for ch in ab_a if ch not in bad]
                verdict = bcast(("help", echoed, bad))
                if stage == 1:
                    sub_done = True

            if not b_active:
                continue
            # receiver-side handling of the verdict
            help_ = tagged(verdict, "help", 2)
            if verdict == ("ok",):
                if b_sent == "ok":
                    if stage == 0:
                        b_r0 = b_val
                    else:
                        b_result = b_r0 + b_val
                else:
                    b_active = False
            elif verdict == ("continue",):
                if b_sent == "continue":
                    j_cnt += 1
                else:
                    b_active = False
            elif (help_ is not None and b_sent == "vec"
                    and as_field_vec(spec, help_[0], len(ab_b)) == word.entries):
                bad_v = as_indices(help_[1], net.n_forward)
                word = ReceivedWord(tuple(None if ch in bad_v else e
                                          for ch, e in zip(ab_b, word.entries)),
                                    word.params)
                ab_b = [ch for ch in ab_b if ch not in bad_v]
                if len(ab_b) < k + 1:
                    b_active = False
                elif stage == 0:
                    b_r0 = reconstruct(word)
                else:
                    b_result = b_r0 + reconstruct(word)
            else:
                b_active = False
        if sub_done:
            return (b_result, False) if b_result is not None else (None, True)
    bcast(("bail",))
    return None, True


def _shared_protocol(message, k, u, net, rng_a, rng_b):
    spec = message.spec
    n = 3 * k + 1 - u
    disjoint = list(range(3 * k + 1 - 2 * u))
    fwd_all = list(range(n))
    result = None
    bad_count = 0
    for q in range(u):
        got, bad = _shared_sub(message, k, u, net, fwd_all, q, rng_a, rng_b)
        if got is not None and result is None:
            result = got
        if bad:
            bad_count += 1
    # final phase: message shares over the channels disjoint from feedback
    _share_on(net, disjoint, message, k, rng_a)
    delivered = net.end_round()
    if result is None and bad_count == u:
        decoded = correct_errors(_recv_word(spec, delivered, disjoint, k), k - u)
        result = decoded.secret if decoded else None
    return result


def perfect_shared_feedback(message: FieldElement, k: int, u: int,
                            adversary: AdversarySpec | None = None,
                            rng_a=None, rng_b=None, seed=0) -> Outcome:
    """3k+1-u forward channels, u feedback channels that may intersect
    the last u forward paths.

    A feedback channel sharing nodes with a forward path means one
    corruption can take out both; callers model that by corrupting the
    channel pair ("AB", 3k+1-2u+j) together with ("BA", j).
    """
    if not 1 <= u <= k:
        raise PreconditionError("need 1 <= u <= k")
    rng_a, rng_b = _rngs(rng_a, rng_b, seed)
    net = PathNetwork(3 * k + 1 - u, u, adversary)
    result = _shared_protocol(message, k, u, net, rng_a, rng_b)
    return finish(message, net, result)
