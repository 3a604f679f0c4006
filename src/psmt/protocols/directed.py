"""Probabilistically reliable, perfectly private transmission protocols.

All protocols here run over atomic forward/backward channels and deliver
the sender's message with probability 1 - O(poly(k)/|F|) while keeping
the adversary's view independent of the message.
"""

from __future__ import annotations

import itertools

from ..authcodes import LinearKey, QuadKey, auth_linear, auth_quad, verify
from ..field import FieldElement
from ..netsim import AdversarySpec, Outcome
from ..sharing import ReceivedWord, reconstruct
from .common import (
    _rng,
    as_field,
    as_field_vec,
    as_indices,
    as_linear_key,
    as_quad_key,
    fields,
    finish,
    network,
    share_vector,
    sharing_params,
)


def _pad(spec, first, second) -> tuple:
    """The pad (c, d): the component-wise sum of the key pairs ``first``,
    plus that of the key pairs ``second``."""
    def total(pairs, slot):
        return sum((pair[slot] for pair in pairs), spec.zero())
    return tuple(total(first, slot) + total(second, slot) for slot in range(2))


def _authenticated_shares(net, message, n, k, rng_a) -> FieldElement | None:
    """n rounds, one per share: round i carries share i with n tags on
    channel i while every channel j carries the matching key.  Returns
    the secret the receiver reconstructs from the shares it sees with at
    least k+1 valid tags, else ``None`` when k or fewer are valid."""
    spec = message.spec
    shares = share_vector(message, n, k, rng_a)
    valid: list = [None] * n
    for i in range(n):
        keys = [LinearKey.random(spec, rng_a) for _ in range(n)]
        tags = tuple(auth_linear(shares[i], keys[j]) for j in range(n))
        delivered = net.end_round({
            ("AB", j): ((keys[j].a, keys[j].b), (shares[i], tags) if j == i else None)
            for j in range(n)})
        # receiver side for round i
        got = [fields(delivered.get(("AB", j)), 2) for j in range(n)]
        rkeys = [as_linear_key(spec, key) for key, _ in got]
        s_i, rtags = fields(got[i][1], 2)
        s_i = as_field(spec, s_i)
        rtags = as_field_vec(spec, rtags, n)
        if sum(1 for j in range(n) if verify(s_i, rtags[j], rkeys[j])) >= k + 1:
            valid[i] = s_i
    word = ReceivedWord(tuple(valid), sharing_params(n, k, spec))
    return reconstruct(word) if len(word.present()) > k else None


def oneway(message: FieldElement, k: int, adversary: AdversarySpec | None = None,
           seed=0, rng=None, n_forward: int | None = None) -> Outcome:
    """Forward-only transmission, over more channels than declared when
    ``n_forward`` asks for them.

    The message is shared (k+1)-out-of-n once; round i delivers share i
    together with n authentication tags, while every channel j carries
    the matching key.  A share is accepted with at least k+1 valid tags.
    """
    net = network("oneway", adversary, k, n_forward=n_forward)
    recovered = _authenticated_shares(net, message, net.n_forward, k,
                                      _rng(rng, seed, "A"))
    return finish(message, net, recovered, "fewer than k+1 valid shares")


def single_feedback(message: FieldElement, adversary: AdversarySpec | None = None,
                    seed=0, rng=None) -> Outcome:
    """Two forward channels and a feedback channel against one corruption.

    The message is split into two additive shares, each authenticated
    under the other channel's key.  On a verification failure the
    receiver echoes everything back with a fresh key, letting the sender
    identify the clean channel and retransmit over it.
    """
    spec = message.spec
    rng_a, rng_b = _rng(rng, seed, "A"), _rng(rng, seed, "B")
    net = network("single-feedback", adversary, 1)

    s = [spec.sample(rng_a), None]
    s[1] = message - s[0]
    keys = [LinearKey.random(spec, rng_a) for _ in range(2)]
    sent = [(s[i], keys[i], auth_linear(s[i], keys[1 - i])) for i in range(2)]
    delivered = net.end_round({("AB", i): (si, (ki.a, ki.b), ci)
                               for i, (si, ki, ci) in enumerate(sent)})

    def triple(payload) -> tuple:
        """A (share, key, tag) payload as its reader sees it."""
        si, ki, ci = fields(payload, 3)
        return as_field(spec, si), as_linear_key(spec, ki), as_field(spec, ci)

    # receiver checks both cross-authenticated triples
    got = [triple(delivered.get(("AB", i))) for i in range(2)]
    ok = all(verify(got[i][0], got[i][2], got[1 - i][1]) for i in range(2))
    b_key = None
    b_result = None
    if ok:
        b_result = got[0][0] + got[1][0]
        reply = "OK"
    else:
        b_key = LinearKey.random(spec, rng_b)
        echo = tuple((g[0], (g[1].a, g[1].b), g[2]) for g in got)
        reply = ((b_key.a, b_key.b), echo)
    feedback = net.end_round({("BA", 0): reply}).get(("BA", 0))
    if feedback != "OK":
        # sender identifies the clean forward channel from the echo
        a_key, echoed = fields(feedback, 2)
        a_key = as_linear_key(spec, a_key)
        matches = [triple(e) == sent[i] for i, e in enumerate(fields(echoed, 2))]
        # exactly one mismatch identifies the corrupted channel; anything
        # else means the feedback channel itself lied (receiver already done)
        good = matches.index(True) if matches.count(True) == 1 else 0
        delivered = net.end_round(
            {("AB", good): (message, auth_linear(message, a_key))})
        if b_result is None:
            m2, t2 = as_field_vec(spec, delivered.get(("AB", good)), 2)
            b_result = m2 if verify(m2, t2, b_key) else None
    return finish(message, net, b_result, "no authenticated delivery")


def subset_exchange(message: FieldElement, k: int, n_forward: int, n_backward: int,
                    adversary: AdversarySpec | None = None,
                    seed=0, rng=None) -> Outcome:
    """Key agreement over every (k+1)-subset of all channels.

    For each subset both ends accumulate pad components over the member
    channels (forward components chosen by the sender, backward by the
    receiver) and the sender delivers the padded message on the subset's
    forward members.  At least one subset is entirely honest.
    """
    spec = message.spec
    rng_a, rng_b = _rng(rng, seed, "A"), _rng(rng, seed, "B")
    net = network("subset-exchange", adversary, k, n_backward, n_forward)
    lines = ([("p", i) for i in range(n_forward)] +
             [("q", j) for j in range(n_backward)])
    result = None
    for subset in itertools.combinations(lines, k + 1):
        fwd = [i for d, i in subset if d == "p"]
        back = [j for d, j in subset if d == "q"]
        if not fwd:
            continue
        # round 1: keys in both directions on the member channels
        a_keys = {i: (spec.sample(rng_a), spec.sample(rng_a)) for i in fwd}
        b_keys = {j: (spec.sample(rng_b), spec.sample(rng_b)) for j in back}
        sends = {("AB", i): a_keys[i] for i in fwd}
        sends.update({("BA", j): b_keys[j] for j in back})
        delivered = net.end_round(sends)
        a_back = {j: as_field_vec(spec, delivered.get(("BA", j)), 2) for j in back}
        b_fwd = {i: as_field_vec(spec, delivered.get(("AB", i)), 2) for i in fwd}
        # round 2: padded message on the forward members
        c_a, d_a = _pad(spec, [a_keys[i] for i in fwd], [a_back[j] for j in back])
        e = message + c_a
        f = auth_linear(e, LinearKey(c_a, d_a))
        delivered = net.end_round({("AB", i): (e, f) for i in fwd})
        copies = {i: delivered.get(("AB", i)) for i in fwd}
        if result is not None:
            continue
        # compared without hashing: a corrupted copy may be unhashable
        got = copies[fwd[0]]
        if any(copies[i] != got for i in fwd[1:]):
            continue
        e_b, f_b = as_field_vec(spec, got, 2)
        c_b, d_b = _pad(spec, [b_fwd[i] for i in fwd], [b_keys[j] for j in back])
        if verify(e_b, f_b, LinearKey(c_b, d_b)):
            result = e_b - c_b
    return finish(message, net, result, "no subset produced a verified pad")


def feedback_efficient(message: FieldElement, k: int, u: int,
                       adversary: AdversarySpec | None = None,
                       seed=0, rng=None) -> Outcome:
    """Efficient transmission with u feedback channels.

    Phase one runs the forward-only protocol over the reduced channel
    set.  If too few shares validate, the receiver raises random nonces
    authenticated under fresh sender keys; the sender clusters the
    feedback channels into mutually consistent classes and delivers the
    message under a pad known only along an honest class.
    """
    spec = message.spec
    rng_a, rng_b = _rng(rng, seed, "A"), _rng(rng, seed, "B")
    net = network("feedback-efficient", adversary, k, u)
    n = net.n_forward

    # phase one: n rounds of authenticated share delivery; a receiver
    # that reconstructs is done but keeps responding honestly below so
    # that both ends stay in lock-step
    b_result = _authenticated_shares(net, message, n, k, rng_a)

    # fallback round: fresh two-time keys forward
    quads_a = [QuadKey.random(spec, rng_a) for _ in range(n)]
    delivered = net.end_round({("AB", i): (q.a, q.b, q.c)
                               for i, q in enumerate(quads_a)})
    quads_b = [as_quad_key(spec, delivered.get(("AB", i))) for i in range(n)]
    r_b = [spec.sample(rng_b) for _ in range(n)]
    beta_b = tuple((r_b[i], auth_quad(r_b[i], quads_b[i])) for i in range(n))

    # u feedback rounds: nonces plus cross-authenticated pad components.
    # Each nonce component gets its own one-time key per channel: a key
    # that tagged both d and e would let anyone who sees both tags solve
    # for it and re-tag a forged pair.
    de_b = [(spec.sample(rng_b), spec.sample(rng_b)) for _ in range(u)]
    vw_b = [[(LinearKey.random(spec, rng_b), LinearKey.random(spec, rng_b))
             for _ in range(u)] for _ in range(u)]

    def tags(de, keys) -> tuple:
        return tuple(auth_linear(x, key) for x, key in zip(de, keys))

    # one round per feedback channel j: the nonce bundle travels on
    # channel j while the cross keys for j travel on channel l
    fb: list = [None] * u
    keys_at_a: list = [[None] * u for _ in range(u)]
    for j in range(u):
        alphas = tuple(tags(de_b[j], vw_b[j][l]) for l in range(u))
        delivered = net.end_round({
            ("BA", l): ((de_b[j], beta_b, alphas) if l == j else None,
                        (v.a, v.b, w.a, w.b))
            for l, (v, w) in enumerate(vw_b[j])})
        for l in range(u):
            bundle, keys = fields(delivered.get(("BA", l)), 2)
            if l == j:
                fb[j] = bundle
            keys = as_field_vec(spec, keys, 4)
            keys_at_a[j][l] = (LinearKey(*keys[:2]), LinearKey(*keys[2:]))

    # sender parses the feedback
    de_a, beta_a, alpha_a = [], [], []
    for j in range(u):
        de, beta, alphas = fields(fb[j], 3)
        de_a.append(as_field_vec(spec, de, 2))
        beta_a.append(tuple(as_field_vec(spec, b, 2) for b in fields(beta, n)))
        alpha_a.append(tuple(as_field_vec(spec, t, 2) for t in fields(alphas, u)))

    def cross_ok(m: int, l: int) -> bool:
        """Do channel m's nonce tags verify under the keys channel l carried?"""
        return alpha_a[m][l] == tags(de_a[m], keys_at_a[m][l])

    # greedy partition of feedback channels into consistent classes
    classes: list[list[int]] = []
    for j in range(u):
        for cls in classes:
            if (beta_a[j] == beta_a[cls[0]] and
                    all(cross_ok(j, l) and cross_ok(l, j) for l in cls)):
                cls.append(j)
                break
        else:
            classes.append([j])

    # u delivery rounds, one candidate class per round
    accepted = b_result
    for l in range(u):
        cls = classes[l] if l < len(classes) else None
        if cls is not None:
            m = cls[0]
            good_p = [i for i in range(n)
                      if beta_a[m][i][1] == auth_quad(beta_a[m][i][0], quads_a[i])]
            t_l = len(good_p) + len(cls)
        if cls is None or t_l <= k:
            net.end_round({})
            continue
        c_a, d_a = _pad(spec, [(quads_a[i].a, quads_a[i].b) for i in good_p],
                        [de_a[j] for j in cls])
        # the tag covers only the padded message; a single linear
        # equation in (c_a, d_a) reveals nothing about the pad, while
        # tampered index lists change the receiver's key and fail the
        # check.  Tagging the (public) index lists under the same key
        # would hand the adversary equations that solve for the pad.
        tag = auth_linear(message + c_a, LinearKey(c_a, d_a))
        payload = (tuple(cls), tuple(good_p), message + c_a, tag)
        delivered = net.end_round({("AB", i): payload for i in good_p})
        if accepted is not None:
            continue
        for i in range(n):
            qs, ps, e_b, t_b = fields(delivered.get(("AB", i)), 4)
            qs, ps = set(as_indices(qs, u)), set(as_indices(ps, n))
            if len(qs) + len(ps) <= k:
                continue   # as the sender's rule: k keys may all be known
            e_b = as_field(spec, e_b)
            c_b, d_b = _pad(spec, [(quads_b[i2].a, quads_b[i2].b) for i2 in ps],
                            [de_b[j2] for j2 in qs])
            if verify(e_b, as_field(spec, t_b), LinearKey(c_b, d_b)):
                accepted = e_b - c_b
                break
    return finish(message, net, accepted,
                  "no acceptable feedback class delivered the message")
