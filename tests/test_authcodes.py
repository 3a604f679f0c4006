"""One-time / two-time authentication codes and their exact security."""

import itertools

from psmt.authcodes import (
    LinearKey,
    QuadKey,
    auth_linear,
    auth_quad,
    verify,
)
from psmt.field import GF
from psmt.randomness import Randomness


def k_lin(spec, a, b):
    return LinearKey(spec.element(a), spec.element(b))


def k_quad(spec, a, b, c):
    return QuadKey(spec.element(a), spec.element(b), spec.element(c))


def test_linear_hand_examples():
    spec = GF(7)
    assert auth_linear(spec.element(3), k_lin(spec, 2, 4)).value == 3
    for m in range(7):
        assert auth_linear(spec.element(m), k_lin(spec, 0, 0)).value == 0
        assert auth_linear(spec.element(m), k_lin(spec, 1, 0)).value == m


def test_quad_hand_examples():
    spec = GF(7)
    assert auth_quad(spec.element(2), k_quad(spec, 1, 1, 1)).value == 0
    for m in range(7):
        assert auth_quad(spec.element(m), k_quad(spec, 0, 0, 0)).value == 0
    assert auth_quad(spec.element(0), k_quad(spec, 3, 5, 6)).value == 6


def test_verify_consistency():
    spec = GF(7)
    key = k_lin(spec, 2, 4)
    assert verify(spec.element(3), spec.element(3), key)
    assert not verify(spec.element(3), spec.element(4), key)
    assert not verify(spec.element(3), "garbage", key)


def test_one_time_secrecy_linear_exhaustive_gf5():
    # for every (M, tag), exactly |F| consistent keys, uniform in a
    spec = GF(5)
    for m in range(5):
        for tag in range(5):
            consistent = [
                (a, b) for a in range(5) for b in range(5)
                if auth_linear(spec.element(m), k_lin(spec, a, b)).value == tag]
            assert len(consistent) == 5
            assert sorted(a for a, _ in consistent) == list(range(5))


def test_two_time_secrecy_quad_exhaustive_gf5():
    # two observed (message, tag) pairs leave exactly |F| consistent keys,
    # and the tag of any third message is uniform over them, so forging a
    # third tag succeeds with probability exactly 1/|F|
    spec = GF(5)
    all_keys = [(a, b, c) for a in range(5) for b in range(5) for c in range(5)]
    for m1, m2 in itertools.combinations(range(5), 2):
        e1, e2 = spec.element(m1), spec.element(m2)
        for t1 in range(5):
            for t2 in range(5):
                consistent = [
                    k for k in all_keys
                    if (auth_quad(e1, k_quad(spec, *k)).value == t1
                        and auth_quad(e2, k_quad(spec, *k)).value == t2)]
                assert len(consistent) == 5
                for m3 in range(5):
                    if m3 in (m1, m2):
                        continue
                    tags = sorted(
                        auth_quad(spec.element(m3), k_quad(spec, *k)).value
                        for k in consistent)
                    assert tags == list(range(5))
                # component projections are uniform whenever neither
                # message is zero and the messages are not negatives
                if 0 not in (m1, m2) and (m1 + m2) % 5 != 0:
                    for slot in range(3):
                        assert sorted(k[slot] for k in consistent) == list(range(5))


def test_substitution_probability_exactly_one_over_field():
    # after seeing (M, tag), forging a tag for M' != M succeeds for exactly
    # |F| of the |F|^2 keys, whatever tag' the forger picks
    spec = GF(5)
    m, m_forged = spec.element(1), spec.element(3)
    for tag in range(5):
        for tag_forged in range(5):
            keys = [
                (a, b) for a in range(5) for b in range(5)
                if auth_linear(m, k_lin(spec, a, b)).value == tag]
            assert len(keys) == 5
            wins = sum(
                1 for a, b in keys
                if auth_linear(m_forged, k_lin(spec, a, b)).value == tag_forged)
            assert wins == 1  # success probability exactly 1/|F|


def test_random_keys_reproducible():
    spec = GF(7)
    k1 = LinearKey.random(spec, Randomness(9))
    k2 = LinearKey.random(spec, Randomness(9))
    assert k1 == k2
    q1 = QuadKey.random(spec, Randomness(9))
    q2 = QuadKey.random(spec, Randomness(9))
    assert q1 == q2
