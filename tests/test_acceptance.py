"""Acceptance gate: one test per release criterion, one printed line each.

Each test prints ``criterion N (<label>): PASS/FAIL`` with its elapsed
time so the gate can be read off a plain test log.
"""

import random
import time

import conftest
import sweep
from oracles import brute_force_separator, reaches

from psmt.field import GF
from psmt.netsim import AdversarySpec, PathNetwork, majority_of
from psmt.privacy import shared_rng_runner, view_distance
from psmt.protocols.directed import (
    feedback_efficient,
    oneway,
    single_feedback,
    subset_exchange,
)
from psmt.protocols.hypernet import hypergraph_private, neighbor_exchange
from psmt.randomness import Randomness, derive_trial_seed
from psmt.sharing import (
    CLEAN,
    CORRUPTED,
    ReceivedWord,
    SharingParams,
    correct_errors,
    detect_errors,
    oracle_decode,
    share,
)
from psmt.strategies import constant_replacer, random_tamperer, stop_forger
from psmt.topology import (
    Digraph,
    is_k_separable,
    k_connected,
    max_disjoint_paths,
    min_vertex_separator,
    neighbor_k_connected,
    to_hypergraph,
    weakly_k_connected,
    weakly_k_hyper_connected,
    weakly_nk_connected,
)
from psmt import fixtures, protocols


def _verdict(n: int, label: str, violations: list, started: float,
             budget: float) -> None:
    elapsed = time.time() - started
    ok = not violations and elapsed < budget
    line = (f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / budget {budget:.0f}s)")
    print(line)
    conftest.VERDICTS.append(line)
    assert elapsed < budget, f"criterion {n} exceeded budget: {elapsed:.1f}s"
    assert not violations, violations[:5]


# ---------------------------------------------------------------------------


def test_criterion_1_mds_bounds():
    started = time.time()
    violations = []
    spec = GF(7)
    for n in range(2, 7):
        for k in range(0, n):
            params = SharingParams(n, k, spec)
            rng = Randomness(("acc1", n, k))
            coin = random.Random(f"acc1-{n}-{k}")
            for _ in range(1000):
                secret = spec.sample(rng)
                cw = share(secret, params, rng)
                weight = coin.randrange(0, n + 1)
                positions = coin.sample(range(n), weight)
                entries = list(cw.shares)
                for pos in positions:
                    entries[pos] = spec.element(
                        (entries[pos].value + 1 + coin.randrange(6)) % 7)
                word = ReceivedWord(tuple(entries), params)

                status = detect_errors(word)
                if weight == 0 and status != CLEAN:
                    violations.append(("detect-clean", n, k))
                if 0 < weight <= params.max_detect and status != CORRUPTED:
                    violations.append(("detect-miss", n, k, weight))

                got = correct_errors(word, params.max_correct)
                if weight <= params.max_correct:
                    if got is None or got.secret != secret or \
                            got.error_positions != frozenset(positions):
                        violations.append(("correct", n, k, weight))
                elif weight <= n - k - params.max_correct - 1 and got is not None:
                    violations.append(("simultaneous-detect", n, k, weight))

                best = oracle_decode(word)
                if got is not None:
                    if not any(got.secret == s and d <= params.max_correct
                               for s, _, d in best):
                        violations.append(("oracle-parity", n, k, weight))
                elif len(best) == 1 and best[0][2] <= params.max_correct:
                    violations.append(("oracle-parity-none", n, k, weight))
    _verdict(1, "MDS correction/detection/oracle parity", violations,
             started, 30.0)


EFFICIENT_ROUNDS: list[tuple[int, int, int]] = []  # (k, u, rounds) from crit. 2


def _perfect_configs():
    """(label, registry entry, k, u, shared relay nodes); the one-feedback
    entries are labelled with u=1."""
    for k, u in ((2, 1), (2, 2), (3, 1), (3, 2)):
        yield "general", "perfect-general", k, u, False
        yield "efficient", "perfect-efficient", k, u, False
        yield "shared", "perfect-shared", k, u, True
    for k in (2, 3):
        yield "u1", "perfect-u1", k, 1, False
    for k in (1, 2, 3):
        yield "3k", "perfect-3k", k, 1, False


def test_criterion_2_perfect_protocols():
    started = time.time()
    violations = []
    for name, entry, k, u, shared in _perfect_configs():
        desc = protocols.get(entry)
        kw, units = sweep.on_channels(entry, k, u, shared)
        spec = GF(7) if desc.channels(k, u)[0] <= 6 else GF(11)
        rng = Randomness(("acc2", name, k, u))
        for corrupted in sweep.placements(units, range(1, k + 1)):
            for s, strategy in enumerate(sweep.fixed_strategies(spec)
                                         + [sweep.forge_echo]):
                m = spec.sample(rng)
                out = desc.run(m, adversary=AdversarySpec(corrupted, strategy, seed=s),
                               **kw)
                if not (out.succeeded and out.delivered == m):
                    violations.append((name, k, u, sorted(map(str, corrupted)), s))
                if name == "efficient":
                    EFFICIENT_ROUNDS.append((k, u, out.rounds))
    _verdict(2, "perfect protocols: zero failures over all placements",
             violations, started, 600.0)


def test_criterion_3_statistical_protocols():
    started = time.time()
    violations = []
    big = GF(2**16)
    duo = fixtures.get("duo")
    runs = [
        ("oneway", lambda m, a, s: oneway(m, 1, a, seed=s),
         frozenset({("AB", 0)})),
        ("single-feedback", lambda m, a, s: single_feedback(m, a, seed=s),
         frozenset({("AB", 0)})),
        # all-forward configuration: every (k+1)-subset has two forward
        # members whose copies must agree, so a lone corrupted channel
        # cannot forge at all; the mixed (2 fwd, 1 back) configuration
        # retains an irreducible ~1/|F| per-trial forgery chance through
        # its single-forward-member subset and is covered in unit tests
        ("subset-exchange",
         lambda m, a, s: subset_exchange(m, 1, 3, 0, a, seed=s),
         frozenset({("AB", 0)})),
        ("feedback-efficient",
         lambda m, a, s: feedback_efficient(m, 1, 1, a, seed=s),
         frozenset({("AB", 0)})),
        ("hyper-private",
         lambda m, a, s: hypergraph_private(m, duo, 1, a, seed=s),
         frozenset({"x"})),
        ("neighbor-exchange",
         lambda m, a, s: neighbor_exchange(m, a, seed=s),
         frozenset({"C"})),
    ]
    for name, run, corrupted in runs:
        rng = Randomness(("acc3", name))
        bad = 0
        for t in range(10**4):
            m = big.sample(rng)
            adv = AdversarySpec(corrupted, random_tamperer(big),
                                seed=derive_trial_seed(("acc3", name), t))
            out = run(m, adv, t)
            if not (out.succeeded and out.delivered == m):
                bad += 1
        if bad:
            violations.append((name, bad))

    # direction check: tag-forgery rate is visible at GF(7), smaller at GF(49)
    def forgery_rate(spec):
        bad = 0
        rng = Randomness(("acc3-dir", spec.order))
        for t in range(3000):
            m = spec.sample(rng)
            out = oneway(m, 1, AdversarySpec(frozenset({("AB", 0)}),
                                             random_tamperer(spec), seed=t),
                         seed=t)
            if not (out.succeeded and out.delivered == m):
                bad += 1
        return bad / 3000

    small, large = forgery_rate(GF(7)), forgery_rate(GF(49))
    if not (small > 0 and large < small):
        violations.append(("direction-check", small, large))
    _verdict(3, "statistical protocols: 0/10^4 failures at GF(2^16)",
             violations, started, 600.0)


def test_criterion_4_perfect_privacy():
    started = time.time()
    violations = []
    for label, name, kw, corrupted, q in sweep.PRIVATE_CASES:
        run = shared_rng_runner(protocols.get(name).run,
                                adversary=AdversarySpec(corrupted), **kw)
        spec = GF(q)
        m0, m1 = spec.element(0), spec.element(spec.order - 1)
        report = view_distance(run, m0, m1, limit=2_000_000)
        if not report.perfectly_private:
            violations.append((label, report.method, report.lower,
                               report.upper, report.note))
    _verdict(4, "exact view-distance 0 for every private protocol",
             violations, started, 600.0)


def test_criterion_5_split_simulation_attack():
    started = time.time()
    violations = []
    spec = GF(7)
    for k in (1, 2):
        m0, m1 = spec.element(1), spec.element(2)
        errors = 0
        for t in range(10**4):
            corrupted = frozenset(("AB", i) for i in range(k))
            net = PathNetwork(2 * k, 0,
                              AdversarySpec(corrupted, constant_replacer(m1)))
            delivered = net.end_round({("AB", i): m0 for i in range(2 * k)})
            got = majority_of([delivered[("AB", i)] for i in range(2 * k)],
                              Randomness(("acc5", k, t)))
            if got != m0:
                errors += 1
        rate = errors / 10**4
        if rate < 0.25:
            violations.append((k, rate))
    _verdict(5, "equal-split simulation defeats 2k-channel majority",
             violations, started, 60.0)


def test_criterion_6_menger_equivalence():
    started = time.time()
    violations = []
    rng = random.Random("acc6")
    for trial in range(500):
        n = rng.randrange(3, 9)
        nodes = ["A", "B"] + [f"v{i}" for i in range(n - 2)]
        edges = set()
        for a in nodes:
            for b in nodes:
                if a != b and not (a == "A" and b == "B") \
                        and rng.random() < 0.35:
                    edges.add((a, b))
        g = Digraph.build(nodes, edges, "A", "B")
        paths = max_disjoint_paths(g)
        sep = min_vertex_separator(g)
        # the brute-force oracle is the independent side of the equality
        want = brute_force_separator(g)
        if (want is None or len(paths) != len(want) or sep is None
                or len(sep) != len(want)
                or reaches(g.edges, g.sender, g.receiver, sep)):
            violations.append((trial, sorted(edges)))
    _verdict(6, "max disjoint paths == min vertex separator on 500 digraphs",
             violations, started, 60.0)


def test_criterion_7_figure_fixtures():
    started = time.time()
    violations = []
    checks = [
        ("fig1 2-connected", k_connected(fixtures.get("fig1"), 2), True),
        ("fig1 weakly-2-hyper",
         weakly_k_hyper_connected(fixtures.get("fig1"), 2), False),
        ("fig2 weakly-2-hyper",
         weakly_k_hyper_connected(fixtures.get("fig2"), 2), True),
        ("fig2 2-neighbor",
         neighbor_k_connected(fixtures.get("fig2"), 2), False),
        ("fig80 2-neighbor",
         neighbor_k_connected(fixtures.get("fig80"), 2), True),
        ("fig80 weakly-(2,1)",
         weakly_nk_connected(fixtures.get("fig80"), 2, 1)[0], False),
        ("fig5 2-separable",
         is_k_separable(fixtures.get("fig5"), 2)[0], False),
        ("fig5 weakly-2-connected",
         weakly_k_connected(fixtures.get("fig5"), 2), False),
        ("fig3 weakly-2-hyper",
         weakly_k_hyper_connected(fixtures.get("fig3"), 2), False),
        ("fig3 3 disjoint paths in the hypergraph",
         len(max_disjoint_paths(to_hypergraph(fixtures.get("fig3")))) >= 3,
         False),
        ("fig3 2-separable as hypergraph",
         is_k_separable(to_hypergraph(fixtures.get("fig3")), 2)[0], True),
    ]
    for label, got, want in checks:
        if got != want:
            violations.append((label, got, want))
    _verdict(7, "figure fixtures reproduce all stated connectivity facts",
             violations, started, 30.0)


def test_criterion_8_round_bounds():
    started = time.time()
    violations = []
    # perfect-efficient over every placement, recorded in criterion 2
    if not EFFICIENT_ROUNDS:
        violations.append(("no recorded rounds from criterion 2",))
    for k, u, rounds in EFFICIENT_ROUNDS:
        if rounds > protocols.get("perfect-efficient").round_bound(k, u):
            violations.append(("perfect-efficient", k, u, rounds))
    # every entry that declares a bound, at its declared channels for each
    # k <= 3, u <= k where it applies: passive, and with its first forward
    # channel forging stop verdicts
    big = GF(2**16)
    rng = Randomness("acc8")
    for name in protocols.names():
        desc = protocols.get(name)
        if desc.round_bound is None:
            continue
        seen = []
        for k in (1, 2, 3):
            for u in range(k + 1):
                if desc.channels(k, u) is None:
                    continue
                kw, _ = sweep.on_channels(name, k, u)
                if kw in seen:
                    continue
                seen.append(kw)
                for t in range(10):
                    for adversary in (None, AdversarySpec(frozenset({("AB", 0)}),
                                                          stop_forger(), seed=t)):
                        out = desc.run(big.sample(rng), adversary=adversary,
                                       seed=t, **kw)
                        if out.rounds > desc.round_bound(k, u):
                            violations.append((name, kw, adversary is None,
                                               out.rounds))
    _verdict(8, "round bounds of every entry that declares one", violations,
             started, 60.0)
