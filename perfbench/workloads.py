"""The four workloads: seeded lists of operations on psmt's public functions.

Each workload has an inputs function, which makes every input from the
seed as plain data, and a builder, the timed set-up, which turns those
inputs into psmt objects and a list of ``Op``.  An op's ``run`` times only
the calls into psmt and returns what they returned; ``digest`` reduces that output to plain values, and ``verify``
checks a digest against the reference computations in ``checks``.  Every
round replays the same list, so the harness verifies an op's first digest
in full and requires later rounds to reproduce it exactly.

Builders import psmt's names when they run, not when this module loads,
and hand them to the ops they make: a traced set-up runs after the tracer
has rebound those names, so its ops call the tracer's wrappers.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

import checks
from checks import CheckFailed, RefField, require

clock = time.perf_counter

PASSED, FAILED = True, False


@dataclass
class Op:
    label: str
    group: str                                  # registry entry or op kind
    run: Callable[[], tuple[Any, float]]        # -> (output, seconds in psmt)
    digest: Callable[[Any], Any]                # output -> plain values
    verify: Callable[[Any], bool]               # digest -> PASSED / FAILED
    tally: Callable[[Any], dict] = lambda d: {}  # digest -> additive counts
    calls: int = 1                              # psmt calls the benchmark makes
    checked: tuple | None = dc_field(default=None)

    def check(self, out) -> bool:
        """PASSED or FAILED for this output; raises CheckFailed if wrong."""
        d = self.digest(out)
        if self.checked is None:
            self.checked = (d, self.verify(d))
        elif d != self.checked[0]:
            raise CheckFailed(f"{self.label}: output differs from the verified round")
        return self.checked[1]


class Hooks:
    """What the benchmark runs around its own calls into a layer.

    With a tracer these are spans.  The privacy runner always counts its
    replays and, when given ``tick``, lets the harness sample the machine's
    speed between replays.
    """

    def __init__(self, tracer=None, tick=None):
        self.tracer = tracer
        self.tick = tick
        self.replays = 0

    def protocol(self, func):
        return self.tracer.span("protocols", func) if self.tracer else func

    def strategy(self, func):
        if self.tracer and func is not None:
            return self.tracer.span("strategies.tamper", func)
        return func

    def replay(self, run):
        if self.tracer:
            run = self.tracer.span("privacy.replay", run)

        def counted(message, rng):
            self.replays += 1
            if self.tick:
                self.tick()
            return run(message, rng)

        return counted


class DrawSource:
    """Seeded uniform draws behind psmt's ``rng.draw(n)`` interface."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def draw(self, n: int):
        return self._rng.randrange(n), None


def duo_graph():
    """Multicast network A -> B directly and through relays x and y, both ways."""
    from psmt.topology import Hypergraph
    return Hypergraph.build(
        "ABxy",
        [("A", {"B"}), ("A", {"x"}), ("A", {"y"}),
         ("x", {"B"}), ("y", {"B"}),
         ("B", {"A"}), ("B", {"x"}), ("B", {"y"}),
         ("x", {"A"}), ("y", {"A"})],
        "A", "B")


# ---------------------------------------------------------------------------
# decode: criterion 1's grid over GF(7) plus (10, 3) codes over big fields


DECODE_GRID = [(7, n, k, w) for n in range(2, 7) for k in range(n) for w in range(n + 1)]
DECODE_GRID += [(q, 10, 3, w) for q in (65536, 81) for w in range(11) for _ in range(2)]


def decode_inputs(seed: int) -> list:
    """Per word: (q, n, k, secret, draw seed, error positions, error values)."""
    rng = random.Random(f"decode-{seed}")
    words = []
    for q, n, k, w in DECODE_GRID:
        secret = rng.randrange(q)
        draw_seed = rng.getrandbits(64)
        positions = frozenset(rng.sample(range(n), w))
        errors = {p: rng.randrange(1, q) for p in sorted(positions)}
        words.append((q, n, k, secret, draw_seed, positions, errors))
    return words


def build_decode(words, hooks: Hooks) -> list[Op]:
    from psmt.field import FieldSpec
    from psmt.sharing import (ReceivedWord, SharingParams, correct_errors,
                              detect_errors, oracle_decode, reconstruct, share)

    fields = {q: FieldSpec(q) for q in (7, 65536, 81)}
    api = (share, ReceivedWord, detect_errors, correct_errors, reconstruct, oracle_decode)
    ops = []
    for q, n, k, secret, draw_seed, positions, errors in words:
        spec = fields[q]
        params = SharingParams(n, k, spec)
        ops.append(_decode_op(
            f"decode GF({q}) n={n} k={k} w={len(positions)}", spec, RefField.of(spec),
            params, [pt.value for pt in params.points], secret, draw_seed, positions,
            errors, q == 7, api))
    return ops


def _decode_op(label, spec, ref, params, xs, secret, draw_seed, positions,
               errors, with_oracle, api) -> Op:
    share, ReceivedWord, detect_errors, correct_errors, reconstruct, oracle_decode = api
    k = params.k

    def run():
        src = DrawSource(draw_seed)
        secret_el = spec.element(secret)
        t0 = clock()
        cw = share(secret_el, params, src)
        t1 = clock()
        entries = list(cw.shares)
        for pos, err in errors.items():
            entries[pos] = spec.element(ref.add(entries[pos].value, err))
        word = ReceivedWord(tuple(entries), params)
        t2 = clock()
        status = detect_errors(word)
        got = correct_errors(word, params.max_correct)
        rec = reconstruct(word)
        best = oracle_decode(word) if with_oracle else None
        t3 = clock()
        return (cw, word, status, got, rec, best), (t1 - t0) + (t3 - t2)

    def digest(out):
        cw, word, status, got, rec, best = out
        return (tuple(e.value for e in cw.shares),
                tuple(e.value for e in word.entries),
                status,
                None if got is None else (got.secret.value, frozenset(got.error_positions)),
                rec.value,
                None if best is None else tuple(
                    (s.value, tuple(v.value for v in c), d) for s, c, d in best))

    def verify(d):
        shares, word, status, got, rec, best = d
        checks.check_shares(ref, xs, shares, secret, k)
        require(list(word) == [ref.add(s, errors.get(i, 0)) for i, s in enumerate(shares)],
                "received word is not the corrupted codeword")
        checks.check_decode(ref, xs, word, k, secret, positions, {
            "detect": status, "correct": got, "reconstruct": rec,
            "oracle": None if best is None else list(best)})
        return PASSED

    return Op(label, "decode", run, digest, verify, calls=5 if with_oracle else 4)


# ---------------------------------------------------------------------------
# simulate: every registry entry at GF(2^16), as ``psmt simulate`` runs a trial


def _channel_units(n_forward, n_backward, shared=0):
    units = [frozenset({("AB", i)}) for i in range(n_forward - shared)]
    if shared:
        units += [frozenset({("AB", n_forward - shared + j), ("BA", j)})
                  for j in range(shared)]
    else:
        units += [frozenset({("BA", j)}) for j in range(n_backward)]
    return units


def _placements(units, k):
    for size in range(1, k + 1):
        for combo in itertools.combinations(units, size):
            yield frozenset().union(*combo)


STATISTICAL_TRIALS = 3   # criterion-3 trials per statistical entry and round


def _simulate_entries(duo):
    """(entry, keyword arguments, k, u, corruption units); the statistical
    entries keep criterion 3's single placement."""
    return [
        ("perfect-oneway", {"k": 1}, 1, 0, _channel_units(4, 0)),
        ("perfect-3k", {"k": 1}, 1, 1, _channel_units(3, 1)),
        ("perfect-u1", {"k": 2}, 2, 1, _channel_units(5, 1)),
        ("perfect-general", {"k": 2, "u": 1}, 2, 1, _channel_units(5, 1)),
        ("perfect-efficient", {"k": 1, "u": 1}, 1, 1, _channel_units(3, 1)),
        ("perfect-shared", {"k": 1, "u": 1}, 1, 1, _channel_units(3, 1, shared=1)),
        ("hyper-reliable", {"graph": duo, "k": 1}, 1, 0,
         [frozenset({"x"}), frozenset({"y"})]),
        ("oneway", {"k": 1}, 1, 0, [frozenset({("AB", 0)})]),
        ("single-feedback", {}, 1, 1, [frozenset({("AB", 0)})]),
        ("subset-exchange", {"k": 1, "n_forward": 3, "n_backward": 0}, 1, 0,
         [frozenset({("AB", 0)})]),
        ("feedback-efficient", {"k": 1, "u": 1}, 1, 1, [frozenset({("AB", 0)})]),
        ("hyper-private", {"graph": duo, "k": 1}, 1, 0, [frozenset({"x"})]),
        ("neighbor-exchange", {}, 1, 0, [frozenset({"C"})]),
    ]


FIXED_STRATEGIES = 5   # shift, random, junk, stop, constant 0


def simulate_inputs(seed: int) -> list:
    """Per run: (entry, label, corrupted, strategy, message, protocol seed,
    adversary seed); strategy is None, "random" or a fixed-strategy index."""
    from psmt import protocols
    from psmt.randomness import Randomness, derive_trial_seed

    rng = random.Random(f"simulate-{seed}")
    runs = []
    for name, _, k, _, units in _simulate_entries(None):
        for label, strategy in (("passive", None), ("random", "random")):
            s = (seed, len(runs))
            runs.append((name, label, units[0], strategy, rng.randrange(65536), s, s))
        if protocols.get(name).perfectly_reliable:
            for corrupted in _placements(units, k):
                for i in range(FIXED_STRATEGIES):
                    s = (seed, len(runs))
                    runs.append((name, f"fixed{i}", corrupted, i, rng.randrange(65536), s, s))
        else:
            # criterion 3's messages and seeds, on which 0 of 10^4 runs fail
            trials = sorted(rng.sample(range(10 ** 4), STATISTICAL_TRIALS))
            stream = Randomness(("acc3", name))
            drawn = [stream.draw(65536)[0] for _ in range(trials[-1] + 1)]
            for t in trials:
                runs.append((name, f"acc3-{t}", units[0], "random", drawn[t], t,
                             derive_trial_seed(("acc3", name), t)))
    return runs


def build_simulate(runs, hooks: Hooks) -> list[Op]:
    from psmt import protocols, strategies
    from psmt.field import FieldSpec
    from psmt.netsim import AdversarySpec

    spec = FieldSpec(65536)
    entries = {e[0]: e for e in _simulate_entries(duo_graph())}
    require(sorted(entries) == protocols.names(), "simulate must cover every registry entry")
    fixed = [strategies.shift_tamperer(), strategies.random_tamperer(spec),
             strategies.format_corruptor(), strategies.stop_forger(),
             strategies.constant_replacer(spec.element(0))]
    ops = []
    for name, label, corrupted, strategy, message, pseed, aseed in runs:
        _, kw, k, u, _ = entries[name]
        desc = protocols.get(name)
        if strategy == "random":
            strategy = strategies.random_tamperer(spec)
        elif strategy is not None:
            strategy = fixed[strategy]
        ops.append(_simulate_op(
            f"{name} {label} {sorted(map(str, corrupted))}", name,
            hooks.protocol(desc.run), kw, spec, message, corrupted,
            hooks.strategy(strategy), pseed, aseed,
            desc.round_bound(k, u) if desc.round_bound else None,
            desc.kind != "channels", AdversarySpec))
    return ops


def _simulate_op(label, name, run_entry, kw, spec, message, corrupted, strategy,
                 pseed, aseed, bound, graph_kind, AdversarySpec) -> Op:
    def run():
        msg = spec.element(message)
        t0 = clock()
        out = run_entry(msg, adversary=AdversarySpec(corrupted, strategy, seed=aseed),
                        seed=pseed, **kw)
        return out, clock() - t0

    def digest(out):
        return (None if out.delivered is None else out.delivered.value,
                out.succeeded, out.rounds,
                tuple((r, w) for r, w, _ in out.view.events),
                len(out.transcript))

    def verify(d):
        delivered, succeeded, rounds, events, _ = d
        require(delivered == message and succeeded, f"{label}: message not delivered")
        if bound is not None:
            require(rounds <= bound, f"{label}: {rounds} rounds exceed bound {bound}")
        checks.check_view_locations(events, corrupted, graph_kind)
        return PASSED

    return Op(label, name, run, digest, verify, tally=lambda d: {"messages": d[4]})


# ---------------------------------------------------------------------------
# privacy: view_distance with ``psmt privacy`` defaults on criterion-4 cases


# (label, entry, keyword arguments, corrupted, field order, verdict, small)
# A "private" case needs a certified distance 0 and counts as failed when
# the analyzer falls back to sampling, as neighbor-exchange at GF(3) does
# today; the "cleartext" control needs an exact 2.  ``small`` cases are
# also checked by enumerating every draw sequence.  oneway, hyper-private
# and feedback-efficient fwd take 28-98 s each and are left out.
PRIVACY_CASES = [
    ("single-feedback fwd", "single-feedback", {}, {("AB", 0)}, 5, "private", True),
    ("single-feedback back", "single-feedback", {}, {("BA", 0)}, 5, "private", True),
    ("subset-exchange fwd", "subset-exchange",
     {"k": 1, "n_forward": 2, "n_backward": 1}, {("AB", 0)}, 5, "private", False),
    ("subset-exchange back", "subset-exchange",
     {"k": 1, "n_forward": 2, "n_backward": 1}, {("BA", 0)}, 5, "private", False),
    ("feedback-efficient back", "feedback-efficient", {"k": 1, "u": 1},
     {("BA", 0)}, 5, "private", False),
    ("perfect-oneway", "perfect-oneway", {"k": 1}, {("AB", 0)}, 5, "private", True),
    ("perfect-3k fwd", "perfect-3k", {"k": 1}, {("AB", 0)}, 5, "private", True),
    ("perfect-3k back", "perfect-3k", {"k": 1}, {("BA", 0)}, 5, "private", True),
    ("perfect-u1", "perfect-u1", {"k": 2}, {("AB", 0), ("BA", 0)}, 7, "private", False),
    ("perfect-general", "perfect-general", {"k": 2, "u": 1},
     {("AB", 0), ("BA", 0)}, 7, "private", False),
    ("perfect-efficient", "perfect-efficient", {"k": 1, "u": 1}, {("AB", 0)}, 5,
     "private", True),
    ("perfect-shared", "perfect-shared", {"k": 1, "u": 1}, {("AB", 2), ("BA", 0)}, 5,
     "private", True),
    ("neighbor-exchange C", "neighbor-exchange", {}, {"C"}, 2, "private", True),
    ("neighbor-exchange F", "neighbor-exchange", {}, {"F"}, 2, "private", False),
    ("neighbor-exchange C GF(3)", "neighbor-exchange", {}, {"C"}, 3, "private", False),
    ("hyper-reliable x", "hyper-reliable", {"graph": "duo", "k": 1}, {"x"}, 5,
     "cleartext", True),
]

PRIVACY_LIMIT = 200_000       # ``psmt privacy --limit`` default
ENUMERATION_RUNS = 10_000     # cap on brute-force runs per message


def privacy_inputs(seed: int) -> list:
    """Per case: the messages 0 and q-1, as criterion 4 takes them, and the
    analyzer seed.  Seeded messages would move the op costs by up to 15%."""
    rng = random.Random(f"privacy-{seed}")
    return [(0, case[4] - 1, rng.randrange(2 ** 31)) for case in PRIVACY_CASES]


def build_privacy(inputs, hooks: Hooks) -> list[Op]:
    from psmt import protocols
    from psmt.field import FieldSpec
    from psmt.netsim import AdversarySpec
    from psmt.privacy import shared_rng_runner, view_distance

    fields = {q: FieldSpec(q) for q in (2, 3, 5, 7)}
    duo = duo_graph()
    ops = []
    for (label, name, kw, corrupted, q, verdict, small), (m0, m1, case_seed) in zip(
            PRIVACY_CASES, inputs):
        kw = {key: duo if value == "duo" else value for key, value in kw.items()}
        runner = shared_rng_runner(protocols.get(name).run,
                                   adversary=AdversarySpec(frozenset(corrupted)),
                                   seed=case_seed, **kw)
        ops.append(_privacy_op(label, runner, hooks, fields[q], m0, m1, case_seed,
                               verdict, small, view_distance))
    return ops


def _privacy_op(label, runner, hooks, spec, m0, m1, case_seed, verdict, small,
                view_distance) -> Op:
    counted = hooks.replay(runner)

    def run():
        e0, e1 = spec.element(m0), spec.element(m1)
        before = hooks.replays
        t0 = clock()
        report = view_distance(counted, e0, e1, seed=case_seed, limit=PRIVACY_LIMIT)
        elapsed = clock() - t0
        return (report, hooks.replays - before), elapsed

    def digest(out):
        report, replays = out
        return (report.method, report.lower, report.upper, report.components,
                tuple(report.component_tv), report.samples, replays)

    def verify(d):
        method, lower, upper, _, _, _, replays = d
        require(replays >= 1, f"{label}: the analyzer never ran the protocol")
        certified = method != "monte-carlo"
        if certified:
            require(0.0 <= lower <= upper <= 2.0, f"{label}: malformed bounds")
        if verdict == "cleartext":
            require(certified and lower == upper == 2.0,
                    f"{label}: a cleartext protocol was not found fully distinguishable")
        elif certified:
            require(upper == 0.0, f"{label}: a private protocol got distance {upper}")
        if small:
            d0 = checks.view_distribution(runner, spec.element(m0), ENUMERATION_RUNS)
            d1 = checks.view_distribution(runner, spec.element(m1), ENUMERATION_RUNS)
            want = 2 if verdict == "cleartext" else 0
            require(checks.l1_distance(d0, d1) == want,
                    f"{label}: enumerated view distance differs from {want}")
        return PASSED if certified else FAILED

    def tally(d):
        return {"certifications": 1, "certified": int(d[0] != "monte-carlo"),
                "mc_samples": d[5]}

    return Op(label, "privacy", run, digest, verify, tally=tally, calls=1)


# ---------------------------------------------------------------------------
# analyze: Menger pairs on seeded digraphs, predicates on fixtures


# digraphs per round: one per (nodes, connectivity) pair
DIGRAPH_SHAPES = [(n, d) for n in range(8, 17) for d in (2, 3, 4)]


def seeded_digraph(rng: random.Random, n: int, d: int):
    """Nodes, links of a random digraph whose sender->receiver connectivity is d.

    The sender has exactly d successors and the receiver d predecessors;
    the n-2 inner nodes get a fixed count of random links among
    themselves, and graphs without d disjoint paths are drawn again.  The
    sender's successors are numbered first, so the first d-set a
    smallest-first separator search meets is a minimum separator: its cost
    is fixed by (n, d) and not by the seed.
    """
    inner = [f"v{i:02d}" for i in range(n - 2)]
    pairs = [(a, b) for a in inner for b in inner if a != b]
    count = len(pairs) // 4
    while True:
        links = {("A", v) for v in inner[:d]}
        links |= {(v, "B") for v in rng.sample(inner, d)}
        links |= set(rng.sample(pairs, count))
        nodes = ["A", "B"] + inner
        if checks.max_flow_paths(nodes, links, "A", "B") == d:
            return nodes, links


def analyze_inputs(seed: int) -> list:
    """Per digraph: (n, d, nodes, links)."""
    rng = random.Random(f"analyze-{seed}")
    return [(n, d, *seeded_digraph(rng, n, d)) for n, d in DIGRAPH_SHAPES]


def build_analyze(digraphs, hooks: Hooks) -> list[Op]:
    from psmt import fixtures, topology
    from psmt.topology import Digraph

    ops = [_digraph_op(f"digraph n={n} d={d}", Digraph.build(nodes, links, "A", "B"),
                       topology)
           for n, d, nodes, links in digraphs]
    for name, g in (("fig5", fixtures.get("fig5")), ("duo", duo_graph())):
        for k in (1, 2):
            ops.append(_hypergraph_op(f"{name} k={k}", name, g, k, topology))
    for name in ("fig1", "fig2", "fig3", "fig80", "fig009"):
        for k in (1, 2):
            ops.append(_neighbor_op(f"{name} k={k}", name, fixtures.get(name), k, topology))
    return ops


def _digraph_op(label, g, topology) -> Op:
    def run():
        t0 = clock()
        paths = topology.max_disjoint_paths(g)
        sep = topology.min_vertex_separator(g)
        return (paths, sep), clock() - t0

    def digest(out):
        paths, sep = out
        return (tuple(paths.paths), None if sep is None else tuple(sorted(sep)))

    def verify(dg):
        paths, sep = dg
        checks.check_menger(g.nodes, g.edges, g.sender, g.receiver, paths, sep)
        return PASSED

    return Op(label, "digraph", run, digest, verify, calls=2)


# criterion 7's fixture facts: (fixture, k) -> {question: answer}
FIXTURE_FACTS = {
    ("fig1", 2): {"k_connected": True, "weakly_k_hyper_connected": False},
    ("fig2", 2): {"weakly_k_hyper_connected": True, "k_neighbor_connected": False},
    ("fig80", 2): {"k_neighbor_connected": True, "weakly_nk_connected": False},
    ("fig3", 2): {"weakly_k_hyper_connected": False, "separable": True,
                  "three_paths": False},
    ("fig5", 1): {"separable": False},
    ("fig5", 2): {"weakly_k_connected": False},
}


def _hypergraph_op(label, name, h, k, topology) -> Op:
    def run():
        t0 = clock()
        sep, witness = topology.is_k_separable(h, 2 * k)
        strong = topology.strongly_k_connected(h, k)
        weak = topology.weakly_k_connected(h, k)
        paths = topology.max_disjoint_paths(h)
        return (sep, witness, strong, weak, paths), clock() - t0

    def digest(out):
        sep, witness, strong, weak, paths = out
        return (sep, None if witness is None else tuple(sorted(witness)),
                strong, weak, tuple(paths.paths))

    def verify(d):
        sep, witness, strong, weak, paths = d
        links = h.direct_links()
        checks.check_separable(links, h.sender, h.receiver, 2 * k, sep, witness, paths)
        for got, directed in ((strong, True), (weak, False)):
            require(got == checks.hyper_k_connected(h.nodes, h.hyperedges, h.sender,
                                                    h.receiver, k, directed),
                    f"{label}: {'strong' if directed else 'weak'} connectivity is wrong")
        facts = FIXTURE_FACTS.get((name, k), {})
        if "separable" in facts:
            require(sep == facts["separable"], f"{label}: separability fact")
        if "weakly_k_connected" in facts:
            require(weak == facts["weakly_k_connected"], f"{label}: weak connectivity fact")
        return PASSED

    return Op(label, "hypergraph", run, digest, verify, calls=4)


def _neighbor_op(label, name, g, k, topology) -> Op:
    h = topology.to_hypergraph(g)

    def run():
        t0 = clock()
        hierarchy = topology.connectivity_hierarchy(g, k)
        sep, witness = topology.is_k_separable(h, k)
        paths = topology.max_disjoint_paths(h)
        return (hierarchy, sep, witness, paths), clock() - t0

    def digest(out):
        hierarchy, sep, witness, paths = out
        return (tuple(sorted(hierarchy.items())), sep,
                None if witness is None else tuple(sorted(witness)), tuple(paths.paths))

    def verify(d):
        hierarchy, sep, witness, paths = d
        hierarchy = dict(hierarchy)
        links = h.direct_links()
        undirected = {(a, b) for e in g.edges for a in e for b in e if a != b}
        checks.check_separable(links, h.sender, h.receiver, k, sep, witness, paths)
        require(hierarchy["k_connected"] ==
                (checks.max_flow_paths(g.nodes, undirected, g.sender, g.receiver) >= k),
                f"{label}: k-connectivity is wrong")
        require(hierarchy["weakly_k_hyper_connected"] ==
                checks.hyper_k_connected(h.nodes, h.hyperedges, h.sender, h.receiver,
                                         k, False),
                f"{label}: weak hyper-connectivity is wrong")
        chain = ["weakly_nk_connected", "k_neighbor_connected",
                 "weakly_k_hyper_connected", "k_connected"]
        for stronger, weaker in zip(chain, chain[1:]):
            require(not hierarchy[stronger] or hierarchy[weaker],
                    f"{label}: {stronger} without {weaker}")
        facts = FIXTURE_FACTS.get((name, k), {})
        for key, want in facts.items():
            if key == "separable":
                require(sep == want, f"{label}: separability fact")
            elif key == "three_paths":
                require((len(paths) >= 3) == want, f"{label}: disjoint path fact")
            else:
                require(hierarchy[key] == want, f"{label}: {key} fact")
        return PASSED

    return Op(label, "neighbor", run, digest, verify, calls=3)


# name -> (inputs from the seed, set-up from the inputs, warm-up rounds,
# set-ups measured per run)
WORKLOADS = {
    "decode": (decode_inputs, build_decode, 1, 3),
    "simulate": (simulate_inputs, build_simulate, 1, 3),
    "privacy": (privacy_inputs, build_privacy, 0, 21),
    "analyze": (analyze_inputs, build_analyze, 1, 21),
}
