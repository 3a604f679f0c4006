"""Tests of the benchmark's checkers and tracer.

    python3 -m pytest perfbench -q

Each checker must accept a right answer and reject a deliberately wrong
one; the tracer must put back every name it rebinds.
"""

import sys

import pytest

import run

run.import_psmt()

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, RefField  # noqa: E402
from psmt.field import GF  # noqa: E402
from psmt.sharing import (ReceivedWord, SharingParams, correct_errors,  # noqa: E402
                          detect_errors, oracle_decode, reconstruct)


# -- reference field --------------------------------------------------------


def test_ref_field_small_tables():
    gf4 = RefField(2, 2, (1, 1, 1))          # x^2 + x + 1
    assert gf4.mul(2, 2) == 3 and gf4.mul(2, 3) == 1 and gf4.add(2, 3) == 1
    gf9 = RefField(3, 2, (1, 0, 1))          # x^2 + 1, so x*x = -1 = 2
    assert gf9.mul(3, 3) == 2 and gf9.add(5, 7) == 0 and gf9.neg(5) == 7


@pytest.mark.parametrize("order", [7, 81, 2 ** 16])
def test_ref_field_inverses_and_distributivity(order):
    ref = RefField.of(GF(order))
    for a in (1, 2, order - 1, order // 3 + 1):
        assert ref.mul(a, ref.inv(a)) == 1
        b, c = (a * 5 + 3) % order, (a * 11 + 1) % order
        assert ref.mul(a, ref.add(b, c)) == ref.add(ref.mul(a, b), ref.mul(a, c))


# -- decoding ---------------------------------------------------------------


XS = [1, 2, 3, 4]
GF7 = RefField(7)
SHARES = [5, 0, 2, 4]                        # 3 + 2x at 1..4 over GF(7)


def test_check_shares_accepts_and_rejects():
    checks.check_shares(GF7, XS, SHARES, 3, 1)
    with pytest.raises(CheckFailed):
        checks.check_shares(GF7, XS, SHARES, 4, 1)     # secret off by one


def _psmt_decode(word, k):
    spec = GF(7)
    params = SharingParams(len(word), k, spec)
    rw = ReceivedWord(tuple(spec.element(v) for v in word), params)
    got = correct_errors(rw, params.max_correct)
    return {"detect": detect_errors(rw),
            "correct": None if got is None else (got.secret.value,
                                                 frozenset(got.error_positions)),
            "reconstruct": reconstruct(rw).value,
            "oracle": [(s.value, tuple(v.value for v in c), d)
                       for s, c, d in oracle_decode(rw)]}


def test_check_decode_accepts_psmt_and_rejects_wrong_answers():
    xs, word = XS, [3, 3, 5, 3]              # constant 3, one error at position 2
    out = _psmt_decode(word, 0)              # k = 0: radius 1 on n = 4
    checks.check_decode(GF7, xs, word, 0, 3, frozenset({2}), out)
    wrong = dict(out, correct=(4, frozenset({2})))
    with pytest.raises(CheckFailed):
        checks.check_decode(GF7, xs, word, 0, 3, frozenset({2}), wrong)
    with pytest.raises(CheckFailed):
        checks.check_decode(GF7, xs, word, 0, 3, frozenset({2}), dict(out, detect="clean"))
    with pytest.raises(CheckFailed):
        checks.check_decode(GF7, xs, word, 0, 3, frozenset({2}),
                            dict(out, reconstruct=out["reconstruct"] + 1))


# -- protocol views -----------------------------------------------------------


def test_check_view_locations():
    corrupted = frozenset({("AB", 0)})
    checks.check_view_locations([(0, ("AB", 0))], corrupted, False)
    with pytest.raises(CheckFailed):
        checks.check_view_locations([(0, ("AB", 1))], corrupted, False)
    checks.check_view_locations([(1, ("x", ("B",)))], frozenset({"x"}), True)
    with pytest.raises(CheckFailed):
        checks.check_view_locations([(1, ("A", ("B",)))], frozenset({"x"}), True)


class _View:
    def __init__(self, events):
        self.events = events
        self.public = []


def _pad(message, rng):
    r, _ = rng.draw(5)
    return _View([(0, "AB", GF(5).element((message.value + r) % 5))])


def _leaky(message, rng):
    r, _ = rng.draw(5)
    return _View([(0, "AB", GF(5).element(r)), (1, "AB", message)])


def _swapped(message, rng):
    """The pad's view with its two halves swapped for message 1 only."""
    r, _ = rng.draw(5)
    pair = [(0, "AB", GF(5).element(r)), (1, "AB", GF(5).element((message.value + r) % 5))]
    return _View(pair[::-1] if message.value == 1 else pair)


def test_enumerated_view_distance():
    m0, m1 = GF(5).element(0), GF(5).element(1)
    dist = {run_: checks.l1_distance(checks.view_distribution(run_, m0, 100),
                                     checks.view_distribution(run_, m1, 100))
            for run_ in (_pad, _leaky, _swapped)}
    assert dist[_pad] == 0
    assert dist[_leaky] == 2
    assert dist[_swapped] > 0                # a swapped view is not the same view


def test_view_distribution_follows_value_dependent_draws():
    def run_(message, rng):
        first, _ = rng.draw(2)
        second = rng.draw(3)[0] if first else None
        return _View([(0, "AB", (first, second))])

    dist = checks.view_distribution(run_, GF(5).element(0), 100)
    assert len(dist) == 4 and dist[((0, "AB", (0, None)),), ()] == checks.Fraction(1, 2)


# -- graphs -------------------------------------------------------------------


DIAMOND = ({"A", "B", "c", "d", "e"},
           {("A", "c"), ("A", "d"), ("c", "B"), ("d", "e"), ("e", "B")})


def test_check_menger():
    nodes, links = DIAMOND
    paths = [("A", "c", "B"), ("A", "d", "e", "B")]
    checks.check_menger(nodes, links, "A", "B", paths, ("c", "d"))
    with pytest.raises(CheckFailed):         # a non-separating "separator"
        checks.check_menger(nodes, links, "A", "B", paths, ("d", "e"))
    with pytest.raises(CheckFailed):         # paths sharing a node
        checks.check_menger(nodes, links | {("c", "e")}, "A", "B",
                            [("A", "c", "B"), ("A", "c", "e", "B")], ("c", "d"))
    with pytest.raises(CheckFailed):         # sizes differ
        checks.check_menger(nodes, links, "A", "B", paths[:1], ("c", "d"))


def test_check_separable():
    nodes, links = DIAMOND
    checks.check_separable(links, "A", "B", 2, True, ("c", "e"), None)
    with pytest.raises(CheckFailed):
        checks.check_separable(links, "A", "B", 2, True, ("c",), None)
    paths = [("A", "c", "B"), ("A", "d", "e", "B")]
    checks.check_separable(links, "A", "B", 1, False, None, paths)
    with pytest.raises(CheckFailed):         # two paths cannot certify k = 2
        checks.check_separable(links, "A", "B", 2, False, None, paths)


def test_reference_flow_and_connectivity():
    nodes, links = DIAMOND
    assert checks.max_flow_paths(nodes, links, "A", "B") == 2
    edges = [("A", {"c", "d"}), ("c", {"B"}), ("d", {"B"})]
    assert checks.hyper_k_connected(nodes, edges, "A", "B", 1, True)
    assert not checks.hyper_k_connected(nodes, edges, "A", "B", 2, True)


# -- the op cache -------------------------------------------------------------


def test_op_rejects_an_output_that_changes_between_rounds():
    outputs = iter([1, 1, 2])
    op = workloads.Op("toy", "toy", lambda: (next(outputs), 0.0),
                      digest=lambda out: out, verify=lambda d: True)
    assert op.check(op.run()[0]) and op.check(op.run()[0])
    with pytest.raises(CheckFailed):
        op.check(op.run()[0])


def test_analyze_inputs_follow_the_seed():
    def labels_and_graphs(seed):
        return [(op.label, op.run()[0][0].paths) for op in
                workloads.build_analyze(workloads.analyze_inputs(seed),
                                        workloads.Hooks())[:6]]

    assert labels_and_graphs(3) == labels_and_graphs(3)
    assert labels_and_graphs(3) != labels_and_graphs(4)


# -- tracer -------------------------------------------------------------------


def _snapshot():
    state = {}
    for name, module in list(sys.modules.items()):
        if name == "psmt" or name.startswith("psmt."):
            for key, value in vars(module).items():
                state[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        state[(name, key, attr)] = member
    return state


def test_tracer_restores_every_name_it_rebinds():
    import psmt.protocols.perfect as perfect
    import psmt.sharing as sharing
    from psmt.field import FieldElement

    before = _snapshot()
    original = sharing.correct_errors
    t = tracer.Tracer()
    t.install()
    try:
        assert perfect.correct_errors is not original
        assert perfect.correct_errors is sharing.correct_errors
        assert FieldElement.__add__ is not before[("psmt.field", "FieldElement", "__add__")]
        spec = GF(7)
        params = SharingParams(4, 0, spec)
        word = ReceivedWord(tuple(spec.element(v) for v in (3, 3, 5, 3)), params)
        assert perfect.correct_errors(word, 1).secret.value == 3
        assert t.calls["sharing.correct_errors"] == 1
        assert t.calls["field.elem_ops"] > 0
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert not t.missing


def test_tail_reports_a_percentile_with_ten_samples_beyond():
    value, label, beyond = run.tail(list(range(1000)))
    assert (label, beyond) == ("p99", 10) and value == 989
    assert run.tail(list(range(50)))[1] == "p90"


def test_metric_names_and_units_match_benchmark_json():
    import json
    from collections import defaultdict

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    r = run.Rounds()
    r.busy, r.raw_busy, r.times, r.done = [1.0], [1.0], [0.5, 0.5], 2
    r.per_op = {0: [0.5], 1: [0.5]}
    ops = [workloads.Op("a", "a", None, None, None), workloads.Op("b", "b", None, None, None)]
    e2e, _ = run.end_to_end(ops, r, [1.0], workloads.Hooks())
    layers = run.per_layer(tracer.Tracer(), 1, defaultdict(float), {}, 0.0, 1.0)
    for emitted, listed in ((e2e, bench["end_to_end"]), (layers, bench["per_layer"])):
        assert {name: unit for name, (_, unit) in emitted.items()} == \
            {m["name"]: m["unit"] for m in listed}
