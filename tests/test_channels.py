"""Each channel construction's channels are declared once, in
``psmt.protocols.common.CHANNELS``: every entry point builds or checks
its network from that declaration, refuses where it does not apply, and
README's channel column states the same counts."""

import inspect
import pathlib
import re

import pytest

import sweep

from psmt import protocols, strategies
from psmt.errors import PreconditionError
from psmt.field import GF
from psmt.netsim import AdversarySpec, PathNetwork
from psmt.protocols import common, perfect
from psmt.protocols.common import CHANNELS
from psmt.protocols.directed import oneway, subset_exchange

SPEC = GF(11)
CHANNEL_ENTRIES = sorted(CHANNELS)
README = pathlib.Path(__file__).parent.parent / "README.md"


def _configs(name):
    """Every (k, u) with k <= 3 and u <= k at which ``name`` applies."""
    return [(k, u) for k in (1, 2, 3) for u in range(k + 1)
            if protocols.get(name).channels(k, u) is not None]


def test_declarations_and_channel_entries_agree():
    assert CHANNEL_ENTRIES == [name for name in protocols.names()
                               if protocols.get(name).kind == "channels"]
    for name in protocols.names():
        desc = protocols.get(name)
        assert (desc.channels is None) == (desc.kind != "channels"), name
        if desc.channels is not None:
            assert desc.channels is CHANNELS[name]


@pytest.mark.parametrize("name", CHANNEL_ENTRIES)
def test_every_entry_builds_exactly_its_declared_network(monkeypatch, name):
    built = []

    class Recorded(PathNetwork):
        def __init__(self, n_forward, n_backward, adversary=None):
            built.append((n_forward, n_backward))
            super().__init__(n_forward, n_backward, adversary)

    monkeypatch.setattr(common, "PathNetwork", Recorded)
    desc = protocols.get(name)
    assert _configs(name), name
    for k, u in _configs(name):
        kw, _ = sweep.on_channels(name, k, u)
        built.clear()
        out = desc.run(SPEC.element(3), seed=1, **kw)
        assert out.succeeded, (name, k, u)
        assert built == [desc.channels(k, u)], (name, k, u)


def test_one_forward_channel_below_the_minimum_is_refused():
    m = SPEC.element(2)
    for k in (1, 2, 3):
        least = CHANNELS["oneway"](k, None)[0]
        assert oneway(m, k, n_forward=least, seed=0).succeeded
        with pytest.raises(PreconditionError):
            oneway(m, k, n_forward=least - 1)
        for u in range(k + 2):
            least, n_backward = CHANNELS["subset-exchange"](k, u)
            assert subset_exchange(m, k, least, n_backward, seed=0).succeeded
            with pytest.raises(PreconditionError):
                subset_exchange(m, k, least - 1, n_backward)


NOT_APPLICABLE = [("perfect-u1", 1, None), ("perfect-general", 2, 0),
                  ("single-feedback", 3, 2),
                  ("perfect-efficient", 1, 2), ("feedback-efficient", 1, 0),
                  ("perfect-3k", 0, None),
                  ("perfect-shared", 1, 0)]


@pytest.mark.parametrize("name", CHANNEL_ENTRIES)
def test_an_entry_refuses_where_its_declaration_is_none(name):
    desc = protocols.get(name)
    params = inspect.signature(desc.run).parameters
    if "k" not in params:
        # single-feedback takes no k: it runs at k = 1, declared there only
        assert [k for k in range(-1, 4) for u in range(5) if desc.channels(k, u)] == [1] * 5
        return
    refused = []
    for k in range(4):
        for u in range(5):
            if desc.channels(k, u) is not None:
                continue
            kw = {p: v for p, v in (("k", k), ("u", u)) if p in params}
            with pytest.raises(PreconditionError):
                desc.run(SPEC.element(1), **kw)
            refused.append((k, u if "u" in params else None))
    assert all((k, u) in refused for n, k, u in NOT_APPLICABLE if n == name)


@pytest.mark.parametrize("name", CHANNEL_ENTRIES)
def test_every_entry_runs_or_refuses_below_one_corruption(name):
    # k = 0 and k = -1 either run or are refused as inapplicable, never
    # as a network without forward channels
    desc = protocols.get(name)
    params = inspect.signature(desc.run).parameters
    for k in (0, -1):
        for u in (0, 1):
            kw = {p: v for p, v in (("k", k), ("u", u)) if p in params}
            if "n_forward" in kw or "n_backward" in params:
                counts = desc.channels(k, u)
                kw["n_forward"], kw["n_backward"] = counts if counts else (3, u)
            try:
                out = desc.run(SPEC.element(4), seed=0, **kw)
            except PreconditionError:
                assert desc.channels(k, u) is None, (name, k, u)
            else:
                assert out.succeeded, (name, k, u)
    # single-feedback takes no k: it runs, but is declared at k = 1 only
    assert desc.channels(-1, 0) is None


@pytest.mark.parametrize("name,k,u", NOT_APPLICABLE)
def test_each_restriction_is_declared(name, k, u):
    assert CHANNELS[name](k, u) is None


@pytest.mark.parametrize("name,k,u", [("perfect-general", 3, 2),
                                      ("perfect-general", 3, 3),
                                      ("perfect-efficient", 2, 2),
                                      ("perfect-efficient", 3, 2)])
def test_a_recursion_never_hands_a_sub_protocol_fewer_channels(monkeypatch, name, k, u):
    cuts = []

    def recorded(fwd, sub, sub_k, sub_u=None):
        cuts.append((sub, sub_k, sub_u, len(fwd)))
        return common.first(fwd, sub, sub_k, sub_u)

    monkeypatch.setattr(perfect, "first", recorded)
    kw, units = sweep.on_channels(name, k, u)
    run = protocols.get(name).run
    for corrupted in sweep.placements(units, range(1, k + 1)):
        out = run(SPEC.element(5), adversary=AdversarySpec(
            corrupted, strategies.build("shift", SPEC)), **kw)
        assert out.succeeded
    assert {c[0] for c in cuts} >= {name}
    assert all(have >= CHANNELS[sub](sub_k, sub_u)[0]
               for sub, sub_k, sub_u, have in cuts)


PERFECT = [name for name in CHANNEL_ENTRIES
           if protocols.get(name).perfectly_reliable and protocols.get(name).private]
BOUND_GRID = [(k, u) for k in range(5) for u in range(k + 1)]


def test_the_channel_bound_reads_both_papers():
    # 3k+1 without feedback; with u >= 1, 3k+1-2u until 2k+1 takes over
    assert [common.least_forward(k, 0) for k in range(4)] == [1, 4, 7, 10]
    assert [common.least_forward(4, u) for u in range(5)] == [13, 11, 9, 9, 9]
    assert [common.least_forward(3, u) for u in range(4)] == [10, 8, 7, 7]


@pytest.mark.parametrize("name", PERFECT)
def test_no_perfect_entry_declares_fewer_channels_than_the_bound(name):
    declared = [(k, u, CHANNELS[name](k, u)) for k, u in BOUND_GRID]
    assert any(counts for _, _, counts in declared), name
    for k, u, counts in declared:
        if counts is not None:
            n_forward, n_backward = counts
            assert n_forward >= common.least_forward(k, n_backward), (name, k, u)


def test_the_registry_attains_the_bound_everywhere():
    for k, u in BOUND_GRID:
        attaining = [name for name in PERFECT
                     if CHANNELS[name](k, u) == (common.least_forward(k, u), u)]
        assert attaining, (k, u)


def _python(text: str) -> str:
    for sign, python in (("−", "-"), ("≤", "<="), ("≥", ">="), (" = ", " == ")):
        text = text.replace(sign, python)
    return re.sub(r"(\d)([ku])", r"\1*\2", text)


def _readme_rows() -> dict:
    """README's channel column: name -> (forward, backward, condition),
    each a Python expression in k and u."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| `([\w-]+)` \| (.+?) fwd \+ (.+?) back(?: \((.+?)\))? \|", line)
        if row is not None:
            name, fwd, back, cond = row.groups()
            rows[name] = (_python(fwd), _python(back),
                          " and ".join(map(_python, cond.split(", "))) if cond else "True")
    return rows


def test_readme_channel_column_states_the_declarations():
    rows = _readme_rows()
    assert sorted(rows) == CHANNEL_ENTRIES
    for name, (fwd, back, cond) in rows.items():
        for k in range(4):
            for u in range(k + 1):
                env = {"k": k, "u": u, "max": max}
                want = (eval(fwd, env), eval(back, env)) if eval(cond, env) else None
                assert CHANNELS[name](k, u) == want, (name, k, u)
