"""Disjoint paths, minimum separators, and the connectivity hierarchy."""

import contextlib
import itertools
import json
import pathlib
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bfs_path,
    brute_force_separator,
    hyper_survives,
    neighbor_survives,
    reaches,
    removed_sets,
    surviving_links,
    weak_family,
)

from psmt import fixtures, topology
from psmt.errors import ParamError, SizeLimit
from psmt.topology import (
    Digraph,
    Hypergraph,
    NeighborNet,
    PathSet,
    connectivity_hierarchy,
    is_k_separable,
    k_connected,
    max_disjoint_paths,
    menger,
    min_vertex_separator,
    neighbor_k_connected,
    strong_witness_path,
    strongly_k_connected,
    to_hypergraph,
    weakly_k_connected,
    weakly_k_hyper_connected,
    weakly_nk_connected,
    _check_size,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _random_digraph(rng: random.Random, awkward: bool = False) -> Digraph:
    """Random links without A -> B; with ``awkward``, also self-loops
    (each endpoint's among them), antiparallel pairs, links into A and
    links out of B."""
    n = rng.randrange(3, 9)
    nodes = ["A", "B"] + [f"v{i}" for i in range(n - 2)]
    edges = set()
    for a in nodes:
        for b in nodes:
            if (a != b or awkward) and (a, b) != ("A", "B") and rng.random() < 0.35:
                edges.add((a, b))
    if awkward:
        x, y = rng.sample(nodes[2:] + ["A"], 2)
        edges |= {(x, x), (x, y), (y, x), (x, "A"), ("B", y), ("B", "B"), ("A", "A")}
    return Digraph.build(nodes, edges, "A", "B")


@contextlib.contextmanager
def _time_guard(seconds: float):
    """Fail, instead of hanging, when the body runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_menger_max_paths_equals_min_separator_random():
    rng = random.Random(1234)
    for _ in range(120):
        g = _random_digraph(rng)
        paths = max_disjoint_paths(g)
        sep = min_vertex_separator(g)
        want = brute_force_separator(g)
        assert want is not None  # no direct A->B edge by construction
        assert len(paths) == len(want)
        assert sep is not None and len(sep) == len(want)
        assert not reaches(g.edges, "A", "B", sep)
        paths.validate(g.edges, "A", "B")
        # the separator really disconnects: every path hits it
        for p in paths.paths:
            assert set(p[1:-1]) & sep


def test_menger_with_self_loops_and_back_links_random():
    # a self-loop's arc is the reverse of its node's arc in the split
    # network; a search that lets one stand for the other breaks the flow
    # and may never finish, hence the guard
    rng = random.Random(2601)
    for _ in range(300):
        g = _random_digraph(rng, awkward=True)
        with _time_guard(2.0):
            paths, sep = menger(g)
        paths.validate(g.edges, "A", "B")
        want = brute_force_separator(g)
        assert want is not None and sep is not None
        assert len(paths) == len(sep) == len(want)
        assert not reaches(g.edges, "A", "B", sep)
        assert min_vertex_separator(g) == sep


def test_separator_cut_on_an_edge_arc():
    # the minimum cut of fig009's node-split network falls on link arcs,
    # so reading only the node arcs would give an empty separator
    g = to_hypergraph(fixtures.get("fig009")).induced_digraph()
    sep = min_vertex_separator(g)
    assert len(max_disjoint_paths(g)) == 2
    assert sep is not None and len(sep) == 2
    assert not reaches(g.edges, g.sender, g.receiver, sep)
    assert is_k_separable(to_hypergraph(fixtures.get("fig009")), 2) == (True, sep)


def test_separator_above_the_enumeration_limit():
    # three braided chains of eight relays: 26 nodes, three disjoint paths
    rng = random.Random(2024)
    chains = [[f"c{c}_{i}" for i in range(8)] for c in range(3)]
    edges = set()
    for chain in chains:
        edges |= {("A", chain[0]), (chain[-1], "B")}
        edges |= set(zip(chain, chain[1:]))
    for _ in range(12):
        a, b = rng.sample(range(3), 2)
        i, j = sorted(rng.sample(range(8), 2))
        edges.add((chains[a][i], chains[b][j]))
    nodes = ["A", "B"] + [v for chain in chains for v in chain]
    g = Digraph.build(nodes, edges, "A", "B")
    assert len(g.nodes) > 20
    sep = min_vertex_separator(g)
    paths = max_disjoint_paths(g)
    paths.validate(g.edges, "A", "B")
    assert len(paths) == len(sep) == 3
    assert not reaches(g.edges, "A", "B", sep)
    for v in sep:
        assert reaches(g.edges, "A", "B", sep - {v})


def test_ties_break_in_str_order_of_the_split_nodes():
    # quoted, "a!" sorts before "a" and "it's" (written with double quotes)
    # before both; ints sort by their digits.  Each graph has several
    # maximum path sets, and the smallest-successor search picks these.
    firsts, seconds = ["a", "a!", "it's"], ["b", "b!"]
    assert sorted(firsts) != sorted(firsts, key=repr)
    edges = ([("A", x) for x in firsts] + [(x, y) for x in firsts for y in seconds]
             + [(y, "B") for y in seconds])
    g = Digraph.build(["A", "B"] + firsts + seconds, edges, "A", "B")
    assert max_disjoint_paths(g).paths == (("A", "a!", "b", "B"),
                                           ("A", "it's", "b!", "B"))
    assert min_vertex_separator(g) == {"b", "b!"}

    g = Digraph.build([0, 1, 2, 10, 3, 4],
                      [(0, 2), (0, 10), (2, 3), (2, 4), (10, 3), (10, 4),
                       (3, 1), (4, 1)], 0, 1)
    assert max_disjoint_paths(g).paths == ((0, 2, 4, 1), (0, 10, 3, 1))
    assert min_vertex_separator(g) == {2, 10}


# node names whose reprs hold quotes, whitespace, backslashes and
# non-ASCII characters; numbers; tuples of these
_NAME_CHARS = st.one_of(st.sampled_from(list("'\" \t\\\né日")), st.characters())
_NAMES = st.recursive(
    st.one_of(st.text(_NAME_CHARS, max_size=5), st.integers(), st.floats()),
    lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_NAMES, max_size=12))
def test_repr_order_is_the_order_of_the_split_names(nodes):
    # _max_flow ranks nodes by repr; str(("in", v)) is "('in', " + repr(v)
    # + ")", so the two keys differ only where one repr is a proper prefix
    # of another, and the longer one then goes on above ")"
    assert sorted(nodes, key=repr) == sorted(nodes, key=lambda v: str(("in", v)))


def _awkward_names(rng: random.Random, count: int) -> list:
    """``count`` distinct names of one comparable kind: strings of quotes,
    whitespace, backslashes and non-ASCII letters; ints and floats; or
    (string, int) pairs."""
    kind = rng.randrange(3)
    names = set()
    while len(names) < count:
        if kind == 0:
            names.add("".join(rng.choice("ab'\" \t\\é日") for _ in range(rng.randrange(1, 4))))
        elif kind == 1:
            names.add(rng.choice((rng.randrange(-20, 20), rng.randrange(-20, 20) / 4)))
        else:
            names.add((rng.choice("x'\" \\é"), rng.randrange(3)))
    return rng.sample(sorted(names), count)


def test_menger_over_awkward_node_names_random():
    rng = random.Random(3101)
    for _ in range(200):
        g = _random_digraph(rng, awkward=rng.random() < 0.5)
        name = dict(zip(sorted(g.nodes), _awkward_names(rng, len(g.nodes))))
        g = Digraph.build(name.values(), [(name[a], name[b]) for a, b in g.edges],
                          name["A"], name["B"])
        paths, sep = menger(g)
        paths.validate(g.edges, g.sender, g.receiver)
        want = brute_force_separator(g)
        assert want is not None and sep is not None
        assert len(paths) == len(sep) == len(want)
        assert not reaches(g.edges, g.sender, g.receiver, sep)


def test_link_and_reverse_arcs_are_told_apart():
    # the cut falls on the sender's links, whose heads are the receiver's
    # predecessors; links back into A and out of B change nothing
    plain = [("A", "x"), ("A", "y"), ("x", "B"), ("y", "B")]
    back = [("x", "A"), ("z", "A"), ("B", "z"), ("B", "A"), ("z", "x"), ("y", "x")]
    for edges in (plain, plain + back):
        g = Digraph.build("ABxyz", edges, "A", "B")
        assert max_disjoint_paths(g).paths == (("A", "x", "B"), ("A", "y", "B"))
        assert min_vertex_separator(g) == {"x", "y"}
    # a node arc next to the receiver is the cut
    g = Digraph.build("ABpqm", [("A", "p"), ("A", "q"), ("p", "m"), ("q", "m"),
                                ("m", "B"), ("m", "A"), ("B", "p"), ("B", "q")], "A", "B")
    assert max_disjoint_paths(g).paths == (("A", "p", "m", "B"),)
    assert min_vertex_separator(g) == {"m"}
    # the second augmenting path undoes the first one's c1 -> c2 link
    g = Digraph.build(["A", "B", "c1", "c2", "c3", "c4"],
                      [("A", "c1"), ("A", "c3"), ("c1", "c2"), ("c1", "c4"),
                       ("c3", "c2"), ("c2", "B"), ("c4", "B")], "A", "B")
    assert max_disjoint_paths(g).paths == (("A", "c1", "c4", "B"), ("A", "c3", "c2", "B"))
    assert min_vertex_separator(g) == {"c1", "c3"}
    # a hypergraph answers as its induced digraph, hyperedges into A and
    # out of B included
    h = Hypergraph.build("ABuvw", [("A", {"u", "v"}), ("u", {"w", "B"}), ("v", {"w"}),
                                   ("w", {"B", "A"}), ("B", {"u", "v", "A"})], "A", "B")
    for graph in (h, h.induced_digraph()):
        assert max_disjoint_paths(graph).paths == (("A", "u", "B"), ("A", "v", "w", "B"))
        assert min_vertex_separator(graph) == {"u", "v"}
    assert is_k_separable(h, 1) == (False, None)
    assert is_k_separable(h, 2) == (True, {"u", "v"})


def test_direct_edge_has_no_separator():
    g = Digraph.build("AB", [("A", "B")], "A", "B")
    assert min_vertex_separator(g) is None
    assert len(max_disjoint_paths(g)) == 1


def test_pathset_validation():
    g = fixtures.two_path_feedback()
    ps = PathSet((("A", "C", "B"), ("A", "D", "B")))
    ps.validate(g.edges, "A", "B")
    with pytest.raises(ParamError):
        PathSet((("A", "B"),)).validate(g.edges, "A", "B")  # not a link
    with pytest.raises(ParamError):
        PathSet((("A", "C", "B"), ("A", "C", "D", "B"))).validate(
            g.edges, "A", "B")  # shared internal node
    with pytest.raises(ParamError):
        PathSet((("C", "B"),)).validate(g.edges, "A", "B")  # wrong endpoint


@pytest.mark.parametrize("directed,undirected", [
    ("two_path_feedback", "fig1"), ("feedback_detour", "fig2"),
    ("braided_eight", "fig80"), ("chains_with_crosslink", "fig009")])
def test_directed_fixture_reads_its_neighbor_fixture_edges(directed, undirected):
    d, g = getattr(fixtures, directed)(), fixtures.get(undirected)
    assert (d.nodes, d.sender, d.receiver) == (g.nodes, g.sender, g.receiver)
    assert len(d.edges) == len(g.edges)
    assert {frozenset(e) for e in d.edges} == g.edges
    # a neighbor net's paths run both ways: at least those of its links
    assert len(max_disjoint_paths(d)) <= len(max_disjoint_paths(to_hypergraph(g)))


def test_fixture_fig1_two_connected_not_weakly_two_hyper():
    g = fixtures.get("fig1")
    assert k_connected(g, 2)
    assert not weakly_k_hyper_connected(g, 2)


def test_fixture_fig2_weakly_two_hyper_not_two_neighbor():
    g = fixtures.get("fig2")
    assert weakly_k_hyper_connected(g, 2)
    assert not neighbor_k_connected(g, 2)


def test_fixture_fig80_two_neighbor_not_weakly_21():
    g = fixtures.get("fig80")
    assert neighbor_k_connected(g, 2)
    assert not weakly_nk_connected(g, 2, 1)[0]


def test_fixture_fig3_hierarchy():
    g = fixtures.get("fig3")
    assert not weakly_k_hyper_connected(g, 2)
    h = to_hypergraph(g)
    assert len(max_disjoint_paths(h)) < 3
    ok, witness = is_k_separable(h, 2)
    assert ok and witness is not None and len(witness) <= 2


def test_fixture_fig5_facts():
    h = fixtures.get("fig5")
    assert not is_k_separable(h, 2)[0]
    assert not weakly_k_connected(h, 2)
    assert len(max_disjoint_paths(h)) >= 3


def test_fixture_fig009_weakly_two_hyper():
    g = fixtures.get("fig009")
    assert weakly_k_hyper_connected(g, 2)


def _random_neighbor_net(rng: random.Random, most: int, p: float) -> NeighborNet:
    """3 to ``most`` nodes, each pair but A-B an edge with probability p."""
    nodes = ["A", "B"] + [f"v{i}" for i in range(rng.randrange(1, most - 1))]
    edges = [e for e in itertools.combinations(nodes, 2)
             if rng.random() < p and set(e) != {"A", "B"}]
    return NeighborNet.build(nodes, edges, "A", "B")


def _random_hypergraph(rng: random.Random, most: int) -> Hypergraph:
    """3 to ``most`` nodes; some hyperedges list their own origin."""
    nodes = ["A", "B"] + [f"v{i}" for i in range(rng.randrange(1, most - 1))]
    hyperedges = []
    for _ in range(rng.randrange(1, 2 * len(nodes))):
        recipients = {v for v in nodes if rng.random() < 0.35}
        if recipients:
            hyperedges.append((rng.choice(nodes), recipients))
    return Hypergraph.build(nodes, hyperedges, "A", "B")


def test_mask_predicates_match_the_set_based_search_random():
    rng = random.Random(2602)
    verdicts = set()
    for _ in range(150):
        h = _random_hypergraph(rng, 8)
        for k in (1, 2, 3):
            for directed, predicate in ((True, strongly_k_connected),
                                        (False, weakly_k_connected)):
                got = predicate(h, k)
                assert got == hyper_survives(h, k, directed)
                verdicts.add((directed, got))
        for removed in removed_sets(h.nodes, "A", "B", 4):
            want = bfs_path(surviving_links(h.hyperedges, removed), "A", "B")
            assert strong_witness_path(h, removed) == want
    for _ in range(150):
        g = _random_neighbor_net(rng, 8, rng.choice((0.3, 0.5, 0.7)))
        for k in (1, 2, 3):
            got = neighbor_k_connected(g, k)
            assert got == neighbor_survives(g, k)
            verdicts.add(("neighbor", got))
    assert len(verdicts) == 6   # each predicate answered both ways


def test_weakly_nk_connected_matches_every_family_random():
    # the search refutes at once when some t is clear of no path; the
    # answers and witnesses are those of trying every family.  Each net
    # also runs with an A-B link, where (A, B) may be the only path: it is
    # clear of every t away from the endpoints' neighbors, which a
    # refutation on any node's neighbors would miss
    rng = random.Random(2710)
    verdicts = set()
    for _ in range(120):
        g = _random_neighbor_net(rng, 6, rng.choice((0.3, 0.5, 0.7)))
        joined = NeighborNet.build(g.nodes, [*g.edges, ("A", "B")], "A", "B")
        for net in (g, joined):
            for n in (1, 2, 3):
                for k in (0, 1, 2):
                    got = weakly_nk_connected(net, n, k)
                    assert got == weak_family(net, n, k), (net, n, k)
                    verdicts.add(got[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig80", "fig009"])
def test_weak_rung_refutes_without_listing_paths(name, monkeypatch):
    # at k = 2 the rung's t-sets hold a neighbor of the sender, and every
    # path's clearance counts the sender's neighbors
    listed = []
    real = topology._all_simple_paths
    monkeypatch.setattr(topology, "_all_simple_paths", lambda g: listed.append(g) or real(g))
    report = connectivity_hierarchy(fixtures.get(name), 2)
    golden = json.loads((GOLDEN / f"analyze__{name}__k2.json").read_text())
    assert report == golden["hierarchy"] and listed == []


def test_negative_bounds_are_refused():
    g = fixtures.get("fig1")
    for call in (lambda: connectivity_hierarchy(g, -1),
                 lambda: weakly_nk_connected(g, 2, -1),
                 lambda: weakly_nk_connected(g, -1, 1)):
        with pytest.raises(ParamError, match="at least 0"):
            call()
    # at k = 0 there is nothing to remove and no t to clear
    for name in ("fig1", "fig2", "fig3", "fig80", "fig009"):
        assert connectivity_hierarchy(fixtures.get(name), 0) == {
            "k_connected": True, "weakly_k_hyper_connected": True,
            "k_neighbor_connected": True, "weakly_nk_connected": True, "k": 0}


def test_hierarchy_on_a_dense_net_finishes_in_a_second():
    # 8 nodes, every edge but A-B: 1,956 simple paths
    nodes = "ABCDEFGH"
    g = NeighborNet.build(nodes, [e for e in itertools.combinations(nodes, 2)
                                  if set(e) != {"A", "B"}], "A", "B")
    with _time_guard(1.0):
        report = connectivity_hierarchy(g, 2)
    assert report["k_connected"] and not report["weakly_nk_connected"]


def test_hierarchy_refuses_adjacent_endpoints():
    fig1 = fixtures.get("fig1")
    g = NeighborNet.build(fig1.nodes, list(fig1.edges) + [("A", "B")], "A", "B")
    for k in (1, 2, 3):
        with pytest.raises(ParamError, match="neighbors"):
            connectivity_hierarchy(g, k)


def test_hierarchy_implications_on_fixtures_and_random():
    nets = [fixtures.get(n) for n in fixtures.names()
            if isinstance(fixtures.get(n), NeighborNet)]
    rng = random.Random(77)
    for _ in range(25):
        g = _random_neighbor_net(rng, 6, 0.5)
        if g.edges:
            nets.append(g)
    for g in nets:
        for k in (1, 2):
            # connectivity_hierarchy raises if any implication fails
            report = connectivity_hierarchy(g, k)
            assert set(report) == {
                "k_connected", "weakly_k_hyper_connected",
                "k_neighbor_connected", "weakly_nk_connected", "k"}


def test_to_hypergraph_handshake_identity():
    for name in ("fig1", "fig2", "fig80", "fig009"):
        g = fixtures.get(name)
        h = to_hypergraph(g)
        # one hyperedge per node, recipients = neighbors, so the total
        # recipient count equals twice the edge count
        assert len(h.hyperedges) == len(g.nodes)
        assert sum(len(rs) for _, rs in h.hyperedges) == 2 * len(g.edges)
        # its induced digraph holds every edge both ways, and k_connected
        # counts that digraph's disjoint paths
        both_ways = {(a, b) for e in g.edges for a, b in itertools.permutations(e)}
        assert h.induced_digraph() == Digraph(g.nodes, frozenset(both_ways), "A", "B")


def test_strong_witness_path():
    h = fixtures.get("fig5")
    p = strong_witness_path(h, frozenset())
    assert p is not None and p[0] == "A" and p[-1] == "B"
    # removing v kills the v-adjacent hyperedges but B is still reached
    p2 = strong_witness_path(h, frozenset({"v"}))
    assert p2 is None  # every relay hyperedge touches v
    assert not strongly_k_connected(h, 2)


def test_separability_trivial_cases():
    h = fixtures.get("fig5")
    ok, witness = is_k_separable(h, 10)
    assert ok and len(witness) <= 10
    assert is_k_separable(h, 0) == (False, None)


def test_size_limit_enforced():
    with pytest.raises(SizeLimit):
        _check_size(range(25))
    big = NeighborNet.build(
        [f"v{i}" for i in range(23)] + ["A", "B"],
        [(f"v{i}", f"v{i+1}") for i in range(22)] + [("A", "v0"), ("v22", "B")],
        "A", "B")
    with pytest.raises(SizeLimit):
        neighbor_k_connected(big, 2)


def test_graph_validation():
    with pytest.raises(ParamError):
        Digraph.build("AB", [("A", "C")], "A", "B")
    with pytest.raises(ParamError):
        Digraph.build("AB", [], "A", "A")
    with pytest.raises(ParamError):
        NeighborNet.build("AB", [("A", "A")], "A", "B")
    with pytest.raises(ParamError):
        Hypergraph.build("AB", [("A", {"C"})], "A", "B")


def test_serialization_round_trip():
    for name in fixtures.names():
        g = fixtures.get(name)
        again = fixtures.loads(fixtures.dumps(g))
        assert again == g
    d = fixtures.two_path_feedback()
    assert fixtures.loads(fixtures.dumps(d)) == d


def test_loads_rejects_malformed():
    with pytest.raises(ParamError):
        fixtures.loads("{not json")
    with pytest.raises(ParamError):
        fixtures.loads('{"kind": "mystery", "nodes": [], "sender": "A", "receiver": "B"}')
    with pytest.raises(ParamError):
        fixtures.loads('{"kind": "digraph"}')


def test_unknown_fixture_rejected():
    with pytest.raises(ParamError):
        fixtures.get("fig42")
