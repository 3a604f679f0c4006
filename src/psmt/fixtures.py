"""Named example topologies used throughout the tests and the CLI.

Each fixture is a small network with well-understood connectivity
properties, exercising a different rung of the connectivity hierarchy:
plain k-connectivity, weak k-hyper-connectivity, k-neighbor-
connectivity, and weak (n,k)-connectivity, plus two multicast
hypergraphs: ``fig5`` supports reliable but not private transmission,
and ``duo`` is the one fixture that meets ``hyper-private``'s
precondition.  ``fig80``'s weak (2,1) fact holds under the endpoint-
inclusive clearance rule, which admits no family past k = 1.
"""

from __future__ import annotations

import json

from .errors import ParamError
from .topology import Digraph, Hypergraph, NeighborNet


# (nodes, edges) of the neighbor fixtures that also have a directed
# variant, which reads each edge as a (tail, head) link
_FIG1 = ("ABCD", [("A", "C"), ("C", "B"), ("A", "D"), ("D", "B"), ("C", "D")])
_FIG2 = ("ABCDF",
         [("A", "C"), ("A", "D"), ("C", "B"), ("D", "B"), ("C", "F"), ("F", "D")])
_FIG80 = ("ABCDEFGH",
          [("A", "C"), ("C", "D"), ("D", "E"), ("E", "B"),
           ("A", "F"), ("F", "G"), ("G", "H"), ("H", "B"),
           ("C", "H"), ("E", "F")])
_FIG009 = ("ABCDEFGH",
           [("A", "C"), ("C", "D"), ("D", "E"), ("E", "B"),
            ("A", "F"), ("F", "G"), ("G", "H"), ("H", "B"),
            ("D", "G")])


def fig1() -> NeighborNet:
    """Four nodes, two relay paths joined by a C-D link: 2-connected but
    not weakly 2-hyper-connected."""
    return NeighborNet.build(*_FIG1, "A", "B")


def fig2() -> NeighborNet:
    """Five nodes with a bystander F bridging the two relays: weakly
    2-hyper-connected but not 2-neighbor-connected."""
    return NeighborNet.build(*_FIG2, "A", "B")


def fig3() -> NeighborNet:
    """Two chains A-C-D-B and A-E-F-B with a hub G adjacent to all four
    relays: reliable transmission is possible but private is not."""
    return NeighborNet.build(
        "ABCDEFG",
        [("A", "C"), ("C", "D"), ("D", "B"),
         ("A", "E"), ("E", "F"), ("F", "B"),
         ("G", "C"), ("G", "D"), ("G", "E"), ("G", "F")],
        "A", "B")


def fig5() -> Hypergraph:
    """Multicast network where both relay layers funnel through node v:
    not 2-separable yet not weakly 2-connected."""
    return Hypergraph.build(
        ["A", "B", "v1", "v2", "v", "u1", "u2"],
        [("A", {"v1", "v2"}),
         ("v1", {"v", "B"}), ("v2", {"v", "B"}),
         ("A", {"u1", "u2"}),
         ("u1", {"v", "B"}), ("u2", {"v", "B"})],
        "A", "B")


def fig80() -> NeighborNet:
    """Eight nodes, two chains braided by C-H and E-F cross links:
    2-neighbor-connected but not weakly (2,1)-connected."""
    return NeighborNet.build(*_FIG80, "A", "B")


def fig009() -> NeighborNet:
    """Eight nodes, two chains joined by a single D-G cross link; weakly
    2-hyper-connected, transmission feasibility open."""
    return NeighborNet.build(*_FIG009, "A", "B")


def duo() -> Hypergraph:
    """Two relays x and y between A and B, with a direct link, all both
    ways: strongly 1-connected and not 2-separable in either direction."""
    return Hypergraph.build(
        "ABxy",
        [("A", {"B"}), ("A", {"x"}), ("A", {"y"}),
         ("x", {"B"}), ("y", {"B"}),
         ("B", {"A"}), ("B", {"x"}), ("B", {"y"}),
         ("x", {"A"}), ("y", {"A"})],
        "A", "B")


FIXTURES = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig5": fig5,
    "fig80": fig80,
    "fig009": fig009,
    "duo": duo,
}


def get(name: str):
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ParamError(f"unknown fixture {name!r}") from None


def names() -> list[str]:
    return sorted(FIXTURES)


# -- directed variants used by the channel-abstraction analyses -------------


def two_path_feedback() -> Digraph:
    """fig1's edge set read as a digraph: two forward paths plus a C->D
    link that yields one feedback route."""
    return Digraph.build(*_FIG1, "A", "B")


def feedback_detour() -> Digraph:
    """fig2's edge set read as a digraph: the only feedback runs C->F->D."""
    return Digraph.build(*_FIG2, "A", "B")


def braided_eight() -> Digraph:
    """fig80's edge set read as a digraph."""
    return Digraph.build(*_FIG80, "A", "B")


def chains_with_crosslink() -> Digraph:
    """fig009's edge set read as a digraph."""
    return Digraph.build(*_FIG009, "A", "B")


# ---------------------------------------------------------------------------
# JSON serialization shared by fixtures and user-supplied topology files


def to_dict(g) -> dict:
    try:
        if isinstance(g, Digraph):
            return {"kind": "digraph", "nodes": sorted(g.nodes),
                    "edges": sorted([a, b] for a, b in g.edges),
                    "sender": g.sender, "receiver": g.receiver}
        if isinstance(g, Hypergraph):
            return {"kind": "hypergraph", "nodes": sorted(g.nodes),
                    "hyperedges": [[origin, sorted(recipients)]
                                   for origin, recipients in g.hyperedges],
                    "sender": g.sender, "receiver": g.receiver}
        if isinstance(g, NeighborNet):
            return {"kind": "neighbor", "nodes": sorted(g.nodes),
                    "edges": sorted(sorted(e) for e in g.edges),
                    "sender": g.sender, "receiver": g.receiver}
    except TypeError as exc:   # sorted() on names of unlike types
        raise ParamError(f"node names cannot be ordered against each other: {exc}") from exc
    raise ParamError(f"cannot serialize {type(g).__name__}")


def from_dict(data: dict):
    try:
        kind = data["kind"]
        nodes = data["nodes"]
        sender, receiver = data["sender"], data["receiver"]
        sorted(nodes)   # reports and path lists order the names against each other
        if kind == "digraph":
            return Digraph.build(nodes, [tuple(e) for e in data["edges"]],
                                 sender, receiver)
        if kind == "hypergraph":
            return Hypergraph.build(
                nodes, [(o, set(rs)) for o, rs in data["hyperedges"]],
                sender, receiver)
        if kind == "neighbor":
            return NeighborNet.build(nodes, [tuple(e) for e in data["edges"]],
                                     sender, receiver)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParamError(f"malformed topology data: {exc}") from exc
    raise ParamError(f"unknown topology kind {kind!r}")


def dumps(g) -> str:
    return json.dumps(to_dict(g), indent=2, sort_keys=True)


def loads(text: str):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParamError(f"invalid JSON: {exc}") from exc
    return from_dict(data)
