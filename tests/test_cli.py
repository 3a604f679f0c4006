"""Command line interface: subcommands, exit codes, and determinism."""

import dataclasses
import functools
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

from psmt import fixtures, protocols, topology
from psmt.cli import _HARNESS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_fixtures_list(capsys):
    code, report, err = run(capsys, "fixtures")
    assert code == 0
    assert report == {"fixtures": sorted(
        ["fig1", "fig2", "fig3", "fig5", "fig80", "fig009", "duo"])}
    assert "fixtures" in err


def test_fixture_dump_round_trips(capsys, tmp_path):
    code, report, _ = run(capsys, "fixtures", "--name", "fig5")
    assert code == 0
    assert fixtures.from_dict(report) == fixtures.get("fig5")
    # a dumped fixture is a valid --topology-file
    path = tmp_path / "fig5.json"
    path.write_text(json.dumps(report))
    code, report2, _ = run(capsys, "analyze", "--topology-file", str(path))
    assert code == 0
    assert report2["topology"] == report


def test_unknown_fixture_exit_2(capsys):
    code, _, err = run(capsys, "fixtures", "--name", "nope")
    assert code == 2 and "error" in err


def test_analyze_neighbor_fixture(capsys):
    code, report, _ = run(capsys, "analyze", "--fixture", "fig1", "--k", "2")
    assert code == 0
    assert report["hierarchy"]["k_connected"] is True
    assert report["hierarchy"]["weakly_k_hyper_connected"] is False


def test_analyze_hypergraph_fixture(capsys):
    code, report, _ = run(capsys, "analyze", "--fixture", "fig5", "--k", "1")
    assert code == 0
    assert report["2k_separable"] is False
    assert report["max_disjoint_paths"] >= 3
    assert report["weakly_k_connected"] is True


@pytest.mark.parametrize("graph", [fixtures.get("fig5"), fixtures.braided_eight()],
                         ids=["hypergraph", "digraph"])
def test_analyze_computes_one_max_flow(capsys, monkeypatch, tmp_path, graph):
    # the disjoint paths and the separator come from the same flow
    path = tmp_path / "graph.json"
    path.write_text(fixtures.dumps(graph))
    flows = []
    real = topology._max_flow
    monkeypatch.setattr(topology, "_max_flow", lambda g: flows.append(g) or real(g))
    code, report, _ = run(capsys, "analyze", "--k", "1", "--topology-file", str(path))
    assert code == 0 and report["max_disjoint_paths"] >= 2
    assert len(flows) == 1


def test_analyze_refuses_adjacent_endpoints(capsys, tmp_path):
    # an A-B edge breaks the neighbor hierarchy's implication chain
    fig1 = fixtures.get("fig1")
    g = topology.NeighborNet.build(fig1.nodes, list(fig1.edges) + [("A", "B")], "A", "B")
    path = tmp_path / "fig1_ab.json"
    path.write_text(fixtures.dumps(g))
    for k in ("1", "2", "3"):
        code, report, err = run(capsys, "analyze", "--k", k, "--topology-file", str(path))
        assert code == 2 and report is None
        assert "error" in err and "neighbors" in err and "Traceback" not in err


@pytest.mark.parametrize("fixture", ["fig1", "fig5"])
def test_analyze_refuses_a_negative_k(capsys, tmp_path, fixture):
    code, report, err = run(capsys, "analyze", "--fixture", fixture, "--k", "-1")
    assert code == 2 and report is None and "--k" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "2"}))
    code, report, err = run(capsys, "analyze", "--fixture", fixture, "--config", str(cfg))
    assert code == 2 and report is None and "--k" in err
    code, report, _ = run(capsys, "analyze", "--fixture", fixture, "--k", "0")
    assert code == 0 and report["k"] == 0


def test_analyze_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "braided.json"
    path.write_text(fixtures.dumps(fixtures.braided_eight()))
    src = str(pathlib.Path(__file__).parent.parent / "src")
    for source in (["--fixture", "fig3"], ["--topology-file", str(path)]):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "psmt.cli", "analyze", "--k", "2", *source],
                env=env, capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1] and json.loads(outs[0])["max_disjoint_paths"] == 2


def test_privacy_does_not_depend_on_the_hash_seed():
    src = str(pathlib.Path(__file__).parent.parent / "src")
    cases = (["--protocol", "perfect-u1", "--field", "7", "--k", "2",
              "--corrupt", "AB0,BA0", "--m1", "6"],
             ["--protocol", "neighbor-exchange", "--field", "2",
              "--corrupt", "C", "--m1", "1"])
    for case in cases:
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "psmt.cli", "privacy", "--m0", "0", *case],
                env=env, capture_output=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1] and json.loads(outs[0])["perfectly_private"]


def test_analyze_requires_topology(capsys):
    code, _, _ = run(capsys, "analyze")
    assert code == 2


def test_simulate_basic(capsys):
    code, report, _ = run(
        capsys, "simulate", "--protocol", "oneway", "--field", "7",
        "--k", "1", "--trials", "50", "--seed", "3")
    assert code == 0
    assert report["trials"] == 50
    assert report["successes"] == 50
    assert report["failure_rate"] == 0.0
    assert report["rounds_max"] == 3
    assert sum(report["rounds_histogram"].values()) == 50


def test_simulate_adversarial_failure_accounting(capsys):
    code, report, _ = run(
        capsys, "simulate", "--protocol", "oneway", "--field", "7",
        "--k", "1", "--trials", "200", "--seed", "1",
        "--corrupt", "AB0", "--adversary", "random")
    assert code == 0
    bad = report["detected_failures"] + report["wrong_deliveries"]
    assert report["failures"] == bad
    assert report["successes"] + bad == 200
    assert bad > 0  # GF(7) tags fall often enough to register
    lo, hi = report["failure_rate_ci95"]
    assert lo <= report["failure_rate"] <= hi


def test_simulate_interval_without_failures_or_trials(capsys):
    argv = ["simulate", "--protocol", "oneway", "--field", "7", "--k", "1"]
    _, report, _ = run(capsys, *argv, "--trials", "30")
    assert report["failures"] == 0
    assert report["failure_rate_ci95"] == [0.0, pytest.approx(0.1135, abs=1e-4)]
    _, report, _ = run(capsys, *argv, "--trials", "0")
    assert report["trials"] == 0 and report["failure_rate_ci95"] == [0.0, 1.0]


def test_simulate_reads_a_topology_file_as_the_fixture(capsys, tmp_path):
    path = tmp_path / "duo.json"
    path.write_text(fixtures.dumps(fixtures.get("duo")))
    argv = ["simulate", "--protocol", "hyper-private", "--field", "11", "--k", "1",
            "--trials", "20", "--seed", "4", "--corrupt", "x", "--adversary", "random"]
    code, from_file, _ = run(capsys, *argv, "--topology-file", str(path))
    assert code == 0 and from_file["successes"] > 0
    assert run(capsys, *argv, "--fixture", "duo")[1] == from_file


def test_simulate_deterministic_byte_identical(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "--protocol", "perfect-3k", "--field", "11",
            "--k", "1", "--trials", "20", "--seed", "9",
            "--corrupt", "AB1", "--adversary", "shift"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["failures"] == 0


def test_simulate_precondition_exit_1(capsys):
    code, _, err = run(
        capsys, "simulate", "--protocol", "feedback-efficient", "--field", "7",
        "--k", "1", "--u", "2", "--trials", "1")
    assert code == 1 and "precondition" in err


def test_simulate_unknown_protocol_exit_2(capsys):
    code, _, _ = run(capsys, "simulate", "--protocol", "mystery", "--field", "7")
    assert code == 2


def test_simulate_missing_required_params_exit_2(capsys):
    code, _, _ = run(capsys, "simulate", "--protocol", "oneway", "--field", "7")
    assert code == 2  # missing --k
    code, _, _ = run(capsys, "simulate", "--protocol", "oneway", "--k", "1")
    assert code == 2  # missing --field
    code, _, _ = run(capsys, "simulate", "--protocol", "hyper-reliable",
                     "--field", "7", "--k", "1")
    assert code == 2  # missing topology


def test_simulate_bad_corrupt_token_exit_2(capsys):
    code, _, _ = run(capsys, "simulate", "--protocol", "oneway", "--field", "7",
                     "--k", "1", "--corrupt", "XY9")
    assert code == 2


def test_topology_file_missing_exit_3(capsys):
    code, _, err = run(capsys, "analyze", "--topology-file", "/no/such/file")
    assert code == 3 and "i/o" in err


def _mixed_names_file(tmp_path, kind):
    """A topology file whose node names mix str and int."""
    data = {"kind": kind, "nodes": ["A", "B", 1, 2], "sender": "A", "receiver": "B"}
    if kind == "hypergraph":
        data["hyperedges"] = [["A", [1, 2]], [1, ["B"]], [2, ["B"]]]
    else:
        data["edges"] = [["A", 1], [1, "B"], ["A", 2], [2, "B"]]
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_analyze_refuses_mixed_node_name_types_exit_2(capsys, tmp_path):
    code, report, err = run(capsys, "analyze", "--topology-file",
                            _mixed_names_file(tmp_path, "digraph"))
    assert code == 2 and report is None
    assert "malformed topology data" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["neighbor", "hypergraph"])
def test_simulate_refuses_mixed_node_name_types_exit_2(capsys, tmp_path, kind):
    code, report, err = run(capsys, "simulate", "--protocol", "hyper-reliable",
                            "--field", "7", "--k", "1", "--trials", "2",
                            "--topology-file", _mixed_names_file(tmp_path, kind))
    assert code == 2 and report is None
    assert "malformed topology data" in err and "Traceback" not in err


def test_config_file_defaults_and_overrides(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": "oneway", "field": 7, "k": 1, "trials": 30, "seed": 5}))
    code, report, _ = run(capsys, "simulate", "--config", str(cfg))
    assert code == 0 and report["trials"] == 30
    # explicit flag wins over the config entry
    code, report, _ = run(capsys, "simulate", "--config", str(cfg),
                          "--trials", "10")
    assert code == 0 and report["trials"] == 10


def test_config_unknown_key_exit_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, _ = run(capsys, "simulate", "--config", str(cfg),
                     "--protocol", "oneway", "--field", "7", "--k", "1")
    assert code == 2


def test_privacy_exact_zero(capsys):
    code, report, _ = run(
        capsys, "privacy", "--protocol", "single-feedback", "--field", "5",
        "--corrupt", "AB0", "--m0", "1", "--m1", "4")
    assert code == 0
    assert report["perfectly_private"] is True
    assert report["upper"] == 0.0


def test_privacy_full_leak(capsys):
    code, report, _ = run(
        capsys, "privacy", "--protocol", "single-feedback", "--field", "5",
        "--corrupt", "AB0,AB1", "--m0", "1", "--m1", "4")
    assert code == 0
    assert report["perfectly_private"] is False
    assert report["lower"] == 2.0


def test_privacy_estimate_mode_is_labelled(capsys):
    code, report, _ = run(
        capsys, "privacy", "--protocol", "single-feedback", "--field", "5",
        "--corrupt", "AB0", "--m0", "0", "--m1", "1",
        "--estimate", "--samples", "100")
    assert code == 0
    assert report["method"] == "monte-carlo"
    assert "uncertified" in report["confidence"]
    assert report["perfectly_private"] is False  # estimates never certify


@pytest.mark.parametrize("k", ["1", "2", "3"])
def test_privacy_hyper_private_keys_the_message_at_every_k(capsys, k):
    # at k = 3 the two inner nodes of duo form the one suspect set
    code, report, _ = run(
        capsys, "privacy", "--protocol", "hyper-private", "--fixture", "duo",
        "--k", k, "--field", "5", "--corrupt", "x", "--m0", "0", "--m1", "4")
    assert code == 0
    assert report["perfectly_private"] is True and report["method"] == "symbolic"


def test_privacy_rejects_non_private_protocol(capsys):
    code, _, err = run(
        capsys, "privacy", "--protocol", "hyper-reliable", "--field", "7",
        "--k", "1", "--fixture", "fig5", "--m0", "0", "--m1", "1")
    assert code == 2 and "privacy claim" in err


# every registry entry with the options its entry point requires, each
# option a (flag, value) pair under the entry point's parameter name
_REQUIRED = {
    "oneway": {"k": ("--k", "1")},
    "single-feedback": {},
    "subset-exchange": {"k": ("--k", "1"), "n_forward": ("--n-forward", "2"),
                        "n_backward": ("--n-backward", "1")},
    "feedback-efficient": {"k": ("--k", "1"), "u": ("--u", "1")},
    "perfect-oneway": {"k": ("--k", "1")},
    "perfect-3k": {"k": ("--k", "1")},
    "perfect-u1": {"k": ("--k", "2")},
    "perfect-general": {"k": ("--k", "2"), "u": ("--u", "1")},
    "perfect-efficient": {"k": ("--k", "1"), "u": ("--u", "1")},
    "perfect-shared": {"k": ("--k", "1"), "u": ("--u", "1")},
    "hyper-reliable": {"graph": ("--fixture", "fig5"), "k": ("--k", "1")},
    "hyper-private": {"graph": ("--fixture", "duo"), "k": ("--k", "1")},
    "neighbor-exchange": {},
}


@pytest.mark.parametrize("name", sorted(_REQUIRED))
def test_simulate_requires_each_parameter_without_a_default(capsys, name):
    params = inspect.signature(protocols.get(name).run).parameters
    assert set(_REQUIRED) == set(protocols.names())
    assert set(_REQUIRED[name]) == {
        p for p, v in params.items() if v.default is v.empty and p != "message"}
    base = ["simulate", "--protocol", name, "--field", "7", "--trials", "2"]
    options = _REQUIRED[name]
    code, report, _ = run(capsys, *base, *[x for pair in options.values() for x in pair])
    assert code == 0 and report["trials"] == 2
    for left_out, (flag, _) in options.items():
        argv = base + [x for p, pair in options.items() if p != left_out for x in pair]
        code, _, err = run(capsys, *argv)
        assert code == 2, (name, left_out)
        assert "requires" in err and flag in err, (name, left_out, err)


def test_each_entry_point_takes_the_harness_parameters_besides_its_own():
    optional = {"oneway": {"n_forward"}, "neighbor-exchange": {"delta_r"}}
    beyond = {name: set(inspect.signature(protocols.get(name).run).parameters)
              - set(_REQUIRED[name]) - optional.get(name, set())
              for name in protocols.names()}
    assert beyond == {name: _HARNESS for name in protocols.names()}
    assert _HARNESS == {"message", "adversary", "seed", "rng"}


def test_optional_parameters_reach_their_entry_points(capsys):
    neighbor = ["simulate", "--protocol", "neighbor-exchange", "--field", "5",
                "--trials", "40", "--seed", "1", "--corrupt", "C"]
    _, report, _ = run(capsys, *neighbor)
    assert report["detected_failures"] == 0
    _, report, _ = run(capsys, *neighbor, "--delta-r", "0.5")
    assert report["detected_failures"] == 28 and report["successes"] == 12
    oneway = ["simulate", "--protocol", "oneway", "--field", "7", "--k", "1",
              "--trials", "10"]
    _, report, _ = run(capsys, *oneway)
    assert report["rounds_max"] == 3
    _, report, _ = run(capsys, *oneway, "--n-forward", "4", "--corrupt", "AB3")
    assert report["rounds_max"] == 4 and report["successes"] == 10
    code, _, err = run(capsys, *oneway, "--n-forward", "2")
    assert code == 1 and "precondition" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "perfect-general", "--field", "11", "--k", "2",
     "--u", "1", "--trials", "5", "--adversary", "shift", "--corrupt", "BA0,AB3"],
    ["simulate", "--protocol", "hyper-reliable", "--field", "11", "--k", "1",
     "--fixture", "fig5", "--trials", "5", "--corrupt", "v1"],
    ["privacy", "--protocol", "perfect-3k", "--field", "5", "--k", "1",
     "--m0", "0", "--m1", "4", "--corrupt", "BA0"],
], ids=["simulate-channels", "simulate-nodes", "privacy"])
def test_a_report_replays_from_its_corrupted_field(capsys, argv):
    assert main(argv) == 0
    first = capsys.readouterr().out
    corrupted = json.loads(first)["corrupted"]
    assert main(argv[:-1] + [",".join(corrupted)]) == 0
    assert capsys.readouterr().out == first


# a topology file that exists, so that the refusal alone decides the exit code
TOPOLOGY_FILE = str(pathlib.Path(__file__).parent / "golden"
                    / "digraph__braided_eight.json")


@pytest.mark.parametrize("argv, flag", [
    (["--protocol", "single-feedback", "--field", "7", "--k", "3"], "--k"),
    (["--protocol", "perfect-u1", "--field", "7", "--k", "2", "--u", "3"], "--u"),
    (["--protocol", "neighbor-exchange", "--field", "7", "--fixture", "fig5"],
     "--fixture"),
    (["--protocol", "perfect-3k", "--field", "7", "--k", "1",
      "--topology-file", TOPOLOGY_FILE], "--topology-file"),
    (["--protocol", "perfect-3k", "--field", "7", "--k", "1", "--n-forward", "4"],
     "--n-forward"),
    (["--protocol", "oneway", "--field", "7", "--k", "1", "--n-backward", "1"],
     "--n-backward"),
    (["--protocol", "oneway", "--field", "7", "--k", "1", "--delta-r", "0.5"],
     "--delta-r"),
], ids=["k", "u", "fixture", "topology-file", "n-forward", "n-backward", "delta-r"])
def test_simulate_refuses_an_option_the_entry_point_does_not_take(capsys, argv, flag):
    code, report, err = run(capsys, "simulate", "--trials", "3", *argv)
    assert code == 2 and report is None
    assert f"does not take {flag}" in err


def test_an_option_is_refused_before_its_file_is_read(capsys, tmp_path):
    # a missing file would exit 3; the refusal comes first and exits 2
    missing = str(tmp_path / "no-such-topology.json")
    code, report, err = run(capsys, "simulate", "--protocol", "perfect-3k", "--field", "7",
                            "--k", "1", "--trials", "1", "--topology-file", missing)
    assert code == 2 and report is None
    assert "does not take --topology-file" in err
    # a protocol that takes a graph still reports the missing file
    code, _, err = run(capsys, "simulate", "--protocol", "hyper-reliable", "--field", "7",
                       "--k", "1", "--trials", "1", "--topology-file", missing)
    assert code == 3 and "cannot read" in err


def test_a_config_entry_counts_as_its_option(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "single-feedback", "field": 7, "k": 3}))
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--trials", "3")
    assert code == 2 and "does not take --k" in err


def test_simulate_refuses_a_negative_trial_count(capsys):
    code, report, err = run(capsys, "simulate", "--protocol", "oneway", "--field", "7",
                            "--k", "1", "--trials", "-3")
    assert code == 2 and report is None and "--trials" in err


def test_privacy_refuses_fewer_than_one_sample(capsys):
    code, report, err = run(capsys, "privacy", "--protocol", "single-feedback",
                            "--field", "5", "--corrupt", "AB0", "--m0", "0", "--m1", "1",
                            "--estimate", "--samples", "0")
    assert code == 2 and report is None and "--samples" in err


def test_unreadable_config_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--config", str(tmp_path / "missing.json"))
    assert code == 3 and "cannot read config" in err


@pytest.mark.parametrize("text, message", [("{", "invalid config JSON"),
                                           ("[1, 2]", "must be a JSON object")],
                         ids=["invalid-json", "not-an-object"])
def test_malformed_config_exit_2(capsys, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 2 and message in err


def test_out_into_a_missing_directory_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "fixtures", "--out", str(tmp_path / "no" / "r.json"))
    assert code == 3 and "cannot write" in err


def test_unknown_flag_exit_2(capsys):
    assert run(capsys, "simulate", "--bogus", "1")[0] == 2


def test_privacy_requires_both_messages(capsys):
    code, _, err = run(capsys, "privacy", "--protocol", "single-feedback",
                       "--field", "5", "--corrupt", "AB0", "--m0", "0")
    assert code == 2 and "--m0 and --m1" in err


def test_hyper_reliable_refuses_a_separable_neighbor_net(capsys):
    # fig1 is read as its hypergraph, which {C, D} separates at k = 1
    code, report, err = run(capsys, "simulate", "--protocol", "hyper-reliable",
                            "--field", "7", "--fixture", "fig1", "--k", "1",
                            "--trials", "1")
    assert code == 1 and report is None
    assert "witness ['C', 'D']" in err


def test_simulate_sends_a_fixed_message_in_every_trial(capsys, monkeypatch):
    sent = []
    desc = protocols.get("perfect-oneway")

    @functools.wraps(desc.run)
    def recording(message, *args, **kw):
        sent.append(message.value)
        return desc.run(message, *args, **kw)

    monkeypatch.setattr(protocols, "get",
                        lambda name: dataclasses.replace(desc, run=recording))
    code, report, _ = run(capsys, "simulate", "--protocol", "perfect-oneway",
                          "--field", "7", "--k", "1", "--trials", "4", "--message", "9")
    assert code == 0 and report["successes"] == 4
    assert sent == [2] * 4


def test_graph_protocol_refuses_a_digraph(capsys):
    code, _, err = run(capsys, "simulate", "--protocol", "hyper-reliable", "--field", "7",
                       "--k", "1", "--topology-file", TOPOLOGY_FILE, "--trials", "1")
    assert code == 2 and "needs a hypergraph" in err


def test_empty_corrupt_tokens_are_skipped(capsys):
    code, report, _ = run(capsys, "simulate", "--protocol", "oneway", "--field", "7",
                          "--k", "1", "--trials", "2", "--corrupt", "AB0,,")
    assert code == 0 and report["corrupted"] == ["AB0"]
