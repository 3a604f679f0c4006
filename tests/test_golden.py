"""Golden ``psmt analyze``, ``psmt simulate`` and ``psmt privacy``
reports: the JSON stays byte-identical.

Analyze: the six fixtures, and the four directed fixture variants
written with ``fixtures.dumps`` to ``golden/digraph__<name>.json`` and
read back through ``--topology-file``, each at k=1 and k=2.  Only the
digraph reports list the disjoint paths themselves.

Simulate: fifteen configurations (every registry entry,
feedback-efficient at two sizes, hyper-reliable on two graphs) times
five fixed adversaries, at GF(2^16) with 30 trials and seed 3.
``duo.json`` is a multicast network A -> B directly and through relays x
and y, both ways; it is the one topology here that meets hyper-private's
precondition.

Privacy: the benchmark's fifteen private cases, plus ``oneway`` and
feedback-efficient's forward channel (the two that enumerate), each for
the messages 0 and q-1 at seed 3, and one Monte Carlo estimate.
hyper-private is left out for its run time; the acceptance tests cover
it.

Regenerate after an intended change of behaviour with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import pathlib
import sys

import pytest

from psmt import fixtures
from psmt.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DUO = str(GOLDEN / "duo.json")

CASES = {   # name: (protocol, options)
    "oneway": ("oneway", ["--k", "1", "--corrupt", "AB0"]),
    "single-feedback": ("single-feedback", ["--corrupt", "AB0"]),
    "subset-exchange": ("subset-exchange", ["--k", "1", "--n-forward", "2",
                                            "--n-backward", "1", "--corrupt", "AB0"]),
    "feedback-efficient-1-1": ("feedback-efficient",
                               ["--k", "1", "--u", "1", "--corrupt", "AB0"]),
    "feedback-efficient-2-2": ("feedback-efficient",
                               ["--k", "2", "--u", "2", "--corrupt", "AB0,BA0"]),
    "perfect-oneway": ("perfect-oneway", ["--k", "1", "--corrupt", "AB0"]),
    "perfect-3k": ("perfect-3k", ["--k", "1", "--corrupt", "AB1"]),
    "perfect-u1": ("perfect-u1", ["--k", "2", "--corrupt", "AB0,BA0"]),
    "perfect-general": ("perfect-general",
                        ["--k", "2", "--u", "1", "--corrupt", "AB1,AB3"]),
    "perfect-efficient": ("perfect-efficient",
                          ["--k", "1", "--u", "1", "--corrupt", "BA0"]),
    "perfect-shared": ("perfect-shared",
                       ["--k", "1", "--u", "1", "--corrupt", "AB2,BA0"]),
    "hyper-reliable-fig5": ("hyper-reliable",
                            ["--fixture", "fig5", "--k", "1", "--corrupt", "v1"]),
    "hyper-reliable-duo": ("hyper-reliable",
                           ["--topology-file", DUO, "--k", "1", "--corrupt", "x"]),
    "hyper-private": ("hyper-private",
                      ["--topology-file", DUO, "--k", "1", "--corrupt", "x"]),
    "neighbor-exchange": ("neighbor-exchange", ["--corrupt", "C"]),
}
ADVERSARIES = ["passive", "random", "shift", "junk", "stop"]

DIGRAPHS = {   # topology file name: directed fixture variant
    "two_path_feedback": fixtures.two_path_feedback,
    "feedback_detour": fixtures.feedback_detour,
    "braided_eight": fixtures.braided_eight,
    "chains_with_crosslink": fixtures.chains_with_crosslink,
}
ANALYZE = ([(name, ["--fixture", name]) for name in fixtures.names()]
           + [(f"digraph-{name}",
               ["--topology-file", str(GOLDEN / f"digraph__{name}.json")])
              for name in DIGRAPHS])

PRIVACY = {   # name: (protocol, field order, options)
    "oneway": ("oneway", 5, ["--k", "1", "--corrupt", "AB0"]),
    "single-feedback-fwd": ("single-feedback", 5, ["--corrupt", "AB0"]),
    "single-feedback-back": ("single-feedback", 5, ["--corrupt", "BA0"]),
    "subset-exchange-fwd": ("subset-exchange", 5, ["--k", "1", "--n-forward", "2",
                                                   "--n-backward", "1", "--corrupt", "AB0"]),
    "subset-exchange-back": ("subset-exchange", 5, ["--k", "1", "--n-forward", "2",
                                                    "--n-backward", "1", "--corrupt", "BA0"]),
    "feedback-efficient-fwd": ("feedback-efficient", 5,
                               ["--k", "1", "--u", "1", "--corrupt", "AB0"]),
    "feedback-efficient-back": ("feedback-efficient", 5,
                                ["--k", "1", "--u", "1", "--corrupt", "BA0"]),
    "perfect-oneway": ("perfect-oneway", 5, ["--k", "1", "--corrupt", "AB0"]),
    "perfect-3k-fwd": ("perfect-3k", 5, ["--k", "1", "--corrupt", "AB0"]),
    "perfect-3k-back": ("perfect-3k", 5, ["--k", "1", "--corrupt", "BA0"]),
    "perfect-u1": ("perfect-u1", 7, ["--k", "2", "--corrupt", "AB0,BA0"]),
    "perfect-general": ("perfect-general", 7,
                        ["--k", "2", "--u", "1", "--corrupt", "AB0,BA0"]),
    "perfect-efficient": ("perfect-efficient", 5,
                          ["--k", "1", "--u", "1", "--corrupt", "AB0"]),
    "perfect-shared": ("perfect-shared", 5,
                       ["--k", "1", "--u", "1", "--corrupt", "AB2,BA0"]),
    "neighbor-exchange-C": ("neighbor-exchange", 2, ["--corrupt", "C"]),
    "neighbor-exchange-F": ("neighbor-exchange", 2, ["--corrupt", "F"]),
    "neighbor-exchange-C-gf3": ("neighbor-exchange", 3, ["--corrupt", "C"]),
    "single-feedback-fwd-estimate": ("single-feedback", 5,
                                     ["--corrupt", "AB0", "--estimate",
                                      "--samples", "200"]),
}


def _argv(case: str, adversary: str, out) -> list[str]:
    protocol, options = CASES[case]
    return ["simulate", "--protocol", protocol, "--field", "65536",
            "--trials", "30", "--seed", "3", "--adversary", adversary,
            "--out", str(out)] + options


def _name(case: str, adversary: str) -> str:
    return f"{case}__{adversary}.json"


def _analyze_argv(case: str, k: int, out) -> list[str]:
    return ["analyze", "--k", str(k), "--out", str(out)] + dict(ANALYZE)[case]


def _analyze_name(case: str, k: int) -> str:
    return f"analyze__{case}__k{k}.json"


def _privacy_argv(case: str, out) -> list[str]:
    protocol, order, options = PRIVACY[case]
    return ["privacy", "--protocol", protocol, "--field", str(order),
            "--m0", "0", "--m1", str(order - 1), "--seed", "3",
            "--out", str(out)] + options


def _privacy_name(case: str) -> str:
    return f"privacy__{case}.json"


@pytest.mark.parametrize("case", sorted(dict(ANALYZE)))
def test_analyze_report_is_byte_identical(case, tmp_path, capsys):
    for k in (1, 2):
        out = tmp_path / _analyze_name(case, k)
        assert main(_analyze_argv(case, k, out)) == 0, capsys.readouterr().err
        assert out.read_bytes() == (GOLDEN / _analyze_name(case, k)).read_bytes(), (case, k)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_report_is_byte_identical(case, tmp_path, capsys):
    for adversary in ADVERSARIES:
        out = tmp_path / _name(case, adversary)
        assert main(_argv(case, adversary, out)) == 0, capsys.readouterr().err
        want = (GOLDEN / _name(case, adversary)).read_bytes()
        assert out.read_bytes() == want, (case, adversary)


@pytest.mark.parametrize("case", sorted(PRIVACY))
def test_privacy_report_is_byte_identical(case, tmp_path, capsys):
    out = tmp_path / _privacy_name(case)
    assert main(_privacy_argv(case, out)) == 0, capsys.readouterr().err
    assert out.read_bytes() == (GOLDEN / _privacy_name(case)).read_bytes(), case


if __name__ == "__main__":
    for name, build in DIGRAPHS.items():
        (GOLDEN / f"digraph__{name}.json").write_text(fixtures.dumps(build()) + "\n")
    for case, _ in ANALYZE:
        for k in (1, 2):
            if main(_analyze_argv(case, k, GOLDEN / _analyze_name(case, k))):
                sys.exit(f"analyze {case} k={k} failed")
    for case in CASES:
        for adversary in ADVERSARIES:
            if main(_argv(case, adversary, GOLDEN / _name(case, adversary))):
                sys.exit(f"{case} {adversary} failed")
    for case in PRIVACY:
        if main(_privacy_argv(case, GOLDEN / _privacy_name(case))):
            sys.exit(f"privacy {case} failed")
