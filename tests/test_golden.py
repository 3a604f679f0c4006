"""Golden ``psmt analyze``, ``psmt simulate`` and ``psmt privacy``
reports: the JSON stays byte-identical.  And one digest of what runs do
within and beyond the corruption bound.

Analyze: the seven fixtures, and the four directed fixture variants
written with ``fixtures.dumps`` to ``golden/digraph__<name>.json`` and
read back through ``--topology-file``, each at k=1 and k=2.  Only the
digraph reports list the disjoint paths themselves.

Simulate: fifteen configurations (every registry entry,
feedback-efficient at two sizes, hyper-reliable on fig5 and on duo)
times five fixed adversaries, at GF(2^16) with 30 trials and seed 3.
Two more reports contain failures: ``oneway`` over GF(7), where a
random adversary forges tags, and ``perfect-efficient`` with k+1
corrupted channels, where every trial delivers a wrong message.

Privacy: criterion 4's seventeen cases and neighbor-exchange over GF(3),
each for the messages 0 and q-1 at seed 3, and one Monte Carlo estimate.

Outcomes: ``golden/outcomes.txt`` has one line per run of every
registry entry in its ``sweep.ENTRIES`` configuration, at every
placement of k units and of k+1 units, passive, under each fixed
strategy and under the echo forger, with seeds 0-2 over GF(11).  A line gives the delivered
value, the flags, the rounds, a digest of the adversary's view and of
the transcript, and the detail.  A change in what failing runs do shows
up as a diff of these lines.

Regenerate after an intended change of behaviour with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from psmt import cli, fixtures, protocols
from psmt.cli import main
from psmt.field import GF
from psmt.netsim import AdversarySpec

import sweep
from test_cli import _REQUIRED

GOLDEN = pathlib.Path(__file__).parent / "golden"
OUTCOMES = GOLDEN / "outcomes.txt"

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
                           ["--fixture", "duo", "--k", "1", "--corrupt", "x"]),
    "hyper-private": ("hyper-private",
                      ["--fixture", "duo", "--k", "1", "--corrupt", "x"]),
    "neighbor-exchange": ("neighbor-exchange", ["--corrupt", "C"]),
}
ADVERSARIES = ["passive", "random", "shift", "junk", "stop"]

FAILING = {   # name: options of a report with failures
    "oneway-gf7-random": ["--protocol", "oneway", "--field", "7", "--k", "1",
                          "--trials", "200", "--seed", "1", "--corrupt", "AB0",
                          "--adversary", "random"],
    "perfect-efficient-k-plus-one-shift": ["--protocol", "perfect-efficient",
                                           "--field", "65536", "--k", "1", "--u", "1",
                                           "--trials", "30", "--seed", "3",
                                           "--corrupt", "AB0,AB1", "--adversary", "shift"],
}

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
    "hyper-private": ("hyper-private", 5, ["--fixture", "duo", "--k", "1",
                                           "--corrupt", "x"]),
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


def _failing_argv(case: str, out) -> list[str]:
    return ["simulate", "--out", str(out)] + FAILING[case]


def _failing_name(case: str) -> str:
    return f"failing__{case}.json"


def _digest(value) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=6).hexdigest()


def _location(where) -> str:
    return "".join(map(str, where)) if isinstance(where, tuple) else where


def _outcomes() -> str:
    lines = ["# entry corrupted adversary seed: delivered succeeded failed rounds"
             " view-digest transcript-digest detail"]
    spec = GF(11)
    for name, (kw, units) in sweep.ENTRIES.items():
        # single-feedback and neighbor-exchange take no k: they tolerate one
        run, k = protocols.get(name).run, kw.get("k", 1)
        for corrupted in sweep.placements(units, (k, k + 1)):
            where = ",".join(sorted(map(_location, corrupted)))
            for adversary in ("passive",) + sweep.STRATEGIES + (sweep.FORGER,):
                strategy = sweep.build(adversary, spec)
                for seed in range(3):
                    out = run(spec.element(seed + 4),
                              adversary=AdversarySpec(corrupted, strategy, seed=seed),
                              seed=seed, **kw)
                    delivered = "-" if out.delivered is None else out.delivered.value
                    lines.append(
                        f"{name} {where} {adversary} {seed}: {delivered}"
                        f" {out.succeeded} {out.failed} {out.rounds}"
                        f" {_digest(out.view.canonical())} {_digest(out.transcript)}"
                        f" {json.dumps(out.detail)}")
    return "".join(line + "\n" for line in lines)


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


def _command(argv: list[str]):
    """The entry point, field order, corrupted set and parameters that
    the CLI reads off a command line."""
    args = cli._build_parser().parse_args(argv)
    desc = protocols.get(args.protocol)
    return (desc.name, args.field, cli._parse_corrupt(args.corrupt, desc.kind),
            cli._protocol_kwargs(desc, args))


def test_command_lines_agree_with_the_sweep():
    # each privacy golden runs criterion 4's case its name starts with,
    # at that case's field order unless the name ends in -gf<order>
    rows = {label.replace(" ", "-"): row for label, *row in sweep.PRIVATE_CASES}
    for case in PRIVACY:
        label = max((label for label in rows if case.startswith(label)), key=len)
        name, kw, corrupted, q = rows[label]
        order = int(case.rsplit("-gf", 1)[1]) if "-gf" in case else q
        assert _command(_privacy_argv(case, "-")) == (name, order, corrupted, kw), case
    # the flags test_cli passes for each required parameter
    for name, options in _REQUIRED.items():
        argv = ["simulate", "--protocol", name] + [x for pair in options.values()
                                                   for x in pair]
        kw = _command(argv)[3]
        assert {p: kw[p] for p in options} == sweep.ENTRIES[name][0], name


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


@pytest.mark.parametrize("case", sorted(FAILING))
def test_failing_simulate_report_is_byte_identical(case, tmp_path, capsys):
    out = tmp_path / _failing_name(case)
    assert main(_failing_argv(case, out)) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["failures"] > 0
    assert out.read_bytes() == (GOLDEN / _failing_name(case)).read_bytes(), case


def test_outcomes_within_and_beyond_the_bound_are_byte_identical():
    got, want = _outcomes(), OUTCOMES.read_text()
    assert got == want, [pair for pair in zip(want.splitlines(), got.splitlines())
                         if pair[0] != pair[1]][:5]


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
    for case in FAILING:
        if main(_failing_argv(case, GOLDEN / _failing_name(case))):
            sys.exit(f"failing {case} failed")
    for case in PRIVACY:
        if main(_privacy_argv(case, GOLDEN / _privacy_name(case))):
            sys.exit(f"privacy {case} failed")
    OUTCOMES.write_text(_outcomes())
