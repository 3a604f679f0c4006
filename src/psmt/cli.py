"""Command line front end.

Subcommands:

* ``fixtures`` — list the built-in example topologies or dump one as JSON.
* ``analyze``  — connectivity analysis of a fixture or a topology file.
* ``simulate`` — run a protocol for many trials against an adversary.
* ``privacy``  — bound the adversary's view distance for two messages.

Options may also be supplied through a JSON config file (``--config``);
explicit command line flags override config entries.  Reports are
emitted as deterministic JSON on stdout (or ``--out``) with a short
human-readable table on stderr.

Exit codes: 0 success, 1 protocol precondition violated, 2 invalid
parameters or malformed input, 3 file I/O failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys

from . import fixtures, protocols, strategies, topology
from .errors import ParamError, PreconditionError, PsmtError
from .field import GF
from .netsim import AdversarySpec
from .privacy import monte_carlo_distance, shared_rng_runner, view_distance
from .randomness import Randomness, derive_trial_seed
from .topology import Digraph, Hypergraph, NeighborNet


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psmt",
        description="secure message transmission protocols and analyzers")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("fixtures", help="list or export example topologies")
    common(p)
    p.add_argument("--name", help="dump this fixture instead of listing")

    p = sub.add_parser("analyze", help="connectivity analysis of a topology")
    common(p)
    p.add_argument("--fixture", help="name of a built-in topology")
    p.add_argument("--topology-file", help="JSON topology description")
    p.add_argument("--k", type=int, default=1,
                   help="corruption bound used in the connectivity questions")

    for name in ("simulate", "privacy"):
        p = sub.add_parser(
            name,
            help="run protocol trials" if name == "simulate"
            else "bound the adversary view distance between two messages")
        common(p)
        p.add_argument("--protocol", help="one of: " + ", ".join(protocols.names()))
        p.add_argument("--field", type=int, help="field order (prime power)")
        p.add_argument("--k", type=int, help="corruption bound")
        p.add_argument("--u", type=int, help="number of feedback channels")
        p.add_argument("--n-forward", type=int, dest="n_forward")
        p.add_argument("--n-backward", type=int, dest="n_backward")
        p.add_argument("--fixture", help="topology fixture (graph protocols)")
        p.add_argument("--topology-file", help="JSON topology description")
        p.add_argument("--corrupt", default="",
                       help="comma list of channels (AB0,BA1) or node names")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        if name == "simulate":
            p.add_argument("--adversary", default="passive",
                           help="tampering strategy: "
                           + ", ".join(sorted(strategies.BUILTIN))
                           + ", constant:<int>")
            p.add_argument("--trials", type=int, default=100)
            p.add_argument("--message", type=int,
                           help="fixed message value (default: per-trial uniform)")
            p.add_argument("--delta-r", type=float, dest="delta_r",
                           help="idealized reliable channel failure probability")
        else:
            p.add_argument("--m0", type=int, required=False)
            p.add_argument("--m1", type=int, required=False)
            p.add_argument("--estimate", action="store_true",
                           help="Monte Carlo estimate only (default: certified"
                                " analysis, symbolic then exact enumeration)")
            p.add_argument("--limit", type=int, default=200_000,
                           help="per-component state-space cap for enumeration")
            p.add_argument("--samples", type=int, default=4000,
                           help="Monte Carlo samples per message")
    return parser


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill unset options from the JSON config; explicit flags win."""
    if not args.config:
        return
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise _IOFailure(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParamError(f"invalid config JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParamError("config must be a JSON object")
    given = {tok.split("=", 1)[0].lstrip("-").replace("-", "_")
             for tok in argv if tok.startswith("--")}
    for key, value in cfg.items():
        attr = str(key).replace("-", "_")
        if not hasattr(args, attr):
            raise ParamError(f"unknown config option {key!r}")
        if attr not in given:
            setattr(args, attr, value)


class _IOFailure(Exception):
    pass


def _load_graph(args):
    if getattr(args, "topology_file", None):
        try:
            with open(args.topology_file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise _IOFailure(f"cannot read {args.topology_file}: {exc}") from exc
        return fixtures.loads(text)
    if getattr(args, "fixture", None):
        return fixtures.get(args.fixture)
    return None


def _parse_corrupt(text: str, kind: str) -> frozenset:
    if not text:
        return frozenset()
    out = []
    for token in str(text).split(","):
        token = token.strip()
        if not token:
            continue
        if kind == "channels":
            if token[:2] not in ("AB", "BA") or not token[2:].isdigit():
                raise ParamError(
                    f"corrupted channel {token!r} must look like AB0 or BA1")
            out.append((token[:2], int(token[2:])))
        else:
            out.append(token)
    return frozenset(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fixtures(args) -> dict:
    if args.name:
        return fixtures.to_dict(fixtures.get(args.name))
    return {"fixtures": fixtures.names()}


def _cmd_analyze(args) -> dict:
    g = _load_graph(args)
    if g is None:
        raise ParamError("analyze needs --fixture or --topology-file")
    k = args.k
    if not isinstance(k, int) or k < 0:
        raise ParamError(f"--k must be an integer of at least 0, got {k!r}")
    report: dict = {"topology": fixtures.to_dict(g), "k": k}
    if isinstance(g, Digraph):
        ps, sep = topology.menger(g)
        report["disjoint_paths"] = [list(p) for p in ps.paths]
        report["max_disjoint_paths"] = len(ps.paths)
        report["min_vertex_separator"] = sorted(sep) if sep is not None else None
    elif isinstance(g, Hypergraph):
        ps, cut = topology.menger(g)
        sep = topology.separable_by(cut, 2 * k)
        report["strongly_k_connected"] = topology.strongly_k_connected(g, k)
        report["weakly_k_connected"] = topology.weakly_k_connected(g, k)
        report["2k_separable"] = sep
        report["separator_witness"] = sorted(cut) if sep else None
        report["max_disjoint_paths"] = len(ps.paths)
    elif isinstance(g, NeighborNet):
        report["hierarchy"] = topology.connectivity_hierarchy(g, k)
        ps, cut = topology.menger(topology.to_hypergraph(g))
        sep = topology.separable_by(cut, k)
        report["k_separable_as_hypergraph"] = sep
        report["separator_witness"] = sorted(cut) if sep else None
        report["max_disjoint_paths"] = len(ps.paths)
    else:  # pragma: no cover - fixtures only yield the three kinds
        raise ParamError(f"cannot analyze {type(g).__name__}")
    return report


# the uniform entry-point parameters, which the harness itself supplies
_HARNESS = {"message", "adversary", "seed", "rng"}

# each protocol option and the entry-point parameter it sets
_OPTIONS = {"k": "k", "u": "u", "n_forward": "n_forward", "n_backward": "n_backward",
            "delta_r": "delta_r", "fixture": "graph", "topology_file": "graph"}


def _protocol_kwargs(desc, args):
    """The entry point's other parameters, read off its signature: one
    without a default is required, an optional one is passed only when
    its flag has a value, and an option whose parameter it lacks is
    refused before any file is read."""
    params = inspect.signature(desc.run).parameters
    for option, name in _OPTIONS.items():
        if getattr(args, option, None) is not None and name not in params:
            raise ParamError(f"protocol {desc.name} does not take "
                             f"--{option.replace('_', '-')}")
    graph = _load_graph(args)
    kw: dict = {}
    for name, param in params.items():
        if name in _HARNESS:
            continue
        value = graph if name == "graph" else getattr(args, name, None)
        if value is None:
            if param.default is param.empty:
                flag = ("--fixture or --topology-file" if name == "graph"
                        else "--" + name.replace("_", "-"))
                raise ParamError(f"protocol {desc.name} requires {flag}")
            continue
        if name == "graph" and not isinstance(value, Hypergraph):
            if not isinstance(value, NeighborNet):
                raise ParamError(f"protocol {desc.name} needs a hypergraph")
            value = topology.to_hypergraph(value)
        kw[name] = value
    return kw


def _protocol_run(args):
    """The entry, field, parameters and corrupted set that ``simulate``
    and ``privacy`` read off a command line."""
    desc = protocols.get(args.protocol or "")
    if args.field is None:
        raise ParamError("missing --field")
    spec = GF(int(args.field))
    kw = _protocol_kwargs(desc, args)
    return desc, spec, kw, _parse_corrupt(args.corrupt, desc.kind)


def _corrupt_names(corrupted) -> list[str]:
    """The corrupted set as ``--corrupt`` takes it: AB0, BA1 or node names."""
    return sorted(c if isinstance(c, str) else "".join(map(str, c)) for c in corrupted)


def _wilson_interval(bad: int, trials: int) -> list[float]:
    """95% Wilson score interval of a failure rate: exactly 0 at no
    failures, 1 at all failures, and [0, 1] at no trials."""
    rate, z2 = bad / max(trials, 1), 1.96 ** 2 / max(trials, 1)
    centre = (rate + z2 / 2) / (1 + z2)
    half = math.sqrt(z2 * rate * (1 - rate) + z2 * z2 / 4) / (1 + z2)
    return [max(0.0, centre - half) if bad else 0.0,
            min(1.0, centre + half) if bad < trials else 1.0]


def _cmd_simulate(args) -> dict:
    trials = int(args.trials)
    if trials < 0:
        raise ParamError(f"--trials must be at least 0, got {trials}")
    desc, spec, kw, corrupted = _protocol_run(args)
    strategy = strategies.build(args.adversary, spec)

    successes = failures = wrong = 0
    rounds_hist: dict[int, int] = {}
    for t in range(trials):
        seed_t = derive_trial_seed(args.seed, t)
        if args.message is not None:
            message = spec.element(int(args.message) % spec.order)
        else:
            # per-trial message drawn from the master seed, not the parties'
            message = spec.sample(Randomness((args.seed, "msg", t)))
        adversary = AdversarySpec(corrupted, strategy, seed=seed_t)
        outcome = desc.run(message, adversary=adversary, seed=seed_t, **kw)
        rounds_hist[outcome.rounds] = rounds_hist.get(outcome.rounds, 0) + 1
        if outcome.succeeded:
            successes += 1
        elif outcome.failed:
            failures += 1
        else:
            wrong += 1
    bad = failures + wrong
    rate = bad / trials if trials else 0.0
    report = {
        "protocol": desc.name,
        "field": spec.order,
        "adversary": args.adversary,
        "corrupted": _corrupt_names(corrupted),
        "trials": trials,
        "successes": successes,
        "detected_failures": failures,
        "wrong_deliveries": wrong,
        "failures": bad,
        "failure_rate": rate,
        "failure_rate_ci95": _wilson_interval(bad, trials),
        "rounds_histogram": {str(r): c for r, c in sorted(rounds_hist.items())},
        "rounds_max": max(rounds_hist, default=0),
        "seed": args.seed,
    }
    for key in ("k", "u"):
        if getattr(args, key, None) is not None:
            report[key] = getattr(args, key)
    return report


def _cmd_privacy(args) -> dict:
    if int(args.samples) < 1:
        raise ParamError(f"--samples must be at least 1, got {args.samples}")
    desc, spec, kw, corrupted = _protocol_run(args)
    if not desc.private:
        raise ParamError(f"protocol {desc.name} makes no privacy claim")
    if args.m0 is None or args.m1 is None:
        raise ParamError("privacy needs --m0 and --m1")
    m0 = spec.element(int(args.m0) % spec.order)
    m1 = spec.element(int(args.m1) % spec.order)
    adversary = AdversarySpec(corrupted)  # privacy is against eavesdropping
    run = shared_rng_runner(desc.run, adversary=adversary, seed=args.seed, **kw)
    if args.estimate:
        rep = monte_carlo_distance(run, m0, m1, seed=args.seed,
                                   samples=args.samples)
    else:
        rep = view_distance(run, m0, m1, seed=args.seed, limit=args.limit,
                            samples=args.samples)
    report = {
        "protocol": desc.name,
        "field": spec.order,
        "corrupted": _corrupt_names(corrupted),
        "m0": m0.value,
        "m1": m1.value,
        "method": rep.method,
        "lower": rep.lower,
        "upper": rep.upper,
        "components": rep.components,
        "component_distances": rep.component_tv,
        "samples": rep.samples,
        "perfectly_private": rep.perfectly_private,
        "note": rep.note,
        "replays": rep.replays,
        "fallback": rep.fallback,
        "seed": args.seed,
    }
    if rep.method == "monte-carlo":
        report["estimate"] = rep.component_tv[0] if rep.component_tv else None
        report["confidence"] = ("uncertified plug-in estimate over "
                                f"{rep.samples} samples per message")
    return report


# ---------------------------------------------------------------------------


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _IOFailure(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    width = max((len(k) for k in report), default=0)
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"  {key:<{width}}  {value}", file=sys.stderr)


_COMMANDS = {
    "fixtures": _cmd_fixtures,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "privacy": _cmd_privacy,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _apply_config(args, argv)
        report = _COMMANDS[args.command](args)
        _emit(report, args)
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 1
    except (ParamError, PsmtError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
