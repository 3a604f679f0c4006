"""Closed-loop benchmark of psmt: one workload per process, one client.

    python3 perfbench/run.py --workload decode --seed 1 --seconds 6 --trace 0

Run from the repository root.  The workload's set-up is measured several
times and the last one kept; then whole rounds of its seeded operation
list run back to back, each operation issued when the previous one has
returned, until the time spent inside psmt reaches ``--seconds`` (and for
at least three rounds).  Outputs
are checked outside the timed spans.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).  Any
failed check or missing source tree exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

clock = time.perf_counter


def import_psmt():
    """Import psmt from this checkout's src/ and nowhere else."""
    if not (SRC / "psmt" / "field.py").is_file():
        raise SystemExit(f"error: no psmt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import psmt.cli  # noqa: F401  (pulls in every psmt module)
    for name, module in list(sys.modules.items()):
        if name == "psmt" or name.startswith("psmt."):
            for origin in [getattr(module, "__file__", None)] + list(
                    getattr(module, "__path__", [])):
                if origin and SRC.resolve() not in Path(origin).resolve().parents:
                    raise SystemExit(f"error: {name} comes from {origin}, not {SRC}")


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def tail(times) -> tuple[float, str, int]:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it.

    With fewer than 100 samples no percentile qualifies; p90 is then
    reported with the samples actually beyond it.
    """
    values = sorted(times)
    for label, p in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
        value = percentile(values, p)
        beyond = sum(1 for v in values if v > value)
        if beyond >= 10:
            return value, label, beyond
    value = percentile(values, 0.9)
    return value, "p90", sum(1 for v in values if v > value)


# The machine's speed drifts by tens of percent over seconds to minutes (other
# tenants share its cores).  A fixed pure-Python probe samples it at least
# every PROBE_EVERY seconds: between operations, and inside long ones where a
# hook of the benchmark runs (the privacy runner).  Each operation's time is
# scaled by NOMINAL_PROBE_S / (mean of the probes within WINDOW seconds of
# it, and at least the one before and the one after), so it reads as it
# would at the speed where the probe takes NOMINAL_PROBE_S.  Probe time is
# never counted as operation time; raw times go to the results file.
MIN_ROUNDS = 3   # privacy runs 16 operations a round; each op_p50_ms sample is a median of 3
PROBE_EVERY = 0.025
WINDOW = 0.1
PROBES_AROUND_SETUP = 4
NOMINAL_PROBE_S = 0.003   # the probe's time on the reference machine when quiet


def probe() -> float:
    """Seconds taken by a fixed loop of integer arithmetic and dict stores
    (about 3 ms on the reference machine when quiet).

    Over 85 one-second windows while the machine slowed by up to 1.6x, the
    log of this loop's time tracked the log of psmt's with slope 1.00; a
    loop of small-object arithmetic tracked it with slope 0.82, so scaling
    by it overcorrected.
    """
    start = clock()
    table = {}
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 65521
        table[i & 255] = (acc, i)
    return clock() - start


class Speed:
    """Probe samples, taken at most every PROBE_EVERY seconds, and when."""

    def __init__(self):
        self.at: list[float] = []        # clock() at the end of each probe
        self.took: list[float] = []      # its duration
        self.probing = 0.0               # total seconds spent in probes

    def tick(self) -> None:
        if not self.at or clock() - self.at[-1] >= PROBE_EVERY:
            self.sample()

    def sample(self) -> None:
        taken = probe()
        self.at.append(clock())
        self.took.append(taken)
        self.probing += taken

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured between ``start`` and ``end``."""
        at = self.at
        lo = min(bisect.bisect_left(at, start - WINDOW), bisect.bisect_left(at, start) - 1)
        hi = max(bisect.bisect_right(at, end + WINDOW), bisect.bisect_right(at, end) + 1)
        return NOMINAL_PROBE_S / statistics.mean(self.took[max(lo, 0):hi])


def set_up(builder, inputs, hooks, repeats):
    """Build the workload from its inputs ``repeats`` times; keep the last.

    Each set-up is timed and scaled by the mean of the probes just before
    and after it.  Making the inputs from the seed is not part of it.
    """
    raw, scaled = [], []
    before = [probe() for _ in range(PROBES_AROUND_SETUP)]
    for _ in range(repeats):
        t0 = clock()
        ops = builder(inputs, hooks)
        elapsed = clock() - t0
        after = [probe() for _ in range(PROBES_AROUND_SETUP)]
        raw.append(elapsed)
        scaled.append(elapsed * NOMINAL_PROBE_S / statistics.mean(before + after))
        before = after
    return ops, scaled, raw


class Rounds:
    """What whole rounds of an op list measured."""

    def __init__(self):
        self.busy: list[float] = []      # scaled seconds in psmt, per round
        self.raw_busy: list[float] = []  # the same, unscaled
        self.times: list[float] = []     # scaled seconds of every op
        self.per_op: dict = defaultdict(list)   # op index -> its scaled times
        self.by_group = defaultdict(list)
        self.done = self.failed = 0
        self.tallies = defaultdict(float)


def run_rounds(ops, speed: Speed, seconds=None, rounds=None,
               min_rounds=MIN_ROUNDS) -> Rounds:
    """Replay ``rounds`` whole rounds, or at least ``min_rounds`` until the
    raw time spent in psmt reaches ``seconds``."""
    r = Rounds()
    while True:
        timed = []               # (op, raw seconds, start, end)
        for op in ops:
            speed.tick()
            probing = speed.probing
            start = clock()
            out, elapsed = op.run()
            end = clock()
            elapsed -= speed.probing - probing
            if not op.check(out):
                r.failed += 1
            timed.append((op, elapsed, start, end))
            for key, value in op.tally(op.checked[0]).items():
                r.tallies[key] += value
        speed.sample()
        spent = raw = 0.0
        for i, (op, elapsed, start, end) in enumerate(timed):
            scaled = elapsed * speed.scale(start, end)
            r.times.append(scaled)
            r.per_op[i].append(scaled)
            r.by_group[op.group].append(scaled)
            spent += scaled
            raw += elapsed
        r.busy.append(spent)
        r.raw_busy.append(raw)
        r.done += len(ops)
        if rounds is not None and len(r.busy) >= rounds:
            return r
        if rounds is None and len(r.busy) >= min_rounds and sum(r.raw_busy) >= seconds:
            return r


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, r: Rounds, setup_times, hooks) -> tuple[dict, dict]:
    per_round = len(ops)
    t_value, t_label, t_beyond = tail(r.times)
    calls = sum(op.calls for op in ops) / per_round
    metrics = {
        "ops_per_s": (statistics.median(per_round / b for b in r.busy), "1/s"),
        # the op list is fixed, so the median op time is taken over the
        # list of each op's median across rounds
        "op_p50_ms": (1000.0 * statistics.median(
            statistics.median(ts) for ts in r.per_op.values()), "ms"),
        "op_tail_ms": (1000.0 * t_value, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "replays_per_op": (calls + hooks.replays / r.done, "count"),
    }
    notes = {"tail": f"{t_label} of {len(r.times)} samples, {t_beyond} beyond it",
             "rounds": len(r.busy), "ops_per_round": per_round,
             "raw_ops_per_s": statistics.median(per_round / b for b in r.raw_busy)}
    return metrics, notes


PROTOCOL_ENTRIES = [
    "feedback-efficient", "hyper-private", "hyper-reliable", "neighbor-exchange",
    "oneway", "perfect-3k", "perfect-efficient", "perfect-general", "perfect-oneway",
    "perfect-shared", "perfect-u1", "single-feedback", "subset-exchange",
]

SPAN_LAYERS = [
    "sharing.share", "sharing.reconstruct", "sharing.detect_errors",
    "sharing.correct_errors", "sharing.oracle_decode", "authcodes",
    "netsim.end_round", "strategies.tamper", "topology.max_disjoint_paths",
    "topology.min_vertex_separator", "topology.is_k_separable",
    "topology.strongly_k_connected", "topology.weakly_k_connected",
    "topology.connectivity_hierarchy",
]


def per_layer(tracer, n, tallies, untraced_groups, table_build_s, overhead) -> dict:
    """Per-layer metrics of ``n`` traced ops; run times come from untraced ops."""
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    m = {"field.table_build_s": (table_build_s, "s"),
         "trace.overhead_ratio": (overhead, "ratio")}
    for layer in SPAN_LAYERS:
        m[f"{layer}.calls_per_op"] = (calls[layer] / n, "count")
        m[f"{layer}.self_ms_per_op"] = (1000.0 * self_s[layer] / n, "ms")
    m["field.elem_ops_per_op"] = (calls["field.elem_ops"] / n, "count")
    m["field.spec_eq_per_op"] = (calls["field.spec_eq"] / n, "count")
    m["randomness.draws_per_op"] = (calls["randomness.draws"] / n, "count")
    m["randomness.streams_per_op"] = (calls["randomness.streams"] / n, "count")
    m["randomness.trace_draws_per_op"] = (calls["randomness.trace_draw"] / n, "count")
    m["randomness.trace_draw.self_ms_per_op"] = (
        1000.0 * self_s["randomness.trace_draw"] / n, "ms")
    m["netsim.transmit.self_ms_per_op"] = (1000.0 * self_s["netsim.transmit"] / n, "ms")
    m["netsim.majority_of.calls_per_op"] = (calls["netsim.majority_of"] / n, "count")
    m["netsim.messages_per_op"] = (tallies["messages"] / n, "count")
    m["topology.strong_witness_path.calls_per_op"] = (
        calls["topology.strong_witness_path"] / n, "count")
    m["protocols.self_ms_per_op"] = (1000.0 * self_s["protocols"] / n, "ms")
    for entry in PROTOCOL_ENTRIES:
        runs = untraced_groups.get(entry)
        m[f"protocols.{entry}.run_ms"] = (
            1000.0 * statistics.median(runs) if runs else 0.0, "ms")
    m["privacy.view_distance.self_ms_per_op"] = (
        1000.0 * self_s["privacy.view_distance"] / n, "ms")
    replays = calls["privacy.replay"]
    m["privacy.replay_ms"] = (
        1000.0 * total_s["privacy.replay"] / replays if replays else 0.0, "ms")
    attempts = tallies["certifications"]
    m["privacy.certified_ratio"] = (
        tallies["certified"] / attempts if attempts else 0.0, "ratio")
    m["privacy.mc_samples_per_op"] = (tallies["mc_samples"] / n, "count")
    return m


def traced(builder, inputs, seconds, ops, speed, Hooks, Tracer):
    """Untraced rounds, then the same number of rounds with the tracer on.

    Probes run only between operations here, so that no probe falls
    inside a span, and one round may do, so that privacy ends in time.
    """
    base = run_rounds(ops, speed, seconds=seconds / 2, min_rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = builder(inputs, Hooks(tracer))
        table_build_s = tracer.total_s["field.table_build"]
        tracer.reset()
        for old, new in zip(ops, traced_ops):
            if old.label != new.label:
                raise SystemExit("error: traced set-up built a different op list")
            new.checked = old.checked
        r = run_rounds(traced_ops, speed, rounds=len(base.busy))
    finally:
        tracer.uninstall()
    metrics = per_layer(tracer, r.done, r.tallies, base.by_group, table_build_s,
                        sum(r.busy) / sum(base.busy))
    return metrics, r, {"missing_hooks": tracer.missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_psmt()
    from checks import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS, Hooks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    make_inputs, builder, warmups, setups = WORKLOADS[args.workload]
    speed = Speed()
    hooks = Hooks(tick=None if args.trace else speed.tick)
    try:
        inputs = make_inputs(args.seed)
        ops, setup_times, raw_setup = set_up(builder, inputs, hooks, setups)
        if warmups:
            run_rounds(ops, speed, rounds=warmups)
        hooks.replays = 0
        if args.trace:
            metrics, r, notes = traced(builder, inputs, args.seconds, ops, speed,
                                       Hooks, Tracer)
        else:
            r = run_rounds(ops, speed, seconds=args.seconds)
            metrics, notes = end_to_end(ops, r, setup_times, hooks)
            notes["raw_setup_s"] = raw_setup
    except CheckFailed as exc:
        print(f"error: wrong output: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": True,
        "attempted": r.done,
        "failed": r.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(dict(result, notes=notes), indent=2, default=str) + "\n")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
