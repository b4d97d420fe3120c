"""Worker process of the benchmark: runs one workload, prints one JSON line.

    python3 perfbench/child.py setup   SPEC_JSON
    python3 perfbench/child.py measure SPEC_JSON SECONDS TRACE

`setup` goes from a fresh interpreter to the first probe the workload sends,
prints `ready` and exits on the spot; `perfbench/run.py` times it.
`measure` repeats the workload until SECONDS have passed, with tracing off
and host-speed reference slices timed around and inside each pass, then
checks the outputs. With TRACE=1 it spends half the time untraced and then
runs the workload once more with every layer wrapped in spans.
SPEC_JSON is made by `perfbench/run.py`; it holds the generated inputs'
parameters, so this file holds no workload constants.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from itertools import accumulate
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flowprobe  # noqa: E402
from flowprobe import attacker, cli, experiments, flowtable, netsim  # noqa: E402

from tracing import Observer, Spans, patched  # noqa: E402

if not Path(flowprobe.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"flowprobe imported from {flowprobe.__file__}, not from {ROOT / 'src'}")

PHASE_FUNCTIONS = {
    "bootstrap_thresholds": "bootstrap",
    "measure_idle_timeout": "idle_timeout",
    "measure_hard_timeout": "hard_timeout",
    "infer_fifo": "infer",
    "infer_lru": "infer",
}


# -- inputs ------------------------------------------------------------------


def churn_stream(spec: dict):
    """Seeded multi-tenant packet stream: (key, time_us) pairs.

    Flows are split across tenant prefixes and ranked by a shuffled Zipf(1)
    popularity. The packet rate alternates between a low and a high level,
    so the table drains through idle expiry in quiet periods and fills up
    and evicts in busy ones.
    """
    rng = Random(spec["seed"])
    tenants = [netsim.KeySequence(prefix) for prefix in spec["tenant_prefixes"]]
    n = len(tenants)
    flows = [tenants[i % n].key_at(i // n) for i in range(spec["flows"])]
    rng.shuffle(flows)
    cum = list(accumulate(1.0 / rank for rank in range(1, len(flows) + 1)))
    total = cum[-1]
    rates = (spec["low_pps"], spec["high_pps"])
    period = spec["period_s"]
    t = 0.0
    for _ in range(spec["packets"]):
        t += rng.expovariate(rates[int(t // period) % 2])
        yield flows[bisect(cum, rng.random() * total)], round(t * 1e6)


def churn_switch(spec: dict, record_trace: bool = False):
    return netsim.SwitchSimulator(
        capacity=spec["capacity"],
        policy=spec["policy"],
        idle_timeout_ms=spec["idle_ms"],
        latency=netsim.LatencyModel(noise=spec["noise"], seed=spec["seed"]),
        workload=netsim.BackgroundWorkload(
            arrival_rate=spec["background_rate"],
            initial_usage=spec["initial_usage"],
            seed=spec["seed"] + 1,
        ),
        record_trace=record_trace,
    )


# -- host speed ----------------------------------------------------------------


class _Slot:
    __slots__ = ("key", "stamp")

    def __init__(self, key, stamp):
        self.key = key
        self.stamp = stamp

    def touch(self, stamp):
        self.stamp = stamp
        return self.key


def reference_seconds(n: int = 5_000) -> float:
    """Host seconds for a fixed slice of pure-Python work outside flowprobe.

    The work mixes what the simulator's hot paths do (dict lookups on tuple
    keys, slotted objects, method calls, a heap, a seeded RNG); no change to
    flowprobe can move it. The cyclic collector is paused so that the size
    of the workload's live heap does not move it either.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = Random(1)
        table: dict = {}
        heap: list = []
        for i in range(n):
            key = ((i * 7919) % 1009, "10.1")
            slot = table.get(key)
            if slot is None:
                table[key] = _Slot(key, i)
                heapq.heappush(heap, (i + int(rng.random() * 100), i))
            else:
                slot.touch(i)
            if heap and heap[0][0] < i - 50:
                heapq.heappop(heap)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostGauge:
    """Reference slices taken at fixed points before, inside and after a pass.

    The host is shared, and its speed for this process swings by 1.5x or
    more within seconds. Slices spread through the pass sample the speed at
    the same moments as the work; their mean is the pass's reference time.
    Each slice's whole duration is booked as `paused`, which the pass leaves
    out of its own wall time.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.paused = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.slices.append(reference_seconds())
        self.paused += time.perf_counter() - t0

    def gauged(self, fn):
        """`fn`, preceded by one slice on every call."""
        def call(*args, **kwargs):
            self.sample()
            return fn(*args, **kwargs)
        return call


# -- checks ------------------------------------------------------------------


class Checks:
    """Correctness gates; each one attempted counts toward `fail_rate`."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def __call__(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


# -- one pass of a workload --------------------------------------------------


def pipeline_pass(spec: dict, observer: Observer, spans, gauge) -> tuple[float, dict]:
    """`flowprobe sweep --check` in process; returns wall seconds and outputs."""
    main = cli.main if spans is None else spans.wrap("cli.main", cli.main)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(spec["argv"])
    wall = time.perf_counter() - t0 - (gauge.paused if gauge else 0.0)
    observer.flush()
    return wall, {"exit": code, "csv": out.getvalue(), "stderr": err.getvalue()}


def churn_pass(spec: dict, observer: Observer, segments: list, gauge) -> tuple[float, dict]:
    """Replay the stream into a fresh switch; returns wall seconds and outputs."""
    sim = churn_switch(spec)
    send = sim.send_probe
    table = sim.table
    capacity = table.capacity
    samples = []
    over = 0
    t0 = time.perf_counter()
    for segment in segments:
        if gauge:
            gauge.sample()
        for key, at in segment:
            samples.append(send(key, at))
            if len(table) > capacity:
                over += 1
    wall = time.perf_counter() - t0 - (gauge.paused if gauge else 0.0)
    observer.tally_switch(sim)
    return wall, {"samples": samples, "over_capacity": over}


def pipeline_outputs(spec: dict, out: dict, checks: Checks) -> tuple[str, dict, dict]:
    """Digest, CSV-derived counts and accuracy of one pipeline pass."""
    rows = list(csv.DictReader(io.StringIO(out["csv"])))
    checks(f"sweep --check exits 0 (declared bounds pass) {out['stderr'].strip()}",
           out["exit"] == 0)
    exact = set(spec["exact_scenarios"])
    per_scenario: dict[str, list] = {}
    counts = Counter(runs=len(rows), runs_failed=0)
    for row in rows:
        counts["csv_wall_events"] += int(row["wall_events"])
        if row["inferred_capacity"] == "":
            counts["runs_failed"] += 1
            continue
        capacity, usage = int(row["inferred_capacity"]), int(row["inferred_usage"])
        truth_c, truth_u = int(row["truth_capacity"]), int(row["truth_usage"])
        counts["csv_probes_sent"] += int(row["probes_sent"])
        checks(f"{row['scenario']}#{row['repeat']}: f_capacity <= C", capacity <= truth_c)
        if row["scenario"] in exact:
            checks(f"{row['scenario']}#{row['repeat']}: exact with idle background",
                   (capacity, usage) == (truth_c, truth_u))
        per_scenario.setdefault(row["scenario"], [truth_c, truth_u, [], []])
        per_scenario[row["scenario"]][2].append(capacity)
        per_scenario[row["scenario"]][3].append(usage)
    errors = {"capacity_rel_error": 0.0, "usage_rel_error": 0.0}
    for truth_c, truth_u, caps, usages in per_scenario.values():
        errors["capacity_rel_error"] = max(
            errors["capacity_rel_error"],
            experiments.relative_error(statistics.fmean(caps), truth_c))
        errors["usage_rel_error"] = max(
            errors["usage_rel_error"],
            experiments.relative_error(statistics.fmean(usages), truth_u))
    return hashlib.sha256(out["csv"].encode()).hexdigest(), dict(counts), errors


def churn_outputs(out: dict, checks: Checks) -> tuple[str, dict, dict]:
    checks("table never exceeds capacity", out["over_capacity"] == 0)
    text = "".join(f"{s.branch},{s.rtt_us}\n" for s in out["samples"])
    branches = Counter(f"branch_{s.branch}" for s in out["samples"])
    counts = dict(branches, runs=1, runs_failed=int(out["over_capacity"] > 0))
    return hashlib.sha256(text.encode()).hexdigest(), counts, {
        "capacity_rel_error": 0.0, "usage_rel_error": 0.0}


def oracle_prefix_check(spec: dict, stream: list, first_pass: dict,
                        checks: Checks) -> dict:
    """Replay a stream prefix through the scan-based `ReplayOracle`.

    The switch records its event trace (probes and background arrivals);
    the oracle replays the same events and must agree on every hit, miss
    and full-table miss, and on the exact sequence of evicted keys.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import ReplayOracle

    sim = churn_switch(spec, record_trace=True)
    prefix = stream[:spec["oracle_prefix"]]
    for key, at in prefix:
        sim.send_probe(key, at)
    oracle = ReplayOracle(sim.table.capacity, sim.table.policy)
    idle_us = netsim.ms_to_us(spec["idle_ms"])
    initial = netsim.KeySequence(netsim.BACKGROUND_PREFIX)
    for i in range(spec["initial_usage"]):
        oracle.insert(initial.key_at(i), 0, 0, idle_us, flowtable.OWNER_BACKGROUND)
    branches, victims, over = [], [], 0
    for event in sim.trace:
        if oracle.lookup(event.key, event.time_us):
            branch = netsim.BRANCH_HIT
        else:
            victim, was_full = oracle.insert(event.key, event.time_us, 0, idle_us,
                                             event.owner)
            branch = netsim.BRANCH_MISS_FULL if was_full else netsim.BRANCH_MISS_NOTFULL
            if victim is not None:
                victims.append(victim)
            over += len(oracle.entries) > oracle.capacity
        branches.append(branch)
    checks("oracle: same hit/miss/full-miss sequence",
           branches == [event.branch for event in sim.trace])
    evicted = [r.key for r in sim.table.removal_log if r.reason == flowtable.EVICTED]
    checks("oracle: same victim sequence", victims == evicted)
    checks("oracle: never over capacity", over == 0)
    replayed = [(e.branch, e.rtt_us) for e in sim.trace if e.kind == netsim.EVENT_PROBE]
    timed = [(s.branch, s.rtt_us) for s in first_pass["samples"][:len(prefix)]]
    checks("oracle prefix replays the timed pass", replayed == timed)
    reasons = Counter(r.reason for r in sim.table.removal_log)
    return {"packets": len(prefix), "events": len(sim.trace),
            "evicted": reasons[flowtable.EVICTED], "expired": reasons[flowtable.EXPIRED]}


# -- instrumentation ---------------------------------------------------------


def instruments(observer: Observer, spans, gauge) -> list:
    """Replacements for `patched`: phase observers always, then either
    reference slices before each phase (untraced) or spans (traced)."""
    out = []
    for attr, phase in PHASE_FUNCTIONS.items():
        fn = observer.phase(phase, getattr(experiments, attr))
        if gauge is not None:
            fn = gauge.gauged(fn)
        if spans is not None:
            fn = spans.wrap(f"attacker.{phase}", fn)
        out.append((experiments, attr, fn))
    out.append((experiments, "SwitchSimulator", observer.build_switch))
    if spans is None:
        return out
    evicted = (lambda result: result.evicted is not None, "_evict", "_plain")
    for owner, attr, name, split in (
        (flowtable.FlowTable, "lookup", "flowtable.lookup", (bool, ".hit", ".miss")),
        (flowtable.FlowTable, "insert", "flowtable.insert", evicted),
        (flowtable.FlowTable, "purge_expired", "flowtable.purge", None),
        (netsim.SwitchSimulator, "__init__", "netsim.sim_init", None),
        (netsim.SwitchSimulator, "send_probe", "netsim.send_probe", None),
        (netsim.KeySequence, "next_key", "netsim.key_gen", None),
        (attacker.ProbeSession, "probe", "attacker.probe", None),
        (experiments, "run_scenario", "experiments.run_scenario", None),
        (experiments, "write_sweep_csv", "experiments.write_sweep_csv", None),
    ):
        out.append((owner, attr, spans.wrap(name, getattr(owner, attr), split)))
    return out


def layer_metrics(totals: dict, counts: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced pass (see BENCHMARK.json `per_layer`).

    `.calls` count spans, `.us` is inclusive and `.self_us` self time per
    call, `.s` is inclusive seconds in the pass; plain names are exact
    counts read from public state.
    """
    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def seconds(*names, field="s"):
        return sum(totals.get(n, {}).get(field, 0.0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call_us(*names, field="s"):
        return ratio(seconds(*names, field=field) * 1e6, calls(*names))

    lookups = ("flowtable.lookup.hit", "flowtable.lookup.miss")
    inserts = ("flowtable.insert_evict", "flowtable.insert_plain")
    m = {
        "flowtable.lookup.calls": calls(*lookups),
        "flowtable.lookup.hit_ratio": ratio(calls(lookups[0]), calls(*lookups)),
        "flowtable.lookup.us": per_call_us(*lookups),
        "flowtable.insert.calls": calls(*inserts),
        "flowtable.insert.evict_ratio": ratio(calls(inserts[0]), calls(*inserts)),
        "flowtable.insert_evict.us": per_call_us(inserts[0]),
        "flowtable.insert_plain.us": per_call_us(inserts[1]),
        "flowtable.purge.calls": calls("flowtable.purge"),
        "flowtable.purge.us": per_call_us("flowtable.purge"),
        "flowtable.expired": counts.get(f"removed_{flowtable.EXPIRED}", 0),
        "flowtable.removal_log_len": counts["removal_log_len"],
        "netsim.send_probe.calls": calls("netsim.send_probe"),
        "netsim.send_probe.self_us": per_call_us("netsim.send_probe", field="self_s"),
        "netsim.key_gen.calls": calls("netsim.key_gen"),
        "netsim.key_gen.us": per_call_us("netsim.key_gen"),
        "netsim.background_arrivals": counts["background_arrivals"],
        "netsim.events": counts["events"],
        "netsim.sim_init.calls": calls("netsim.sim_init"),
        "netsim.sim_init.us": per_call_us("netsim.sim_init"),
        "attacker.probe.calls": calls("attacker.probe"),
        "attacker.probe.self_us": per_call_us("attacker.probe", field="self_s"),
    }
    for phase in Observer.PHASES:
        m[f"attacker.{phase}.s"] = seconds(f"attacker.{phase}")
        m[f"attacker.{phase}.probes"] = counts.get(f"{phase}.probes", 0)
    m["attacker.infer.useful_ratio"] = ratio(counts.get("infer.distinct_keys", 0),
                                             counts.get("infer.probes_sent", 0))
    m["experiments.self_s"] = seconds("experiments.run_scenario",
                                      "experiments.write_sweep_csv", field="self_s")
    m["experiments.write_sweep_csv.s"] = seconds("experiments.write_sweep_csv")
    m["cli.self_s"] = seconds("cli.main", field="self_s")
    m["trace.overhead_ratio"] = overhead
    return m


# -- modes -------------------------------------------------------------------


def setup(spec: dict) -> None:
    def first_probe(self, key, at_us):
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        os._exit(0)

    netsim.SwitchSimulator.send_probe = first_probe
    if spec["kind"] == "pipeline":
        with redirect_stderr(io.StringIO()):
            cli.main(spec["argv"])
    else:
        key, at = next(churn_stream(spec))
        churn_switch(spec).send_probe(key, at)
    sys.exit("workload ended before its first probe")


def measure(spec: dict, seconds: float, trace: bool) -> dict:
    pipeline = spec["kind"] == "pipeline"
    stream = None if pipeline else list(churn_stream(spec))
    checks = Checks()

    segments = None if pipeline else [
        stream[i:i + spec["segment_packets"]]
        for i in range(0, len(stream), spec["segment_packets"])]

    def one_pass(spans=None):
        observer = Observer(netsim.SwitchSimulator)
        # A traced pass takes reference slices only before and after itself,
        # so that no slice lands inside a span.
        gauge = HostGauge()
        inner = gauge if spans is None else None
        with patched(instruments(observer, spans, inner)):
            gauge.sample()
            gauge.paused = 0.0
            if pipeline:
                wall, out = pipeline_pass(spec, observer, spans, inner)
            else:
                wall, out = churn_pass(spec, observer, segments, inner)
            gauge.sample()
        if pipeline:
            digest, counts, errors = pipeline_outputs(spec, out, checks)
            checks("sum of CSV wall_events equals switch events",
                   counts["csv_wall_events"] == observer.counts["events"])
        else:
            digest, counts, errors = churn_outputs(out, checks)
        counts.update(observer.counts)
        return wall, statistics.fmean(gauge.slices), digest, counts, errors, out

    budget = seconds / 2 if trace else seconds
    walls, refs, events = [], [], []
    first = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget:
        wall, ref, digest, counts, errors, out = one_pass()
        refs.append(ref)
        walls.append(wall)
        events.append(counts["events"])
        if first is None:
            first = (digest, counts, errors, out)
        else:
            checks("repeat pass gives the same digest and counts",
                   (digest, counts) == first[:2])
        del out
    digest, counts, errors, first_out = first
    result = {
        "walls": walls,
        "refs": refs,
        "events": events,
        "digest": digest,
        "counts": counts,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if not pipeline:
        result["oracle"] = oracle_prefix_check(spec, stream, first_out, checks)
    del first_out

    if trace:
        spans = Spans()
        wall, ref, t_digest, t_counts, _, out = one_pass(spans)
        del out
        checks("traced pass gives the same digest and counts as untraced",
               (t_digest, t_counts) == (digest, counts))
        totals = spans.totals()
        out_dir = Path(spec["out_dir"])
        spans.dump(str(out_dir / f"spans-{spec['workload']}"))
        result["traced_wall"] = wall
        result["spans"] = len(spans)
        result["self_s"] = {name: row["self_s"] for name, row in totals.items()}
        untraced = statistics.median(w / r for w, r in zip(walls, refs))
        result["layers"] = layer_metrics(totals, counts, wall / ref / untraced)
    result["checks_attempted"] = checks.attempted
    result["checks_failed"] = checks.failed
    return result


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    if mode == "setup":
        setup(spec)
    result = measure(spec, float(argv[2]), argv[3] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
