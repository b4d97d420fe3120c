"""flowprobe benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it needs nothing beyond the standard
library and the checkout's own `src/`, `configs/` and `tests/oracles.py`.

Workloads (why each exists is in BENCHMARK.json):
  paper-suite  `flowprobe sweep --check --config configs/paper-suite.json`
  fifo-10k     the same command on a generated FIFO scenario, C=10,000
  lru-churn    a multi-tenant Zipf packet stream replayed straight into
               SwitchSimulator.send_probe, LRU, C=2,000, no attacker

Each workload runs in a child process (perfbench/child.py), one pass after
another, until --seconds have passed; the parent reports medians over the
passes. Host time is reported twice. `wall_s` is plain seconds. `wall_ref`
divides each pass's seconds by the mean time of a fixed reference slice
of pure-Python work, timed before, inside and after that pass; on a shared
host whose speed swings within seconds, only the second is steady enough
to bound. Set-up is timed apart: fresh interpreters, before and after the
passes, each go from start-up to the workload's first probe.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced, then runs one pass with spans around every layer and prints the
per-layer metrics, including the tracing overhead. The last line of
standard output is one JSON object; the lines before it are a readable
report prefixed with '#'.

Seeds: paper-suite always runs its shipped seeds. The other workloads
generate their inputs from --seed. perfbench/digests.json records, for
--seed 0 (the default), the sha256 of each workload's output: the sweep
CSV, or lru-churn's per-packet "branch,rtt_us" lines. A run on seed 0 whose
digest differs fails its correctness check, so a change that claims to
alter no output can show it. Seeds 0-9 were used while this benchmark was
tuned; seed 7919 was not: use it to confirm a claimed gain on data the
change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
DEFAULT_SEED = 0
SETUP_REPEATS = 8  # before the passes, and as many again after them
TIME_LIMIT_S = 170.0  # every run must end within 180 s

# Scenario seed per benchmark seed, spaced so that no two benchmark seeds
# share a run seed (repeat r of a scenario runs on its seed + r).
SEED_STRIDE = 1000

FIFO_10K = {
    "name": "fifo-10k",
    "policy": "FIFO",
    "capacity": 10_000,
    "initial_usage": 2_500,
    "background_rate": 50.0,
    "timeouts": {"hard_ms": 60_000.0, "idle_ms": 30_000.0},
    "latency": {"noise": "truncated-gaussian"},
    "repeats": 4,
    "attack": {"capacity_guess": 10_000},
    "bounds": {"max_capacity_rel_error": 0.10, "max_usage_rel_error": 0.15},
}

LRU_CHURN = {
    "policy": "LRU",
    "capacity": 2_000,
    "flows": 4_000,
    "tenant_prefixes": ["10.10", "10.11", "10.12", "10.13"],
    "packets": 60_000,
    "low_pps": 1_000.0,
    "high_pps": 6_000.0,
    "period_s": 4.0,
    "idle_ms": 2_000.0,
    "background_rate": 50.0,
    "initial_usage": 500,
    "noise": "none",
    # Replayed through tests/oracles.py; the shortest prefix that holds both
    # expiries (from the quiet first period) and several hundred evictions.
    "oracle_prefix": 16_000,
    # A host-speed reference slice runs before each segment of the replay.
    "segment_packets": 2_500,
}

WORKLOADS = ("paper-suite", "fifo-10k", "lru-churn")

# Printed in the report but not declared in BENCHMARK.json: on a shared
# host plain seconds drift by 20% or more from run to run, so the declared
# time metrics are the reference-relative `wall_ref` and `events_per_ref`.
REPORT_ONLY_UNITS = {"wall_s": "s", "events_per_s": "1/s", "reference_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def exact_scenarios(entries: list[dict]) -> list[str]:
    return [e.get("name", "scenario") for e in entries
            if e.get("background_rate", 0.0) == 0.0]


def make_spec(workload: str, seed: int) -> dict:
    """Inputs of one workload, generated from the seed alone."""
    spec = {"workload": workload, "seed": seed, "out_dir": str(OUT_DIR)}
    if workload == "paper-suite":
        path = ROOT / "configs" / "paper-suite.json"
        entries = json.loads(path.read_text())["scenarios"]
        spec.update(kind="pipeline", argv=["sweep", "--check", "--config", str(path)],
                    exact_scenarios=exact_scenarios(entries))
    elif workload == "fifo-10k":
        config = dict(FIFO_10K, seed=SEED_STRIDE * seed)
        path = OUT_DIR / f"fifo-10k-seed{seed}.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        spec.update(kind="pipeline", argv=["sweep", "--check", "--config", str(path)],
                    exact_scenarios=exact_scenarios([config]), config=config)
    else:
        spec.update(LRU_CHURN, kind="stream")
    return spec


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def child(args: list[str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def time_setup(spec: dict, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter to the first probe."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = child(["setup", json.dumps(spec)])
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if line != "ready\n" or proc.returncode != 0:
            fail(f"set-up child failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def run_measure(spec: dict, seconds: int, trace: int, deadline: float) -> dict:
    proc = child(["measure", json.dumps(spec), str(seconds), str(trace)])
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("workload child ran past the time limit")
    if proc.returncode != 0:
        fail(f"workload child failed (exit {proc.returncode}): {err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def report(name: str, value, unit: str) -> None:
    print(f"# {name:34s} {value:>16.6g} {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    for needed in ("src/flowprobe/__init__.py", "configs/paper-suite.json",
                   "tests/oracles.py"):
        if not (ROOT / needed).is_file():
            fail(f"{needed} not found under {ROOT}; run from a flowprobe checkout")
    OUT_DIR.mkdir(exist_ok=True)
    spec = make_spec(args.workload, args.seed)

    print(f"# flowprobe benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# python {platform.python_version()} ({platform.python_implementation()}), "
          f"nproc {os.cpu_count()}, {platform.machine()}, git {git_revision()}")
    print(f"# inputs {json.dumps({k: v for k, v in spec.items() if k != 'out_dir'})}")

    setup_times = time_setup(spec, deadline)
    result = run_measure(spec, args.seconds, args.trace, deadline)
    setup_times += time_setup(spec, deadline)

    walls, refs, counts = result["walls"], result["refs"], result["counts"]
    passes = len(walls) + args.trace
    failed_checks = list(result["checks_failed"])
    attempted = counts["runs"] * passes + result["checks_attempted"]
    if args.seed == DEFAULT_SEED:
        attempted += 1
        recorded = json.loads((HERE / "digests.json").read_text()).get(args.workload)
        if recorded != result["digest"]:
            failed_checks.append(f"digest differs from perfbench/digests.json ({recorded})")
    failed = counts["runs_failed"] * passes + len(failed_checks)

    print(f"# passes {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print("#   reference_s " + " ".join(f"{r:.4f}" for r in refs))
    print(f"# set-up repeats {len(setup_times)}: setup_s "
          + " ".join(f"{s:.4f}" for s in setup_times))
    print(f"# output sha256 {result['digest']}")
    print("# exact counts per pass " + json.dumps(counts, sort_keys=True))
    if "oracle" in result:
        print("# oracle prefix " + json.dumps(result["oracle"]))
    for name in failed_checks:
        print(f"# FAILED CHECK: {name}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = dict(REPORT_ONLY_UNITS)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        units[metric["name"]] = metric["unit"]
    events = result["events"]
    values = {
        "wall_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "events_per_ref": statistics.median(e * r / w
                                            for e, w, r in zip(events, walls, refs)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "probes": counts["probes"],
        "wall_s": statistics.median(walls),
        "events_per_s": statistics.median(e / w for e, w in zip(events, walls)),
        "reference_s": statistics.median(refs),
        "attack_virtual_s": counts.get("infer.virtual_us", 0) / 1e6,
        "capacity_rel_error": result["errors"]["capacity_rel_error"],
        "usage_rel_error": result["errors"]["usage_rel_error"],
        "fail_rate": failed / attempted,
    }
    for name, value in values.items():
        report(name, value, units[name])
    if args.trace:
        print(f"# traced pass: {result['spans']} spans, wall {result['traced_wall']:.4f} s")
        for name, value in result["layers"].items():
            report(name, value, units[name])
        values.update(result["layers"])
        total = sum(result["self_s"].values())
        print("# self time share of traced spans:")
        for name, self_s in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"#   {name:32s} {self_s:9.4f} s {100 * self_s / total:6.2f}%")
    listed = declared["per_layer"] if args.trace else declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print(json.dumps({"correct": not failed_checks, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
