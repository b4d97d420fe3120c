"""Compare the working tree with a parent commit in alternating perfbench pairs.

    python3 tools/bench_pairs.py --parent REV --out BENCH_name.json
        [--pairs 10] [--seconds 25] [--workload NAME ...]
        [--claim WORKLOAD:METRIC]

It exports REV with `git archive` to a temporary directory, then for each
pair and workload runs `perfbench/run.py --seed 0` once in that export and
once in the working tree, alternating which side goes first from one pair
to the next. After the pairs it runs each workload once per tree at seed
7919, which the benchmark was not tuned on, and one `--trace 1` run per
workload and tree, whose per-layer counts both sides should share, and
the Tier-1 suite once per tree. `--pairs` must be even, so that each tree
runs first equally often.

The output file holds `what`, `host`, `parent`, `change`, `claim`,
`claim_met`, `all_correct`, `probes_equal`, `summary`, `seed_7919`,
`traced_pass`, `traced_counts_equal`, `tier1`, `notes` (empty, for the reader's
conclusions) and `runs`. `summary` gives, per
workload and end-to-end metric of BENCHMARK.json, both medians, the
parent's quartiles and their spread, how many pairs the change won, and
`worse_by`: how much worse the change's median is than the parent's, as a
fraction of the parent's, to set against the metric's `bound`; and
`ratio_by_first`: per metric, the median change-to-parent ratio over the
pairs the parent ran first and over those the change ran first, which
shows a run-order effect. `tier1` gives, per tree, the passed and failed
test counts and the suite's wall seconds. A claim
holds when the change wins at least nine pairs in ten and its median is
better than the parent's by more than the parent's quartile spread.

It needs only the standard library and reads nothing from `perfbench/`
beyond running `perfbench/run.py` as a program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-suite", "fifo-10k", "lru-churn")
UNSEEN_SEED = 7919
CLAIM_WIN_SHARE = 0.9


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """Write the files of commit `rev` into `into`, as `git archive` has them."""
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()


def host() -> dict:
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`; its final JSON line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, text=True, capture_output=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: perfbench failed in {tree} ({workload}, seed {seed}): "
                 f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def tier1(tree: Path) -> dict:
    """Run the Tier-1 suite in `tree` once; its passed and failed counts."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=tree, env=env, text=True, capture_output=True)
    seconds = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed)", tail)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "wall_s": round(seconds, 2)}


def run_record(result: dict, **fields) -> dict:
    record = dict(fields, correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"])
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    record["t"] = time.time()
    return record


def quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric of one workload: `parent[i]` and `change[i]` are pair i's runs."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = quartiles(parent), quartiles(change)
    spread = p_iqr[1] - p_iqr[0]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent_median": round(p_med, 4), "change_median": round(c_med, 4),
        "parent_iqr": [round(q, 4) for q in p_iqr],
        "parent_quartile_spread": round(spread, 4),
        "change_iqr": [round(q, 4) for q in c_iqr],
        "change_wins": f"{wins}/{len(parent)}",
        "worse_by": round(max(0.0, worse), 4),
        "bound": bound,
        "gap_wider_than_spread": abs(c_med - p_med) > spread,
        "spread_wider_than_bound": bool(p_med) and spread / abs(p_med) > bound,
        "change_better": sign * (c_med - p_med) < 0,
    }


def summarize(runs: list[dict], workloads: list[str], metrics: list[dict]) -> dict:
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        side = {s: sorted((r for r in mine if r["side"] == s), key=lambda r: r["pair"])
                for s in ("parent", "change")}
        entry: dict = {"pairs": len(side["parent"])}
        for m in metrics:
            entry[m["name"]] = compare([r[m["name"]] for r in side["parent"]],
                                       [r[m["name"]] for r in side["change"]],
                                       m["better"], m["bound"])
        entry["ratio_by_first"] = {
            m["name"]: {f"{first}_first": round(statistics.median(
                c[m["name"]] / p[m["name"]]
                for p, c in zip(side["parent"], side["change"])
                if p["first"] == (first == "parent") and p[m["name"]]), 4)
                for first in ("parent", "change")}
            for m in metrics}
        entry["failed_ops"] = {s: sum(r["failed"] for r in side[s]) for s in side}
        entry["all_correct"] = all(r["correct"] for r in mine)
        summary[workload] = entry
    return summary


def claim_met(summary: dict, claim: str) -> bool:
    workload, metric = claim.split(":", 1)
    m = summary[workload][metric]
    wins = int(m["change_wins"].split("/")[0])
    return (wins >= math.ceil(CLAIM_WIN_SHARE * summary[workload]["pairs"])
            and m["change_better"] and m["gap_wider_than_spread"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        sys.exit("bench_pairs: --pairs must be even and at least 2, so that each "
                 "tree runs first equally often")
    workloads = args.workload or list(WORKLOADS)
    if args.claim and args.claim.split(":", 1)[0] not in workloads:
        sys.exit(f"bench_pairs: the claim {args.claim!r} names no workload that is run")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declared["end_to_end"]
    parent = git("rev-parse", args.parent)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    head = git("rev-parse", "HEAD")
    change = f"the working tree on {head}" if dirty else head

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        export(parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        runs = []
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    result = perfbench(trees[side], workload, 0, args.seconds, 0)
                    runs.append(run_record(result, workload=workload, pair=pair, side=side,
                                           first=side == order[0]))
                    print(f"pair {pair} {workload:11s} {side:6s} "
                          f"wall_ref {runs[-1]['wall_ref']:.3f} correct {result['correct']}",
                          file=sys.stderr)
        unseen = []
        for workload in workloads:
            for side in ("parent", "change"):
                result = perfbench(trees[side], workload, UNSEEN_SEED, args.seconds, 0)
                record = run_record(result, workload=workload, side=side)
                unseen.append({k: record[k] for k in ("workload", "side", "correct",
                                                      "failed", "probes", "wall_ref")})
        traced = []
        kept = ["workload", "side", "correct", "trace.overhead_ratio"] + [
            m["name"] for m in declared["per_layer"] if m["unit"] == "count"]
        for workload in workloads:
            for side in ("parent", "change"):
                result = perfbench(trees[side], workload, 0, args.seconds, 1)
                record = run_record(result, workload=workload, side=side)
                traced.append({k: record[k] for k in kept if k in record})
        suites = {side: tier1(tree) for side, tree in trees.items()}

    summary = summarize(runs, workloads, metrics)
    # Per workload: one probe count over its seed-0 runs, one over its seed-7919 runs.
    probes_equal = {w: all(len({r["probes"] for r in group if r["workload"] == w}) == 1
                           for group in (runs, unseen))
                    for w in workloads}
    out = {
        "what": (f"python3 perfbench/run.py --workload W --seed 0 --seconds {args.seconds}, "
                 f"run in a git archive of the parent commit and in the working tree, "
                 f"alternating which side runs first in each pair"),
        "host": host(),
        "parent": parent,
        "change": change,
        "claim": args.claim,
        "claim_met": claim_met(summary, args.claim) if args.claim else None,
        "all_correct": all(r["correct"] for r in runs + unseen + traced),
        "probes_equal": probes_equal,
        "summary": summary,
        "seed_7919": unseen,
        "traced_pass": traced,
        # Per workload: every count of the traced pass the same on both trees.
        "traced_counts_equal": {
            w: len({json.dumps({k: v for k, v in r.items()
                                if k not in ("side", "trace.overhead_ratio")}, sort_keys=True)
                    for r in traced if r["workload"] == w}) == 1
            for w in workloads},
        "tier1": suites,
        "notes": [],
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench_pairs: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
