"""Scenario runner: wires the full attack pipeline against seeded simulators.

A scenario describes one switch configuration plus the attack settings.
Each repeat derives fresh seeds, builds phase-specific simulators
(bootstrap, timeout probing and inference each get a pristine switch so an
earlier phase's flood cannot pollute a later phase's ground truth), runs
bootstrap -> timeout measurement -> feasibility -> inference, and records
the result. Sweep output is a CSV with one row per run plus an aggregate
summary; identical seeds reproduce identical bytes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from statistics import fmean
from typing import Optional, TextIO

from .attacker import (
    AttackError,
    BootstrapParams,
    InferenceReport,
    ProbeSession,
    RttThresholds,
    TimeoutDisabled,
    bootstrap_thresholds,
    check_feasibility,
    infer_fifo,
    infer_lru,
    measure_hard_timeout,
    measure_idle_timeout,
)
from .flowtable import POLICIES
from .netsim import (
    BRANCH_HIT,
    BRANCH_MISS_FULL,
    BRANCH_MISS_NOTFULL,
    BackgroundWorkload,
    KeySequence,
    LatencyModel,
    SwitchSimulator,
    us_to_ms,
)

SWEEP_CSV_COLUMNS = (
    "scenario", "repeat", "truth_capacity", "inferred_capacity",
    "truth_usage", "inferred_usage", "n1", "n2", "probes_sent", "wall_events",
)

_PHASE_BOOTSTRAP = 0
_PHASE_IDLE = 1
_PHASE_HARD = 2
_PHASE_INFER = 3

_SEED_MASK = (1 << 63) - 1


def derive_seed(base: int, salt: int) -> int:
    """Deterministic per-phase seed; distinct salts give independent streams."""
    return (base * 1_000_003 + salt * 7_919 + 12_345) & _SEED_MASK


@dataclass(frozen=True)
class AttackConfig:
    """Attacker-side knobs shared by every phase of a scenario."""

    send_rate_pps: float = 10_000.0
    key_budget: int = 100_000
    capacity_guess: int = 2_000  # upper bound fed to the feasibility check
    bootstrap: BootstrapParams = field(default_factory=BootstrapParams)
    timeout_initial_ms: float = 100.0
    timeout_ceiling_ms: float = 120_000.0
    timeout_resolution_ms: float = 100.0
    hard_gap_ms: float = 100.0


@dataclass(frozen=True)
class Scenario:
    """One switch configuration plus the attack settings to run against it."""

    name: str
    policy: str
    capacity: int
    initial_usage: int = 0
    background_rate: float = 0.0
    hard_timeout_ms: float = 0.0
    idle_timeout_ms: float = 0.0
    latency: LatencyModel = field(default_factory=LatencyModel)
    repeats: int = 1
    seed: int = 0
    attack: AttackConfig = field(default_factory=AttackConfig)

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0 <= self.initial_usage <= self.capacity:
            raise ValueError("initial_usage must be within [0, capacity]")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass
class RunRecord:
    """Outcome of one repeat: either a report or the error that stopped it."""

    repeat: int
    report: Optional[InferenceReport] = None
    thresholds: Optional[RttThresholds] = None
    idle_timeout_measured_ms: Optional[float] = None
    hard_timeout_measured_ms: Optional[float] = None
    feasibility_required_pps: float = 0.0
    feasible: bool = True
    wall_events: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.report is not None

    def to_dict(self) -> dict:
        return {
            "repeat": self.repeat,
            "report": self.report.to_dict() if self.report else None,
            "thresholds": None if self.thresholds is None else {
                "t1_ms": self.thresholds.t1_ms,
                "t2_ms": self.thresholds.t2_ms,
                "t3_ms": self.thresholds.t3_ms,
                "hit_cut_ms": self.thresholds.hit_cut_ms,
                "full_cut_ms": self.thresholds.full_cut_ms,
            },
            "idle_timeout_measured_ms": self.idle_timeout_measured_ms,
            "hard_timeout_measured_ms": self.hard_timeout_measured_ms,
            "feasibility_required_pps": self.feasibility_required_pps,
            "feasible": self.feasible,
            "wall_events": self.wall_events,
            "error": self.error,
        }


@dataclass
class SweepResult:
    """All repeats of one scenario plus aggregate error statistics."""

    scenario: Scenario
    runs: list[RunRecord]
    truth_capacity: int
    truth_usage: int
    mean_capacity: Optional[float]
    mean_usage: Optional[float]
    capacity_rel_error: Optional[float]
    usage_rel_error: Optional[float]

    @property
    def failures(self) -> list[RunRecord]:
        return [r for r in self.runs if not r.ok]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "policy": self.scenario.policy,
            "truth_capacity": self.truth_capacity,
            "truth_usage": self.truth_usage,
            "mean_capacity": self.mean_capacity,
            "mean_usage": self.mean_usage,
            "capacity_rel_error": self.capacity_rel_error,
            "usage_rel_error": self.usage_rel_error,
            "failed_runs": len(self.failures),
            "runs": [r.to_dict() for r in self.runs],
        }


def relative_error(mean: float, truth: float) -> float:
    if truth == 0:
        return 0.0 if mean == 0 else float("inf")
    return abs(mean - truth) / truth


def _build_sim(scenario: Scenario, run_seed: int, phase: int) -> SwitchSimulator:
    latency = scenario.latency.with_seed(derive_seed(run_seed, phase * 2))
    workload = BackgroundWorkload(
        arrival_rate=scenario.background_rate,
        initial_usage=scenario.initial_usage,
        seed=derive_seed(run_seed, phase * 2 + 1),
    )
    return SwitchSimulator(
        capacity=scenario.capacity,
        policy=scenario.policy,
        hard_timeout_ms=scenario.hard_timeout_ms,
        idle_timeout_ms=scenario.idle_timeout_ms,
        latency=latency,
        workload=workload,
    )


def _run_once(scenario: Scenario, repeat: int) -> RunRecord:
    attack = scenario.attack
    run_seed = scenario.seed + repeat
    record = RunRecord(repeat=repeat)

    sim = _build_sim(scenario, run_seed, _PHASE_BOOTSTRAP)
    session = ProbeSession(sim, attack.send_rate_pps)
    try:
        thresholds = bootstrap_thresholds(session, attack.bootstrap)
    except (AttackError, ValueError) as exc:
        record.wall_events += sim.events_processed
        record.error = f"bootstrap: {exc}"
        return record
    record.thresholds = thresholds
    record.wall_events += sim.events_processed

    sim = _build_sim(scenario, run_seed, _PHASE_IDLE)
    session = ProbeSession(sim, attack.send_rate_pps)
    try:
        record.idle_timeout_measured_ms = measure_idle_timeout(
            session, thresholds,
            initial_ms=attack.timeout_initial_ms,
            ceiling_ms=attack.timeout_ceiling_ms,
            resolution_ms=attack.timeout_resolution_ms,
        )
    except TimeoutDisabled:
        record.idle_timeout_measured_ms = None
    record.wall_events += sim.events_processed

    gap_ms = attack.hard_gap_ms
    idle_measured = record.idle_timeout_measured_ms
    if idle_measured is not None:
        gap_ms = min(gap_ms, idle_measured / 10)
    sim = _build_sim(scenario, run_seed, _PHASE_HARD)
    session = ProbeSession(sim, attack.send_rate_pps)
    try:
        record.hard_timeout_measured_ms = measure_hard_timeout(
            session, thresholds,
            probe_gap_ms=gap_ms,
            ceiling_ms=attack.timeout_ceiling_ms,
            idle_timeout_ms=idle_measured,
        )
    except TimeoutDisabled:
        record.hard_timeout_measured_ms = None
    record.wall_events += sim.events_processed

    verdict = check_feasibility(
        attack.capacity_guess,
        record.hard_timeout_measured_ms or 0.0,
        record.idle_timeout_measured_ms or 0.0,
        attack.send_rate_pps,
    )
    record.feasibility_required_pps = verdict.v_gen_required
    record.feasible = verdict.feasible
    if not verdict.feasible:
        record.error = (
            f"infeasible: requires {verdict.v_gen_required} pps, "
            f"have {verdict.v_gen_available}"
        )
        return record

    finite = [
        t for t in (record.hard_timeout_measured_ms, record.idle_timeout_measured_ms)
        if t is not None
    ]
    time_budget_ms = min(finite) if finite else None

    sim = _build_sim(scenario, run_seed, _PHASE_INFER)
    session = ProbeSession(sim, attack.send_rate_pps)
    infer = infer_fifo if scenario.policy == "FIFO" else infer_lru
    try:
        record.report = infer(
            session, thresholds, attack.key_budget, time_budget_ms=time_budget_ms
        )
    except AttackError as exc:
        record.error = f"inference: {exc}"
    record.wall_events += sim.events_processed
    return record


def run_scenario(scenario: Scenario) -> SweepResult:
    """Run every repeat of `scenario` and aggregate the reports."""
    runs = [_run_once(scenario, r) for r in range(scenario.repeats)]
    reports = [r.report for r in runs if r.report is not None]
    if reports:
        mean_capacity = fmean(r.f_capacity for r in reports)
        mean_usage = fmean(r.f_other for r in reports)
        cap_err = relative_error(mean_capacity, scenario.capacity)
        usage_err = relative_error(mean_usage, scenario.initial_usage)
    else:
        mean_capacity = mean_usage = cap_err = usage_err = None
    return SweepResult(
        scenario=scenario,
        runs=runs,
        truth_capacity=scenario.capacity,
        truth_usage=scenario.initial_usage,
        mean_capacity=mean_capacity,
        mean_usage=mean_usage,
        capacity_rel_error=cap_err,
        usage_rel_error=usage_err,
    )


def run_suite(scenarios: list[Scenario]) -> list[SweepResult]:
    return [run_scenario(s) for s in scenarios]


def sweep_csv_rows(results: list[SweepResult]) -> list[tuple]:
    rows = []
    for result in results:
        for run in result.runs:
            if run.report is not None:
                rows.append((
                    result.scenario.name, run.repeat,
                    result.truth_capacity, run.report.f_capacity,
                    result.truth_usage, run.report.f_other,
                    run.report.n1, run.report.n2,
                    run.report.probes_sent, run.wall_events,
                ))
            else:
                rows.append((
                    result.scenario.name, run.repeat,
                    result.truth_capacity, "",
                    result.truth_usage, "", "", "", "", run.wall_events,
                ))
    return rows


def write_sweep_csv(results: list[SweepResult], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(sweep_csv_rows(results))


def rtt_characterization(latency: LatencyModel, n_per_state: int,
                         seed: int = 0) -> dict:
    """Sample each processing branch n times and summarize the distributions.

    The harness constructs each table state directly: one pinned key is
    re-probed for hits, fresh keys are streamed below capacity for plain
    misses, then past capacity for full-table misses. Emits min/max/mean and
    the empirical CDF per branch.
    """
    branches = (BRANCH_HIT, BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL)
    samples: dict[str, list[int]] = {b: [] for b in branches}
    if n_per_state > 0:
        sim = SwitchSimulator(
            capacity=n_per_state + 2,
            latency=latency.with_seed(seed),
        )
        keys = KeySequence("10.3")
        t = 0

        def probe(key, expected_branch):
            nonlocal t
            t += 1000
            sample = sim.send_probe(key, t)
            if sample.branch != expected_branch:
                raise RuntimeError(
                    f"characterization drove branch {sample.branch}, "
                    f"expected {expected_branch}"
                )
            return sample.rtt_us

        pinned = keys.next_key()
        probe(pinned, BRANCH_MISS_NOTFULL)  # install; not a sample
        for _ in range(n_per_state):
            samples[BRANCH_HIT].append(probe(pinned, BRANCH_HIT))
        for _ in range(n_per_state):
            samples[BRANCH_MISS_NOTFULL].append(
                probe(keys.next_key(), BRANCH_MISS_NOTFULL)
            )
        probe(keys.next_key(), BRANCH_MISS_NOTFULL)  # fills the table
        for _ in range(n_per_state):
            samples[BRANCH_MISS_FULL].append(
                probe(keys.next_key(), BRANCH_MISS_FULL)
            )

    summary: dict = {}
    for branch in branches:
        values = sorted(samples[branch])
        if not values:
            summary[branch] = {
                "count": 0, "min_ms": None, "max_ms": None,
                "mean_ms": None, "cdf": [],
            }
            continue
        cdf = []
        for i, value in enumerate(values, start=1):
            if i == len(values) or values[i] != value:
                cdf.append((value, i / len(values)))
        summary[branch] = {
            "count": len(values),
            "min_ms": us_to_ms(values[0]),
            "max_ms": us_to_ms(values[-1]),
            "mean_ms": us_to_ms(fmean(values)),
            "cdf": cdf,
        }
    return summary


# -- configuration files ---------------------------------------------------


def latency_from_dict(d: dict) -> LatencyModel:
    kwargs = {}
    if "hit_ms" in d:
        kwargs["hit_ms"] = tuple(d["hit_ms"])
    if "miss_notfull_ms" in d:
        kwargs["miss_notfull_ms"] = tuple(d["miss_notfull_ms"])
    if "miss_full_ms" in d:
        kwargs["miss_full_ms"] = tuple(d["miss_full_ms"])
    if "noise" in d:
        kwargs["noise"] = d["noise"]
    if "seed" in d:
        kwargs["seed"] = d["seed"]
    return LatencyModel(**kwargs)


def attack_from_dict(d: dict) -> AttackConfig:
    kwargs = {
        k: d[k]
        for k in ("send_rate_pps", "key_budget", "capacity_guess",
                  "timeout_initial_ms", "timeout_ceiling_ms",
                  "timeout_resolution_ms", "hard_gap_ms")
        if k in d
    }
    if "bootstrap" in d:
        try:
            kwargs["bootstrap"] = BootstrapParams(**d["bootstrap"])
        except TypeError as exc:
            raise ValueError(f"attack.bootstrap: {exc}") from None
    return AttackConfig(**kwargs)


def scenario_from_dict(d: dict) -> Scenario:
    timeouts = d.get("timeouts", {})
    return Scenario(
        name=d.get("name", "scenario"),
        policy=d["policy"],
        capacity=d["capacity"],
        initial_usage=d.get("initial_usage", 0),
        background_rate=d.get("background_rate", 0.0),
        hard_timeout_ms=timeouts.get("hard_ms", 0.0),
        idle_timeout_ms=timeouts.get("idle_ms", 0.0),
        latency=latency_from_dict(d.get("latency", {})),
        repeats=d.get("repeats", 1),
        seed=d.get("seed", 0),
        attack=attack_from_dict(d.get("attack", {})),
    )


def scenario_entries(config: dict) -> list[dict]:
    """Accept either a single scenario object or {"scenarios": [...]}."""
    if "scenarios" not in config:
        return [config]
    entries = config["scenarios"]
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise ValueError(f"scenarios must be a list of objects, got {entries!r}")
    return entries


def scenarios_from_config(config: dict) -> list[Scenario]:
    return [scenario_from_dict(d) for d in scenario_entries(config)]


def load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply dotted-path KEY=VALUE overrides after parsing.

    Values are parsed as JSON when possible and fall back to raw strings,
    so `--set latency.noise=none --set capacity=400` both work. Numeric
    path segments index into lists: `scenarios.0.seed=7`.
    """
    for assignment in assignments:
        if "=" not in assignment:
            raise ValueError(f"override {assignment!r} is not KEY=VALUE")
        path, raw = assignment.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config
        *parents, last = path.split(".")
        try:
            for part in parents:
                if isinstance(node, list):
                    node = node[int(part)]
                else:
                    node = node.setdefault(part, {})
            node[int(last) if isinstance(node, list) else last] = value
        except (AttributeError, IndexError, TypeError, ValueError):
            raise ValueError(
                f"override {assignment!r}: {path!r} does not fit the config's structure"
            ) from None
    return config


def check_suite(config: dict) -> tuple[list[SweepResult], list[str]]:
    """Run every scenario in a suite and verify its declared error bounds.

    Each scenario object may carry a "bounds" block with
    max_capacity_rel_error / max_usage_rel_error; violations (and any
    failed runs) are returned as human-readable strings.
    """
    results: list[SweepResult] = []
    violations: list[str] = []
    for entry in scenario_entries(config):
        bounds = entry.get("bounds", {})
        scenario = scenario_from_dict(entry)
        result = run_scenario(scenario)
        results.append(result)
        name = scenario.name
        for run in result.failures:
            violations.append(f"{name}: repeat {run.repeat} failed: {run.error}")
        if result.capacity_rel_error is None:
            violations.append(f"{name}: no successful runs")
            continue
        cap_bound = bounds.get("max_capacity_rel_error")
        if cap_bound is not None and result.capacity_rel_error > cap_bound:
            violations.append(
                f"{name}: capacity relative error "
                f"{result.capacity_rel_error:.4f} > {cap_bound}"
            )
        usage_bound = bounds.get("max_usage_rel_error")
        if usage_bound is not None and result.usage_rel_error > usage_bound:
            violations.append(
                f"{name}: usage relative error "
                f"{result.usage_rel_error:.4f} > {usage_bound}"
            )
    return results, violations
