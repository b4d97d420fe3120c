"""Scenario runner: wires the full attack pipeline against seeded simulators.

A scenario describes one switch configuration plus the attack settings and,
optionally, the error bounds its mean inference must meet. Each repeat
derives fresh seeds, builds phase-specific simulators (bootstrap, timeout
probing and inference each get a pristine switch so an earlier phase's
flood cannot pollute a later phase's ground truth), runs bootstrap ->
timeout measurement -> feasibility -> inference, and records the result;
`run_repeat` can stop after an earlier phase. `run_suite` runs every
scenario of a config, and each `SweepResult` lists its own `violations`:
failed repeats and exceeded bounds. Sweep output is a CSV with one row per
run; identical seeds reproduce identical bytes.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from statistics import fmean
from typing import Collection, Optional, TextIO, get_type_hints

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
    send_gap_us,
)
from .flowtable import POLICIES
from .netsim import (
    BRANCH_HIT,
    BRANCH_MISS_FULL,
    BRANCH_MISS_NOTFULL,
    BackgroundWorkload,
    LatencyModel,
    SwitchSimulator,
    US_PER_MS,
    ms_to_us,
    us_to_ms,
)

SWEEP_CSV_COLUMNS = (
    "scenario", "repeat", "truth_capacity", "inferred_capacity",
    "truth_usage", "inferred_usage", "n1", "n2", "probes_sent", "wall_events",
)

# The attack's phases in run order; a phase's index is its seed salt.
PHASES = ("bootstrap", "idle_timeout", "hard_timeout", "infer")

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

    def __post_init__(self) -> None:
        send_gap_us(self.send_rate_pps, "attack.send_rate_pps")
        if self.key_budget < 1:
            raise ValueError("attack.key_budget must be >= 1")
        if self.capacity_guess < 1:
            raise ValueError("attack.capacity_guess must be >= 1")


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
    # Bounds on the mean inference's relative errors; None leaves one unchecked.
    max_capacity_rel_error: Optional[float] = None
    max_usage_rel_error: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0 <= self.initial_usage <= self.capacity:
            raise ValueError("initial_usage must be within [0, capacity]")
        for name in ("background_rate", "hard_timeout_ms", "idle_timeout_ms",
                     "max_capacity_rel_error", "max_usage_rel_error"):
            if (getattr(self, name) or 0) < 0:  # an unset bound is None
                raise ValueError(f"{name} must be >= 0")
        for name in ("hard_timeout_ms", "idle_timeout_ms"):
            value = getattr(self, name)
            if not value * US_PER_MS < math.inf:
                raise ValueError(f"{name}={value} is past float range in us")
            if value > 0 and ms_to_us(value) == 0:
                raise ValueError(f"{name}={value} rounds to 0 us, which "
                                 "would disable the timer")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        # Nothing drains the table that bootstrap's first round filled.
        repeat = self.attack.bootstrap.repeat
        if repeat > 1 and not (self.hard_timeout_ms or self.idle_timeout_ms):
            raise ValueError(f"attack.bootstrap.repeat={repeat} needs a hard or idle "
                             "timeout: without one, no round after the first can "
                             "see the table not full")


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

    @property
    def violations(self) -> list[str]:
        """Failed repeats, then `no successful runs` or each exceeded bound."""
        name = self.scenario.name
        found = [f"{name}: repeat {run.repeat} failed: {run.error}"
                 for run in self.failures]
        if self.capacity_rel_error is None:
            return found + [f"{name}: no successful runs"]
        for what, error, bound in (
            ("capacity", self.capacity_rel_error,
             self.scenario.max_capacity_rel_error),
            ("usage", self.usage_rel_error, self.scenario.max_usage_rel_error),
        ):
            if bound is not None and error > bound:
                found.append(f"{name}: {what} relative error {error:.4f} > {bound}")
        return found

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
            "runs": [asdict(r) for r in self.runs],
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


@contextmanager
def _cyclic_gc_paused():
    """Pause the cyclic garbage collector, then restore its prior state.

    A run allocates entries, keys and samples by the hundred thousand but
    leaves no reference cycles, so reference counting frees all of it; the
    collector would only rescan the growing heap and find nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_cyclic_gc_paused()
def run_repeat(scenario: Scenario, repeat: int = 0,
               last_phase: str = "infer") -> RunRecord:
    """Run one repeat's phases in the order of PHASES, up to `last_phase`.

    Each phase probes its own pristine switch, seeded from the repeat's
    seed and the phase's index in PHASES. A failed bootstrap or inference
    ends the repeat with `record.error` set; an infeasible probe rate ends
    it before inference. The cyclic collector is paused for the repeat.
    """
    if last_phase not in PHASES:
        raise ValueError(f"unknown phase {last_phase!r}")
    attack = scenario.attack
    run_seed = scenario.seed + repeat
    record = RunRecord(repeat=repeat)

    def run_phase(phase: str, measure, *args, **kwargs):
        sim = _build_sim(scenario, run_seed, PHASES.index(phase))
        try:
            return measure(ProbeSession(sim, attack.send_rate_pps), *args, **kwargs)
        finally:
            record.wall_events += sim.events_processed

    try:
        thresholds = run_phase("bootstrap", bootstrap_thresholds, attack.bootstrap)
    except (AttackError, ValueError) as exc:
        record.error = f"bootstrap: {exc}"
        return record
    record.thresholds = thresholds
    if last_phase == "bootstrap":
        return record

    try:
        record.idle_timeout_measured_ms = run_phase(
            "idle_timeout", measure_idle_timeout, thresholds)
    except TimeoutDisabled:
        pass
    if last_phase == "idle_timeout":
        return record

    try:
        record.hard_timeout_measured_ms = run_phase(
            "hard_timeout", measure_hard_timeout, thresholds,
            idle_timeout_ms=record.idle_timeout_measured_ms)
    except TimeoutDisabled:
        pass
    if last_phase == "hard_timeout":
        return record

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
    infer = infer_fifo if scenario.policy == "FIFO" else infer_lru
    try:
        record.report = run_phase(
            "infer", infer, thresholds, attack.key_budget,
            time_budget_ms=min(finite) if finite else None,
        )
    except AttackError as exc:
        record.error = f"inference: {exc}"
    return record


def run_scenario(scenario: Scenario) -> SweepResult:
    """Run every repeat of `scenario` and aggregate the reports."""
    runs = [run_repeat(scenario, r) for r in range(scenario.repeats)]
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


def write_sweep_csv(results: list[SweepResult], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    for result in results:
        for run in result.runs:
            if run.report is not None:
                writer.writerow((
                    result.scenario.name, run.repeat,
                    result.truth_capacity, run.report.f_capacity,
                    result.truth_usage, run.report.f_other,
                    run.report.n1, run.report.n2,
                    run.report.probes_sent, run.wall_events,
                ))
            else:
                writer.writerow((
                    result.scenario.name, run.repeat,
                    result.truth_capacity, "",
                    result.truth_usage, "", "", "", "", run.wall_events,
                ))


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
        sim = SwitchSimulator(capacity=n_per_state + 2, latency=latency.with_seed(seed))
        session = ProbeSession(sim, send_rate_pps=1000.0)  # one probe per ms
        pinned = session.fresh_key()
        session.probe(pinned)  # install; not a sample
        session.probe_burst([pinned] * n_per_state, math.inf, rtts=samples[BRANCH_HIT])
        session.probe_fresh(n_per_state, math.inf, rtts=samples[BRANCH_MISS_NOTFULL])
        session.probe(session.fresh_key())  # fills the table
        session.probe_fresh(n_per_state, math.inf, rtts=samples[BRANCH_MISS_FULL])
        # The bands are disjoint: an RTT outside its state's band took another branch.
        for branch, rtts in samples.items():
            lo, hi = latency.range_us(branch)
            if not all(lo <= rtt <= hi for rtt in rtts):
                raise RuntimeError(f"characterization drove an RTT out of [{lo}, {hi}] us, "
                                   f"the {branch} band")

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


# The config groups some Scenario fields into blocks: block -> {key: field}.
_SCENARIO_BLOCKS = {
    "timeouts": {"hard_ms": "hard_timeout_ms", "idle_ms": "idle_timeout_ms"},
    "bounds": {"max_capacity_rel_error": "max_capacity_rel_error",
               "max_usage_rel_error": "max_usage_rel_error"},
}


def checked_block(d, allowed: Collection[str], where: str) -> dict:
    """Return config block `d`, or raise ValueError if it is not an object
    or holds a key outside `allowed`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    for key in d:
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
    return d


def checked_number(value, where: str, integer: bool = False):
    """Return `value`, or raise ValueError if it is not a number (an int when
    `integer`; bools are neither) or not finite as a float."""
    kinds = int if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        kind = "an integer" if integer else "a finite number"
    elif not abs(value) <= sys.float_info.max:  # inf, NaN or an int past float range
        kind = "a finite number"
    else:
        return value
    raise ValueError(f"{where} must be {kind}, got {value!r}")


def _checked(value, hint, where: str):
    """Check one config value against its field's type hint. A nested
    dataclass is a block, named by its path below the scenario."""
    if is_dataclass(hint):
        return from_config(hint, value, where.removeprefix("scenario."))
    if hint == tuple[float, float]:
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"{where} must be a [low, high] list, got {value!r}")
        return tuple(checked_number(bound, where) for bound in value)
    if hint in (int, float, Optional[float]):  # null is no bound: leave it out
        return checked_number(value, where, integer=hint is int)
    return value


def from_config(cls, block, where: str):
    """Build dataclass `cls` from config object `block`, named `where` in
    errors.

    The keys are the fields of `cls` and each value is checked against its
    field's type; range checks are left to `cls.__post_init__`. A scenario
    sets the fields of `_SCENARIO_BLOCKS` inside those blocks and is named
    "scenario" unless it says otherwise. A config never sets
    `LatencyModel.seed`: the latency draws are seeded from the scenario seed
    (or characterize-rtt's top-level seed).
    """
    hints = get_type_hints(cls)
    groups = _SCENARIO_BLOCKS if cls is Scenario else {}
    hidden = {"seed"} if cls is LatencyModel else {
        name for group in groups.values() for name in group.values()}
    keys = [f.name for f in fields(cls) if f.name not in hidden] + list(groups)
    kwargs = {"name": "scenario"} if cls is Scenario else {}
    for key, value in checked_block(block, keys, where).items():
        if key in groups:
            for inner, item in checked_block(value, groups[key], key).items():
                name = groups[key][inner]
                kwargs[name] = _checked(item, hints[name], f"{key}.{inner}")
        else:
            kwargs[key] = _checked(value, hints[key], f"{where}.{key}")
    for f in fields(cls):
        if f.name not in kwargs and f.default is f.default_factory is MISSING:
            raise KeyError(f.name)
    return cls(**kwargs)


def scenario_from_dict(d: dict) -> Scenario:
    return from_config(Scenario, d, "scenario")


def scenario_entries(config: dict) -> list[dict]:
    """Accept either a single scenario object or {"scenarios": [...]}."""
    if not isinstance(config, dict):
        raise ValueError(f"scenario must be an object, got {config!r}")
    if "scenarios" not in config:
        return [config]
    entries = checked_block(config, ("scenarios",), "suite")["scenarios"]
    if not isinstance(entries, list) or not all(isinstance(d, dict) for d in entries):
        raise ValueError(f"scenarios must be a list of objects, got {entries!r}")
    if not entries:
        raise ValueError("a suite needs at least one scenario")
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
