"""Acceptance suite: the ten release criteria at their pinned tolerances.

One test per criterion; each prints a single PASS/FAIL line (visible with
`pytest -s` or `-rA`; pytest always shows the lines for failing tests).
Everything runs in virtual time and the whole module stays within a desk-
scale wall-time budget.
"""

import io
import random

from flowprobe.attacker import (
    ProbeSession,
    RttThresholds,
    bootstrap_thresholds,
    BootstrapParams,
    check_feasibility,
    infer_fifo,
    infer_lru,
    measure_hard_timeout,
    measure_idle_timeout,
)
from flowprobe.experiments import (
    AttackConfig,
    Scenario,
    rtt_characterization,
    run_scenario,
    run_suite,
    write_sweep_csv,
)
from flowprobe.flowtable import FlowKey, FlowTable
from flowprobe.netsim import (
    BackgroundWorkload,
    LatencyModel,
    SwitchSimulator,
)

from oracles import ReplayOracle

UNIFORM = LatencyModel(noise="uniform")
NOISELESS = LatencyModel(noise="none")
MIDPOINT_THRESHOLDS = RttThresholds.from_band_centers(0.25, 4.0, 9.0)

CAPACITY_GRID = range(100, 1001, 100)
TIMEOUT_GRID_S = (5, 10, 15, 20, 25, 30)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def make_sim(capacity, policy="FIFO", usage=0, rate=0.0, hard_ms=0.0,
             idle_ms=0.0, latency=NOISELESS, seed=0):
    return SwitchSimulator(
        capacity=capacity, policy=policy,
        hard_timeout_ms=hard_ms, idle_timeout_ms=idle_ms,
        latency=latency.with_seed(seed),
        workload=BackgroundWorkload(arrival_rate=rate, initial_usage=usage,
                                    seed=seed + 1),
    )


def capacity_scenario(policy, capacity, repeats=10, seed_base=1000):
    return Scenario(
        name=f"{policy.lower()}-{capacity}",
        policy=policy,
        capacity=capacity,
        initial_usage=capacity // 4,
        latency=UNIFORM,
        repeats=repeats,
        seed=seed_base + capacity,
    )


def test_criterion_1_rtt_separation():
    summary = rtt_characterization(UNIFORM, n_per_state=100, seed=101)
    hit, miss, full = (summary[b] for b in ("hit", "miss_notfull", "miss_full"))
    problems = []
    if not (0.2 <= hit["min_ms"] and hit["max_ms"] <= 0.3):
        problems.append(f"hit band {hit['min_ms']}-{hit['max_ms']}")
    if not (3.0 <= miss["min_ms"] and miss["max_ms"] <= 5.0):
        problems.append(f"miss band {miss['min_ms']}-{miss['max_ms']}")
    if not (8.0 <= full["min_ms"] and full["max_ms"] <= 10.0):
        problems.append(f"full band {full['min_ms']}-{full['max_ms']}")
    if not hit["max_ms"] < miss["min_ms"] < miss["max_ms"] < full["min_ms"]:
        problems.append("bands overlap")

    session = ProbeSession(make_sim(capacity=300, usage=75, latency=UNIFORM,
                                    seed=55))
    thresholds = bootstrap_thresholds(session, BootstrapParams())
    expected = {"hit": "exist", "miss_notfull": "not_exist_not_full",
                "miss_full": "not_exist_full"}
    classified = 0
    for branch, want in expected.items():
        for rtt_us, _ in summary[branch]["cdf"]:
            classified += 1
            if thresholds.classify(rtt_us) != want:
                problems.append(f"misclassified {rtt_us}us from {branch}")
    verdict(1, "RTT separation", not problems,
            f"300 samples, {classified} distinct values, accuracy 100%"
            if not problems else "; ".join(problems))
    assert not problems, problems


def test_criterion_2_timeout_measurement():
    session = ProbeSession(make_sim(capacity=300, usage=75, latency=UNIFORM,
                                    seed=56))
    thresholds = bootstrap_thresholds(session, BootstrapParams())
    worst = 0.0
    failures = []
    for timeout_s in TIMEOUT_GRID_S:
        timeout_ms = timeout_s * 1000.0
        for repeat in range(10):
            idle_session = ProbeSession(
                make_sim(capacity=64, idle_ms=timeout_ms, latency=UNIFORM,
                         seed=200 + repeat)
            )
            measured = measure_idle_timeout(idle_session, thresholds)
            error = abs(measured - timeout_ms) / timeout_ms
            worst = max(worst, error)
            if error > 0.10:
                failures.append(f"idle {timeout_s}s repeat {repeat}: {error:.3f}")

            hard_session = ProbeSession(
                make_sim(capacity=64, hard_ms=timeout_ms, latency=UNIFORM,
                         seed=300 + repeat)
            )
            measured = measure_hard_timeout(hard_session, thresholds)
            error = abs(measured - timeout_ms) / timeout_ms
            worst = max(worst, error)
            if error > 0.10:
                failures.append(f"hard {timeout_s}s repeat {repeat}: {error:.3f}")
    verdict(2, "timeout measurement", not failures,
            f"120 measurements, worst relative error {worst:.4f}")
    assert not failures, failures


def test_criterion_3_fifo_capacity_sweep():
    failures = []
    means = {}
    for capacity in CAPACITY_GRID:
        result = run_scenario(capacity_scenario("FIFO", capacity))
        means[capacity] = result.mean_capacity
        if result.failures:
            failures.append(f"C={capacity}: {len(result.failures)} failed runs")
            continue
        if result.capacity_rel_error > 0.10:
            failures.append(
                f"C={capacity}: mean error {result.capacity_rel_error:.3f}"
            )
    if not 360 <= means[400] <= 440:
        failures.append(f"anchor C=400 mean {means[400]}")
    if not 900 <= means[1000] <= 1100:
        failures.append(f"anchor C=1000 mean {means[1000]}")
    verdict(3, "FIFO capacity sweep", not failures,
            f"mean@400={means[400]}, mean@1000={means[1000]}")
    assert not failures, failures


def test_criterion_4_lru_capacity_sweep():
    failures = []
    worst = 0.0
    for capacity in CAPACITY_GRID:
        result = run_scenario(capacity_scenario("LRU", capacity,
                                                seed_base=2000))
        for run in result.runs:
            if not run.ok:
                failures.append(f"C={capacity} repeat {run.repeat}: {run.error}")
                continue
            error = abs(run.report.f_capacity - capacity) / capacity
            worst = max(worst, error)
            if error > 0.15:
                failures.append(
                    f"C={capacity} repeat {run.repeat}: per-run error {error:.3f}"
                )
    verdict(4, "LRU capacity sweep", not failures,
            f"100 runs, worst per-run error {worst:.4f}")
    assert not failures, failures


def test_criterion_5_usage_sweep_both_policies():
    failures = []
    worst = 0.0
    for policy in ("FIFO", "LRU"):
        for usage in range(100, 1001, 100):
            scenario = Scenario(
                name=f"usage-{policy.lower()}-{usage}",
                policy=policy,
                capacity=1200,
                initial_usage=usage,
                latency=UNIFORM,
                repeats=2,
                seed=3000 + usage,
            )
            result = run_scenario(scenario)
            if result.failures:
                failures.append(f"{policy} usage={usage}: failed runs")
                continue
            worst = max(worst, result.usage_rel_error)
            if result.usage_rel_error > 0.15:
                failures.append(
                    f"{policy} usage={usage}: mean error "
                    f"{result.usage_rel_error:.3f}"
                )
    verdict(5, "usage sweep (both policies)", not failures,
            f"worst mean error {worst:.4f}")
    assert not failures, failures


def test_criterion_6_oracle_exactness():
    failures = []
    checked = 0
    for policy, infer in (("FIFO", infer_fifo), ("LRU", infer_lru)):
        for capacity in range(1, 65):
            for usage in range(0, capacity + 1):
                session = ProbeSession(
                    make_sim(capacity=capacity, policy=policy, usage=usage)
                )
                report = infer(session, MIDPOINT_THRESHOLDS,
                               key_budget=4 * capacity + 16)
                checked += 1
                if report.f_capacity != capacity or report.f_other != usage:
                    failures.append(
                        f"{policy} C={capacity} U={usage}: "
                        f"got ({report.f_capacity}, {report.f_other})"
                    )
                elif report.n2 - report.n1 != usage:
                    failures.append(
                        f"{policy} C={capacity} U={usage}: n2-n1 != usage"
                    )
    verdict(6, "oracle exactness", not failures,
            f"{checked} exhaustive configurations exact")
    assert not failures, failures[:10]


def test_criterion_7_underestimation_property():
    rng = random.Random(777)
    failures = []
    runs = 0
    for case in range(200):
        policy = "FIFO" if case % 2 == 0 else "LRU"
        capacity = rng.randint(30, 250)
        usage = rng.randint(0, capacity)
        rate = rng.uniform(5.0, 80.0)
        session = ProbeSession(
            make_sim(capacity=capacity, policy=policy, usage=usage, rate=rate,
                     latency=UNIFORM, seed=9000 + case),
            send_rate_pps=rng.choice((2000.0, 5000.0, 10000.0)),
        )
        infer = infer_fifo if policy == "FIFO" else infer_lru
        report = infer(session, MIDPOINT_THRESHOLDS,
                       key_budget=4 * capacity + 100)
        runs += 1
        if report.f_capacity > capacity:
            failures.append(
                f"case {case} {policy}: f_capacity {report.f_capacity} > "
                f"C {capacity}"
            )
        arrivals = session.sim.background_arrivals
        if report.f_other > usage + arrivals:
            failures.append(
                f"case {case} {policy}: f_other {report.f_other} > "
                f"{usage}+{arrivals}"
            )
    verdict(7, "underestimation property", not failures,
            f"{runs} randomized busy-background runs, no overestimate")
    assert not failures, failures


def test_criterion_8_feasibility_arithmetic():
    result = check_feasibility(2000, 0.0, 5000.0, v_gen_pps=10_000.0)
    ok = result.v_gen_required == 400.0 and result.feasible
    verdict(8, "feasibility arithmetic", ok,
            f"required rate = {result.v_gen_required} pkt/s")
    assert ok


def test_criterion_9_policy_oracle_equivalence():
    def key(i: int) -> FlowKey:
        return FlowKey(f"10.9.{i >> 8 & 255}.{i & 255}", "10.0.0.1",
                       "02:00:00:00:00:01", "02:00:00:00:00:02")

    # Per policy, one table per timeout pair: hard only, idle only,
    # hard < idle and idle < hard.
    pairs = ((1500, 0), (0, 800), (1500, 3000), (6000, 800))
    divergences = 0
    events = 0
    for policy in ("FIFO", "LRU"):
        for seed, (hard, idle) in enumerate(pairs, start=11):
            rng = random.Random(seed)
            capacity = rng.randint(6, 20)
            table = FlowTable(capacity, policy, hard, idle)
            oracle = ReplayOracle(capacity=capacity, policy=policy)
            now = 0
            for _ in range(10_000):
                now += rng.choice((0, 0, 1, 5, 40, 900))
                i = rng.randint(0, 50)
                events += 1
                hit = table.lookup(key(i), now)
                if hit != oracle.lookup(key(i), now):
                    divergences += 1
                    continue
                if not hit and rng.random() < 0.8:
                    result = table.insert(key(i), now)
                    expected, expected_full = oracle.insert(
                        key(i), now, hard=hard, idle=idle
                    )
                    if (result.evicted, result.was_full) != (expected,
                                                             expected_full):
                        divergences += 1
    verdict(9, "policy-oracle equivalence", divergences == 0,
            f"{events} events replayed, {divergences} divergences")
    assert divergences == 0


def test_criterion_10_deterministic_csv():
    def run_once() -> bytes:
        scenarios = [
            Scenario(name="det-fifo", policy="FIFO", capacity=200,
                     initial_usage=50, background_rate=8.0, latency=UNIFORM,
                     repeats=3, seed=4242),
            Scenario(name="det-lru", policy="LRU", capacity=150,
                     initial_usage=30, background_rate=5.0, latency=UNIFORM,
                     repeats=3, seed=777,
                     attack=AttackConfig(send_rate_pps=5000.0)),
        ]
        buffer = io.StringIO()
        write_sweep_csv(run_suite(scenarios), buffer)
        return buffer.getvalue().encode()

    first, second = run_once(), run_once()
    verdict(10, "deterministic CSV", first == second,
            f"{len(first)} bytes, re-run byte-identical")
    assert first == second
