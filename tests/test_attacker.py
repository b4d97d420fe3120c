"""Tests for threshold bootstrap, timeout probing, feasibility and inference."""

import itertools
import math
import random
import re
from bisect import insort
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowprobe.attacker import (
    SMALL_BAND_CONFIRMATIONS,
    SMALL_MISS_BAND,
    STATE_EXIST,
    STATE_NOT_EXIST_FULL,
    STATE_NOT_EXIST_NOT_FULL,
    AttackError,
    BootstrapParams,
    BudgetExhausted,
    InferenceReport,
    InfeasibleRate,
    JumpNeverObserved,
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
from flowprobe.flowtable import EVICTED, EXPIRED
from flowprobe.netsim import (
    BRANCH_MISS_FULL,
    EVENT_PROBE,
    NOISE_MODES,
    BackgroundWorkload,
    KeySequence,
    LatencyModel,
    SwitchSimulator,
    ms_to_us,
    us_to_ms,
)

from test_flowtable import table_state

NOISELESS = LatencyModel(noise="none")
MIDPOINT_THRESHOLDS = RttThresholds.from_band_centers(0.25, 4.0, 9.0)


def make_sim(capacity, policy="FIFO", usage=0, rate=0.0, hard_ms=0.0,
             idle_ms=0.0, latency=NOISELESS, seed=0, record_trace=False):
    return SwitchSimulator(
        capacity=capacity,
        policy=policy,
        hard_timeout_ms=hard_ms,
        idle_timeout_ms=idle_ms,
        latency=latency.with_seed(seed),
        workload=BackgroundWorkload(arrival_rate=rate, initial_usage=usage,
                                    seed=seed + 1),
        record_trace=record_trace,
    )


class TestRttThresholds:
    def test_classify_bands(self):
        th = MIDPOINT_THRESHOLDS
        assert th.classify(250) == STATE_EXIST
        assert th.classify(4000) == STATE_NOT_EXIST_NOT_FULL
        assert th.classify(9000) == STATE_NOT_EXIST_FULL

    def test_cuts_are_geometric_means(self):
        th = MIDPOINT_THRESHOLDS
        assert th.hit_cut_ms == pytest.approx((0.25 * 4.0) ** 0.5)
        assert th.full_cut_ms == pytest.approx((4.0 * 9.0) ** 0.5)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            RttThresholds(t1_ms=1.0, t2_ms=0.5, t3_ms=9.0,
                          hit_cut_ms=0.7, full_cut_ms=3.0)


class TestBootstrapParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BootstrapParams(ts2_ms=0.0)
        with pytest.raises(ValueError):
            BootstrapParams(repeat=0)
        with pytest.raises(ValueError):
            BootstrapParams(jump_factor=1.0)
        for name in ("filler_budget", "min_miss_samples", "inter_repeat_wait_ms"):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                BootstrapParams(**{name: -1})
            BootstrapParams(**{name: 0})


class TestBootstrap:
    def test_noiseless_recovers_midpoints(self):
        session = ProbeSession(make_sim(capacity=100, usage=25))
        th = bootstrap_thresholds(session, BootstrapParams())
        assert (th.t1_ms, th.t2_ms, th.t3_ms) == (0.25, 4.0, 9.0)
        assert th.hit_cut_ms == pytest.approx(1.0)
        assert th.full_cut_ms == pytest.approx(6.0)

    def test_uniform_noise_lands_in_measured_bands(self):
        session = ProbeSession(
            make_sim(capacity=200, usage=50, latency=LatencyModel(), seed=21)
        )
        th = bootstrap_thresholds(session, BootstrapParams())
        assert 0.2 <= th.t1_ms <= 0.3
        assert 3.0 <= th.t2_ms <= 5.0
        assert 8.0 <= th.t3_ms <= 10.0

    @pytest.mark.parametrize("latency, seed", [(NOISELESS, 0), (LatencyModel(), 4)])
    def test_pin_expired_before_its_re_probe_is_named(self, latency, seed):
        # Idle 50 ms < ts1 100 ms: the pinned key's re-probe is a miss. At
        # seed 4 its 3.2 ms RTT sits below the 3.9 ms miss median, so the
        # bands would pass their ordering check with t1 in the miss band.
        session = ProbeSession(make_sim(capacity=100, usage=25, idle_ms=50.0,
                                        latency=latency, seed=seed))
        with pytest.raises(AttackError, match="ts1_ms=100.0 ms"):
            bootstrap_thresholds(session, BootstrapParams(ts2_ms=0.1))

    def test_filler_budget_exhaustion(self):
        session = ProbeSession(make_sim(capacity=1000))
        with pytest.raises(JumpNeverObserved):
            bootstrap_thresholds(session, BootstrapParams(filler_budget=10))

    def test_one_free_slot_never_jumps(self):
        # Known limit: the pin fills the table, so every filler misses on a
        # full table and the miss band holds only full-table RTTs.
        session = ProbeSession(make_sim(capacity=64, usage=63,
                                        latency=LatencyModel(), seed=2))
        with pytest.raises(JumpNeverObserved):
            bootstrap_thresholds(session, BootstrapParams(filler_budget=500))

    def test_repeats_average_with_drain_between_rounds(self):
        # Fillers idle out between rounds, so every round starts not-full.
        sim = make_sim(capacity=50, idle_ms=200.0, latency=LatencyModel(), seed=8)
        session = ProbeSession(sim, send_rate_pps=50_000.0)
        params = BootstrapParams(ts1_ms=20.0, repeat=3,
                                 inter_repeat_wait_ms=500.0)
        th = bootstrap_thresholds(session, params)
        assert 0.2 <= th.t1_ms <= 0.3
        assert 8.0 <= th.t3_ms <= 10.0


class TestTimeoutMeasurement:
    @pytest.mark.parametrize("idle_s", [5, 30])
    def test_idle_measurement_within_ten_percent(self, idle_s):
        session = ProbeSession(make_sim(capacity=64, idle_ms=idle_s * 1000.0))
        measured = measure_idle_timeout(session, MIDPOINT_THRESHOLDS)
        assert abs(measured - idle_s * 1000.0) / (idle_s * 1000.0) <= 0.10

    def test_idle_shorter_than_initial_gap(self):
        session = ProbeSession(make_sim(capacity=64, idle_ms=50.0))
        measured = measure_idle_timeout(session, MIDPOINT_THRESHOLDS)
        assert measured == pytest.approx(50.0, abs=50.0)

    def test_idle_disabled_raises(self):
        session = ProbeSession(make_sim(capacity=64))
        with pytest.raises(TimeoutDisabled):
            measure_idle_timeout(session, MIDPOINT_THRESHOLDS)

    def test_hard_measurement_with_idle_refresh(self):
        # hard 30 s with idle 10 s: the 0.1 s refresh train keeps the idle
        # timer quiet, so the first miss lands exactly on the hard boundary.
        session = ProbeSession(
            make_sim(capacity=64, hard_ms=30_000.0, idle_ms=10_000.0)
        )
        measured = measure_hard_timeout(session, MIDPOINT_THRESHOLDS,
                                        idle_timeout_ms=10_000.0)
        assert measured == pytest.approx(30_000.0, abs=100.0)
        assert abs(measured - 30_000.0) / 30_000.0 <= 0.10

    def test_hard_exact_at_gap_multiple(self):
        # Event replay: install at t0, probes at t0 + k*100 ms; the entry
        # expires at exactly t0 + 10 s, which is probe k=100.
        session = ProbeSession(make_sim(capacity=64, hard_ms=10_000.0))
        measured = measure_hard_timeout(session, MIDPOINT_THRESHOLDS)
        assert measured == 10_000.0

    def test_hard_disabled_raises(self):
        session = ProbeSession(make_sim(capacity=64, idle_ms=60_000.0))
        with pytest.raises(TimeoutDisabled):
            measure_hard_timeout(session, MIDPOINT_THRESHOLDS,
                                 idle_timeout_ms=60_000.0)

    def test_send_gap_sets_the_refresh_count(self):
        # 7,000 pps is a 143 us send gap, longer than the 50 us refresh gap:
        # refresh k goes out at k * 143 us while (k - 1) * 143 + 50 us is
        # within 120 s, so the last one is k = 839,161.
        session = ProbeSession(make_sim(capacity=64), send_rate_pps=7000.0)
        with pytest.raises(TimeoutDisabled):
            measure_hard_timeout(session, MIDPOINT_THRESHOLDS,
                                 idle_timeout_ms=0.5)
        assert (session.probes_sent, session.now_us) == (839_162, 120_000_166)

    # (result ms or the exception raised, probes_sent, now_us, background
    # arrivals) on a C=64 switch at the default 100 us send gap.
    @pytest.mark.parametrize("sim_kwargs, measure, expected", [
        # idle 500 ms: the refresh gap shrinks to 50 ms, idle/10.
        (dict(hard_ms=3_000.0, idle_ms=500.0),
         lambda s: measure_hard_timeout(s, MIDPOINT_THRESHOLDS,
                                        idle_timeout_ms=500.0),
         (3000.0, 61, 3_000_100, 0)),
        # no idle timeout: the 100 ms step.
        (dict(hard_ms=10_000.0),
         lambda s: measure_hard_timeout(s, MIDPOINT_THRESHOLDS),
         (10000.0, 101, 10_000_100, 0)),
        # gaps 0.1, 0.2, ... 6.4 s, then bisection down to a 100 ms bracket.
        (dict(idle_ms=5_000.0),
         lambda s: measure_idle_timeout(s, MIDPOINT_THRESHOLDS),
         (4950.0, 13, 38_200_100, 0)),
        # no timeouts: refreshes every 100 ms up to the 120 s ceiling.
        ({},
         lambda s: measure_hard_timeout(s, MIDPOINT_THRESHOLDS),
         (TimeoutDisabled, 1201, 120_000_100, 0)),
        # idle 0.5 ms: a 50 us refresh gap is below the 100 us send gap, so
        # refreshes go out one send gap apart.
        (dict(hard_ms=3.0, idle_ms=0.5),
         lambda s: measure_hard_timeout(s, MIDPOINT_THRESHOLDS,
                                        idle_timeout_ms=0.5),
         (3.0, 31, 3_100, 0)),
        # background arrivals fill the FIFO table and evict the refreshed
        # key long before its 10 s hard timeout.
        (dict(hard_ms=10_000.0, rate=10.0, usage=10, latency=LatencyModel(),
              seed=5),
         lambda s: measure_hard_timeout(s, MIDPOINT_THRESHOLDS),
         (6100.0, 62, 6_100_100, 64)),
    ], ids=["hard-idle-refresh", "hard-step", "idle", "hard-disabled",
            "hard-gap-below-send-gap", "hard-background-eviction"])
    def test_schedule_is_pinned(self, sim_kwargs, measure, expected):
        session = ProbeSession(make_sim(capacity=64, **sim_kwargs))
        try:
            result = measure(session)
        except TimeoutDisabled as exc:
            result = type(exc)
        assert (result, session.probes_sent, session.now_us,
                session.sim.background_arrivals) == expected


class TestFeasibility:
    def test_capacity_2000_timeout_5s_needs_400_pps(self):
        verdict = check_feasibility(2000, 0.0, 5000.0, v_gen_pps=10_000.0)
        assert verdict.v_gen_required == 400.0
        assert verdict.feasible

    def test_both_timeouts_disabled_always_feasible(self):
        verdict = check_feasibility(10**6, 0.0, 0.0, v_gen_pps=0.001)
        assert verdict.feasible

    def test_infeasible_rate(self):
        verdict = check_feasibility(1000, 0.0, 10_000.0, v_gen_pps=50.0)
        assert verdict.v_gen_required == 100.0
        assert not verdict.feasible

    def test_min_over_both_timeouts(self):
        verdict = check_feasibility(1000, 2000.0, 10_000.0, v_gen_pps=600.0)
        assert verdict.v_gen_required == 500.0
        assert verdict.feasible

    def test_explicit_deletion_rate(self):
        verdict = check_feasibility(1000, 0.0, 10_000.0, v_gen_pps=120.0,
                                    v_del_pps=30.0)
        assert verdict.v_gen_required == 130.0
        assert not verdict.feasible


class TestProbeSession:
    def test_probe_cadence_follows_send_rate(self):
        session = ProbeSession(make_sim(capacity=16), send_rate_pps=1000.0)
        first = session.probe(session.fresh_key())
        second = session.probe(session.fresh_key())
        assert second.time_us - first.time_us == 1000
        assert session.probes_sent == 2

    def test_wait_until_never_rewinds(self):
        session = ProbeSession(make_sim(capacity=16))
        session.wait_us(50_000)
        before = session.now_us
        session.wait_until_us(before - 10_000)
        assert session.now_us == before


class TestInferFifo:
    def test_exact_at_zero_interference(self):
        session = ProbeSession(make_sim(capacity=120, usage=30))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert report.f_capacity == 120
        assert report.f_other == 30
        assert report.n1 == 90 and report.n2 == 120
        assert report.distinct_keys == 121
        assert report.reinstalls == 1

    def test_exact_with_empty_table(self):
        session = ProbeSession(make_sim(capacity=75))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert (report.f_capacity, report.f_other) == (75, 0)
        assert report.n1 == report.n2 == 75

    def test_preloaded_full_table_reports_full_usage(self):
        session = ProbeSession(make_sim(capacity=40, usage=40))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert (report.f_capacity, report.f_other) == (40, 40)
        assert report.n1 == 0

    @pytest.mark.parametrize("capacity, usage, expected", [
        (120, 30, (90, 120, 152, 121, 15200)),
        (40, 40, (0, 40, 82, 41, 8200)),
        (1, 1, (0, 1, 4, 2, 400)),
    ])
    def test_traffic_is_pinned(self, capacity, usage, expected):
        # (n1, n2, probes_sent, distinct_keys, now_us); with n1 = 0 the
        # first round re-probes the key it just inserted.
        session = ProbeSession(make_sim(capacity=capacity, usage=usage))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert (report.n1, report.n2, report.probes_sent,
                report.distinct_keys, session.now_us) == expected

    def test_budget_exhausted(self):
        session = ProbeSession(make_sim(capacity=1000))
        with pytest.raises(BudgetExhausted):
            infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=50)

    def test_rounds_before_the_table_is_full_send_no_burst(self, monkeypatch):
        fresh, bursts, probes = [], [], []
        probe_fresh = ProbeSession.probe_fresh
        probe_burst = ProbeSession.probe_burst
        probe = ProbeSession.probe

        def record_fresh(session, count, *args, **kwargs):
            sent, stop = probe_fresh(session, count, *args, **kwargs)
            fresh.append((count, len(sent), stop.time_us, kwargs.get("watch")))
            return sent, stop

        def record_burst(session, keys, *args):
            bursts.append(list(keys))
            return probe_burst(session, keys, *args)

        def record_probe(session, key):
            probes.append(key)
            return probe(session, key)

        monkeypatch.setattr(ProbeSession, "probe_fresh", record_fresh)
        monkeypatch.setattr(ProbeSession, "probe_burst", record_burst)
        monkeypatch.setattr(ProbeSession, "probe", record_probe)
        session = ProbeSession(make_sim(capacity=120, usage=30))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        # Rounds 1-91 watch nothing and go out as one fresh-key burst that
        # stops at key 91, the first full-table miss (n1 = 90); that round
        # re-probes the first key in a one-key burst. Rounds 92-121 each
        # probe one fresh key, then the first key, 100 us apart: they go out
        # as one more `probe_fresh` call watching it, which stops at round
        # 121's re-probe, at 9300 + 29 * 200 us.
        assert report.n1 == 90 and report.distinct_keys == 121
        first = KeySequence("10.1").key_at(0)
        assert fresh == [(1000, 91, 9000, None), (909, 30, 15100, first)]
        assert bursts == [[first]]
        assert probes == []

    def test_n1_matches_first_true_miss_full(self):
        # Noiseless run: n1 must point at the first probe whose true branch
        # was the full-table miss, reconstructed from the event trace.
        sim = make_sim(capacity=60, usage=15, record_trace=True)
        session = ProbeSession(sim)
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=500)
        distinct_seen = set()
        distinct_events = []
        for event in sim.trace:
            if event.kind == EVENT_PROBE and event.key not in distinct_seen:
                distinct_seen.add(event.key)
                distinct_events.append(event)
        first_full = next(
            i for i, e in enumerate(distinct_events) if e.branch == BRANCH_MISS_FULL
        )
        assert report.n1 == first_full

    def test_time_budget_is_flagged_not_fatal(self):
        session = ProbeSession(make_sim(capacity=80, usage=20),
                               send_rate_pps=1000.0)
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000,
                            time_budget_ms=5.0)
        assert report.timeout_budget_exceeded
        assert report.f_capacity == 80
        assert report.probes_sent == 102

    @pytest.mark.parametrize("time_budget_ms, exceeded", [(15.0, False),
                                                          (14.999, True)])
    def test_budget_is_checked_as_the_stopping_round_begins(self, time_budget_ms,
                                                            exceeded):
        # n2 = 120 after 152 probes 100 us apart: the stopping round, a fresh
        # key and then the first key, begins at 15,000 us, as the round
        # before it ends.
        session = ProbeSession(make_sim(capacity=120, usage=30))
        report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=1000,
                            time_budget_ms=time_budget_ms)
        assert (report.n2, report.probes_sent) == (120, 152)
        assert report.timeout_budget_exceeded is exceeded

    def test_underestimates_with_concurrent_arrivals(self):
        for seed in range(20):
            capacity = 50 + seed * 7
            usage = capacity // 4
            session = ProbeSession(
                make_sim(capacity=capacity, usage=usage, rate=40.0,
                         latency=LatencyModel(), seed=seed),
                send_rate_pps=2000.0,
            )
            report = infer_fifo(session, MIDPOINT_THRESHOLDS, key_budget=5000)
            arrivals = session.sim.background_arrivals
            assert report.f_capacity <= capacity, seed
            assert report.f_other <= usage + arrivals, seed


class TestInferLru:
    def test_exact_at_zero_interference(self):
        session = ProbeSession(make_sim(capacity=90, policy="LRU", usage=30))
        report = infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert report.f_capacity == 90
        assert report.f_other == 30
        assert report.n1 == 60 and report.n2 == 90
        # one insert per round plus the quadratic rolling traffic
        assert report.probes_sent > 90 * 91 // 2
        assert session.probes_sent == 4186
        assert session.now_us == 418600

    def test_preloaded_full_table_traffic(self):
        session = ProbeSession(make_sim(capacity=40, policy="LRU", usage=40))
        report = infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=1000)
        assert (report.n1, report.n2, report.probes_sent) == (0, 40, 861)

    def test_exact_with_empty_table(self):
        session = ProbeSession(make_sim(capacity=33, policy="LRU"))
        report = infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=500)
        assert (report.f_capacity, report.f_other) == (33, 0)

    def test_budget_exhausted(self):
        session = ProbeSession(make_sim(capacity=1000, policy="LRU"))
        with pytest.raises(BudgetExhausted):
            infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=50)

    def test_infeasible_rate_on_tight_time_budget(self):
        session = ProbeSession(make_sim(capacity=200, policy="LRU"),
                               send_rate_pps=1000.0)
        with pytest.raises(InfeasibleRate, match="budget after 14 keys$"):
            infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=1000,
                      time_budget_ms=100.0)
        assert session.probes_sent == 105

    def test_budget_is_checked_as_the_stopping_round_begins(self):
        # n2 = 90: the rounds before the stopping one send 1 + 2 + ... + 90
        # probes 100 us apart, so the stopping round begins at 409,500 us,
        # as the round before it ends; it sends 91 probes and checks no
        # budget.
        def infer(time_budget_ms):
            session = ProbeSession(make_sim(capacity=90, policy="LRU", usage=30))
            return infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=1000,
                             time_budget_ms=time_budget_ms)

        assert infer(409.5).probes_sent == 4186
        with pytest.raises(InfeasibleRate, match="budget after 90 keys$"):
            infer(409.499)

    def test_rolling_keeps_attacker_keys_most_recent(self):
        # Replicates the maintainer by hand and checks ground truth after
        # each round: the k most recent entries must be exactly our keys.
        sim = make_sim(capacity=20, policy="LRU", usage=8)
        session = ProbeSession(sim)
        ours = []
        for _ in range(10):
            key = session.fresh_key()
            session.probe(key)
            for old in ours:
                session.probe(old)
            ours.append(key)
            ranked = sorted(
                sim.table.entries.values(),
                key=lambda e: (e.last_access, e.inserted_at, e.seq),
                reverse=True,
            )
            top = {entry.key for entry in ranked[: len(ours)]}
            assert top == set(ours)

    def test_underestimates_with_concurrent_arrivals(self):
        for seed in range(10):
            capacity = 40 + seed * 6
            usage = capacity // 3
            session = ProbeSession(
                make_sim(capacity=capacity, policy="LRU", usage=usage,
                         rate=30.0, latency=LatencyModel(), seed=seed),
                send_rate_pps=5000.0,
            )
            report = infer_lru(session, MIDPOINT_THRESHOLDS, key_budget=5000)
            arrivals = session.sim.background_arrivals
            assert report.f_capacity <= capacity, seed
            assert report.f_other <= usage + arrivals, seed


class TestUsageConsistency:
    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_reported_usage_equals_ground_truth_at_detection(self, policy):
        # Zero interference: n2 - n1 must equal the background occupancy
        # that was present when the table-full state was first observed.
        rng = random.Random(5)
        for _ in range(10):
            capacity = rng.randint(10, 80)
            usage = rng.randint(0, capacity)
            session = ProbeSession(make_sim(capacity=capacity, policy=policy,
                                            usage=usage))
            infer = infer_fifo if policy == "FIFO" else infer_lru
            report = infer(session, MIDPOINT_THRESHOLDS, key_budget=2000)
            assert report.n2 - report.n1 == usage


class TestTimeBudget:
    @pytest.mark.parametrize("infer", [infer_fifo, infer_lru])
    @pytest.mark.parametrize("time_budget_ms", [math.inf, math.nan, -1.0])
    def test_a_budget_that_is_not_finite_and_at_least_0_is_rejected(
            self, infer, time_budget_ms):
        session = ProbeSession(make_sim(capacity=10))
        with pytest.raises(ValueError,
                           match=re.escape(f"time_budget_ms={time_budget_ms!r}")):
            infer(session, MIDPOINT_THRESHOLDS, key_budget=100,
                  time_budget_ms=time_budget_ms)
        assert session.probes_sent == 0

    @pytest.mark.parametrize("infer", [infer_fifo, infer_lru])
    @pytest.mark.parametrize("key_budget", [0, -5])
    def test_a_key_budget_below_1_is_rejected(self, infer, key_budget):
        session = ProbeSession(make_sim(capacity=10))
        with pytest.raises(ValueError, match=re.escape(f"key_budget={key_budget!r}")):
            infer(session, MIDPOINT_THRESHOLDS, key_budget=key_budget)
        assert session.probes_sent == 0


def probe_loop(session, keys, stop_rtt_us):
    """The per-probe loop that `ProbeSession.probe_burst` stands for."""
    for key in keys:
        sample = session.probe(key)
        if sample.rtt_us >= stop_rtt_us:
            return sample
    return None


def fresh_loop(session, count, stop_rtt_us, gap_us=None, rtts=None, watch=None):
    """The per-probe loop that `ProbeSession.probe_fresh` stands for."""
    gap_us = session.send_gap_us if gap_us is None else gap_us
    start_us, keys = session.now_us, []
    per_key = 1 if watch is None else 2
    for i in range(count):
        keys.append(session.fresh_key())
        for j, key in enumerate((keys[-1], watch)[:per_key]):
            session.now_us = start_us + (per_key * i + j) * gap_us
            sample = session.probe(key)
            if rtts is not None:
                rtts.append(sample.rtt_us)
        if sample.rtt_us >= stop_rtt_us:
            return keys, sample
    return keys, None


def send_loop(sim, keys, start_us, gap_us, stop_rtt_us):
    """The per-probe loop that `SwitchSimulator.send_rounds` stands for
    without `watch`."""
    for sent, key in enumerate(keys, 1):
        sample = sim.send_probe(key, start_us + (sent - 1) * gap_us)
        if sample.rtt_us >= stop_rtt_us:
            return sent, sample
    return len(keys), None


def sim_state(sim):
    table = sim.table
    return (
        sim.now_us, sim.events_processed, sim.background_arrivals,
        *table_state(table), sim.trace, sim._latency_rng.getstate(),
        sim._next_arrival_us, sim._arrival_rng.getstate(),
    )


def session_state(session):
    return (session.now_us, session.probes_sent, session._keys.index,
            *sim_state(session.sim))


ATTACKER_KEYS = [KeySequence("10.1").key_at(i) for i in range(10)]


def installed(keys, gap_us=100):
    """Set-up that installs `keys` one `gap_us` apart from t = 0."""
    def setup(sim):
        for i, key in enumerate(keys):
            sim.send_probe(key, i * gap_us)
    return setup


def burst_matches_loop(build, setup, keys, start_us, gap_us, stop_rtt_us):
    """Run `setup` then one burst on one simulator, and `setup` then the
    per-probe loop on another; assert both end alike and return the first."""
    burst, loop = build(), build()
    setup(burst)
    setup(loop)
    result = burst.send_rounds(keys, start_us, gap_us, stop_rtt_us)
    assert result == send_loop(loop, keys, start_us, gap_us, stop_rtt_us)
    assert sim_state(burst) == sim_state(loop)
    return result, burst


class TestProbeBurst:
    @settings(max_examples=400, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        noise=st.sampled_from(NOISE_MODES),
        capacity=st.integers(1, 24),
        usage=st.integers(0, 8),
        rate=st.sampled_from((0.0, 0.0, 500.0, 50_000.0)),
        hard_ms=st.sampled_from((0.0, 0.0, 0.5, 3.0)),
        idle_ms=st.sampled_from((0.0, 0.0, 0.3, 2.0)),
        send_rate_pps=st.sampled_from((2000.0, 10_000.0, 1e6)),
        seed=st.integers(0, 2**16),
        record_trace=st.sampled_from((False, True, True)),
        rounds=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 150, 400, 2500)),      # wait before, us
                st.lists(st.integers(0, 11), max_size=14),    # key indexes
                st.integers(1, 6),                            # times sent
                st.integers(0, 30),                           # new keys after them
                st.sampled_from((250, 300, 1000, 4000, 5000, 5001, 6500,
                                 float("inf"))),              # stop, us
                st.sampled_from(("burst", "fresh", "fresh+rtts", "fresh+watch",
                                 "fresh+watch+rtts")),
                st.sampled_from((None, 0, 1, 250)),           # fresh-key gap, us
                st.integers(0, 11),                           # watched key index
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_matches_per_probe_loop(self, policy, noise, capacity, usage, rate,
                                    hard_ms, idle_ms, send_rate_pps, seed,
                                    record_trace, rounds):
        # Misses on fresh keys fill the table inside a burst, and timeouts
        # of 0.3-3 ms fall due inside bursts of up to 114 probes.
        def build():
            sim = make_sim(capacity, policy, usage=min(usage, capacity),
                           rate=rate, hard_ms=hard_ms, idle_ms=idle_ms,
                           latency=LatencyModel(noise=noise), seed=seed,
                           record_trace=record_trace)
            return ProbeSession(sim, send_rate_pps)

        burst, loop = build(), build()
        # Two keys from the background range: a hit on one is traced with
        # the background owner.
        pool = ATTACKER_KEYS + [KeySequence("10.2").key_at(60_000 + i)
                                for i in range(2)]
        # New keys never sent before, alternating the attacker's and the
        # background's ranges, so one run of misses installs both owners.
        new = (key for i in itertools.count()
               for key in (KeySequence("10.1").key_at(500 + i),
                           KeySequence("10.2").key_at(60_100 + i)))
        for wait_us, indexes, times, fresh, stop, kind, gap_us, watched in rounds:
            burst.wait_us(wait_us)
            loop.wait_us(wait_us)
            if kind == "burst":
                # Repeating the list makes long runs of hits once its keys fit.
                keys = [pool[i] for i in indexes] * times
                keys += itertools.islice(new, fresh)
                assert burst.probe_burst(keys, stop) == probe_loop(loop, keys, stop)
            else:
                # The session's fresh keys start at ATTACKER_KEYS[0], so some
                # may be live: a fresh-key burst can hit too, and a fresh key
                # may be the watched one.
                rtts = [] if kind.endswith("rtts") else None
                loop_rtts = [] if kind.endswith("rtts") else None
                watch = pool[watched] if "watch" in kind else None
                assert (burst.probe_fresh(fresh, stop, gap_us, rtts, watch)
                        == fresh_loop(loop, fresh, stop, gap_us, loop_rtts, watch))
                assert rtts == loop_rtts
            assert session_state(burst) == session_state(loop)

    @pytest.mark.parametrize("noise", NOISE_MODES)
    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_run_of_hits_in_each_noise_mode(self, policy, noise):
        keys = ATTACKER_KEYS[:8]
        (sent, stop), sim = burst_matches_loop(
            lambda: make_sim(8, policy, latency=LatencyModel(noise=noise),
                             seed=3, record_trace=True),
            installed(keys), keys * 5, 800, 100, 1000)
        assert (sent, stop, sim.now_us) == (40, None, 4700)

    def test_burst_in_the_microsecond_of_the_last_lru_touch(self):
        # a, b, c installed at 0; b touched at 10. The burst touches a at 10
        # too, so b, inserted after a, must order behind it.
        a, b, c = ATTACKER_KEYS[:3]

        def setup(sim):
            installed([a, b, c], gap_us=0)(sim)
            sim.send_probe(b, 10)

        _, sim = burst_matches_loop(lambda: make_sim(4, "LRU", record_trace=True), setup,
                                    [a, c], 10, 5, 1000)
        assert list(sim.table.entries) == [a, b, c]

    @pytest.mark.parametrize("hard_ms, idle_ms", [(1.0, 0.0), (0.0, 0.45)])
    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_expiry_deadline_inside_the_window(self, policy, hard_ms, idle_ms):
        # Installed at 0-300 us; the burst runs from 400 to 1500 us. Each
        # key falls hard-due 1 ms after its install, inside the burst, and
        # is re-probed every 400 us, too soon to idle out.
        keys = ATTACKER_KEYS[:4]
        _, sim = burst_matches_loop(
            lambda: make_sim(4, policy, hard_ms=hard_ms, idle_ms=idle_ms,
                             record_trace=True),
            installed(keys), keys * 3, 400, 100, float("inf"))
        assert [(r.time, r.reason) for r in sim.table.removal_log] == (
            [(1000, EXPIRED), (1100, EXPIRED), (1200, EXPIRED), (1300, EXPIRED)]
            if hard_ms else [])

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_background_arrival_inside_the_window(self, policy):
        # At seed 6 the first arrival is due at 783 us, inside the burst's
        # 400-2300 us window.
        keys = ATTACKER_KEYS[:4]
        build = lambda: make_sim(4, policy, rate=500.0, seed=6, record_trace=True)
        probe = build()
        installed(keys)(probe)
        assert (probe.background_arrivals, probe._next_arrival_us) == (0, 783)
        _, sim = burst_matches_loop(build, installed(keys), keys * 5, 400, 100,
                                    float("inf"))
        assert sim.background_arrivals >= 1
        # The arrival takes the full table's victim, so the burst logs it.
        first = sim.table.removal_log[0]
        assert (first.time, first.reason) == (783, EVICTED)

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_probes_after_the_pass_go_through_send_probe(self, policy):
        # As above: the pass answers the hits at 400-700 us, before the
        # arrival due at 783 us. The arrival evicts a key, so the probes at
        # 800-1500 us miss, each evicting the key probed next, and go
        # through send_probe, with the pass retried after each; once every
        # key is back, the retried pass answers the last 8 hits.
        keys = ATTACKER_KEYS[:4]
        sim = make_sim(4, policy, rate=500.0, seed=6)
        installed(keys)(sim)
        passes, calls = [], []
        touch_run, send_probe = sim.table.touch_run, sim.send_probe

        def counted_touch_run(*args):
            passes.append(touch_run(*args))
            return passes[-1]

        def counted_send_probe(key, at_us):
            calls.append(at_us)
            return send_probe(key, at_us)

        sim.table.touch_run = counted_touch_run
        sim.send_probe = counted_send_probe
        assert sim.send_rounds(keys * 5, 400, 100, float("inf")) == (20, None)
        assert passes == [4] + [0] * 8 + [8]
        assert calls == list(range(800, 1600, 100))
        assert sim.events_processed == 4 + 20 + sim.background_arrivals

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_hits_then_misses_are_one_touch_and_one_install_pass(self, policy):
        # Four installed keys, then four absent ones into the four free
        # slots: the table picks touch_run for the hits and install_run for
        # the misses, and no probe goes through send_probe.
        live, absent = ATTACKER_KEYS[:4], ATTACKER_KEYS[4:8]
        build = lambda: make_sim(8, policy, record_trace=True)
        sim, loop = build(), build()
        for twin in (sim, loop):
            installed(live)(twin)
        passes, calls = [], []
        table = sim.table
        touch_run, install_run = table.touch_run, table.install_run

        def counted(name, run):
            def call(*args):
                result = run(*args)
                passes.append((name, result))
                return result
            return call

        table.touch_run = counted("touch_run", touch_run)
        table.install_run = counted("install_run", install_run)
        send_probe = sim.send_probe
        sim.send_probe = lambda key, at_us: calls.append(at_us) or send_probe(key, at_us)
        keys = live + absent
        result = sim.send_rounds(keys, 400, 100, float("inf"))
        assert result == send_loop(loop, keys, 400, 100, float("inf")) == (8, None)
        assert passes == [("touch_run", 4), ("touch_run", 0), ("install_run", (4, []))]
        assert calls == []
        assert sim_state(sim) == sim_state(loop)

    def test_arrivals_inside_a_fresh_key_run_cost_no_send_probe(self, monkeypatch):
        # About 250 arrivals at 5,000/s fall due inside the 50 ms run of 500
        # fresh keys. Each is applied before the next pass is tried, so the
        # install passes answer every key, in the table's free slots.
        build = lambda: ProbeSession(make_sim(2000, rate=5000.0, seed=5,
                                              record_trace=True))
        session, loop = build(), build()
        expected = fresh_loop(loop, 500, float("inf"))
        calls = []
        send_probe = SwitchSimulator.send_probe
        monkeypatch.setattr(SwitchSimulator, "send_probe",
                            lambda sim, *args: calls.append(args) or send_probe(sim, *args))
        assert session.probe_fresh(500, float("inf")) == expected
        assert calls == []
        assert session_state(session) == session_state(loop)
        assert session.sim.background_arrivals > 200

    def test_tracing_on(self):
        keys = ATTACKER_KEYS[:4]
        _, sim = burst_matches_loop(
            lambda: make_sim(4, "LRU", latency=LatencyModel(), record_trace=True),
            installed(keys), keys * 3, 400, 100, 1000)
        assert len(sim.trace) == 16

    @pytest.mark.parametrize("noise, stop_rtt_us", [("none", 250),
                                                    ("uniform", 300)])
    def test_stop_cut_at_or_below_the_hit_band_top(self, noise, stop_rtt_us):
        keys = ATTACKER_KEYS[:8]
        (sent, stop), _ = burst_matches_loop(
            lambda: make_sim(8, "LRU", latency=LatencyModel(noise=noise),
                             record_trace=True),
            installed(keys), keys * 20, 800, 100, stop_rtt_us)
        assert sent < 160 and stop.rtt_us == stop_rtt_us

    def test_empty_burst_changes_nothing(self):
        session = ProbeSession(make_sim(capacity=4, rate=1000.0, record_trace=True))
        session.probe(session.fresh_key())
        session.wait_us(5000)
        before = session_state(session)
        assert session.probe_burst([], 0) is None
        assert session_state(session) == before

    def test_stop_on_first_key(self):
        session = ProbeSession(make_sim(capacity=4))
        keys = [session.fresh_key() for _ in range(3)]
        stop = session.probe_burst(keys, 1000)
        assert stop.key == keys[0] and stop.time_us == 0
        assert (session.probes_sent, session.now_us) == (1, 100)
        assert len(session.sim.table) == 1

    def test_burst_that_never_stops(self):
        session = ProbeSession(make_sim(capacity=4))
        keys = [session.fresh_key() for _ in range(3)]
        assert session.probe_burst(keys, float("inf")) is None
        assert (session.probes_sent, session.now_us) == (3, 300)
        assert session.sim.events_processed == 3

    def test_gap_sets_the_send_times_and_the_cursor_ends_one_send_gap_on(self):
        sim = make_sim(capacity=4, record_trace=True)
        session = ProbeSession(sim)
        keys = [session.fresh_key() for _ in range(3)]
        assert session.probe_burst(keys, float("inf"), gap_us=1000) is None
        assert [e.time_us for e in sim.trace] == [0, 1000, 2000]
        assert (session.probes_sent, session.now_us) == (3, 2100)


def per_filler_bootstrap(session, params):
    """`bootstrap_thresholds` as it was before fillers went out in runs:
    one `session.probe` per filler, each judged against the running cut."""
    t1_samples, t2_samples, t3_samples = [], [], []
    for round_no in range(params.repeat):
        if round_no:
            session.wait_us(ms_to_us(params.inter_repeat_wait_ms))
        pinned = session.fresh_key()
        first = session.probe(pinned)
        session.wait_until_us(first.time_us + ms_to_us(params.ts1_ms))
        re_probe = session.probe(pinned)
        t1_samples.append(us_to_ms(re_probe.rtt_us))
        miss_sorted = [first.rtt_us]
        ts2_us = ms_to_us(params.ts2_ms)
        next_send = session.now_us
        fillers = 0
        jumped = False
        while fillers < params.filler_budget:
            session.wait_until_us(next_send)
            sample = session.probe(session.fresh_key())
            fillers += 1
            next_send = sample.time_us + ts2_us
            if len(miss_sorted) >= params.min_miss_samples:
                median = miss_sorted[len(miss_sorted) // 2]
                cut = params.jump_factor * median
                if sample.rtt_us > cut:
                    confirms = []
                    for _ in range(SMALL_BAND_CONFIRMATIONS
                                   if len(miss_sorted) < SMALL_MISS_BAND else 1):
                        confirms.append(session.probe(session.fresh_key()).rtt_us)
                        fillers += 1
                        if confirms[-1] <= cut:
                            break
                    else:
                        if re_probe.rtt_us * params.jump_factor >= median:
                            raise AttackError(
                                f"the pinned key's re-probe ts1_ms={params.ts1_ms} ms "
                                f"after install took {us_to_ms(re_probe.rtt_us)} ms, not "
                                f"jump_factor={params.jump_factor} times below the "
                                f"{us_to_ms(median)} ms miss-band median: either an "
                                "entry timeout below ts1_ms expired it, or the hit and "
                                "miss bands lie closer together than jump_factor")
                        t2_samples.append(us_to_ms(median))
                        t3_samples.append(us_to_ms(confirms[-1]))
                        jumped = True
                        break
                    for rtt_us in (sample.rtt_us, *confirms):
                        insort(miss_sorted, rtt_us)
                    continue
            insort(miss_sorted, sample.rtt_us)
        if not jumped:
            raise JumpNeverObserved(
                f"no RTT jump within {params.filler_budget} fillers")
    return RttThresholds.from_band_centers(
        fmean(t1_samples), fmean(t2_samples), fmean(t3_samples))


def per_round_infer_fifo(session, thresholds, key_budget, time_budget_ms=None):
    """`infer_fifo` as it was before its rounds went out as runs (the rounds
    before n1 as one fresh-key burst, the rounds after it as one run of
    fresh keys each followed by k1): one `probe` of a fresh key per round,
    then a one-key burst of k1 once n1 is fixed, and a budget check after
    each round that does not stop the attack."""
    hit_cut_us = thresholds.hit_cut_ms * 1000.0
    full_cut_us = thresholds.full_cut_ms * 1000.0
    budget_us = None if time_budget_ms is None else ms_to_us(time_budget_ms)
    start_us, probes_before = session.now_us, session.probes_sent
    keys, n1, budget_exceeded = [], None, False
    while len(keys) < key_budget:
        key = session.fresh_key()
        rtt_us = session.probe(key).rtt_us
        if n1 is None and rtt_us >= full_cut_us:
            n1 = len(keys)
        keys.append(key)
        if n1 is not None and session.probe_burst(keys[:1], hit_cut_us) is not None:
            break
        if budget_us is not None and session.now_us - start_us > budget_us:
            budget_exceeded, budget_us = True, None
    else:
        raise BudgetExhausted(
            f"no eviction of an attacker entry within {key_budget} keys")
    n2 = len(keys) - 1
    n1 = n2 if n1 is None else n1
    return InferenceReport("FIFO", n2, n2 - n1, n1, n2,
                           session.probes_sent - probes_before, len(keys), 1,
                           budget_exceeded)


def per_probe_infer_lru(session, thresholds, key_budget, time_budget_ms=None):
    """`infer_lru` with each rolling re-probe its own `probe`: per round one
    fresh key, then every earlier key in insertion order up to the first
    miss, and a budget check after each round that does not stop the
    attack."""
    hit_cut_us = thresholds.hit_cut_ms * 1000.0
    full_cut_us = thresholds.full_cut_ms * 1000.0
    budget_us = None if time_budget_ms is None else ms_to_us(time_budget_ms)
    start_us, probes_before = session.now_us, session.probes_sent
    keys, n1 = [], None
    while len(keys) < key_budget:
        key = session.fresh_key()
        rtt_us = session.probe(key).rtt_us
        if n1 is None and rtt_us >= full_cut_us:
            n1 = len(keys)
        keys.append(key)
        if probe_loop(session, keys[:-1], hit_cut_us) is not None:
            break
        if budget_us is not None and session.now_us - start_us > budget_us:
            raise InfeasibleRate(
                f"rolling maintenance exceeded the {time_budget_ms} ms "
                f"timeout budget after {len(keys)} keys")
    else:
        raise BudgetExhausted(
            f"no eviction of an attacker entry within {key_budget} keys")
    n2 = len(keys) - 1
    n1 = n2 if n1 is None else n1
    return InferenceReport("LRU", n2, n2 - n1, n1, n2,
                           session.probes_sent - probes_before, len(keys), 1,
                           False)


def outcome(run):
    """A run's result, or the type and message of the attack error it raised."""
    try:
        return run()
    except AttackError as exc:
        return type(exc), str(exc)


class TestFreshRuns:
    """Bootstrap fillers and FIFO's rounds go out as fresh-key runs (after
    n1, each fresh key followed by the first), and LRU's re-probes as one
    burst per round; all end exactly as the per-probe loops they replace."""

    @pytest.mark.parametrize("noise", NOISE_MODES)
    @pytest.mark.parametrize("sim_kwargs, params, expected", [
        (dict(capacity=200, usage=50), {}, RttThresholds),
        (dict(capacity=200, usage=50), dict(ts2_ms=0.05), RttThresholds),
        (dict(capacity=200, usage=50), dict(min_miss_samples=0), RttThresholds),
        (dict(capacity=200, usage=50), dict(min_miss_samples=16), RttThresholds),
        (dict(capacity=300, usage=20, rate=200.0, idle_ms=400.0),
         dict(ts2_ms=0.5, repeat=2, inter_repeat_wait_ms=500.0), RttThresholds),
        (dict(capacity=500, usage=100, rate=2000.0, hard_ms=150.0),
         dict(ts1_ms=20.0, ts2_ms=0.2), RttThresholds),
        (dict(capacity=20, idle_ms=200.0),
         dict(ts1_ms=20.0, repeat=3, inter_repeat_wait_ms=500.0), RttThresholds),
        (dict(capacity=1000), dict(filler_budget=10), JumpNeverObserved),
        (dict(capacity=64, usage=63), dict(filler_budget=500), JumpNeverObserved),
        (dict(capacity=64, usage=16), dict(repeat=2, filler_budget=3000),
         JumpNeverObserved),
        (dict(capacity=100, usage=25, idle_ms=50.0), dict(ts2_ms=0.1), AttackError),
    ], ids=["default", "ts2-below-send-gap", "min-miss-0", "min-miss-16",
            "arrivals-idle-repeats", "arrivals-hard", "tiny-table",
            "filler-budget", "one-free-slot", "second-round-full",
            "pin-expired"])
    def test_bootstrap_matches_the_per_filler_loop(self, noise, sim_kwargs,
                                                    params, expected):
        def build():
            sim = make_sim(latency=LatencyModel(noise=noise), seed=11,
                           record_trace=True, **sim_kwargs)
            return ProbeSession(sim)

        runs, loop = build(), build()
        params = BootstrapParams(**params)
        result = outcome(lambda: bootstrap_thresholds(runs, params))
        assert result == outcome(lambda: per_filler_bootstrap(loop, params))
        assert session_state(runs) == session_state(loop)
        assert (type(result) if expected is RttThresholds else result[0]) is expected

    def test_a_run_stops_at_its_tightest_cut(self):
        # Scripted uniform draws (RTT = 3000 + int(r * 2001) us on a miss):
        # the pin 3000, fillers 3000, 4000, 4000 give a sorted band
        # [3000, 3000, 4000, 4000], so the next run has m = 2 and
        # L = 1.5 * band[1] = 4500. Its first filler, 3000, moves the
        # running median to 3000 (cut 4500); its second, 4800, is above that
        # cut though below 1.5 * band[2] = 6000, so it must stop the run and
        # start confirmations, the first of which (3000) fails.
        draws = [0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.9, 0.0]

        def build():
            sim = make_sim(capacity=12, latency=LatencyModel(), seed=1,
                           record_trace=True)
            script = iter(draws)
            sim._rand = lambda: next(script, 0.5)
            return ProbeSession(sim)

        runs, loop = build(), build()
        params = BootstrapParams()
        th = bootstrap_thresholds(runs, params)
        assert th == per_filler_bootstrap(loop, params)
        assert session_state(runs) == session_state(loop)
        # The pin's two probes, 5 fillers, the failed confirmation, 5
        # fillers that fill the 12 slots, the jumping filler and its 3
        # confirmations.
        assert th.t1_ms == 0.2 and 8.0 <= th.t3_ms <= 10.0
        assert runs.probes_sent == 2 + 5 + 1 + 5 + 1 + 3

    @pytest.mark.parametrize("sim_kwargs, key_budget, time_budget_ms", [
        (dict(capacity=120, usage=30), 1, None),
        (dict(capacity=120, usage=30), 90, None),
        (dict(capacity=120, usage=30), 91, None),
        (dict(capacity=120, usage=30), 121, None),
        (dict(capacity=120, usage=30), 1000, 5.0),
        (dict(capacity=40, usage=40), 1, None),     # n1 = 0
        (dict(capacity=40, usage=40), 1000, 0.1),
        (dict(capacity=1, usage=1), 1000, None),
        (dict(capacity=1), 1000, None),
        (dict(capacity=300, usage=60, rate=400.0, latency=LatencyModel(),
              seed=4), 5000, 20.0),
        (dict(capacity=300, usage=60, rate=400.0, idle_ms=15.0,
              latency=LatencyModel(noise="truncated-gaussian"), seed=9),
         5000, None),
        (dict(capacity=2000, usage=10, hard_ms=30.0, latency=LatencyModel()),
         3000, 30.0),
    ])
    def test_fifo_inference_matches_the_per_round_loop(
            self, sim_kwargs, key_budget, time_budget_ms):
        runs = ProbeSession(make_sim(record_trace=True, **sim_kwargs))
        loop = ProbeSession(make_sim(record_trace=True, **sim_kwargs))
        result = outcome(lambda: infer_fifo(runs, MIDPOINT_THRESHOLDS, key_budget,
                                            time_budget_ms))
        assert result == outcome(lambda: per_round_infer_fifo(
            loop, MIDPOINT_THRESHOLDS, key_budget, time_budget_ms))
        assert session_state(runs) == session_state(loop)

    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "FIFO", "LRU")),
        noise=st.sampled_from(NOISE_MODES),
        capacity=st.integers(1, 250),
        usage=st.integers(0, 250),
        rate=st.sampled_from((0.0, 0.0, 50.0, 2000.0, 50_000.0)),
        hard_ms=st.sampled_from((0.0, 0.0, 3.0, 40.0)),
        idle_ms=st.sampled_from((0.0, 0.0, 1.5, 25.0)),
        send_rate_pps=st.sampled_from((10_000.0, 10_000.0, 3000.0, 1e6)),
        key_budget=st.integers(1, 600),
        time_budget_ms=st.sampled_from((None, None, 0.1, 5.0, 15.0, 40.0)),
        seed=st.integers(0, 2**16),
        record_trace=st.sampled_from((False, True, True)),
    )
    def test_fifo_inference_sweep_matches_the_per_round_loop(
            self, policy, noise, capacity, usage, rate, hard_ms, idle_ms,
            send_rate_pps, key_budget, time_budget_ms, seed, record_trace):
        # Timeouts of a few ms and arrivals cut the runs after n1 short, key
        # budgets end inside them, and time budgets run out inside them; on
        # an LRU table the first key is never evicted, so the budget runs out.
        def build():
            sim = make_sim(capacity, policy, usage=min(usage, capacity), rate=rate,
                           hard_ms=hard_ms, idle_ms=idle_ms,
                           latency=LatencyModel(noise=noise), seed=seed,
                           record_trace=record_trace)
            return ProbeSession(sim, send_rate_pps)

        runs, loop = build(), build()
        result = outcome(lambda: infer_fifo(runs, MIDPOINT_THRESHOLDS, key_budget,
                                            time_budget_ms))
        assert result == outcome(lambda: per_round_infer_fifo(
            loop, MIDPOINT_THRESHOLDS, key_budget, time_budget_ms))
        assert session_state(runs) == session_state(loop)
        assert runs.sim._latency_rng.getstate() == loop.sim._latency_rng.getstate()

    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(("LRU", "LRU", "FIFO")),
        noise=st.sampled_from(NOISE_MODES),
        capacity=st.integers(1, 250),
        usage=st.integers(0, 250),
        rate=st.sampled_from((0.0, 0.0, 50.0, 2000.0, 50_000.0)),
        hard_ms=st.sampled_from((0.0, 0.0, 3.0, 40.0)),
        idle_ms=st.sampled_from((0.0, 0.0, 1.5, 25.0)),
        send_rate_pps=st.sampled_from((10_000.0, 10_000.0, 3000.0, 1e6)),
        key_budget=st.integers(1, 300),
        time_budget_ms=st.sampled_from((None, None, 0.1, 5.0, 15.0, 40.0)),
        seed=st.integers(0, 2**16),
        record_trace=st.sampled_from((False, True, True)),
    )
    def test_lru_inference_sweep_matches_the_per_probe_loop(
            self, policy, noise, capacity, usage, rate, hard_ms, idle_ms,
            send_rate_pps, key_budget, time_budget_ms, seed, record_trace):
        # Each rolling burst must end as its per-probe loop does, and the
        # budget is checked only after a round that does not stop the
        # attack; on a FIFO table a re-probe refreshes nothing, so the
        # earliest key is the first to miss.
        def build():
            sim = make_sim(capacity, policy, usage=min(usage, capacity), rate=rate,
                           hard_ms=hard_ms, idle_ms=idle_ms,
                           latency=LatencyModel(noise=noise), seed=seed,
                           record_trace=record_trace)
            return ProbeSession(sim, send_rate_pps)

        runs, loop = build(), build()
        result = outcome(lambda: infer_lru(runs, MIDPOINT_THRESHOLDS, key_budget,
                                           time_budget_ms))
        assert result == outcome(lambda: per_probe_infer_lru(
            loop, MIDPOINT_THRESHOLDS, key_budget, time_budget_ms))
        assert session_state(runs) == session_state(loop)
