"""Tests for the switch/controller simulator: branches, noise, workload."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowprobe.attacker import ProbeSession
from flowprobe.flowtable import (
    EVICTED,
    EXPIRED,
    OWNER_ATTACKER,
    OWNER_BACKGROUND,
    FlowKey,
    FlowTable,
    RemovalRecord,
)
from flowprobe.netsim import (
    ATTACKER_PREFIX,
    BACKGROUND_PREFIX,
    BRANCH_HIT,
    BRANCH_MISS_FULL,
    BRANCH_MISS_NOTFULL,
    EVENT_BACKGROUND,
    EVENT_PROBE,
    NOISE_MODES,
    NOISE_NONE,
    NOISE_TRUNCATED_GAUSSIAN,
    NOISE_UNIFORM,
    BackgroundWorkload,
    KeySequence,
    LatencyModel,
    SimEvent,
    SwitchSimulator,
    flow_key,
    ms_to_us,
    skip_threshold,
    truncated_gauss,
)

from oracles import ReplayOracle
from test_attacker import sim_state
from test_flowtable import table_state, unlogged_state


def attacker_keys():
    return KeySequence("10.1")


class TestLatencyModel:
    def test_default_bands_match_measured_ranges(self):
        model = LatencyModel()
        assert model.hit_ms == (0.2, 0.3)
        assert model.miss_notfull_ms == (3.0, 5.0)
        assert model.miss_full_ms == (8.0, 10.0)

    def test_overlapping_bands_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(hit_ms=(0.2, 3.5))

    def test_unordered_bands_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(miss_notfull_ms=(11.0, 12.0))

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(noise="laplace")

    def test_bands_sharing_a_drawn_microsecond_rejected(self):
        # 0.3 ms and 0.3004 ms are apart, but both round to 300 us.
        with pytest.raises(ValueError, match="disjoint"):
            LatencyModel(miss_notfull_ms=(0.3004, 0.5), miss_full_ms=(0.8, 1.0))
        model = LatencyModel(miss_notfull_ms=(0.3006, 0.5), miss_full_ms=(0.8, 1.0))
        assert model.range_us(BRANCH_MISS_NOTFULL) == (301, 500)

    def test_band_past_the_microsecond_range_rejected(self):
        with pytest.raises(ValueError, match="invalid latency range"):
            LatencyModel(miss_full_ms=(8.0, 1e306))


class TestProbeBranches:
    def test_first_probe_misses_and_installs(self):
        sim = SwitchSimulator(capacity=10)
        sample = sim.send_probe(attacker_keys().next_key(), 0)
        assert sample.branch == BRANCH_MISS_NOTFULL
        assert 3000 <= sample.rtt_us <= 5000
        assert sim.table.occupancy(sim.now_us).attacker == 1

    def test_second_probe_hits(self):
        sim = SwitchSimulator(capacity=10)
        key = attacker_keys().next_key()
        sim.send_probe(key, 0)
        sample = sim.send_probe(key, 100)
        assert sample.branch == BRANCH_HIT
        assert 200 <= sample.rtt_us <= 300

    def test_probe_at_capacity_evicts(self):
        sim = SwitchSimulator(capacity=3, record_trace=True)
        keys = attacker_keys()
        for t in range(3):
            sim.send_probe(keys.next_key(), t * 100)
        sample = sim.send_probe(keys.next_key(), 400)
        assert sample.branch == BRANCH_MISS_FULL
        assert 8000 <= sample.rtt_us <= 10000
        assert len(sim.table.removal_log) == 1
        assert sim.table.occupancy(sim.now_us).total == 3

    @pytest.mark.parametrize("noise", ["none", "uniform", "truncated-gaussian"])
    def test_draws_stay_inside_branch_ranges(self, noise):
        sim = SwitchSimulator(
            capacity=150, latency=LatencyModel(noise=noise, seed=5)
        )
        keys = attacker_keys()
        pinned = keys.next_key()
        sim.send_probe(pinned, 0)
        t = 0
        for _ in range(140):  # stays below capacity: all fresh keys miss-notfull
            t += 1000
            for sample, (lo, hi) in (
                (sim.send_probe(pinned, t), (200, 300)),
                (sim.send_probe(keys.next_key(), t + 1), (3000, 5000)),
            ):
                assert lo <= sample.rtt_us <= hi, (noise, sample)
        for _ in range(150 - 141):  # top the table up to capacity
            t += 1000
            sim.send_probe(keys.next_key(), t)
        for _ in range(100):  # past capacity: fresh keys take the slow path
            t += 1000
            sample = sim.send_probe(keys.next_key(), t)
            assert 8000 <= sample.rtt_us <= 10000, (noise, sample)

    def test_noiseless_draws_are_midpoints(self):
        sim = SwitchSimulator(capacity=4, latency=LatencyModel(noise="none"))
        keys = attacker_keys()
        key = keys.next_key()
        assert sim.send_probe(key, 0).rtt_us == 4000
        assert sim.send_probe(key, 1).rtt_us == 250
        for t in range(2, 5):
            sim.send_probe(keys.next_key(), t)
        assert sim.send_probe(keys.next_key(), 10).rtt_us == 9000


class TestBackgroundWorkload:
    def test_rate_zero_produces_no_arrivals(self):
        sim = SwitchSimulator(capacity=10, record_trace=True)
        sim.send_probe(attacker_keys().next_key(), 10**6)
        assert [e.kind for e in sim.trace] == [EVENT_PROBE]
        assert sim.background_arrivals == 0
        assert sim.table.occupancy(sim.now_us) == (1, 0)

    def test_preload_is_visible_at_time_zero(self):
        sim = SwitchSimulator(
            capacity=400, workload=BackgroundWorkload(initial_usage=300),
            record_trace=True,
        )
        sample = sim.send_probe(attacker_keys().next_key(), 0)
        # The preload is no event; the probe finds 300 of 400 slots taken.
        assert [e.kind for e in sim.trace] == [EVENT_PROBE]
        assert sample.branch == BRANCH_MISS_NOTFULL
        assert sim.table.occupancy(sim.now_us) == (1, 300)

    def test_poisson_arrivals_reproduce_from_seed(self):
        # Oracle: regenerate the arrival schedule from the same seed with the
        # same inversion formula and count how many land inside the window.
        rate, seed, horizon_us = 10.0, 77, ms_to_us(10_000.0)
        sim = SwitchSimulator(
            capacity=10_000,
            workload=BackgroundWorkload(arrival_rate=rate, seed=seed),
            record_trace=True,
        )
        sim.send_probe(attacker_keys().next_key(), horizon_us)
        events = [e for e in sim.trace if e.kind == EVENT_BACKGROUND]
        assert sim.trace[-1].kind == EVENT_PROBE

        rng = random.Random(seed)
        expected_times = []
        t = 0
        while True:
            gap = -math.log(1.0 - rng.random()) * 1e6 / rate
            t += max(1, round(gap))
            if t > horizon_us:
                break
            expected_times.append(t)
        assert [e.time_us for e in events] == expected_times
        assert sim.background_arrivals == len(events)
        assert len(events) > 50  # 10/s over 10 s: sanity that the draw ran

    @pytest.mark.parametrize("noise", NOISE_MODES)
    def test_identical_seeds_identical_runs(self, noise):
        def build():
            return SwitchSimulator(
                capacity=50,
                workload=BackgroundWorkload(arrival_rate=200.0, initial_usage=20, seed=3),
                latency=LatencyModel(noise=noise, seed=9),
                record_trace=True,
            )

        a, b = build(), build()
        keys_a, keys_b = attacker_keys(), attacker_keys()
        for t in range(0, 200_000, 777):
            sa = a.send_probe(keys_a.next_key(), t)
            sb = b.send_probe(keys_b.next_key(), t)
            assert sa == sb
        assert a.trace == b.trace

    @pytest.mark.parametrize("seed", [0, 2, 15])
    def test_an_arrival_gap_past_float_range_means_no_arrival(self, seed):
        # At 1e-302 flows/s the mean gap is 1e308 us; these seeds draw a
        # first gap past float range, so no background flow ever arrives.
        sim = SwitchSimulator(
            64, workload=BackgroundWorkload(arrival_rate=1e-302, seed=seed))
        sim.send_probe(attacker_keys().next_key(), 10**400)
        assert sim.background_arrivals == 0
        assert sim.table.occupancy(sim.now_us) == (1, 0)

    def test_gaps_are_floored_at_one_microsecond(self):
        # At 1e9 flows/s every drawn gap is far below 0.5 us.
        sim = SwitchSimulator(capacity=100, record_trace=True,
                              workload=BackgroundWorkload(arrival_rate=1e9, seed=2))
        sim.send_probe(attacker_keys().next_key(), 50)
        assert [e.time_us for e in sim.trace] == [*range(1, 51), 50]
        assert sim._next_arrival_us == 51

    def test_arrivals_due_before_probe_apply_first(self):
        sim = SwitchSimulator(
            capacity=5, workload=BackgroundWorkload(arrival_rate=1000.0, seed=1)
        )
        sim.send_probe(attacker_keys().next_key(), ms_to_us(100.0))
        # ~100 arrivals due in the first 100 ms; the table must reflect them.
        assert sim.background_arrivals > 50
        assert sim.table.occupancy(sim.now_us).total == 5


def next_arrival(sim, after_us):
    """The arrival after one at `after_us`, drawn from the switch's arrival
    RNG as the spec has it: an exponential gap by inversion, floored at
    1 us; a gap past float range means no further arrival."""
    rate = sim.workload.arrival_rate
    gap_us = -math.log(1.0 - sim._arrival_rng.random()) * (1e6 / rate if rate else math.inf)
    return after_us + max(1, round(gap_us)) if math.isfinite(gap_us) else math.inf


def step_arrivals(sim, up_to_us):
    """Apply the background arrivals due by `up_to_us` one at a time, each
    answered as `send_probe` answers a miss: the reference for the batch."""
    keys = KeySequence(BACKGROUND_PREFIX)
    while sim._next_arrival_us <= up_to_us:
        at = sim._next_arrival_us
        key = keys.key_at(sim.workload.initial_usage + sim.background_arrivals)
        branch = (BRANCH_MISS_FULL if sim.table.insert(key, at, OWNER_BACKGROUND).was_full
                  else BRANCH_MISS_NOTFULL)
        rtt = sim._draw_rtt(branch)
        sim.background_arrivals += 1
        sim.events_processed += 1
        if sim.trace is not None:
            sim.trace.append(SimEvent(at, EVENT_BACKGROUND, key, OWNER_BACKGROUND,
                                      branch, rtt))
        sim._next_arrival_us = next_arrival(sim, at)


class TestArrivalBatch:
    """A probe applies every arrival due before it as one batch; the batch
    must leave the switch as handling the arrivals one by one would."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("noise", NOISE_MODES)
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_one_long_gap_matches_one_arrival_at_a_time(self, policy, noise,
                                                        record_trace):
        def build():
            return SwitchSimulator(
                capacity=8, policy=policy, hard_timeout_ms=1.5,
                idle_timeout_ms=0.6, latency=LatencyModel(noise=noise, seed=4),
                workload=BackgroundWorkload(arrival_rate=20_000.0,
                                            initial_usage=3, seed=5),
                record_trace=record_trace)

        batch, stepped = build(), build()
        keys = attacker_keys()
        pinned, fresh = keys.next_key(), keys.next_key()
        for key, at in ((pinned, 0), (pinned, 300), (fresh, 20_000),
                        (pinned, 20_050)):
            step_arrivals(stepped, at)
            assert batch.send_probe(key, at) == stepped.send_probe(key, at)
            assert sim_state(batch) == sim_state(stepped)
        # The 19.7 ms gap is one batch of hundreds of arrivals, inside which
        # entries both expired and were evicted; only a traced switch logs them.
        assert batch.background_arrivals > 300
        if record_trace:
            inside = Counter(r.reason for r in batch.table.removal_log
                             if 300 < r.time < 20_000)
            assert inside[EXPIRED] > 10 and inside[EVICTED] > 10
        else:
            assert batch.table.removal_log == stepped.table.removal_log == []

    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        noise=st.sampled_from(NOISE_MODES),
        capacity=st.integers(1, 10),
        usage=st.integers(0, 12),
        rate=st.sampled_from((500.0, 5_000.0, 50_000.0)),
        hard_ms=st.sampled_from((0.0, 0.5, 3.0)),
        idle_ms=st.sampled_from((0.0, 0.3, 2.0)),
        seed=st.integers(0, 2**16),
        record_trace=st.sampled_from((False, True, True)),
        probes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5000)),
                        min_size=1, max_size=10),
    )
    def test_random_schedules(self, policy, noise, capacity, usage, rate,
                              hard_ms, idle_ms, seed, record_trace, probes):
        def build():
            return SwitchSimulator(
                capacity, policy, hard_ms, idle_ms,
                LatencyModel(noise=noise, seed=seed),
                BackgroundWorkload(rate, usage, seed + 1), record_trace)

        batch, stepped = build(), build()
        keys = attacker_keys()
        at = 0
        for index, wait_us in probes:
            at += wait_us
            step_arrivals(stepped, at)
            key = keys.key_at(index)
            assert batch.send_probe(key, at) == stepped.send_probe(key, at)
        assert sim_state(batch) == sim_state(stepped)


class TestPreload:
    @pytest.mark.parametrize("usage", [0, 1, 6, 9])
    @pytest.mark.parametrize("hard_ms, idle_ms", [(0.0, 0.0), (2.0, 0.0),
                                                  (0.0, 1.0), (2.0, 1.0)])
    def test_matches_an_insert_loop(self, usage, hard_ms, idle_ms):
        # A usage past capacity evicts at t = 0, as one insert per key does.
        sim = SwitchSimulator(6, hard_timeout_ms=hard_ms, idle_timeout_ms=idle_ms,
                              workload=BackgroundWorkload(initial_usage=usage),
                              record_trace=True)
        twin = FlowTable(6, hard_timeout=ms_to_us(hard_ms), idle_timeout=ms_to_us(idle_ms))
        keys = [KeySequence(BACKGROUND_PREFIX).key_at(i) for i in range(usage)]
        for key in keys:
            twin.insert(key, 0, OWNER_BACKGROUND)
        assert table_state(sim.table) == table_state(twin)
        assert list(sim.table.entries) == keys[-6:]
        assert sim.table.removal_log == [
            RemovalRecord(0, key, OWNER_BACKGROUND, EVICTED) for key in keys[:-6]]


class TestSendBurst:
    def test_empty_burst_changes_nothing(self):
        sim = SwitchSimulator(capacity=4, record_trace=True)
        sim.send_probe(attacker_keys().next_key(), 50)
        assert sim.send_rounds([], 70, 10, 0) == (0, None)
        assert (sim.now_us, sim.events_processed, len(sim.trace)) == (50, 1, 1)

    def test_stops_after_first_probe_at_the_cut(self):
        sim = SwitchSimulator(capacity=4, latency=LatencyModel(noise="none"))
        keys = attacker_keys()
        pinned = keys.next_key()
        sim.send_probe(pinned, 0)
        fresh = keys.next_key()
        sent, stop = sim.send_rounds([pinned, fresh, pinned], 10, 5, 1000)
        assert sent == 2
        assert stop == (15, fresh, 4000, BRANCH_MISS_NOTFULL)
        assert (sim.now_us, sim.events_processed) == (15, 3)

    def test_never_stops(self):
        sim = SwitchSimulator(capacity=2, record_trace=True)
        keys = [attacker_keys().key_at(i) for i in range(3)]
        assert sim.send_rounds(keys, 0, 7, math.inf) == (3, None)
        assert (sim.now_us, sim.events_processed) == (14, 3)
        assert [e.time for e in sim.table.removal_log] == [14]

    @pytest.mark.parametrize("n", [1, 2, 33, 1_000])
    def test_getrandbits_advances_as_random_calls(self, n):
        # The identity the burst's uniform-noise RNG advance rests on.
        bits, calls = random.Random(n), random.Random(n)
        bits.getrandbits(64 * n)
        for _ in range(n):
            calls.random()
        assert bits.getstate() == calls.getstate()

    @staticmethod
    def hit_burst_and_probe_loop(latency, count):
        """Twin switches after `count` hits, as one burst and as one
        `send_probe` per key; both then answer a miss at t = 1000."""
        keys = [attacker_keys().key_at(i) for i in range(10)]
        burst, loop = (SwitchSimulator(capacity=16, latency=latency)
                       for _ in range(2))
        for sim in (burst, loop):
            sim.send_rounds(keys, 0, 1, math.inf)
        hits = (keys * 50)[:count]
        assert burst.send_rounds(hits, 100, 1, math.inf) == (count, None)
        for i, key in enumerate(hits):
            assert loop.send_probe(key, 100 + i).branch == BRANCH_HIT
        assert burst._latency_rng.getstate() == loop._latency_rng.getstate()
        assert (burst.now_us, burst.events_processed) == (loop.now_us,
                                                          loop.events_processed)
        fresh = attacker_keys().key_at(10)
        assert burst.send_probe(fresh, 1000) == loop.send_probe(fresh, 1000)

    def test_long_uniform_hit_burst_leaves_the_rng_as_a_probe_loop(self):
        self.hit_burst_and_probe_loop(LatencyModel(seed=3), 500)

    @pytest.mark.parametrize("count", [499, 500])
    def test_long_gaussian_hit_burst_leaves_the_rng_as_a_probe_loop(self, count):
        # At seed 3, 500 hits end with a spare deviate in gauss_next, 499
        # without one.
        self.hit_burst_and_probe_loop(
            LatencyModel(noise="truncated-gaussian", seed=3), count)

    def test_start_before_simulator_time_rejected(self):
        sim = SwitchSimulator(capacity=4)
        key = attacker_keys().next_key()
        sim.send_probe(key, 100)
        with pytest.raises(ValueError, match="probe time 99 precedes simulator time 100"):
            sim.send_probe(key, 99)
        with pytest.raises(ValueError, match="probe time 99 precedes simulator time 100"):
            sim.send_rounds([key], 99, 1, 0)
        with pytest.raises(ValueError, match="probe time 99 precedes simulator time 100"):
            sim.send_rounds([key], 99, 1, 0, watch=key)
        assert (sim.now_us, sim.events_processed) == (100, 1)

    def test_rounds_stop_at_the_first_miss_of_the_watched_key(self):
        # Two slots. Round 0 (10, 15 us) is the table pass: a fresh key
        # fills the free slot, then k1 hits. Round 1's fresh key evicts k1,
        # the head, so it goes through send_probe, and k1's probe at 25 us
        # misses on a full table.
        sim = SwitchSimulator(capacity=2, latency=LatencyModel(noise="none"),
                              record_trace=True)
        keys = attacker_keys()
        k1 = keys.next_key()
        sim.send_probe(k1, 0)
        fresh = [keys.next_key() for _ in range(3)]
        sent, stop = sim.send_rounds(fresh, 10, 5, 1000, watch=k1)
        assert (sent, stop) == (2, (25, k1, 9000, BRANCH_MISS_FULL))
        assert (sim.now_us, sim.events_processed) == (25, 5)
        assert [(r.time, r.key) for r in sim.table.removal_log] == [(20, k1), (25, fresh[0])]


def gauss_rtt(rng, band):
    """One truncated-Gaussian RTT drawn through `Random.gauss`: the reference
    for `truncated_gauss`."""
    lo, hi, mu, sigma = band
    for _ in range(16):
        value = rng.gauss(mu, sigma)
        if lo <= value <= hi:
            return round(value)
    return min(max(round(value), lo), hi)


class Forced(random.Random):
    """A generator whose `random()` cycles through fixed values."""

    def __init__(self, values):
        super().__init__(0)
        self.values = values
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values[(self.calls - 1) % len(self.values)]


# The skip's bound on a deviate, and the threshold on a Box-Muller pair's
# second uniform below which both deviates are within it.
SKIP_Z = 2.999
THRESHOLD = 1.0 - math.exp(-SKIP_Z ** 2 / 2)
EDGE = (-SKIP_Z, SKIP_Z, 0.0, 1.0)  # a band exactly at the skip's bound
DEFAULT_BANDS = [(200, 300, 250.0, 100 / 6), (3000, 5000, 4000.0, 2000 / 6),
                 (8000, 10000, 9000.0, 2000 / 6)]
# Bands that hold mu +- SKIP_Z * sigma, so every skipped deviate lands in
# them (lo == hi with sigma 0, and a large mu whose sigma is below its
# rounding, among them), and bands that do not: lo == hi with sigma > 0, a
# narrow one that rejects most draws and often takes all 16 tries, a large
# mu whose sigma is not below its rounding, and one a hair short of it.
SKIPPABLE = [*DEFAULT_BANDS, EDGE, (-3.0, 3.0, 0.0, 1.0), (250, 250, 250.0, 0.0),
             (10**16, 10**16, 1e16, 0.3)]
UNSKIPPABLE = [(5, 5, 5.0, 1.0), (0, 1, 0.5, 5.0), (10**16, 10**16, 1e16, 1.0),
               (-2.998, 2.999, 0.0, 1.0)]


class TestTruncatedGauss:
    # The default bands in microseconds, and a narrow one that rejects most
    # draws and often takes all 16 tries.
    BANDS = [*DEFAULT_BANDS, (0, 1, 0.5, 5.0)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 31])
    def test_matches_random_gauss(self, seed, spare, count):
        bands = random.Random(seed).choices(self.BANDS, k=count)
        fast, reference = random.Random(seed), random.Random(seed)
        if spare:  # enter with a spare deviate held in gauss_next
            for rng in (fast, reference):
                rng.gauss()
        expected = [gauss_rtt(reference, band) for band in bands]
        assert truncated_gauss(fast, bands) == expected[-1]
        assert fast.getstate() == reference.getstate()

    def test_every_prefix_value_matches(self):
        bands = random.Random(9).choices(self.BANDS, k=40)
        reference = random.Random(9)
        expected = [gauss_rtt(reference, band) for band in bands]
        for n in range(1, len(bands) + 1):
            assert truncated_gauss(random.Random(9), bands[:n]) == expected[n - 1]

    @pytest.mark.parametrize("x, end", [(0.125, 1), (0.625, 0)])
    def test_clamps_after_16_rejections(self, x, end):
        # x = 1/8 or 5/8 puts cos and sin of 2 pi x at +-0.71, and
        # 1 - 1e-9 makes sqrt(-2 log(1 - y)) about 6.4: every deviate,
        # the spare included, is about +-4.55 sigma outside the band.
        band = (200, 300, 250.0, 100 / 6)
        fast, reference = Forced([x, 1 - 1e-9]), Forced([x, 1 - 1e-9])
        expected = [gauss_rtt(reference, band) for _ in range(2)]
        assert expected == [band[end]] * 2
        assert truncated_gauss(fast, [band, band]) == band[end]
        # Two draws of 16 tries: 32 deviates, 16 Box-Muller pairs.
        assert fast.calls == reference.calls == 32
        assert fast.gauss_next is reference.gauss_next is None

    def test_the_guard_admits_a_band_only_if_every_skipped_deviate_lands(self):
        assert skip_threshold(DEFAULT_BANDS) == THRESHOLD
        for band in SKIPPABLE:
            assert skip_threshold([band]) == THRESHOLD, band
        for band in UNSKIPPABLE:
            assert skip_threshold([band]) == 0.0, band
            assert skip_threshold([*DEFAULT_BANDS, band]) == 0.0, band

    def test_deviates_below_the_threshold_stay_below_the_bound(self):
        # The ulps next to the threshold, where rounding could matter.
        u2 = THRESHOLD
        assert math.sqrt(-2.0 * math.log(1.0 - u2)) >= SKIP_Z
        for _ in range(10_000):
            u2 = math.nextafter(u2, 0)
            assert math.sqrt(-2.0 * math.log(1.0 - u2)) < SKIP_Z

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        count=st.integers(1, 200),
        pool=st.lists(st.sampled_from(SKIPPABLE), min_size=1, max_size=4)
        | st.lists(st.sampled_from(SKIPPABLE + UNSKIPPABLE), min_size=1, max_size=4),
        spare=st.booleans(),
    )
    def test_skip_leaves_the_state_of_random_gauss(self, seed, count, pool, spare):
        # Draws from `pool` with the skip its guard allows, against one
        # `Random.gauss` call per try; odd counts may end with a skipped
        # pair's spare still unread.
        bands = random.Random(seed).choices(pool, k=count)
        fast, reference = random.Random(seed), random.Random(seed)
        if spare:  # enter with a spare deviate held in gauss_next
            for rng in (fast, reference):
                rng.gauss()
        for band in bands:
            gauss_rtt(reference, band)
        truncated_gauss(fast, bands, skip_threshold(pool))
        assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("u2", [math.nextafter(THRESHOLD, 0), THRESHOLD,
                                     math.nextafter(THRESHOLD, 1)])
    @pytest.mark.parametrize("u1", [0.0, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_threshold_is_exact_to_the_ulp(self, u2, u1, count):
        # cos and sin of 2 pi u1 are 0 or +-1, so a deviate is 0 or
        # +-sqrt(-2 log(1 - u2)): just inside EDGE one ulp below the
        # threshold, just outside it at the threshold and above.
        fast, reference = Forced([u1, u2]), Forced([u1, u2])
        for _ in range(count):
            gauss_rtt(reference, EDGE)
        truncated_gauss(fast, [EDGE] * count, skip_threshold([EDGE]))
        assert (fast.calls, fast.gauss_next) == (reference.calls, reference.gauss_next)


class TestDrawRtts:
    @pytest.mark.parametrize("noise", NOISE_MODES)
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 199, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unread_draws_leave_the_rng_as_read_ones(self, noise, count, seed):
        branches = random.Random(seed).choices(
            [BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL, BRANCH_HIT], k=count)
        latency = LatencyModel(noise=noise, seed=seed)
        kept, unread = SwitchSimulator(8, latency=latency), SwitchSimulator(8, latency=latency)
        for spare in (None, 0.5, None):  # entering without and with a spare deviate
            for sim in (kept, unread):
                sim._latency_rng.gauss_next = spare
            assert len(kept._draw_rtts(branches, count, True)) == count
            assert unread._draw_rtts(branches, count, False) == []
            assert kept._latency_rng.getstate() == unread._latency_rng.getstate()

    @pytest.mark.parametrize("noise, tight", [
        (NOISE_NONE, False), (NOISE_UNIFORM, False),
        (NOISE_TRUNCATED_GAUSSIAN, False), (NOISE_TRUNCATED_GAUSSIAN, True)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kept_draws_match_a_draw_loop(self, noise, tight, seed):
        # Tight bands: one rejects most deviates and often takes all 16
        # tries, and lo == hi rejects every one and clamps after 16.
        branches = random.Random(seed).choices(
            [BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL, BRANCH_HIT], k=120)
        latency = LatencyModel(noise=noise, seed=seed)
        batch, loop = SwitchSimulator(8, latency=latency), SwitchSimulator(8, latency=latency)
        if tight:
            for sim in (batch, loop):
                sim._gauss = {BRANCH_HIT: (0, 1, 0.5, 5.0), BRANCH_MISS_NOTFULL: (5, 5, 5.0, 1.0),
                              BRANCH_MISS_FULL: (8000, 10000, 9000.0, 2000 / 6)}
        for spare in (None, 0.5, None):  # entering without and with a spare deviate
            for sim in (batch, loop):
                sim._latency_rng.gauss_next = spare
            kept = batch._draw_rtts(branches, len(branches), True)
            assert kept == [loop._draw_rtt(branch) for branch in branches]
            assert batch._latency_rng.getstate() == loop._latency_rng.getstate()
        if tight:
            assert {rtt for rtt, branch in zip(kept, branches)
                    if branch == BRANCH_MISS_NOTFULL} == {5}

    def test_the_default_bands_take_the_skip(self):
        sim = SwitchSimulator(8, latency=LatencyModel(noise="truncated-gaussian"))
        assert sim._skip_below == THRESHOLD


class TestGroundTruth:
    def test_echoes_configuration(self):
        sim = SwitchSimulator(capacity=400, policy="LRU")
        assert sim.table.capacity == 400 and sim.table.policy == "LRU"

    def test_attacker_fill_reaches_capacity(self):
        sim = SwitchSimulator(capacity=400)
        keys = attacker_keys()
        for t in range(400):
            sim.send_probe(keys.next_key(), t * 10)
        assert sim.table.occupancy(sim.now_us) == (400, 0)


class TestBranchDecisionDifferential:
    """send_probe's branch must match an independent decision-tree replay."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_random_probe_stream(self, policy):
        rng = random.Random(13)
        capacity = 8
        sim = SwitchSimulator(
            capacity=capacity,
            policy=policy,
            hard_timeout_ms=40.0,
            idle_timeout_ms=15.0,
            latency=LatencyModel(seed=2),
        )
        oracle = ReplayOracle(capacity=capacity, policy=policy)
        keys = attacker_keys()
        pool = [keys.next_key() for _ in range(40)]
        hard_us, idle_us = ms_to_us(40.0), ms_to_us(15.0)
        # Mostly short gaps with the odd long silence, so the table swings
        # between full and drained and all three branches get exercised.
        steps = (100, 300, 700) + (1900,) * 8 + (40_000,)
        now = 0
        seen = {b: 0 for b in (BRANCH_HIT, BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL)}
        for _ in range(4_000):
            now += rng.choice(steps)
            key = rng.choice(pool)
            if oracle.lookup(key, now):
                predicted = BRANCH_HIT
            elif oracle.live_count(now) >= capacity:
                predicted = BRANCH_MISS_FULL
                oracle.insert(key, now, hard=hard_us, idle=idle_us)
            else:
                predicted = BRANCH_MISS_NOTFULL
                oracle.insert(key, now, hard=hard_us, idle=idle_us)
            assert sim.send_probe(key, now).branch == predicted
            seen[predicted] += 1
        assert all(count > 100 for count in seen.values()), seen


def assert_replays_through_the_oracle(sim):
    """Replay `sim`'s preload and trace through the scan-based oracle, and
    assert that every branch, eviction, removal and the occupancy agree."""
    table = sim.table
    usage = sim.workload.initial_usage
    background = KeySequence(BACKGROUND_PREFIX)
    oracle = ReplayOracle(table.capacity, table.policy)
    hard, idle = table.hard_timeout, table.idle_timeout
    victims = [oracle.insert(background.key_at(i), 0, hard, idle,
                             OWNER_BACKGROUND)[0] for i in range(usage)]
    branches = []
    for event in sim.trace:
        if oracle.lookup(event.key, event.time_us):
            branches.append(BRANCH_HIT)
            continue
        victim, was_full = oracle.insert(event.key, event.time_us, hard, idle,
                                         event.owner)
        branches.append(BRANCH_MISS_FULL if was_full else BRANCH_MISS_NOTFULL)
        victims.append(victim)
    log = table.removal_log
    assert branches == [event.branch for event in sim.trace]
    assert [v for v in victims if v is not None] == [
        r.key for r in log if r.reason == EVICTED]
    # Expiries that share a timestamp may be logged in any order.
    assert [r.time for r in log] == sorted(r.time for r in log)
    assert sorted(log) == sorted(oracle.removal_log)
    assert sim.table.occupancy(sim.now_us) == oracle.occupancy(sim.now_us)


class TestOracleReplay:
    """A traced switch replayed through the scan-based oracle, as perfbench's
    lru-churn check replays its prefix. The switch holds its preload and
    arrivals as fresh entries; the oracle inserts them one by one."""

    @settings(max_examples=120, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 10),
        usage=st.integers(0, 14),
        rate=st.sampled_from((0.0, 2_000.0, 20_000.0, 100_000.0)),
        hard_ms=st.sampled_from((0.0, 0.8)),
        idle_ms=st.sampled_from((0.0, 0.3)),
        seed=st.integers(0, 2**16),
        probes=st.lists(st.tuples(st.booleans(), st.integers(0, 40),
                                  st.sampled_from((0, 0, 1, 7, 60, 250, 600))),
                        min_size=1, max_size=25),
    )
    def test_matches_the_oracle(self, policy, capacity, usage, rate, hard_ms,
                                idle_ms, seed, probes):
        def build():
            return SwitchSimulator(capacity, policy, hard_ms, idle_ms,
                                   LatencyModel(noise="none"),
                                   BackgroundWorkload(rate, usage, seed), True)

        sim, stepped = build(), build()
        background = KeySequence(BACKGROUND_PREFIX)
        at = 0
        for ours, i, wait_us in probes:
            # Waits of 0 touch LRU entries in one microsecond; a background
            # key already issued may be live as a fresh entry (a thaw).
            at += wait_us
            issued = usage + sim.background_arrivals
            key = (attacker_keys().key_at(i % 6) if ours or not issued
                   else background.key_at(i % issued))
            step_arrivals(stepped, at)
            assert sim.send_probe(key, at) == stepped.send_probe(key, at)
        assert sim_state(sim) == sim_state(stepped)
        assert_replays_through_the_oracle(sim)

    @settings(max_examples=200, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 10),
        usage=st.integers(0, 14),
        rate=st.sampled_from((0.0, 0.0, 2_000.0, 20_000.0, 100_000.0)),
        hard_ms=st.sampled_from((0.0, 0.0, 0.8)),
        idle_ms=st.sampled_from((0.0, 0.0, 0.3)),
        seed=st.integers(0, 2**16),
        runs=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 1, 7, 60, 250, 600)),    # wait before, us
                st.sampled_from(("burst", "fresh", "fresh+watch")),
                st.lists(st.tuples(st.booleans(), st.integers(0, 40)),
                         max_size=8),                           # burst keys
                st.integers(1, 3),                              # times sent
                st.integers(0, 12),                             # fresh keys
                st.integers(0, 7),                              # watched key
                st.sampled_from((None, 0, 1, 250)),             # gap, us
                st.sampled_from((300, 4000, 6000, math.inf)),   # stop, us
                st.booleans(),                                  # rtts
            ),
            min_size=1, max_size=8),
    )
    def test_traced_runs_match_the_oracle(self, policy, capacity, usage, rate,
                                          hard_ms, idle_ms, seed, runs):
        # Session runs go through `send_rounds`, whose table passes answer
        # traced runs too: bursts of live keys, fresh-key runs with and
        # without `watch`, each with or without `rtts`.
        sim = SwitchSimulator(capacity, policy, hard_ms, idle_ms,
                              LatencyModel(noise="none"),
                              BackgroundWorkload(rate, usage, seed), True)
        session = ProbeSession(sim)
        background = KeySequence(BACKGROUND_PREFIX)
        for wait_us, kind, indexes, times, fresh, watched, gap_us, stop, kept in runs:
            session.wait_us(wait_us)
            rtts = [] if kept else None
            probes_before = session.probes_sent
            if kind == "burst":
                # Attacker keys the fresh runs send too, and background keys
                # already issued, so a burst hits either owner's entries.
                issued = usage + sim.background_arrivals
                keys = [attacker_keys().key_at(i % 8) if ours or not issued
                        else background.key_at(i % issued) for ours, i in indexes]
                session.probe_burst(keys * times, stop, gap_us, rtts)
            else:
                watch = attacker_keys().key_at(watched) if kind == "fresh+watch" else None
                session.probe_fresh(fresh, stop, gap_us, rtts, watch)
            if kept:
                probes = [e.rtt_us for e in sim.trace if e.kind == EVENT_PROBE]
                assert rtts == probes[len(probes) - session.probes_sent + probes_before:]
        assert_replays_through_the_oracle(sim)

    def test_a_hit_on_the_preload_at_time_zero(self):
        # The hit thaws the preloaded key, the fresh queue's head, at t = 0,
        # and its heap record ties with the queue record on (deadline, seq).
        self.test_matches_the_oracle.hypothesis.inner_test(
            self, policy="FIFO", capacity=1, usage=1, rate=0.0, hard_ms=0.0,
            idle_ms=0.3, seed=0, probes=[(False, 0, 0)])


class TestEvictionAudit:
    def test_attacker_count_changes_are_accounted_for(self):
        sim = SwitchSimulator(
            capacity=30,
            policy="FIFO",
            idle_timeout_ms=50.0,
            workload=BackgroundWorkload(arrival_rate=300.0, initial_usage=10, seed=4),
            record_trace=True,
        )
        keys = attacker_keys()
        inserted = 0
        for t in range(0, 400_000, 900):
            sample = sim.send_probe(keys.next_key(), t)
            assert sample.branch != BRANCH_HIT  # fresh keys always miss
            inserted += 1
            removed = sum(
                1 for r in sim.table.removal_log if r.owner == OWNER_ATTACKER
            )
            occupancy = sim.table.occupancy(sim.now_us)
            assert occupancy.attacker == inserted - removed

    def test_removal_log_reasons(self):
        sim = SwitchSimulator(capacity=2, hard_timeout_ms=1.0, record_trace=True)
        keys = attacker_keys()
        sim.send_probe(keys.next_key(), 0)
        sim.send_probe(keys.next_key(), 10)
        sim.send_probe(keys.next_key(), 20)  # full: one eviction
        # By 5 ms both survivors have expired, so this probe finds room.
        sim.send_probe(keys.next_key(), ms_to_us(5.0))
        reasons = sorted(r.reason for r in sim.table.removal_log)
        assert reasons == ["evicted", "expired", "expired"]
        assert [e.branch for e in sim.trace] == [
            BRANCH_MISS_NOTFULL, BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL,
            BRANCH_MISS_NOTFULL]


class TestUntraced:
    """A switch built without `record_trace` logs no removal and otherwise
    runs exactly as a traced twin."""

    @settings(max_examples=150, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        noise=st.sampled_from(NOISE_MODES),
        capacity=st.integers(1, 10),
        usage=st.integers(0, 12),
        rate=st.sampled_from((0.0, 5_000.0, 50_000.0)),
        hard_ms=st.sampled_from((0.0, 0.5, 3.0)),
        idle_ms=st.sampled_from((0.0, 0.3, 2.0)),
        seed=st.integers(0, 2**16),
        sends=st.lists(st.tuples(
            st.integers(0, 2000),                                # wait before, us
            st.lists(st.integers(0, 15), min_size=1, max_size=8),  # key indexes
            st.sampled_from((None, 0, 1, 40)),                   # gap (None: one probe)
            st.one_of(st.none(), st.integers(0, 15)),            # watched key
            st.sampled_from((3000, 6000, math.inf)),             # stop, us
            st.booleans(),                                       # rtts
        ), min_size=1, max_size=10),
    )
    def test_matches_a_traced_twin(self, policy, noise, capacity, usage, rate,
                                   hard_ms, idle_ms, seed, sends):
        untraced, traced = (SwitchSimulator(
            capacity, policy, hard_ms, idle_ms, LatencyModel(noise=noise, seed=seed),
            BackgroundWorkload(rate, usage, seed + 1), record_trace)
            for record_trace in (False, True))
        keys = attacker_keys()
        for wait_us, indexes, gap_us, watched, stop, kept in sends:
            at = untraced.now_us + wait_us
            probed = [keys.key_at(i) for i in indexes]
            if gap_us is None:
                results = [sim.send_probe(probed[0], at) for sim in (untraced, traced)]
            else:
                watch = None if watched is None else keys.key_at(watched)
                results = [(sim.send_rounds(probed, at, gap_us, stop, watch, rtts), rtts)
                           for sim in (untraced, traced)
                           for rtts in ([] if kept else None,)]
            assert results[0] == results[1]
            states = [(sim.now_us, sim.events_processed, sim.background_arrivals,
                       sim._next_arrival_us, sim._latency_rng.getstate(),
                       sim._arrival_rng.getstate(), *unlogged_state(sim.table))
                      for sim in (untraced, traced)]
            assert states[0] == states[1]
            assert untraced.table.removal_log == []
        assert untraced.trace is None


class TestTrace:
    def test_probe_events_echo_their_samples(self):
        sim = SwitchSimulator(capacity=4, record_trace=True)
        key = attacker_keys().next_key()
        first, second = sim.send_probe(key, 0), sim.send_probe(key, 50)
        assert sim.trace == [
            SimEvent(0, EVENT_PROBE, key, OWNER_ATTACKER, BRANCH_MISS_NOTFULL,
                     first.rtt_us),
            SimEvent(50, EVENT_PROBE, key, OWNER_ATTACKER, BRANCH_HIT,
                     second.rtt_us),
        ]

    def test_nothing_is_recorded_without_record_trace(self):
        sim = SwitchSimulator(capacity=4)
        sim.send_probe(attacker_keys().next_key(), 0)
        assert sim.trace is None


class TestKeySpaces:
    def test_attacker_and_background_keys_disjoint(self):
        attacker = [KeySequence("10.1").key_at(i) for i in range(500)]
        background = [KeySequence("10.2").key_at(i) for i in range(500)]
        assert not set(attacker) & set(background)

    @pytest.mark.parametrize("i, src_ip, dst_ip", [
        (0, "10.1.0.0", "10.0.0.1"),
        (255, "10.1.0.255", "10.0.0.1"),
        (256, "10.1.1.0", "10.0.0.1"),
        (65_535, "10.1.255.255", "10.0.0.1"),
        (65_536, "10.1.0.0", "10.201.0.1"),
        (70_000, "10.1.17.112", "10.201.0.1"),
    ])
    def test_key_at_is_pinned(self, i, src_ip, dst_ip):
        key = KeySequence("10.1").key_at(i)
        assert key == (10 << 8 | 1) << 32 | i
        header = flow_key(key)
        assert type(header) is FlowKey
        assert header == FlowKey(src_ip, dst_ip, "02:00:00:00:00:01",
                                 "02:00:00:00:00:02")

    @pytest.mark.parametrize("start, stop", [(0, 0), (7, 7), (9, 3), (0, 600),
                                             (65_530, 65_542),
                                             (131_070, 131_074)])
    def test_keys_match_key_at(self, start, stop):
        seq = KeySequence(BACKGROUND_PREFIX)
        keys = seq.keys(start, stop)
        assert list(keys) == [seq.key_at(i) for i in range(start, stop)]
        assert all(type(key) is int for key in keys)

    def test_keys_distinct_past_a_full_slash16(self):
        seq = KeySequence("10.1")
        sample_indexes = [0, 1, 65_535, 65_536, 70_000, 131_072]
        keys = [seq.key_at(i) for i in sample_indexes]
        assert len(set(keys)) == len(keys)
        assert len(set(map(flow_key, keys))) == len(keys)

    def test_next_key_walks_key_at(self):
        seq = KeySequence(ATTACKER_PREFIX)
        assert [seq.next_key() for _ in range(3)] == [seq.key_at(i) for i in range(3)]
        seq.index = 70_000
        assert seq.next_key() == seq.key_at(70_000) and seq.index == 70_001

    # The attacker, the background and lru-churn's four tenant prefixes.
    PREFIXES = (ATTACKER_PREFIX, BACKGROUND_PREFIX, "10.10", "10.11", "10.12", "10.13")
    INDEXES = (0, 255, 256, 65_535, 65_536, 70_000)

    def test_flow_key_is_injective(self):
        headers = set()
        for prefix in self.PREFIXES:
            for i in self.INDEXES:
                header = flow_key(KeySequence(prefix).key_at(i))
                assert header.src_ip.startswith(prefix + ".")
                headers.add(header)
        assert len(headers) == len(self.PREFIXES) * len(self.INDEXES)

    @pytest.mark.parametrize("prefix", PREFIXES)
    def test_owner_of_is_background_exactly_for_the_background_prefix(self, prefix):
        sim = SwitchSimulator(capacity=4)
        seq = KeySequence(prefix)
        owner = OWNER_BACKGROUND if prefix == BACKGROUND_PREFIX else OWNER_ATTACKER
        assert {sim.owner_of(seq.key_at(i)) for i in self.INDEXES} == {owner}
        assert sim.owner_of(seq.key_at(2**32 - 1)) == owner

    @pytest.mark.parametrize("i", [-1, 2**32])
    def test_an_index_outside_its_prefix_is_rejected(self, i):
        # Key 2**32 of 10.1 would be key 0 of 10.2, a background key.
        seq = KeySequence(ATTACKER_PREFIX)
        with pytest.raises(ValueError):
            seq.key_at(i)
        with pytest.raises(ValueError):
            seq.keys(i, i + 1)
        seq.index = i
        with pytest.raises(ValueError):
            seq.next_key()
        assert seq.index == i

    def test_the_first_and_last_index_are_kept(self):
        seq = KeySequence(ATTACKER_PREFIX)
        assert seq.key_at(0) == seq.base and seq.key_at(2**32 - 1) == seq.base + 2**32 - 1
        assert list(seq.keys(2**32 - 2, 2**32)) == [seq.key_at(2**32 - 2),
                                                    seq.key_at(2**32 - 1)]
        with pytest.raises(ValueError):
            seq.keys(2**32 - 1, 2**32 + 1)
        with pytest.raises(ValueError):
            seq.keys(-1, 2)
        assert list(seq.keys(9, 3)) == list(seq.keys(2**32, 2**32)) == []
        seq.index = 2**32 - 1
        assert seq.next_key() == seq.key_at(2**32 - 1) and seq.index == 2**32

    def test_background_and_attacker_ranges_never_overlap(self):
        # Every index below 2**32 keeps its prefix's top bits.
        attacker = KeySequence(ATTACKER_PREFIX).keys(0, 2**32)
        background = KeySequence(BACKGROUND_PREFIX).keys(0, 2**32)
        assert attacker[-1] < background[0]
        assert {key >> 32 for key in (attacker[0], attacker[-1])} == {10 << 8 | 1}
        assert {key >> 32 for key in (background[0], background[-1])} == {10 << 8 | 2}


class TestSharedKeys:
    """Every `KeySequence` of one prefix gives the same keys."""

    # Starts on a coarse grid, so that requests often overlap.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 60).map(lambda i: 20 * i),
                              st.integers(0, 300)), max_size=12))
    @example([(False, 0, 50), (True, 20, 100)])
    def test_any_request_order_gives_key_at(self, requests):
        pair = KeySequence(ATTACKER_PREFIX), KeySequence(ATTACKER_PREFIX)
        for second, start, length in requests:
            keys = pair[second].keys(start, start + length)
            assert list(keys) == [pair[0].key_at(i) for i in range(start, start + length)]

    def test_requests_across_a_full_slash16_give_key_at(self):
        a, b = KeySequence(ATTACKER_PREFIX), KeySequence(ATTACKER_PREFIX)
        for seq, start, stop in [(a, 0, 65_530), (b, 65_530, 65_542), (a, 65_540, 65_541),
                                 (b, 65_500, 65_600), (a, 65_530, 65_542)]:
            assert list(seq.keys(start, stop)) == [seq.key_at(i) for i in range(start, stop)]

    def test_prefixes_share_no_entry(self):
        attacker = KeySequence(ATTACKER_PREFIX).keys(0, 600)
        background = KeySequence(BACKGROUND_PREFIX).keys(0, 600)
        assert all(flow_key(key).src_ip.startswith(ATTACKER_PREFIX + ".")
                   for key in attacker)
        assert all(flow_key(key).src_ip.startswith(BACKGROUND_PREFIX + ".")
                   for key in background)
        assert not set(attacker) & set(background)
