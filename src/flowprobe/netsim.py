"""Virtual-time emulation of the switch/controller feedback loop.

Every probe is classified into one of three processing branches — flow
entry present, entry absent with table space free, entry absent with the
table full — and answered with a latency drawn from the branch's
configured band. Misses install an entry on behalf of the controller,
evicting a victim when the table is at capacity. A seeded Poisson stream
of background flows can run alongside the probes.

All timestamps are integer microseconds of virtual time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from random import Random
from typing import NamedTuple, Optional, TextIO

from .flowtable import (
    FIFO,
    OWNER_ATTACKER,
    OWNER_BACKGROUND,
    FlowEntry,
    FlowKey,
    FlowTable,
    Occupancy,
)

BRANCH_HIT = "hit"
BRANCH_MISS_NOTFULL = "miss_notfull"
BRANCH_MISS_FULL = "miss_full"

NOISE_NONE = "none"
NOISE_UNIFORM = "uniform"
NOISE_TRUNCATED_GAUSSIAN = "truncated-gaussian"
NOISE_MODES = (NOISE_NONE, NOISE_UNIFORM, NOISE_TRUNCATED_GAUSSIAN)

EVENT_PROBE = "probe"
EVENT_BACKGROUND = "background_arrival"

US_PER_MS = 1000


def ms_to_us(ms: float) -> int:
    return round(ms * US_PER_MS)


def us_to_ms(us: int) -> float:
    return us / US_PER_MS


@dataclass(frozen=True)
class LatencyModel:
    """Per-branch RTT bands in milliseconds, plus the noise shape.

    The three bands must be disjoint and ordered hit < miss-not-full <
    miss-full; classification by threshold is only sound because of that.
    Defaults follow the measured hit 0.2-0.3 ms, miss 3-5 ms and
    miss-while-full 8-10 ms bands.
    """

    hit_ms: tuple[float, float] = (0.2, 0.3)
    miss_notfull_ms: tuple[float, float] = (3.0, 5.0)
    miss_full_ms: tuple[float, float] = (8.0, 10.0)
    noise: str = NOISE_UNIFORM
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise not in NOISE_MODES:
            raise ValueError(f"unknown noise mode {self.noise!r}")
        bands = [self.hit_ms, self.miss_notfull_ms, self.miss_full_ms]
        for lo, hi in bands:
            if not (0 <= lo <= hi):
                raise ValueError(f"invalid latency range ({lo}, {hi})")
        for (_, hi), (lo, _) in zip(bands, bands[1:]):
            if hi >= lo:
                raise ValueError(
                    "latency bands must be disjoint and ordered "
                    f"hit < miss_notfull < miss_full, got {bands}"
                )

    def range_us(self, branch: str) -> tuple[int, int]:
        lo, hi = {
            BRANCH_HIT: self.hit_ms,
            BRANCH_MISS_NOTFULL: self.miss_notfull_ms,
            BRANCH_MISS_FULL: self.miss_full_ms,
        }[branch]
        return ms_to_us(lo), ms_to_us(hi)

    def with_seed(self, seed: int) -> "LatencyModel":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class BackgroundWorkload:
    """Competing-tenant traffic: preloaded entries plus Poisson arrivals.

    Each arrival is a brand-new background flow (distinct key), so it walks
    the same miss/install path as an attacker probe. Keys come from an IP
    range reserved for background tenants and can never collide with
    attacker keys.
    """

    arrival_rate: float = 0.0  # new flows per second
    initial_usage: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be >= 0")
        if self.initial_usage < 0:
            raise ValueError("initial_usage must be >= 0")


class KeySequence:
    """Deterministic generator of distinct FlowKeys under one /16 prefix.

    Index i maps to src_ip {prefix}.{i>>8 & 255}.{i & 255}; indexes past the
    /16 roll into the dst_ip octets, so the sequence never repeats. Owner
    prefixes are disjoint, which keeps attacker and background key spaces
    disjoint by construction.
    """

    def __init__(self, prefix: str, dst_ip: str = "10.0.0.1",
                 src_mac: str = "02:00:00:00:00:01",
                 dst_mac: str = "02:00:00:00:00:02"):
        self.prefix = prefix
        self.dst_ip = dst_ip
        self.src_mac = src_mac
        self.dst_mac = dst_mac
        self._next = 0

    def key_at(self, i: int) -> FlowKey:
        block, rest = divmod(i, 1 << 16)
        dst = self.dst_ip if block == 0 else f"10.{200 + block}.0.1"
        return FlowKey(
            src_ip=f"{self.prefix}.{(rest >> 8) & 255}.{rest & 255}",
            dst_ip=dst,
            src_mac=self.src_mac,
            dst_mac=self.dst_mac,
        )

    def next_key(self) -> FlowKey:
        key = self.key_at(self._next)
        self._next += 1
        return key


ATTACKER_PREFIX = "10.1"
BACKGROUND_PREFIX = "10.2"


class RttSample(NamedTuple):
    """One probe's observation.

    `branch` is the ground-truth processing branch. It exists for tests and
    trace exports; the inference side must classify `rtt_us` against its
    calibrated thresholds instead of reading it.
    """

    time_us: int
    key: FlowKey
    rtt_us: int
    branch: str


class SimEvent(NamedTuple):
    time_us: int
    kind: str  # EVENT_PROBE | EVENT_BACKGROUND
    key: Optional[FlowKey]
    owner: str
    branch: str
    rtt_us: int


class GroundTruth(NamedTuple):
    capacity: int
    occupancy: Occupancy
    policy: str


TRACE_COLUMNS = ("time_us", "kind", "owner", "branch", "rtt_us")


class SwitchSimulator:
    """Single switch + controller with a bounded flow table.

    The simulator owns one logical timeline. `send_probe` and `run_until`
    must be called with nondecreasing timestamps; background arrivals due
    before a probe are applied first so the probe always sees the table
    state it would have seen live.
    """

    def __init__(
        self,
        capacity: int,
        policy: str = FIFO,
        hard_timeout_ms: float = 0.0,
        idle_timeout_ms: float = 0.0,
        latency: Optional[LatencyModel] = None,
        workload: Optional[BackgroundWorkload] = None,
        record_trace: bool = False,
    ):
        self.latency = latency or LatencyModel()
        self.workload = workload or BackgroundWorkload()
        self.table = FlowTable(capacity, policy)
        self.hard_timeout_us = ms_to_us(hard_timeout_ms)
        self.idle_timeout_us = ms_to_us(idle_timeout_ms)
        self.now_us = 0
        self.events_processed = 0
        self.background_arrivals = 0
        self.trace: Optional[list[SimEvent]] = [] if record_trace else None

        self._latency_rng = Random(self.latency.seed)
        self._arrival_rng = Random(self.workload.seed)
        self._bg_keys = KeySequence(BACKGROUND_PREFIX)
        self._rate_us = (
            1e6 / self.workload.arrival_rate if self.workload.arrival_rate > 0 else None
        )
        self._next_arrival_us = self._draw_arrival(0) if self._rate_us else None
        # Cache per-branch draw parameters and a bound RNG method; the probe
        # path is hot.
        self._ranges = {
            b: self.latency.range_us(b)
            for b in (BRANCH_HIT, BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL)
        }
        self._uniform = {b: (lo, hi - lo + 1) for b, (lo, hi) in self._ranges.items()}
        self._midpoints = {b: (lo + hi) // 2 for b, (lo, hi) in self._ranges.items()}
        self._rand = self._latency_rng.random
        self._noise = self.latency.noise

        for _ in range(self.workload.initial_usage):
            self._install(self._bg_keys.next_key(), 0, OWNER_BACKGROUND)

    # -- latency ---------------------------------------------------------

    def _draw_rtt(self, branch: str) -> int:
        noise = self._noise
        if noise == NOISE_UNIFORM:
            lo, span = self._uniform[branch]
            return lo + int(self._rand() * span)
        if noise == NOISE_NONE:
            return self._midpoints[branch]
        lo, hi = self._ranges[branch]
        mu = (lo + hi) / 2
        sigma = (hi - lo) / 6
        for _ in range(16):
            value = self._latency_rng.gauss(mu, sigma)
            if lo <= value <= hi:
                return round(value)
        return min(max(round(value), lo), hi)

    # -- background workload ---------------------------------------------

    def _draw_arrival(self, after_us: int) -> int:
        # Inversion method; gap floored at 1 us to keep time strictly advancing.
        u = self._arrival_rng.random()
        gap_us = -math.log(1.0 - u) * self._rate_us  # type: ignore[operator]
        return after_us + max(1, round(gap_us))

    def _process_arrivals(self, up_to_us: int, collect: Optional[list[SimEvent]]) -> None:
        # _handle_packet owns trace recording; `collect` only feeds run_until's
        # return value.
        while self._next_arrival_us is not None and self._next_arrival_us <= up_to_us:
            at = self._next_arrival_us
            key = self._bg_keys.next_key()
            self.background_arrivals += 1
            sample = self._handle_packet(key, at, OWNER_BACKGROUND, EVENT_BACKGROUND)
            if collect is not None:
                collect.append(
                    SimEvent(at, EVENT_BACKGROUND, key, OWNER_BACKGROUND,
                             sample.branch, sample.rtt_us)
                )
            self._next_arrival_us = self._draw_arrival(at)

    # -- core packet path --------------------------------------------------

    def _install(self, key: FlowKey, now_us: int, owner: str) -> None:
        self.table.insert(
            FlowEntry(
                key=key,
                hard_timeout=self.hard_timeout_us,
                idle_timeout=self.idle_timeout_us,
                owner=owner,
            ),
            now_us,
        )

    def _handle_packet(self, key: FlowKey, at_us: int, owner: Optional[str],
                       kind: str) -> RttSample:
        # `owner` may be None for probes; it is only resolved when an entry
        # is installed or an event is traced (hits dominate the hot path).
        table = self.table
        if table.lookup(key, at_us):
            branch = BRANCH_HIT
        else:
            branch = BRANCH_MISS_FULL if len(table.entries) >= table.capacity \
                else BRANCH_MISS_NOTFULL
            if owner is None:
                owner = self.owner_of(key)
            self._install(key, at_us, owner)
        rtt = self._draw_rtt(branch)
        self.now_us = at_us
        self.events_processed += 1
        if self.trace is not None:
            if owner is None:
                owner = self.owner_of(key)
            self.trace.append(SimEvent(at_us, kind, key, owner, branch, rtt))
        return RttSample(at_us, key, rtt, branch)

    # -- public surface ----------------------------------------------------

    def owner_of(self, key: FlowKey) -> str:
        return (
            OWNER_BACKGROUND
            if key.src_ip.startswith(BACKGROUND_PREFIX + ".")
            else OWNER_ATTACKER
        )

    def send_probe(self, key: FlowKey, at_us: int) -> RttSample:
        """Deliver one packet at `at_us` and return its observed RTT."""
        if at_us < self.now_us:
            raise ValueError(f"probe time {at_us} precedes simulator time {self.now_us}")
        if self._next_arrival_us is not None and self._next_arrival_us <= at_us:
            self._process_arrivals(at_us, None)
        return self._handle_packet(key, at_us, None, EVENT_PROBE)

    def run_until(self, t_us: int) -> list[SimEvent]:
        """Apply all background arrivals due at or before `t_us`; advance clock."""
        if t_us < self.now_us:
            raise ValueError(f"target time {t_us} precedes simulator time {self.now_us}")
        processed: list[SimEvent] = []
        self._process_arrivals(t_us, processed)
        self.now_us = t_us
        return processed

    def ground_truth(self) -> GroundTruth:
        """Hidden state for tests and result auditing; never for inference."""
        return GroundTruth(
            capacity=self.table.capacity,
            occupancy=self.table.occupancy(self.now_us),
            policy=self.table.policy,
        )

    def write_trace_csv(self, out: TextIO) -> None:
        if self.trace is None:
            raise ValueError("simulator was built with record_trace=False")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for event in self.trace:
            writer.writerow(
                (event.time_us, event.kind, event.owner, event.branch, event.rtt_us)
            )
