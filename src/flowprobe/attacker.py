"""Probe-only inference of flow table capacity and usage.

Everything here observes the switch exclusively through probe RTTs: first a
bootstrap run calibrates the three latency bands (entry present; absent
with space; absent with the table full), then timeout probes recover the
entry lifetime limits, and finally the inference for FIFO or for LRU
streams distinct keys until it has seen the table fill up and then lose one
of the attacker's own entries.

Counting convention: `n1` is the number of distinct attacker keys inserted
before the first full-table classification, `n2` the number inserted before
the probe that revealed an attacker entry was evicted. With an idle
background these equal capacity minus usage and capacity exactly, so the
reported `f_capacity = n2` and `f_other = n2 - n1` are exact; concurrent
insertions by other tenants only ever push both estimates down.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from statistics import fmean
from typing import Optional, Sequence

from .flowtable import FIFO, LRU
from .netsim import (
    ATTACKER_PREFIX,
    KeySequence,
    RttSample,
    SwitchSimulator,
    US_PER_MS,
    ms_to_us,
    us_to_ms,
)

STATE_EXIST = "exist"
STATE_NOT_EXIST_NOT_FULL = "not_exist_not_full"
STATE_NOT_EXIST_FULL = "not_exist_full"

# Timeout probing: a timer that outlasts the ceiling counts as disabled.
# TIMEOUT_STEP_MS is the idle probe's first gap and bisection resolution, and
# the hard probe's refresh gap unless a tenth of the idle timeout is shorter.
TIMEOUT_CEILING_MS = 120_000.0
TIMEOUT_STEP_MS = 100.0

# A bootstrap jump needs SMALL_BAND_CONFIRMATIONS fresh-key confirmations
# while the miss band holds fewer than SMALL_MISS_BAND samples, then one.
SMALL_MISS_BAND = 16
SMALL_BAND_CONFIRMATIONS = 3


class AttackError(Exception):
    """Base class for domain-level attack failures."""


class JumpNeverObserved(AttackError):
    """Bootstrap exhausted its filler budget without seeing an RTT jump."""


class TimeoutDisabled(AttackError):
    """No expiry was observed up to the probing ceiling."""


class BudgetExhausted(AttackError):
    """The key budget ran out before both detections fired."""


class InfeasibleRate(AttackError):
    """Probe traffic could not complete within the timeout budget."""


@dataclass(frozen=True)
class RttThresholds:
    """Calibrated band centers and the cut points between them (ms).

    classify() maps an RTT below `hit_cut_ms` to entry-present, between the
    cuts to entry-absent-with-space, and above `full_cut_ms` to
    entry-absent-table-full.
    """

    t1_ms: float
    t2_ms: float
    t3_ms: float
    hit_cut_ms: float
    full_cut_ms: float

    def __post_init__(self) -> None:
        if not (self.t1_ms < self.hit_cut_ms < self.t2_ms
                < self.full_cut_ms < self.t3_ms):
            raise ValueError(
                "thresholds must satisfy t1 < hit_cut < t2 < full_cut < t3, got "
                f"{self.t1_ms}, {self.hit_cut_ms}, {self.t2_ms}, "
                f"{self.full_cut_ms}, {self.t3_ms}"
            )

    def classify(self, rtt_us: int) -> str:
        if rtt_us < self.hit_cut_ms * 1000.0:
            return STATE_EXIST
        if rtt_us < self.full_cut_ms * 1000.0:
            return STATE_NOT_EXIST_NOT_FULL
        return STATE_NOT_EXIST_FULL

    @classmethod
    def from_band_centers(cls, t1_ms: float, t2_ms: float, t3_ms: float) -> "RttThresholds":
        """Build thresholds with cuts at the geometric means of the bands."""
        return cls(
            t1_ms=t1_ms,
            t2_ms=t2_ms,
            t3_ms=t3_ms,
            hit_cut_ms=math.sqrt(t1_ms * t2_ms),
            full_cut_ms=math.sqrt(t2_ms * t3_ms),
        )


@dataclass(frozen=True)
class BootstrapParams:
    """Schedule for the two-stream threshold calibration.

    `ts1_ms` is the delay before re-probing the pinned key; `ts2_ms` the gap
    between filler probes, so a run that sends n fillers spans
    (n - 1) * ts2. Both spans must stay under the smallest entry timeout
    for the pinned entry to survive the whole measurement.
    """

    ts1_ms: float = 100.0
    ts2_ms: float = 1.0
    repeat: int = 1
    filler_budget: int = 100_000
    jump_factor: float = 1.5
    min_miss_samples: int = 2
    inter_repeat_wait_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.ts1_ms <= 0 or self.ts2_ms <= 0:
            raise ValueError("ts1_ms and ts2_ms must be positive")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")
        if self.jump_factor <= 1.0:
            raise ValueError("jump_factor must exceed 1.0")
        for name in ("filler_budget", "min_miss_samples", "inter_repeat_wait_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("ts1_ms", "ts2_ms", "inter_repeat_wait_ms"):
            value = getattr(self, name)
            if not value * US_PER_MS < math.inf:
                raise ValueError(f"{name}={value} is past float range in us")


@dataclass
class InferenceReport:
    """Outcome of one capacity/usage inference run."""

    policy_assumed: str
    f_capacity: int
    f_other: int
    n1: int
    n2: int
    probes_sent: int
    distinct_keys: int
    reinstalls: int = 0
    timeout_budget_exceeded: bool = False


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Required vs available probe rate for finishing inside one timeout cycle."""

    v_gen_required: float  # packets per second
    v_gen_available: float
    feasible: bool


def send_gap_us(send_rate_pps: float, where: str = "send_rate_pps") -> int:
    """Whole microseconds between back-to-back probes, at least 1; a rate
    that is not positive, or whose gap is past float range, is a ValueError."""
    if send_rate_pps <= 0:
        raise ValueError(f"{where} must be positive")
    gap_us = 1e6 / send_rate_pps
    if not math.isfinite(gap_us):
        raise ValueError(f"{where}={send_rate_pps!r} gives a send gap past "
                         "float range")
    return max(1, round(gap_us))


class ProbeSession:
    """Single-threaded probe stream bound to one simulator.

    The session owns a virtual-time cursor; each probe is sent at the
    cursor, which then advances by the configured send gap, so a stream of
    back-to-back probes models a sender running flat out at `send_rate_pps`.
    """

    def __init__(self, sim: SwitchSimulator, send_rate_pps: float = 10_000.0):
        self.sim = sim
        self.send_gap_us = send_gap_us(send_rate_pps)
        self.now_us = sim.now_us
        self.probes_sent = 0
        self._keys = KeySequence(ATTACKER_PREFIX)

    def fresh_key(self) -> int:
        return self._keys.next_key()

    def probe(self, key: int) -> RttSample:
        sample = self.sim.send_probe(key, self.now_us)
        self.now_us += self.send_gap_us
        self.probes_sent += 1
        return sample

    def probe_fresh(self, count: int, stop_rtt_us: float,
                    gap_us: Optional[int] = None, rtts: Optional[list[int]] = None,
                    watch: Optional[int] = None,
                    ) -> tuple[list[int], Optional[RttSample]]:
        """Send `probe_burst`'s rounds over up to `count` fresh keys; return
        the keys sent and the stopping sample (or None).

        Only the keys sent are consumed: the next `fresh_key()` is the first
        one unsent.
        """
        fresh = self._keys
        keys = fresh.keys(fresh.index, fresh.index + count)
        sent, stop = self._send(keys, stop_rtt_us, gap_us, rtts, watch)
        fresh.index += sent
        return list(keys[:sent]), stop

    def probe_burst(self, keys: Sequence[int], stop_rtt_us: float,
                    gap_us: Optional[int] = None,
                    rtts: Optional[list[int]] = None) -> Optional[RttSample]:
        """Probe `keys` `gap_us` apart (default: back to back), as
        `SwitchSimulator.send_rounds` sends them: the run stops after the
        first probe with an RTT of at least `stop_rtt_us`. Each probe's RTT
        is appended to `rtts` if it is given.

        Returns the stopping sample, or None if no round reached the cut.
        The cursor ends one send gap after the last probe sent.
        """
        return self._send(keys, stop_rtt_us, gap_us, rtts, None)[1]

    def _send(self, keys: Sequence[int], stop_rtt_us: float, gap_us: Optional[int],
              rtts: Optional[list[int]], watch: Optional[int],
              ) -> tuple[int, Optional[RttSample]]:
        """`send_rounds` from the cursor; return the rounds sent and the stop."""
        sent, stop = self.sim.send_rounds(
            keys, self.now_us, self.send_gap_us if gap_us is None else gap_us,
            stop_rtt_us, watch, rtts)
        if sent:
            self.now_us = self.sim.now_us + self.send_gap_us
            self.probes_sent += sent if watch is None else 2 * sent
        return sent, stop

    def wait_us(self, delta_us: int) -> None:
        self.now_us += delta_us

    def wait_until_us(self, t_us: int) -> None:
        if t_us > self.now_us:
            self.now_us = t_us


def bootstrap_thresholds(session: ProbeSession,
                         params: BootstrapParams) -> RttThresholds:
    """Calibrate the three RTT bands by driving the table into overflow.

    Each round pins one fresh key (its first probe seeds the miss band, its
    delayed re-probe samples the hit band), then streams distinct fillers
    every ts2 (or send gap, if longer) until one classifies above the
    running miss-band median by the jump factor; the fillers go out as
    fresh-key runs, each sent as the per-filler stream would send it.
    Immediately-sent fresh keys confirm the jump: while the miss band is
    small its median may sit at the band's low end, so it takes
    SMALL_BAND_CONFIRMATIONS of them, then one. The last one's RTT becomes
    the full-band sample and the miss-band median the miss-band sample; a
    failed confirmation folds the filler and every confirmation back into
    the miss band and the stream continues. A confirmed jump whose pinned
    re-probe was not faster than the miss-band median by the jump factor
    raises AttackError: a timeout below ts1 expired the pin, or bands too close.
    """
    t1_samples: list[float] = []
    t2_samples: list[float] = []
    t3_samples: list[float] = []

    for round_no in range(params.repeat):
        if round_no:
            session.wait_us(ms_to_us(params.inter_repeat_wait_ms))

        pinned = session.fresh_key()
        first = session.probe(pinned)

        session.wait_until_us(first.time_us + ms_to_us(params.ts1_ms))
        re_probe = session.probe(pinned)
        t1_samples.append(us_to_ms(re_probe.rtt_us))

        miss_sorted: list[int] = [first.rtt_us]
        ts2_us = ms_to_us(params.ts2_ms)
        gap_us = max(ts2_us, session.send_gap_us)
        next_send = session.now_us
        fillers = 0
        while fillers < params.filler_budget:
            # A run of m <= n fillers, one send gap or ts2 apart, stops at
            # the first above `floor_cut`, the smallest running cut it can
            # meet: before its j-th filler the median is the (n + j) // 2-th
            # of n + j samples, which is at least the (n - j) // 2-th of the
            # first n. No filler below it can jump; the stopping filler is
            # judged against the running cut.
            n = len(miss_sorted)
            if n < params.min_miss_samples:
                m, floor_cut = params.min_miss_samples - n, math.inf
            else:
                m = max(1, n // 2)
                floor_cut = params.jump_factor * miss_sorted[(n - m + 1) // 2]
            session.wait_until_us(next_send)
            rtts: list[int] = []
            _, sample = session.probe_fresh(min(m, params.filler_budget - fillers),
                                            floor_cut, gap_us, rtts)
            fillers += len(rtts)
            next_send = session.now_us - session.send_gap_us + ts2_us
            miss_sorted += rtts if sample is None else rtts[:-1]
            miss_sorted.sort()
            if sample is None:
                continue
            median = miss_sorted[len(miss_sorted) // 2]
            cut = params.jump_factor * median
            confirms = []
            if sample.rtt_us > cut:
                for _ in range(SMALL_BAND_CONFIRMATIONS
                               if len(miss_sorted) < SMALL_MISS_BAND else 1):
                    confirms.append(session.probe(session.fresh_key()).rtt_us)
                    fillers += 1
                    if confirms[-1] <= cut:
                        break
                else:  # every confirmation jumped
                    if re_probe.rtt_us * params.jump_factor >= median:
                        raise AttackError(
                            f"the pinned key's re-probe ts1_ms={params.ts1_ms} ms after "
                            f"install took {us_to_ms(re_probe.rtt_us)} ms, not "
                            f"jump_factor={params.jump_factor} times below the "
                            f"{us_to_ms(median)} ms miss-band median: either an entry "
                            "timeout below ts1_ms expired it, or the hit and miss "
                            "bands lie closer together than jump_factor")
                    t2_samples.append(us_to_ms(median))
                    t3_samples.append(us_to_ms(confirms[-1]))
                    break  # out of the filler loop
            for rtt_us in (sample.rtt_us, *confirms):
                insort(miss_sorted, rtt_us)
        else:
            raise JumpNeverObserved(
                f"no RTT jump within {params.filler_budget} fillers"
            )

    return RttThresholds.from_band_centers(
        fmean(t1_samples), fmean(t2_samples), fmean(t3_samples)
    )


def measure_idle_timeout(session: ProbeSession,
                         thresholds: RttThresholds) -> float:
    """Measure the idle timeout by growing, then bisecting, one key's gaps.

    Gaps start at TIMEOUT_STEP_MS and double. A gap that still hits proves
    the timeout exceeds it; the first missing gap brackets the timeout from
    above (the miss also reinstalls the entry, so trials chain on the same
    key). Returns the bracket midpoint in ms once the bracket is at most one
    step wide. Meaningful when the idle timer is the binding one; a much
    shorter hard timeout will dominate what this observes.
    """
    ceiling_us = ms_to_us(TIMEOUT_CEILING_MS)
    step_us = ms_to_us(TIMEOUT_STEP_MS)

    key = session.fresh_key()
    last = session.probe(key)  # install

    def survives(gap_us: int) -> bool:
        nonlocal last
        session.wait_until_us(last.time_us + gap_us)
        last = session.probe(key)
        return last.rtt_us < thresholds.hit_cut_ms * 1000.0

    lo = 0
    gap = step_us
    while True:
        if gap > ceiling_us:
            raise TimeoutDisabled(
                f"entry survived every gap up to {TIMEOUT_CEILING_MS} ms"
            )
        if survives(gap):
            lo = gap
            gap *= 2
        else:
            hi = gap
            break

    while hi - lo > step_us:
        mid = (lo + hi) // 2
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return us_to_ms((lo + hi) // 2)


def measure_hard_timeout(session: ProbeSession, thresholds: RttThresholds,
                         idle_timeout_ms: Optional[float] = None) -> float:
    """Measure the hard timeout by keeping one key continuously refreshed.

    Probes at a constant gap keep the idle timer from firing; the elapsed
    time from installation to the first miss is the hard timeout, with the
    gap as resolution. The gap is TIMEOUT_STEP_MS, or a tenth of a positive
    `idle_timeout_ms` if that is shorter; refreshes never go out faster than
    the session's send gap. The refreshes are one burst that stops at the
    first miss.
    """
    gap_ms = TIMEOUT_STEP_MS
    if idle_timeout_ms is not None and idle_timeout_ms > 0:
        gap_ms = min(gap_ms, idle_timeout_ms / 10)
    gap_us = ms_to_us(gap_ms)
    ceiling_us = ms_to_us(TIMEOUT_CEILING_MS)
    # Refresh k goes out k * step_us after the install, and only while
    # (k - 1) * step_us + gap_us is within the ceiling.
    step_us = max(gap_us, session.send_gap_us)
    refreshes = (ceiling_us - gap_us) // step_us + 1

    key = session.fresh_key()
    t0 = session.probe(key).time_us
    session.wait_until_us(t0 + step_us)
    miss = session.probe_burst([key] * refreshes,
                               thresholds.hit_cut_ms * 1000.0, step_us)
    if miss is None:
        raise TimeoutDisabled(
            f"entry survived continuous refresh for {TIMEOUT_CEILING_MS} ms"
        )
    return us_to_ms(miss.time_us - t0)


def check_feasibility(capacity_guess: int,
                      hard_timeout_ms: float,
                      idle_timeout_ms: float,
                      v_gen_pps: float,
                      v_del_pps: float = 0.0) -> FeasibilityVerdict:
    """Can `v_gen_pps` fill `capacity_guess` entries within one timeout cycle?

    The required rate is capacity divided by the smallest enabled timeout
    (plus an explicit deletion rate when the one-cycle simplification is not
    wanted). With both timeouts disabled nothing expires, so any rate works.
    """
    finite = [t for t in (hard_timeout_ms, idle_timeout_ms) if t > 0]
    if finite:
        required = v_del_pps + capacity_guess / (min(finite) / 1000.0)
    else:
        required = v_del_pps
    return FeasibilityVerdict(
        v_gen_required=required,
        v_gen_available=v_gen_pps,
        feasible=v_gen_pps >= required,
    )


def _check_budgets(key_budget: int, time_budget_ms: Optional[float]) -> float:
    """Check both budgets: a key budget below 1, or a time budget that is
    not a finite number >= 0, is a ValueError. Return the time budget in
    whole microseconds, or math.inf for None (no budget)."""
    if key_budget < 1:
        raise ValueError(f"key_budget={key_budget!r} must be >= 1")
    if time_budget_ms is None:
        return math.inf
    if not 0 <= time_budget_ms * US_PER_MS < math.inf:
        raise ValueError(f"time_budget_ms={time_budget_ms!r} must be a finite "
                         "number >= 0")
    return ms_to_us(time_budget_ms)


def _report(policy: str, keys: list[int], n1: int, probes: int,
            budget_exceeded: bool) -> InferenceReport:
    """The report of a run that stopped in its last key's round."""
    n2 = len(keys) - 1
    return InferenceReport(policy_assumed=policy, f_capacity=n2, f_other=n2 - n1,
                           n1=n1, n2=n2, probes_sent=probes, distinct_keys=len(keys),
                           reinstalls=1, timeout_budget_exceeded=budget_exceeded)


def infer_fifo(session: ProbeSession, thresholds: RttThresholds,
               key_budget: int,
               time_budget_ms: Optional[float] = None) -> InferenceReport:
    """Capacity/usage inference against a FIFO-replacement table.

    Each round probes one fresh key; the first full-table RTT fixes n1. From
    that round on, each round re-probes the earliest attacker key, which
    under FIFO is provably the first attacker victim: its first miss fixes
    n2 and ends the attack. The rounds before n1 go out as one fresh-key
    burst, and the rounds after the n1 round as one run of a fresh key,
    then the earliest key, per round; both end exactly as the rounds one at
    a time would. If the round before the one that ends the attack ends
    past `time_budget_ms`, only `timeout_budget_exceeded` is set.
    """
    hit_cut_us = thresholds.hit_cut_ms * 1000.0
    budget_us = _check_budgets(key_budget, time_budget_ms)
    start_us, probes_before = session.now_us, session.probes_sent

    keys, full = session.probe_fresh(key_budget, thresholds.full_cut_ms * 1000.0)
    if full is None:
        raise BudgetExhausted(
            f"no eviction of an attacker entry within {key_budget} keys")
    n1 = len(keys) - 1
    ended_us = full.time_us  # as the one-probe round before the n1 round ends
    if session.probe_burst(keys[:1], hit_cut_us) is None:
        sent, miss = session.probe_fresh(key_budget - len(keys), hit_cut_us,
                                         watch=keys[0])
        keys += sent
        if miss is None:
            raise BudgetExhausted(
                f"no eviction of an attacker entry within {key_budget} keys")
        ended_us = miss.time_us - session.send_gap_us
    return _report(FIFO, keys, n1, session.probes_sent - probes_before,
                   ended_us - start_us > budget_us)


def infer_lru(session: ProbeSession, thresholds: RttThresholds,
              key_budget: int,
              time_budget_ms: Optional[float] = None) -> InferenceReport:
    """Capacity/usage inference against an LRU-replacement table.

    Each round probes one fresh key; the first full-table RTT fixes n1.
    Then the rolling maintainer re-accesses every earlier attacker key in
    insertion order, keeping them the most recently used, as one burst
    whose first miss fixes n2 and ends the attack. That traffic is
    quadratic in the number of keys, so a round that does not end the
    attack and ends past `time_budget_ms` raises InfeasibleRate.
    """
    hit_cut_us = thresholds.hit_cut_ms * 1000.0
    full_cut_us = thresholds.full_cut_ms * 1000.0
    budget_us = _check_budgets(key_budget, time_budget_ms)
    start_us, probes_before = session.now_us, session.probes_sent

    keys: list[int] = []
    n1: Optional[int] = None
    while len(keys) < key_budget:
        key = session.fresh_key()
        rtt_us = session.probe(key).rtt_us
        if n1 is None and rtt_us >= full_cut_us:
            n1 = len(keys)
        evicted = session.probe_burst(keys, hit_cut_us)  # before `key` joins: no copy
        keys.append(key)
        if evicted is not None:
            break
        if session.now_us - start_us > budget_us:
            raise InfeasibleRate(
                f"rolling maintenance exceeded the {time_budget_ms} ms "
                f"timeout budget after {len(keys)} keys")
    else:
        raise BudgetExhausted(
            f"no eviction of an attacker entry within {key_budget} keys")
    if n1 is None:
        n1 = len(keys) - 1  # eviction seen before any probe saw a full table
    return _report(LRU, keys, n1, session.probes_sent - probes_before, False)
