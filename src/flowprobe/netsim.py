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

import math
from dataclasses import dataclass, replace
from itertools import count, repeat
from math import cos, exp, log, sin, sqrt, tau
from random import Random
from typing import Iterable, NamedTuple, Optional, Sequence

from .flowtable import (
    FIFO,
    OWNER_ATTACKER,
    OWNER_BACKGROUND,
    FlowKey,
    FlowTable,
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


# A Box-Muller pair whose second uniform u2 is below _SKIP_BELOW has
# sqrt(-2 log(1 - u2)) < _SKIP_Z, so both its deviates do: 1 - u2 is exact
# for u2 >= 0.5, and log and sqrt err by under an ulp, far less than the
# margin anywhere but the ulps next to the threshold, which the tests check.
# About 1.1% of pairs are not below it.
_SKIP_Z = 2.999
_SKIP_BELOW = 1.0 - exp(-_SKIP_Z * _SKIP_Z / 2)


def skip_threshold(bands: Iterable[tuple[int, int, float, float]]) -> float:
    """The `skip_below` that `truncated_gauss` may take for draws from any
    of these `(lo, hi, mu, sigma)` bands, or 0.0, which skips nothing.

    It is `_SKIP_BELOW` when every band holds mu - Z*sigma and mu + Z*sigma
    as computed in floating point. Rounding is monotone, so then every
    deviate z with |z| < Z gives `mu + z * sigma` inside every band.
    """
    z = _SKIP_Z
    ok = all(lo <= mu - z * sigma <= hi and lo <= mu + z * sigma <= hi
             for lo, hi, mu, sigma in bands)
    return _SKIP_BELOW if ok else 0.0


def truncated_gauss(rng: Random, bands: Iterable[tuple[int, int, float, float]],
                    skip_below: float = 0.0, out: Optional[list[int]] = None) -> int:
    """Draw one RTT per `(lo, hi, mu, sigma)` of the non-empty `bands` and
    return the last; each is also appended to `out` if it is given.

    Each draw takes `rng.gauss(mu, sigma)` until a value lies in [lo, hi],
    at most 16 times, then clamps the value into the band and rounds it.
    The loop is `Random.gauss` unrolled (Box-Muller, the spare deviate kept
    in `rng.gauss_next`), so values and generator state match one `gauss`
    call per try.

    A pair whose second uniform is below `skip_below`, which
    `skip_threshold(bands)` gives, is taken with no Box-Muller math: both
    its deviates lie in every band, so each answers its draw at the first
    try. Such a draw has no value, so the return value and `out` are of use
    only when `skip_below` is 0.0. A spare deviate left unread at the end is
    computed then, so `gauss_next` ends as with `gauss` calls.
    """
    random = rng.random
    spare = rng.gauss_next
    skipped = False  # the spare is a skipped pair's, not computed yet
    value = 0.0
    for lo, hi, mu, sigma in bands:
        if skipped:
            skipped = False
            continue
        tries = 16
        while True:
            if spare is None:
                u1 = random()
                u2 = random()
                if u2 < skip_below:
                    skipped = True
                    break
                x2pi = u1 * tau
                g2rad = sqrt(-2.0 * log(1.0 - u2))
                z = cos(x2pi) * g2rad
                spare = sin(x2pi) * g2rad
            else:
                z, spare = spare, None
            value = mu + z * sigma
            if lo <= value <= hi:
                break
            tries -= 1
            if not tries:
                value = min(max(value, lo), hi)
                break
        if out is not None:
            out.append(round(value))
    if skipped:
        spare = sin(u1 * tau) * sqrt(-2.0 * log(1.0 - u2))
    rng.gauss_next = spare
    return round(value)


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
            if not (0 <= lo <= hi and hi * US_PER_MS < math.inf):
                raise ValueError(f"invalid latency range ({lo}, {hi})")
        # In the whole microseconds drawn: 0.3 and 0.3004 ms both draw 300 us.
        bands = [(ms_to_us(lo), ms_to_us(hi)) for lo, hi in bands]
        for (_, hi), (lo, _) in zip(bands, bands[1:]):
            if hi >= lo:
                raise ValueError("latency bands must be disjoint and ordered hit < "
                                 f"miss_notfull < miss_full in us, got {bands}")

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
    """Deterministic generator of distinct flow keys under one /16 prefix.

    Key i of prefix "a.b" is the int `(a << 8 | b) << 32 | i`, for
    0 <= i < 2**32: the prefix's base plus the index. Any other index
    raises ValueError, since its key would lie in another prefix's range.
    Owner prefixes are disjoint, which keeps attacker and background key
    spaces disjoint by construction. `flow_key` gives a key's header tuple.
    """

    def __init__(self, prefix: str):
        a, b = map(int, prefix.split("."))
        self.base = (a << 8 | b) << 32
        self.index = 0  # of the key `next_key` returns next

    def key_at(self, i: int) -> int:
        if not 0 <= i < 1 << 32:
            raise ValueError(f"key index {i} is outside [0, 2**32)")
        return self.base + i

    def keys(self, start: int, stop: int) -> range:
        """`key_at(i)` for i in `range(start, stop)`."""
        if start < stop and not (0 <= start and stop <= 1 << 32):
            raise ValueError(f"key indexes [{start}, {stop}) are outside [0, 2**32)")
        return range(self.base + start, self.base + stop)

    def next_key(self) -> int:
        key = self.key_at(self.index)
        self.index += 1
        return key


def flow_key(key: int) -> FlowKey:
    """The header tuple of `key`, key i of prefix "a.b": src_ip
    a.b.{i >> 8 & 255}.{i & 255}, and indexes past the /16 roll into the
    dst_ip octets."""
    prefix, i = key >> 32, key & 0xFFFFFFFF
    return FlowKey(f"{prefix >> 8}.{prefix & 255}.{i >> 8 & 255}.{i & 255}",
                   "10.0.0.1" if i < 1 << 16 else f"10.{200 + (i >> 16)}.0.1",
                   "02:00:00:00:00:01", "02:00:00:00:00:02")


ATTACKER_PREFIX = "10.1"
BACKGROUND_PREFIX = "10.2"
_BACKGROUND_ID = KeySequence(BACKGROUND_PREFIX).base >> 32  # a background key's top bits


class RttSample(NamedTuple):
    """One probe's observation.

    `branch` is the ground-truth processing branch. It exists for tests and
    the trace; the inference side must classify `rtt_us` against its
    calibrated thresholds instead of reading it.
    """

    time_us: int
    key: int
    rtt_us: int
    branch: str


class SimEvent(NamedTuple):
    time_us: int
    kind: str  # EVENT_PROBE | EVENT_BACKGROUND
    key: Optional[int]
    owner: str
    branch: str
    rtt_us: int


class SwitchSimulator:
    """Single switch + controller with a bounded flow table.

    The simulator owns one logical timeline. `send_probe` and `send_rounds`
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
        self.table = FlowTable(capacity, policy, ms_to_us(hard_timeout_ms),
                               ms_to_us(idle_timeout_ms), log=record_trace)
        self.now_us = 0
        self.events_processed = 0
        self.background_arrivals = 0
        self.trace: Optional[list[SimEvent]] = [] if record_trace else None

        self._latency_rng = Random(self.latency.seed)
        self._arrival_rng = Random(self.workload.seed)
        self._bg_keys = KeySequence(BACKGROUND_PREFIX)
        rate = self.workload.arrival_rate
        self._rate_us = 1e6 / rate if rate > 0 else math.inf
        self._next_arrival_us = 0
        self._arrival_times(0)  # the first arrival time, one gap after t = 0
        # Cache per-branch draw parameters and a bound RNG method; the probe
        # path is hot.
        self._ranges = {
            b: self.latency.range_us(b)
            for b in (BRANCH_HIT, BRANCH_MISS_NOTFULL, BRANCH_MISS_FULL)
        }
        self._uniform = {b: (lo, hi - lo + 1) for b, (lo, hi) in self._ranges.items()}
        self._midpoints = {b: (lo + hi) // 2 for b, (lo, hi) in self._ranges.items()}
        # `truncated_gauss` bands, and the skip its unread draws may take.
        self._gauss = {b: (lo, hi, (lo + hi) / 2, (hi - lo) / 6)
                       for b, (lo, hi) in self._ranges.items()}
        self._skip_below = skip_threshold(self._gauss.values())
        self._rand = self._latency_rng.random
        self._noise = self.latency.noise

        # Background keys are indexes 0, 1, ... of the background prefix: the
        # preloaded entries first, then one per arrival. The preload is one
        # batch at t = 0; a usage past capacity evicts at t = 0, as inserts do.
        usage = self.workload.initial_usage
        self.table.admit(self._bg_keys.keys(0, usage), [0] * usage, OWNER_BACKGROUND)

    # -- latency ---------------------------------------------------------

    def _draw_rtt(self, branch: str) -> int:
        noise = self._noise
        if noise == NOISE_UNIFORM:
            lo, span = self._uniform[branch]
            return lo + int(self._rand() * span)
        if noise == NOISE_NONE:
            return self._midpoints[branch]
        return truncated_gauss(self._latency_rng, (self._gauss[branch],))

    def _draw_rtts(self, branches: Iterable[str], count: int, keep: bool) -> list[int]:
        """Make one `_draw_rtt` draw per branch of the `count` > 0 `branches`,
        in order, and return them if `keep`; otherwise only advance the RNG
        exactly as they would, and return an empty list.

        Kept draws are one pass: a comprehension over `random()` for uniform
        noise, one `map` for none, and one `truncated_gauss` call that
        appends each value for truncated Gaussian noise. Unread uniform
        draws are one `getrandbits` call. Unread truncated Gaussian draws
        are one `truncated_gauss` call that skips the Box-Muller math of
        every pair whose deviates land in any band of this switch
        (`skip_threshold`): two `random()` calls and one comparison answer
        both its draws.
        """
        if keep:
            if self._noise == NOISE_UNIFORM:
                rand = self._rand
                return [lo + int(rand() * span)
                        for lo, span in map(self._uniform.__getitem__, branches)]
            if self._noise == NOISE_NONE:
                return list(map(self._midpoints.__getitem__, branches))
            kept: list[int] = []
            truncated_gauss(self._latency_rng, map(self._gauss.__getitem__, branches),
                            0.0, kept)
            return kept
        if self._noise == NOISE_UNIFORM:
            # One random() takes two 32-bit words of the Mersenne Twister,
            # getrandbits(k) takes ceil(k / 32): advance the generator past
            # every draw in one call.
            self._latency_rng.getrandbits(64 * count)
        elif self._noise == NOISE_TRUNCATED_GAUSSIAN:
            truncated_gauss(self._latency_rng, map(self._gauss.__getitem__, branches),
                            self._skip_below)
        return []

    # -- background workload ---------------------------------------------

    def _arrival_times(self, up_to_us: float) -> list[int]:
        """Return the arrival times from `_next_arrival_us` on that are due
        by `up_to_us`, and move `_next_arrival_us` to the first one after.

        Gaps are drawn by inversion from the arrival RNG and floored at
        1 us, so time strictly advances. A gap that is not finite (no
        background traffic, or a rate near or below 1e-302 per s) means no
        further arrival.
        """
        times = []
        at = self._next_arrival_us
        random, rate_us, inf = self._arrival_rng.random, self._rate_us, math.inf
        while at <= up_to_us:
            times.append(at)
            gap_us = -log(1.0 - random()) * rate_us
            at = at + (round(gap_us) or 1) if gap_us < inf else inf
        self._next_arrival_us = at
        return times

    def _process_arrivals(self, up_to_us: int) -> None:
        """Apply every background arrival due by `up_to_us`, as one batch.

        The two RNGs are independent, so the batch draws all arrival times
        first (`_arrival_times`, one loop), installs every arrival in time
        order, then draws the RTTs in the same order through `_draw_rtts`:
        the state is that of handling the arrivals one by one. Each arrival
        is a fresh key of the background prefix, so a lookup could only
        miss; `FlowTable.admit` installs the batch straight away as fresh
        entries (it still rejects a live key), and each is answered as
        `send_probe` answers a miss. With tracing off the RTTs go unread,
        and `_draw_rtts` only advances the latency RNG past them.
        """
        times = self._arrival_times(up_to_us)
        count = len(times)
        first = self.workload.initial_usage + self.background_arrivals
        keys = self._bg_keys.keys(first, first + count)
        full = self.table.admit(keys, times, OWNER_BACKGROUND)
        self.background_arrivals += count
        self.events_processed += count
        trace = self.trace
        branches = [BRANCH_MISS_NOTFULL] * count
        for i in full:
            branches[i] = BRANCH_MISS_FULL
        rtts = self._draw_rtts(branches, count, trace is not None)
        if trace is not None:
            trace += [SimEvent(at, EVENT_BACKGROUND, key, OWNER_BACKGROUND, branch, rtt)
                      for at, key, branch, rtt in zip(times, keys, branches, rtts)]

    # -- public surface ----------------------------------------------------

    def owner_of(self, key: int) -> str:
        return OWNER_BACKGROUND if key >> 32 == _BACKGROUND_ID else OWNER_ATTACKER

    def send_probe(self, key: int, at_us: int) -> RttSample:
        """Deliver one packet at `at_us` and return its observed RTT."""
        if at_us < self.now_us:
            raise ValueError(f"probe time {at_us} precedes simulator time {self.now_us}")
        if self._next_arrival_us <= at_us:
            self._process_arrivals(at_us)
        if self.table.lookup(key, at_us):
            branch = BRANCH_HIT
        else:
            full = self.table.insert(key, at_us, self.owner_of(key)).was_full
            branch = BRANCH_MISS_FULL if full else BRANCH_MISS_NOTFULL
        rtt = self._draw_rtt(branch)
        self.now_us = at_us
        self.events_processed += 1
        if self.trace is not None:
            self.trace.append(SimEvent(at_us, EVENT_PROBE, key, self.owner_of(key),
                                       branch, rtt))
        # RttSample(time_us, key, rtt_us, branch), built without the NamedTuple's
        # Python-level __new__.
        return tuple.__new__(RttSample, (at_us, key, rtt, branch))

    def send_rounds(self, keys: Sequence[int], start_us: int, gap_us: int,
                    stop_rtt_us: float, watch: Optional[int] = None,
                    rtts: Optional[list[int]] = None,
                    ) -> tuple[int, Optional[RttSample]]:
        """Send one round per key from `start_us`, one `gap_us` apart, or
        two gaps apart given `watch`: round i sends `keys[i]` and, given
        `watch`, then `watch` one `gap_us` later.

        Stops after the first round whose last probe has an RTT of at least
        `stop_rtt_us`. Returns the number of rounds sent and that probe's
        sample, or None if every round was sent; each probe's RTT is
        appended to `rtts` if it is given. The result and the simulator's
        state, its trace too, are those of one `send_probe` call per probe.

        Each try first applies the background arrivals due at its time.
        Rounds that no later arrival or expiry can interleave are answered in
        one table pass, with the RTT draws of their probes, which the table
        picks: `FlowTable.touch_run` a run of live keys, given no `watch` and
        the hit band's top below the cut; else `FlowTable.install_run` a run
        of absent keys, given the band of a round's last probe with its top
        below the cut: the miss band without `watch` (the pass then installs
        into free slots only), the hit band with it. A round neither pass
        answers (the one whose install would evict `watch`, for one) is one
        `send_probe` call per probe; then the passes are retried.
        """
        if start_us < self.now_us:
            raise ValueError(f"probe time {start_us} precedes simulator time {self.now_us}")
        # The branches of a round the install pass answers, unless it evicts.
        answered = ([BRANCH_MISS_NOTFULL] if watch is None
                    else [BRANCH_MISS_NOTFULL, BRANCH_HIT])
        per_round = len(answered)
        touch = watch is None and self._ranges[BRANCH_HIT][1] < stop_rtt_us
        install = self._ranges[answered[-1]][1] < stop_rtt_us
        trace = self.trace
        keep = rtts is not None or trace is not None
        kept = rtts if rtts is not None else []  # unread when the caller gave none
        sent = 0
        at_us = start_us
        while sent < len(keys):
            if self._next_arrival_us <= at_us:
                self._process_arrivals(at_us)
            probes = 0
            if touch:
                probes = run = self.table.touch_run(keys, at_us, gap_us,
                                                    self._next_arrival_us, sent)
                # `_draw_rtts` uses up a `repeat`; only the trace reads them again.
                branches = (repeat(BRANCH_HIT, run) if trace is None
                            else [BRANCH_HIT] * run)
            if install and not probes:
                run, full = self.table.install_run(
                    keys, at_us, gap_us, self._next_arrival_us, self.owner_of, sent, watch)
                probes = per_round * run
                branches = answered * run
                for i in full:
                    branches[per_round * i] = BRANCH_MISS_FULL
            if probes:
                drawn = self._draw_rtts(branches, probes, keep)
                kept += drawn
                if trace is not None:
                    probed = keys[sent:sent + run]
                    if watch is not None:
                        probed = [k for key in probed for k in (key, watch)]
                    trace += [SimEvent(t, EVENT_PROBE, key, self.owner_of(key), branch, rtt)
                              for t, key, branch, rtt
                              in zip(count(at_us, gap_us), probed, branches, drawn)]
                sent += run
                at_us += probes * gap_us
                self.now_us = at_us - gap_us
                self.events_processed += probes
                continue
            sample = self.send_probe(keys[sent], at_us)
            if watch is not None:
                kept.append(sample.rtt_us)
                at_us += gap_us
                sample = self.send_probe(watch, at_us)
            kept.append(sample.rtt_us)
            sent += 1
            if sample.rtt_us >= stop_rtt_us:
                return sent, sample
            at_us += gap_us
        return sent, None
