"""Capacity-bounded flow table with FIFO/LRU replacement and timeout expiry.

The table is driven by a single virtual clock (microseconds). Expiry is
evaluated lazily against that clock at lookup/insert/occupancy time; there
is no background timer, so identical event sequences always produce
identical table states.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

FIFO = "FIFO"
LRU = "LRU"
POLICIES = (FIFO, LRU)

OWNER_ATTACKER = "attacker"
OWNER_BACKGROUND = "background"

EVICTED = "evicted"  # removed by replacement policy
EXPIRED = "expired"  # removed by hard/idle timeout


class DuplicateEntryError(Exception):
    """Insert was called for a key that already has a live entry."""


class ClockError(Exception):
    """An operation was issued with a timestamp earlier than one already seen."""


class FlowKey(NamedTuple):
    """Exact-match header tuple identifying one flow: the display form of a
    simulator's int flow key, via `flow_key`. A table takes any hashable
    key."""

    src_ip: str
    dst_ip: str
    src_mac: str
    dst_mac: str


@dataclass(slots=True)
class FlowEntry:
    """A copy of one installed rule, as `FlowTable.entries` gives it.
    Timestamps are in microseconds of virtual time; its hard and idle
    timeouts are its table's."""

    key: Hashable
    inserted_at: int = 0
    last_access: int = 0
    owner: str = OWNER_ATTACKER
    seq: int = field(default=0, compare=False)


class InsertResult(NamedTuple):
    evicted: Optional[Hashable]
    was_full: bool


_NOT_FULL = InsertResult(None, False)


class Occupancy(NamedTuple):
    attacker: int
    background: int

    @property
    def total(self) -> int:
        return self.attacker + self.background


class RemovalRecord(NamedTuple):
    time: int
    key: Hashable
    owner: str
    reason: str  # EVICTED or EXPIRED


class FlowTable:
    """Bounded store of flow entries with deterministic replacement.

    FIFO evicts the entry with the smallest insertion time. LRU evicts the
    entry with the smallest last-access time, ties broken by earlier
    insertion time, then by insertion sequence number, so the victim is
    always unique.

    Two ordered dicts hold the live entries, `_born` in insertion order and
    `_used` in access order, and map each key to one mutable record
    `[inserted_at, seq, owner, last_access]`. An insert appends to both;
    every hit sets the record's last access and moves its key to the back
    of `_used`, under either policy (LRU entries touched in one microsecond
    still order by insertion). FIFO's victim is `_born`'s head, LRU's
    `_used`'s.

    Every entry takes the table's `hard_timeout` and `idle_timeout`, so hard
    deadlines rise along `_born` and idle deadlines along `_used`, and only
    a head can fall due next. `_hard_due` and `_idle_due` are at or below
    their head's deadline (a hit only moves a deadline later), and `_due` is
    the smaller; a timer's heads are removed only once its own due passes.

    With `log`, every eviction and expiry appends a `RemovalRecord` to
    `removal_log`; without it `removal_log` stays empty.
    """

    def __init__(self, capacity: int, policy: str = FIFO, hard_timeout: int = 0,
                 idle_timeout: int = 0, log: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.hard_timeout = hard_timeout
        self.idle_timeout = idle_timeout
        self._born: OrderedDict[Hashable, list] = OrderedDict()
        self._used: OrderedDict[Hashable, list] = OrderedDict()
        self._lru = policy == LRU
        self._victims, self._others = ((self._used, self._born) if self._lru
                                       else (self._born, self._used))
        self.removal_log: list[RemovalRecord] = []
        self._log = self.removal_log if log else None  # where removals go
        # Latest time any entry's last_access was set; while it differs from
        # `now`, a refreshed LRU entry is the sole one touched at `now`.
        self._touched_at = -1
        # Lower bounds on the next deadline of each enabled timer, from the
        # empty table at time 0; a disabled timer is never due.
        self._hard_due = hard_timeout or math.inf
        self._idle_due = idle_timeout or math.inf
        self._due = min(self._hard_due, self._idle_due)
        self._seq = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self._born)

    @property
    def entries(self) -> OrderedDict[Hashable, FlowEntry]:
        """A copy of the live entries in victim order, each as a `FlowEntry`."""
        return OrderedDict((key, FlowEntry(key, at, last, owner, seq))
                           for key, (at, seq, owner, last) in self._victims.items())

    def purge_expired(self, now: int) -> list[Hashable]:
        """Remove every entry expired at `now`. Idempotent for a fixed `now`."""
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        removed: list[RemovalRecord] = []
        if self._due <= now:
            log, self._log = self._log, removed
            self._expire(now)
            self._log = log
            if log is not None:
                log += removed
        return [record.key for record in removed]

    def _expire(self, now: int) -> None:
        """Remove the entries due at `now` of each timer whose due has
        passed, and refresh `_due`."""
        if self._hard_due <= now:
            self._hard_due = self._expire_head(self._born, 0, self.hard_timeout, now)
        if self._idle_due <= now:
            self._idle_due = self._expire_head(self._used, 3, self.idle_timeout, now)
        hard_due, idle_due = self._hard_due, self._idle_due
        self._due = hard_due if hard_due < idle_due else idle_due

    def _expire_head(self, order: OrderedDict, field: int, timeout: int,
                     now: int) -> float:
        """Remove the heads of `order` due at `now`, at `record[field] +
        timeout`, and return the next head's deadline. Once the table is
        empty, every later entry goes in at `now` or after, so each enabled
        timer's due becomes its timeout after `now`."""
        born, used, log = self._born, self._used, self._log
        while order:
            key = next(iter(order))
            record = order[key]
            if record[field] + timeout > now:
                return record[field] + timeout
            del born[key], used[key]
            if log is not None:
                # RemovalRecord(time, key, owner, reason), built as InsertResult is.
                log.append(tuple.__new__(RemovalRecord, (now, key, record[2], EXPIRED)))
        hard, idle = self.hard_timeout, self.idle_timeout
        self._hard_due = now + hard if hard else math.inf
        self._idle_due = now + idle if idle else math.inf
        return now + timeout

    def lookup(self, key: Hashable, now: int) -> bool:
        """Return True on hit. A hit refreshes the entry's last-access time.

        Under FIFO the refresh only feeds the idle timer; eviction order is
        insertion order regardless of accesses.
        """
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        if self._due <= now:
            self._expire(now)
        record = self._used.get(key)
        if record is None:
            return False
        if record[3] != now:
            record[3] = now
            self._used.move_to_end(key)
            if self._lru:
                if self._touched_at == now:
                    self._order_tail(record[1], now)
                self._touched_at = now
        return True

    def _run_length(self, count: int, start_us: int, gap_us: int,
                    until_us: float) -> int:
        """How many of the `count` send times `start_us`, `start_us + gap_us`,
        ... fall before `until_us` and `_due`, where a lookup or insert could
        purge."""
        if self._due < until_us:
            until_us = self._due
        if start_us >= until_us:
            return 0
        # Compared on the integer side: `start_us` may lie past float range.
        if start_us + count * gap_us > until_us:
            count = -int((start_us - until_us) // gap_us)
        return count

    def touch_run(self, keys: Sequence[Hashable], start_us: int, gap_us: int,
                  until_us: float, first: int = 0) -> int:
        """Answer the leading hits of `keys[first:]`, looked up at `start_us`,
        `start_us + gap_us`, ...; return how many were answered.

        Each answered key is handled exactly as a hitting `lookup` at its
        time would handle it. The run stops at the first missing key and
        before the first time at or after `until_us` or `_due`, where a
        lookup could purge. It answers nothing when `gap_us < 1` or
        `start_us` is not after the latest LRU touch, where a hit could tie
        with another touched in the same microsecond, or when `start_us` is
        before the table's clock, which `lookup` rejects; a run that cannot
        answer its first key costs O(1).
        """
        if gap_us < 1 or start_us <= self._touched_at or start_us < self._now:
            return 0
        used = self._used
        count = self._run_length(len(keys) - first, start_us, gap_us, until_us)
        if count <= 0 or keys[first] not in used:
            return 0
        get = used.get
        move_to_end = used.move_to_end
        now = start_us
        for key in keys if count == len(keys) else keys[first:first + count]:
            try:
                get(key)[3] = now
            except TypeError:  # absent: `get` gave None
                break
            move_to_end(key)
            now += gap_us
        self._now = now - gap_us
        if self._lru:
            self._touched_at = self._now
        return (now - start_us) // gap_us

    def install_run(self, keys: Sequence[Hashable], start_us: int, gap_us: int,
                    until_us: float, owner_of: Callable[[Hashable], str], first: int = 0,
                    watch: Optional[Hashable] = None) -> tuple[int, list[int]]:
        """Answer the leading rounds of `keys[first:]`, which start at
        `start_us` one `gap_us` apart, or two gaps apart given `watch`: round
        i installs the absent `keys[first + i]`, missed at its start, for
        `owner_of(key)` exactly as `insert` would, and given `watch` then
        looks up `watch` one `gap_us` later, a hit. Return how many rounds
        were answered and the indexes (from `first`) of the installs that
        found the table full.

        The run stops at the first live key; without `watch` once the table
        is full, so it never evicts, and with it at the round whose install
        would evict `watch`. It stops before the first time at or after
        `until_us` or `_due`, which no deadline of a live or later entry
        precedes. Without `watch` a gap of 0 installs every key at `start_us`. It
        answers nothing when `gap_us < 0`, when `watch` is given but absent
        or `gap_us < 1`, or when `start_us` is before the table's clock; a
        run that cannot answer its first round costs O(1).
        """
        born, used = self._born, self._used
        watched = used.get(watch)  # None without `watch`
        if (gap_us < 0 or start_us < self._now or first >= len(keys)
                or keys[first] in born or (watch is not None and (
                    gap_us < 1 or watched is None))):
            return 0, []
        if watch is None:  # at most the free slots: the run never evicts
            count, step = min(len(keys) - first, self.capacity - len(born)), gap_us
        else:
            count, step = len(keys) - first, 2 * gap_us
        # A round's last time is its last probe's: with `watch`, its lookup's.
        count = self._run_length(count, start_us + step - gap_us, step, until_us)
        capacity, victims = self.capacity, self._victims
        full: list[int] = []
        seq = before = self._seq
        now = start_us
        for key in keys[first:first + count]:
            if key in born:
                break
            if len(born) >= capacity:  # only with `watch`
                if next(iter(victims)) == watch:
                    break
                self._evict(now)
                full.append(seq - before)
            seq += 1
            born[key] = used[key] = [now, seq, owner_of(key), now]
            now += gap_us
            if watched is not None:
                watched[3] = now
                used.move_to_end(watch)
                now += gap_us
        if seq > before:
            self._seq = seq
            self._now = now - gap_us
            # An insert touches at its time; only an LRU hit does at its own.
            self._touched_at = self._now if self._lru else now - step
        return seq - before, full

    def _order_tail(self, seq: int, now: int) -> None:
        """Move the entries touched at `now` and inserted after entry `seq` behind it."""
        later = []
        tail = reversed(self._used.items())
        next(tail)  # entry `seq` itself
        for key, record in tail:
            if record[3] != now or record[1] < seq:
                break
            later.append(key)
        for key in reversed(later):
            self._used.move_to_end(key)

    def _evict(self, now: int) -> Hashable:
        """Evict the next victim at `now` and return its key."""
        key, record = self._victims.popitem(last=False)
        del self._others[key]
        if self._log is not None:
            self._log.append(tuple.__new__(RemovalRecord, (now, key, record[2], EVICTED)))
        return key

    def insert(self, key: Hashable, now: int, owner: str = OWNER_ATTACKER) -> InsertResult:
        """Install `key` for `owner` at `now`, evicting one victim if the
        table is full.

        The caller is expected to have observed a miss first; inserting over
        a live key raises DuplicateEntryError (a simulator bug, not a domain
        outcome).
        """
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        if self._due <= now:
            self._expire(now)
        born = self._born
        if key in born:
            raise DuplicateEntryError(f"live entry already installed for {key}")
        result = (tuple.__new__(InsertResult, (self._evict(now), True))
                  if len(born) >= self.capacity else _NOT_FULL)
        self._seq = seq = self._seq + 1
        self._touched_at = now
        born[key] = self._used[key] = [now, seq, owner, now]
        return result

    def admit(self, keys: Sequence[Hashable], times: Sequence[int], owner: str) -> list[int]:
        """Insert `keys[i]` at `times[i]` for `owner`, exactly as one
        `insert` per key would; return the indexes of the inserts that found
        the table full."""
        born, used = self._born, self._used
        capacity = self.capacity
        full: list[int] = []
        due = self._due  # only `_expire` moves it
        for i, key in enumerate(keys):
            now = times[i]
            if now < self._now:
                raise ClockError(f"clock went backwards: {now} < {self._now}")
            self._now = now
            if due <= now:
                self._expire(now)
                due = self._due
            if key in born:
                raise DuplicateEntryError(f"live entry already installed for {key}")
            if len(born) >= capacity:
                self._evict(now)
                full.append(i)
            self._seq = seq = self._seq + 1
            self._touched_at = now
            born[key] = used[key] = [now, seq, owner, now]
        return full

    def occupancy(self, now: int) -> Occupancy:
        """Live entry counts per owner after purging expirations at `now`."""
        self.purge_expired(now)
        attacker = sum(record[2] == OWNER_ATTACKER for record in self._born.values())
        return Occupancy(attacker, len(self._born) - attacker)
