"""Capacity-bounded flow table with FIFO/LRU replacement and timeout expiry.

The table is driven by a single virtual clock (microseconds). Expiry is
evaluated lazily against that clock at lookup/insert/occupancy time; there
is no background timer, so identical event sequences always produce
identical table states.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict, deque
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
    """One installed rule. Timestamps are in microseconds of virtual time;
    its hard and idle timeouts are its table's."""

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

    One ordered dict is kept in victim order for both policies: its first
    key is the next victim. An insert appends, since the new entry sorts
    last under either rule. FIFO never reorders the dict. An LRU hit moves
    the entry to the back; entries touched in the same microsecond still
    order by insertion time, then sequence number.

    Every entry takes the table's `hard_timeout` and `idle_timeout`, set at
    construction. `insert` stores a `FlowEntry` with its own heap record.
    `admit` and `install_run` append fresh entries: bare `(inserted_at, seq,
    owner)` values, due in insert order whatever their owner. A deque holds
    `(inserted_at, seq, key)` per live one; one heap record `(deadline, seq)`
    stands for its head, and is early once that head is gone, as a hit
    entry's record may be. It sorts before any `(deadline, seq, key)` record
    it ties with, so the heap never compares keys. A lookup hit thaws one
    into its `FlowEntry` in place.
    """

    def __init__(self, capacity: int, policy: str = FIFO, hard_timeout: int = 0,
                 idle_timeout: int = 0):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.hard_timeout = hard_timeout
        self.idle_timeout = idle_timeout
        self._entries: OrderedDict[Hashable, FlowEntry | tuple[int, int, str]] = OrderedDict()
        self.removal_log: list[RemovalRecord] = []
        # How long after its insert an entry never hit falls due (the smaller
        # enabled timeout, or 0 if neither is), the fresh queue, and whether
        # its head has a heap record.
        self._timeout = (min(hard_timeout, idle_timeout)
                         if hard_timeout > 0 and idle_timeout > 0
                         else max(hard_timeout, idle_timeout))
        self._fresh: deque[tuple[int, int, Hashable]] = deque()
        self._queued = False
        self._lru = policy == LRU
        # Latest time any entry's last_access was set; while it differs from
        # `now`, a refreshed LRU entry is the sole one touched at `now`.
        self._touched_at = -1
        # Lazy min-heap of (deadline, seq, key): one record per live entry
        # with a finite timeout, pushed at insert, and the fresh queue's
        # (deadline, seq) for the fresh entries. A hit only moves an
        # entry's true deadline later, so a record's deadline never exceeds
        # it; hits leave the heap alone, and purge_expired re-pushes a
        # popped record whose entry is still live at its current deadline.
        # Permanent entries never enter the heap.
        self._expiry_heap: list[tuple] = []
        self._seq = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> OrderedDict[Hashable, FlowEntry]:
        """The live entries in victim order, each as a `FlowEntry`."""
        if not self._fresh:
            return self._entries
        return OrderedDict((key, self._as_entry(key, value) if value.__class__ is tuple
                            else value) for key, value in self._entries.items())

    def _as_entry(self, key: Hashable, value: tuple[int, int, str]) -> FlowEntry:
        at, seq, owner = value
        return FlowEntry(key, at, at, owner, seq)

    def _queue_fresh(self) -> None:
        """Give the fresh queue's head a heap record if the heap holds none."""
        if self._fresh and self._timeout and not self._queued:
            at, seq, _ = self._fresh[0]
            heapq.heappush(self._expiry_heap, (at + self._timeout, seq))
            self._queued = True

    def purge_expired(self, now: int) -> list[Hashable]:
        """Remove every entry expired at `now`. Idempotent for a fixed `now`."""
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        removed: list[Hashable] = []
        heap, entries, fresh = self._expiry_heap, self._entries, self._fresh
        while heap and heap[0][0] <= now:
            record = heapq.heappop(heap)
            if len(record) < 3:  # the fresh queue's, early unless it is its head's
                self._queued = False
                if fresh and fresh[0][1] == record[1]:
                    key = fresh.popleft()[2]
                    self.removal_log.append(tuple.__new__(
                        RemovalRecord, (now, key, entries.pop(key)[2], EXPIRED)))
                    removed.append(key)
                self._queue_fresh()
                continue
            _, seq, key = record
            entry = entries.get(key)
            if entry.__class__ is not FlowEntry or entry.seq != seq:
                continue  # stale heap record for a replaced/removed entry
            # An entry never hit since its insert is due at this record's
            # deadline, which has passed; only a hit entry's is recomputed.
            deadline = (now if entry.last_access == entry.inserted_at
                        else self._deadline(entry))
            if deadline <= now:
                del entries[key]
                self.removal_log.append(
                    tuple.__new__(RemovalRecord, (now, key, entry.owner, EXPIRED)))
                removed.append(key)
            else:
                # Hits moved the idle deadline forward since the push.
                heapq.heappush(heap, (deadline, seq, key))
        return removed

    def _deadline(self, entry: FlowEntry) -> int:
        """Time from which `entry`, in a table with a timeout, is expired."""
        hard, idle = self.hard_timeout, self.idle_timeout
        if hard and (not idle or entry.inserted_at + hard < entry.last_access + idle):
            return entry.inserted_at + hard
        return entry.last_access + idle

    def lookup(self, key: Hashable, now: int) -> bool:
        """Return True on hit. A hit refreshes the entry's last-access time.

        Under FIFO the refresh only feeds the idle timer; eviction order is
        insertion order regardless of accesses.
        """
        # Hot path: skip the purge machinery unless something can expire now.
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        entry = self._entries.get(key)
        if entry is None:
            return False
        try:  # only reading `last_access` of a fresh entry (a tuple) raises
            if entry.last_access != now:
                entry.last_access = now
                if self._lru:
                    self._entries.move_to_end(key)
                    if self._touched_at == now:
                        self._order_tail(entry, now)
                    self._touched_at = now
        except AttributeError:  # thaw it in place, with a heap record; hit again
            entry = self._entries[key] = self._as_entry(key, entry)
            self._fresh.remove((entry.inserted_at, entry.seq, key))
            if self._timeout:
                heapq.heappush(heap, (entry.inserted_at + self._timeout, entry.seq, key))
            return self.lookup(key, now)
        return True

    def _run_length(self, count: int, start_us: int, gap_us: int,
                    until_us: float) -> int:
        """How many of the `count` send times `start_us`, `start_us + gap_us`,
        ... fall before `until_us` and the earliest expiry deadline, where a
        lookup or insert could purge."""
        heap = self._expiry_heap
        if heap and heap[0][0] < until_us:
            until_us = heap[0][0]
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
        time would handle it. The run stops at the first missing or fresh
        key (a lookup thaws it) and before the first time at or after
        `until_us` or the earliest expiry deadline, where a lookup could
        purge. It answers nothing when `gap_us < 1` or `start_us` is not
        after the latest LRU touch, where a hit could tie with another
        touched in the same microsecond, or when `start_us` is before the
        table's clock, which `lookup` rejects; a run that cannot answer its
        first key costs O(1).
        """
        if gap_us < 1 or start_us <= self._touched_at or start_us < self._now:
            return 0
        entries = self._entries
        count = self._run_length(len(keys) - first, start_us, gap_us, until_us)
        if count <= 0 or entries.get(keys[first]).__class__ is not FlowEntry:
            return 0
        get = entries.get
        move_to_end = entries.move_to_end
        lru = self._lru
        now = start_us
        for key in keys[first:first + count]:
            try:
                get(key).last_access = now
            except AttributeError:  # absent (None) or fresh (a tuple)
                break
            if lru:
                move_to_end(key)
            now += gap_us
        self._now = now - gap_us
        if lru:
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
        found the table full. The installs are fresh entries, as `admit`
        appends them.

        The run stops at the first live key; without `watch` once the table
        is full, so it never evicts, and with it at the round whose install
        would evict `watch`. It stops before the first time at or after
        `until_us`, the earliest expiry deadline and its own first entry's
        deadline, so nothing falls due inside it. Without `watch` a gap of 0
        installs every key at `start_us`. It answers nothing when `gap_us < 0`,
        when `watch` is given but absent or fresh (a lookup thaws it) or
        `gap_us < 1`, or when `start_us` is before the table's clock; a run
        that cannot answer its first round costs O(1).
        """
        entries = self._entries
        watched = entries.get(watch)  # None without `watch`
        if (gap_us < 0 or start_us < self._now or first >= len(keys)
                or keys[first] in entries or (watch is not None and (
                    gap_us < 1 or watched.__class__ is not FlowEntry))):
            return 0, []
        if self._timeout:
            until_us = min(until_us, start_us + self._timeout)
        if watch is None:  # at most the free slots: the run never evicts
            count, step = min(len(keys) - first, self.capacity - len(entries)), gap_us
        else:
            count, step = len(keys) - first, 2 * gap_us
        # A round's last time is its last probe's: with `watch`, its lookup's.
        count = self._run_length(count, start_us + step - gap_us, step, until_us)
        fresh, capacity, lru = self._fresh, self.capacity, self._lru
        full: list[int] = []
        seq = before = self._seq
        now = start_us
        for key in keys[first:first + count]:
            if key in entries:
                break
            if len(entries) >= capacity:  # only with `watch`
                if next(iter(entries)) == watch:
                    break
                self._evict(now)
                full.append(seq - before)
            seq += 1
            entries[key] = (now, seq, owner_of(key))
            fresh.append((now, seq, key))
            now += gap_us
            if watched is not None:
                watched.last_access = now
                if lru:
                    entries.move_to_end(watch)
                now += gap_us
        if seq > before:
            self._seq = seq
            self._now = now - gap_us
            # An insert touches at its time; only an LRU hit does at its own.
            self._touched_at = self._now if lru else now - step
            self._queue_fresh()
        return seq - before, full

    def _order_tail(self, entry: FlowEntry, now: int) -> None:
        """Move entries touched at `now` and inserted after `entry` behind it."""
        rank = (entry.inserted_at, entry.seq)
        later = []
        tail = reversed(self._entries.items())
        next(tail)  # `entry` itself
        for key, other in tail:
            other = self._as_entry(key, other) if other.__class__ is tuple else other
            if other.last_access != now or (other.inserted_at, other.seq) < rank:
                break
            later.append(key)
        for key in reversed(later):
            self._entries.move_to_end(key)

    def _evict(self, now: int) -> Hashable:
        """Evict the next victim at `now` and return its key."""
        key, victim = self._entries.popitem(last=False)
        if victim.__class__ is FlowEntry:
            owner = victim.owner
        else:  # a fresh entry, the fresh queue's head
            self._fresh.popleft()
            owner = victim[2]
        # RemovalRecord(time, key, owner, reason), built as InsertResult is.
        self.removal_log.append(tuple.__new__(RemovalRecord, (now, key, owner, EVICTED)))
        return key

    def insert(self, key: Hashable, now: int, owner: str = OWNER_ATTACKER) -> InsertResult:
        """Install `key` for `owner` at `now` as a `FlowEntry` with its own
        heap record, evicting one victim if the table is full.

        The caller is expected to have observed a miss first; inserting over
        a live key raises DuplicateEntryError (a simulator bug, not a domain
        outcome).
        """
        # As in `lookup`: skip the purge unless something can expire now.
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        heap = self._expiry_heap
        if heap and heap[0][0] <= now:
            self.purge_expired(now)
        entries = self._entries
        if key in entries:
            raise DuplicateEntryError(f"live entry already installed for {key}")

        if len(entries) >= self.capacity:
            result = tuple.__new__(InsertResult, (self._evict(now), True))
        else:
            result = _NOT_FULL

        self._seq = seq = self._seq + 1
        self._touched_at = now
        # FlowEntry(key, inserted_at, last_access, owner, seq), positional,
        # which the generated __init__ binds fastest.
        entries[key] = FlowEntry(key, now, now, owner, seq)
        if self._timeout:
            heapq.heappush(heap, (now + self._timeout, seq, key))
        return result

    def admit(self, keys: Sequence[Hashable], times: Sequence[int], owner: str) -> list[int]:
        """Insert `keys[i]` at `times[i]` for `owner` as fresh entries,
        exactly as one `insert` per key would; return the indexes of the
        inserts that found the table full."""
        timeout = self._timeout
        entries, fresh, heap = self._entries, self._fresh, self._expiry_heap
        full: list[int] = []
        # No fresh entry falls due before `fresh_due` (`now` bounds an empty
        # queue's next entry), no other before `other_due`; both start at
        # the heap's top, and a purge makes them exact. Between purges, due
        # fresh entries expire here, leaving the queue record early.
        fresh_due = other_due = heap[0][0] if heap else math.inf
        for i, key in enumerate(keys):
            now = times[i]
            if now < self._now:
                raise ClockError(f"clock went backwards: {now} < {self._now}")
            self._now = now
            if now >= fresh_due or now >= other_due:
                if now >= other_due:
                    self.purge_expired(now)
                    other_due = self._other_due()
                elif timeout:
                    while fresh and fresh[0][0] + timeout <= now:
                        gone = fresh.popleft()[2]
                        self.removal_log.append(tuple.__new__(
                            RemovalRecord, (now, gone, entries.pop(gone)[2], EXPIRED)))
                fresh_due = ((fresh[0][0] if fresh else now) + timeout if timeout
                             else math.inf)
            if key in entries:
                raise DuplicateEntryError(f"live entry already installed for {key}")
            if len(entries) >= self.capacity:
                self._evict(now)
                full.append(i)
            self._seq = seq = self._seq + 1
            self._touched_at = now
            entries[key] = (now, seq, owner)
            fresh.append((now, seq, key))
            if timeout and not self._queued:  # `key` heads the fresh queue
                self._queue_fresh()
                fresh_due = now + timeout
        return full

    def _other_due(self) -> float:
        """The earliest deadline in the heap but the queue record's, which
        may be heap[0]; then the next is one of its children."""
        heap = self._expiry_heap
        return (heap[0] if heap and len(heap[0]) == 3
                else min(heap[1:3], default=(math.inf,)))[0]

    def occupancy(self, now: int) -> Occupancy:
        """Live entry counts per owner after purging expirations at `now`."""
        self.purge_expired(now)
        attacker = sum((value.owner if value.__class__ is FlowEntry else value[2])
                       == OWNER_ATTACKER for value in self._entries.values())
        return Occupancy(attacker, len(self._entries) - attacker)
