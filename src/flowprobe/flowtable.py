"""Capacity-bounded flow table with FIFO/LRU replacement and timeout expiry.

The table is driven by a single virtual clock (microseconds). Expiry is
evaluated lazily against that clock at lookup/insert/occupancy time; there
is no background timer, so identical event sequences always produce
identical table states.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

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
    """Exact-match header tuple identifying one flow."""

    src_ip: str
    dst_ip: str
    src_mac: str
    dst_mac: str


@dataclass(slots=True)
class FlowEntry:
    """One installed rule.

    Timestamps and timeouts are in microseconds of virtual time. A timeout
    of 0 means disabled (the entry is permanent with respect to that timer).
    """

    key: FlowKey
    inserted_at: int = 0
    last_access: int = 0
    hard_timeout: int = 0
    idle_timeout: int = 0
    owner: str = OWNER_ATTACKER
    seq: int = field(default=0, compare=False)

    def next_deadline(self) -> Optional[int]:
        """Time from which this entry is expired, or None if it never is."""
        deadline = None
        if self.hard_timeout > 0:
            deadline = self.inserted_at + self.hard_timeout
        if self.idle_timeout > 0:
            idle_deadline = self.last_access + self.idle_timeout
            if deadline is None or idle_deadline < deadline:
                deadline = idle_deadline
        return deadline


class InsertResult(NamedTuple):
    evicted: Optional[FlowKey]
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
    key: FlowKey
    owner: str
    reason: str  # EVICTED or EXPIRED


class FlowTable:
    """Bounded store of flow entries with deterministic replacement.

    FIFO evicts the entry with the smallest insertion time. LRU evicts the
    entry with the smallest last-access time, ties broken by earlier
    insertion time, then by insertion sequence number, so the victim is
    always unique.

    One ordered dict, `entries`, is kept in victim order for both policies:
    its first key is the next victim. An insert appends, since the new entry
    sorts last under either rule. FIFO never reorders the dict. An LRU hit
    moves the entry to the back; entries touched in the same microsecond
    still order by insertion time, then sequence number.
    """

    def __init__(self, capacity: int, policy: str = FIFO):
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}, expected one of {POLICIES}")
        self.capacity = capacity
        self.policy = policy
        self.entries: OrderedDict[FlowKey, FlowEntry] = OrderedDict()
        self.removal_log: list[RemovalRecord] = []
        self._lru = policy == LRU
        # Latest time any entry's last_access was set; while it differs from
        # `now`, a refreshed LRU entry is the sole one touched at `now`.
        self._touched_at = -1
        # Lazy min-heap of (deadline, seq, key): one record per live entry
        # with a finite timeout, pushed at insert. A hit only moves an
        # entry's true deadline later, so a record's deadline never exceeds
        # it; hits leave the heap alone, and purge_expired re-pushes a
        # popped record whose entry is still live at its current deadline.
        # Permanent entries never enter the heap.
        self._expiry_heap: list[tuple[int, int, FlowKey]] = []
        self._seq = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self.entries)

    def purge_expired(self, now: int) -> list[FlowKey]:
        """Remove every entry expired at `now`. Idempotent for a fixed `now`."""
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now
        removed: list[FlowKey] = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, seq, key = heapq.heappop(heap)
            entry = self.entries.get(key)
            if entry is None or entry.seq != seq:
                continue  # stale heap record for a replaced/removed entry
            # An entry never hit since its insert is due at this record's
            # deadline, which has passed; only a hit entry's is recomputed.
            deadline = (now if entry.last_access == entry.inserted_at
                        else entry.next_deadline())  # finite: it is in the heap
            if deadline <= now:  # type: ignore[operator]
                del self.entries[key]
                self.removal_log.append(
                    tuple.__new__(RemovalRecord, (now, key, entry.owner, EXPIRED)))
                removed.append(key)
            else:
                # Hits moved the idle deadline forward since the push.
                heapq.heappush(heap, (deadline, seq, key))
        return removed

    def lookup(self, key: FlowKey, now: int) -> bool:
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
        entry = self.entries.get(key)
        if entry is None:
            return False
        if entry.last_access != now:
            entry.last_access = now
            if self._lru:
                self.entries.move_to_end(key)
                if self._touched_at == now:
                    self._order_tail(entry, now)
                self._touched_at = now
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

    def touch_run(self, keys: Sequence[FlowKey], start_us: int, gap_us: int,
                  until_us: float, first: int = 0) -> int:
        """Answer the leading hits of `keys[first:]`, looked up at `start_us`,
        `start_us + gap_us`, ...; return how many were answered.

        Each answered key is handled exactly as a hitting `lookup` at its
        time would handle it. The run stops at the first missing key and
        before the first time at or after `until_us` or the earliest expiry
        deadline, where a lookup could purge. It answers nothing when
        `gap_us < 1` or `start_us` is not after the latest LRU touch, where
        a hit could tie with another touched in the same microsecond, or
        when `start_us` is before the table's clock, which `lookup` rejects;
        a run that cannot answer its first key costs O(1).
        """
        if gap_us < 1 or start_us <= self._touched_at or start_us < self._now:
            return 0
        entries = self.entries
        count = self._run_length(len(keys) - first, start_us, gap_us, until_us)
        if count <= 0 or keys[first] not in entries:
            return 0
        get = entries.get
        move_to_end = entries.move_to_end
        lru = self._lru
        now = start_us
        for key in keys[first:first + count]:
            entry = get(key)
            if entry is None:
                break
            entry.last_access = now
            if lru:
                move_to_end(key)
            now += gap_us
        self._now = now - gap_us
        if lru:
            self._touched_at = self._now
        return (now - start_us) // gap_us

    def install_run(self, keys: Sequence[FlowKey], start_us: int, gap_us: int,
                    until_us: float, hard_timeout: int, idle_timeout: int,
                    owner_of: Callable[[FlowKey], str], first: int = 0) -> int:
        """Install the leading absent keys of `keys[first:]`, missed at
        `start_us`, `start_us + gap_us`, ..., for `owner_of(key)` exactly as
        `insert` would; return how many were installed.

        The run stops at the first live key and once the table is full, so
        it never evicts, and before `until_us`, the earliest expiry deadline
        and its own first entry's deadline, so nothing falls due inside it.
        A gap of 0 installs every key at `start_us`. It installs nothing when
        `gap_us < 0` or `start_us` is before the table's clock; a run that
        cannot install its first key costs O(1).
        """
        entries = self.entries
        free = self.capacity - len(entries)
        if (gap_us < 0 or start_us < self._now or free <= 0
                or first >= len(keys) or keys[first] in entries):
            return 0
        # As in `insert`: the timeout after which a new entry falls due.
        timeout = (min(hard_timeout, idle_timeout) if hard_timeout > 0 and idle_timeout > 0
                   else max(hard_timeout, idle_timeout))
        if timeout:
            until_us = min(until_us, start_us + timeout)
        count = self._run_length(min(len(keys) - first, free), start_us, gap_us,
                                 until_us)
        if count <= 0:
            return 0
        heap = self._expiry_heap
        seq = before = self._seq
        now = start_us
        for key in keys[first:first + count]:
            if key in entries:
                break
            seq += 1
            entries[key] = FlowEntry(key, now, now, hard_timeout, idle_timeout,
                                     owner_of(key), seq)
            if timeout:
                heapq.heappush(heap, (now + timeout, seq, key))
            now += gap_us
        self._seq = seq
        self._now = self._touched_at = now - gap_us
        return seq - before

    def _order_tail(self, entry: FlowEntry, now: int) -> None:
        """Move entries touched at `now` and inserted after `entry` behind it."""
        rank = (entry.inserted_at, entry.seq)
        later = []
        tail = reversed(self.entries.values())
        next(tail)  # `entry` itself
        for other in tail:
            if other.last_access != now or (other.inserted_at, other.seq) < rank:
                break
            later.append(other.key)
        for key in reversed(later):
            self.entries.move_to_end(key)

    def insert(self, entry: FlowEntry, now: int) -> InsertResult:
        """Install `entry` at `now`, evicting one victim if the table is full.

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
        entries = self.entries
        key = entry.key
        if key in entries:
            raise DuplicateEntryError(f"live entry already installed for {key}")

        if len(entries) >= self.capacity:
            evicted_key, victim = entries.popitem(last=False)
            # RemovalRecord(time, key, owner, reason), built as InsertResult is.
            self.removal_log.append(
                tuple.__new__(RemovalRecord, (now, evicted_key, victim.owner, EVICTED)))
            result = tuple.__new__(InsertResult, (evicted_key, True))
        else:
            result = _NOT_FULL

        self._seq += 1
        seq = entry.seq = self._seq
        entry.inserted_at = entry.last_access = self._touched_at = now
        entries[key] = entry
        hard, idle = entry.hard_timeout, entry.idle_timeout
        if hard > 0 or idle > 0:
            # next_deadline() of an entry inserted and last touched at `now`.
            timeout = min(hard, idle) if hard > 0 and idle > 0 else max(hard, idle)
            heapq.heappush(heap, (now + timeout, seq, key))
        return result

    def occupancy(self, now: int) -> Occupancy:
        """Live entry counts per owner after purging expirations at `now`."""
        self.purge_expired(now)
        attacker = 0
        for entry in self.entries.values():
            if entry.owner == OWNER_ATTACKER:
                attacker += 1
        return Occupancy(attacker, len(self.entries) - attacker)
