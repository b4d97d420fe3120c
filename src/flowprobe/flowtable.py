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
from typing import NamedTuple, Optional

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

    def is_expired(self, now: int) -> bool:
        if self.hard_timeout > 0 and now - self.inserted_at >= self.hard_timeout:
            return True
        if self.idle_timeout > 0 and now - self.last_access >= self.idle_timeout:
            return True
        return False

    def next_deadline(self) -> Optional[int]:
        """Earliest future time at which this entry could expire, or None."""
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
        # Lazy min-heap of (deadline, seq, key); entries with no finite
        # timeout never enter it, so the common permanent-entry case pays
        # nothing for expiry checks.
        self._expiry_heap: list[tuple[int, int, FlowKey]] = []
        self._seq = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self.entries)

    def _advance(self, now: int) -> None:
        if now < self._now:
            raise ClockError(f"clock went backwards: {now} < {self._now}")
        self._now = now

    def purge_expired(self, now: int) -> list[FlowKey]:
        """Remove every entry expired at `now`. Idempotent for a fixed `now`."""
        self._advance(now)
        removed: list[FlowKey] = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, seq, key = heapq.heappop(heap)
            entry = self.entries.get(key)
            if entry is None or entry.seq != seq:
                continue  # stale heap record for a replaced/removed entry
            if entry.is_expired(now):
                del self.entries[key]
                self.removal_log.append(RemovalRecord(now, key, entry.owner, EXPIRED))
                removed.append(key)
            else:
                # Idle deadline moved forward since the record was pushed.
                deadline = entry.next_deadline()
                if deadline is not None:
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
            if entry.idle_timeout > 0:
                heapq.heappush(
                    heap, (entry.next_deadline(), entry.seq, key),  # type: ignore[arg-type]
                )
            if self._lru:
                self.entries.move_to_end(key)
                if self._touched_at == now:
                    self._order_tail(entry, now)
                self._touched_at = now
        return True

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
        self.purge_expired(now)
        if entry.key in self.entries:
            raise DuplicateEntryError(f"live entry already installed for {entry.key}")

        was_full = len(self.entries) >= self.capacity
        evicted_key: Optional[FlowKey] = None
        if was_full:
            evicted_key, victim = self.entries.popitem(last=False)
            self.removal_log.append(
                RemovalRecord(now, evicted_key, victim.owner, EVICTED)
            )

        self._seq += 1
        entry.inserted_at = entry.last_access = self._touched_at = now
        entry.seq = self._seq
        self.entries[entry.key] = entry
        deadline = entry.next_deadline()
        if deadline is not None:
            heapq.heappush(self._expiry_heap, (deadline, entry.seq, entry.key))
        return InsertResult(evicted_key, was_full)

    def occupancy(self, now: int) -> Occupancy:
        """Live entry counts per owner after purging expirations at `now`."""
        self.purge_expired(now)
        attacker = 0
        for entry in self.entries.values():
            if entry.owner == OWNER_ATTACKER:
                attacker += 1
        return Occupancy(attacker, len(self.entries) - attacker)
