"""Scan-based reference models used to cross-check the real implementations.

These replay the same rules as the production flow table but with none of
its machinery: plain dicts, full-scan purges and min() victim selection.
Divergence between the two on any trace is a bug in one of them.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass
class OracleEntry:
    inserted: int
    last_access: int
    hard: int
    idle: int
    owner: str
    seq: int

    def expired(self, now: int) -> bool:
        if self.hard > 0 and now - self.inserted >= self.hard:
            return True
        if self.idle > 0 and now - self.last_access >= self.idle:
            return True
        return False


class ReplayOracle:
    """Replays lookup/insert traces by rule; FIFO or LRU victim selection."""

    def __init__(self, capacity: int, policy: str):
        assert policy in ("FIFO", "LRU")
        self.capacity = capacity
        self.policy = policy
        self.entries: dict = {}
        # (time, key, owner, reason) per removal, reason "evicted" or "expired"
        self.removal_log: list = []
        self._seq = 0

    def purge(self, now: int) -> list:
        dead = [k for k, e in self.entries.items() if e.expired(now)]
        for key in dead:
            self.removal_log.append((now, key, self.entries.pop(key).owner, "expired"))
        return dead

    def lookup(self, key, now: int) -> bool:
        self.purge(now)
        entry = self.entries.get(key)
        if entry is None:
            return False
        entry.last_access = now
        return True

    def live_count(self, now: int) -> int:
        self.purge(now)
        return len(self.entries)

    def insert(self, key, now: int, hard: int = 0, idle: int = 0,
               owner: str = "attacker") -> tuple[Optional[object], bool]:
        """Returns (evicted_key_or_None, was_full)."""
        self.purge(now)
        assert key not in self.entries, "oracle: duplicate insert"
        was_full = len(self.entries) >= self.capacity
        evicted = None
        if was_full:
            if self.policy == "FIFO":
                evicted = min(
                    self.entries, key=lambda k: (self.entries[k].inserted,
                                                 self.entries[k].seq)
                )
            else:
                evicted = min(
                    self.entries, key=lambda k: (self.entries[k].last_access,
                                                 self.entries[k].inserted,
                                                 self.entries[k].seq)
                )
            self.removal_log.append(
                (now, evicted, self.entries.pop(evicted).owner, "evicted")
            )
        self._seq += 1
        self.entries[key] = OracleEntry(now, now, hard, idle, owner, self._seq)
        return evicted, was_full

    def occupancy(self, now: int) -> tuple[int, int]:
        self.purge(now)
        attacker = sum(1 for e in self.entries.values() if e.owner == "attacker")
        return attacker, len(self.entries) - attacker
