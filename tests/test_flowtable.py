"""Unit and oracle-equivalence tests for the flow table."""

import copy
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowprobe.flowtable import (
    EXPIRED,
    ClockError,
    DuplicateEntryError,
    FlowEntry,
    FlowKey,
    FlowTable,
)

from oracles import ReplayOracle

MS = 1000  # microseconds per millisecond


def key(i: int) -> FlowKey:
    return FlowKey(f"10.9.{i >> 8 & 255}.{i & 255}", "10.0.0.1",
                   "02:00:00:00:00:01", "02:00:00:00:00:02")


def next_deadline(table: FlowTable, e: FlowEntry):
    """Time from which `e`, live in `table`, is expired under the table's
    timeouts, or None if it never is."""
    hard, idle = table.hard_timeout, table.idle_timeout
    return min([t for t, on in ((e.inserted_at + hard, hard), (e.last_access + idle, idle))
                if on], default=None)


class TestFlowKey:
    def test_fieldwise_equality(self):
        assert key(1) == key(1)
        assert key(1) != key(2)
        a = FlowKey("1.1.1.1", "2.2.2.2", "aa", "bb")
        b = FlowKey("1.1.1.1", "2.2.2.2", "aa", "cc")
        assert a != b

    def test_usable_as_dict_key(self):
        d = {key(7): "x"}
        assert d[key(7)] == "x"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            key(1).src_ip = "8.8.8.8"


class TestLookup:
    def test_empty_table_misses(self):
        table = FlowTable(capacity=4)
        assert table.lookup(key(1), 0) is False

    def test_immediate_relookup_hits(self):
        table = FlowTable(capacity=4)
        table.insert(key(1), 0)
        assert table.lookup(key(1), 1) is True

    def test_idle_expiry_misses(self):
        # Hand replay: inserted at 0 with idle 5000 ms, probed at 6000 ms;
        # 6000 - 0 >= 5000 so the entry is gone.
        table = FlowTable(capacity=4, idle_timeout=5000 * MS)
        table.insert(key(1), 0)
        assert table.lookup(key(1), 6000 * MS) is False

    def test_hit_refreshes_idle_timer(self):
        table = FlowTable(capacity=4, idle_timeout=5000 * MS)
        table.insert(key(1), 0)
        assert table.lookup(key(1), 4000 * MS) is True
        assert table.lookup(key(1), 8500 * MS) is True  # 4500 ms since refresh
        assert table.lookup(key(1), 14000 * MS) is False

    def test_hard_expiry_ignores_refreshes(self):
        table = FlowTable(capacity=4, hard_timeout=1000 * MS)
        table.insert(key(1), 0)
        for t in range(100, 1000, 100):
            assert table.lookup(key(1), t * MS) is True
        assert table.lookup(key(1), 1000 * MS) is False

    def test_clock_must_not_go_backwards(self):
        table = FlowTable(capacity=4)
        table.insert(key(1), 100)
        with pytest.raises(ClockError):
            table.lookup(key(1), 50)


class TestInsert:
    def test_under_capacity(self):
        table = FlowTable(capacity=2)
        result = table.insert(key(1), 0)
        assert result.evicted is None and not result.was_full

    def test_fifo_evicts_oldest(self):
        table = FlowTable(capacity=3, policy="FIFO")
        for i in (1, 2, 3):
            table.insert(key(i), i)
        result = table.insert(key(4), 10)
        assert result.was_full and result.evicted == key(1)

    def test_fifo_hit_does_not_reorder(self):
        table = FlowTable(capacity=3, policy="FIFO")
        for i in (1, 2, 3):
            table.insert(key(i), i)
        table.lookup(key(1), 5)  # refresh must not protect k1 under FIFO
        assert table.insert(key(4), 10).evicted == key(1)

    def test_lru_evicts_least_recent(self):
        table = FlowTable(capacity=3, policy="LRU")
        for i in (1, 2, 3):
            table.insert(key(i), i)
        table.lookup(key(1), 5)
        assert table.insert(key(4), 10).evicted == key(2)

    def test_lru_tie_on_last_access_prefers_older_insert(self):
        # k1 inserted before k2; both end up with last_access == 5.
        table = FlowTable(capacity=2, policy="LRU")
        table.insert(key(1), 0)
        table.insert(key(2), 5)
        table.lookup(key(1), 5)
        assert table.insert(key(3), 6).evicted == key(1)

    def test_lru_tie_all_equal_uses_insert_sequence(self):
        table = FlowTable(capacity=3, policy="LRU")
        for i in (1, 2, 3):
            table.insert(key(i), 0)
        assert table.insert(key(4), 0).evicted == key(1)

    def test_duplicate_insert_rejected(self):
        table = FlowTable(capacity=2)
        table.insert(key(1), 0)
        with pytest.raises(DuplicateEntryError):
            table.insert(key(1), 1)

    @pytest.mark.parametrize("due", [False, True])
    def test_clock_must_not_go_backwards(self, due):
        # The clock is checked before a due purge could run. No public call
        # leaves a due behind the clock, so plant an early one: still at or
        # below key(1)'s deadline.
        table = FlowTable(capacity=2, idle_timeout=100 * MS)
        table.insert(key(1), 50)
        if due:
            table._idle_due = table._due = 10
        before = copy.deepcopy(table_state(table, raw=True))
        with pytest.raises(ClockError):
            table.insert(key(2), 40)
        assert table_state(table, raw=True) == before

    def test_reinstall_after_expiry_gets_fresh_position(self):
        # k1 expires at 10 ms, k2 at 15 ms; k1 is reinstalled at 12 ms and
        # must then be newest, not oldest.
        table = FlowTable(capacity=2, policy="FIFO", idle_timeout=10 * MS)
        table.insert(key(1), 0)
        table.insert(key(2), 5 * MS)
        assert table.lookup(key(1), 12 * MS) is False
        table.insert(key(1), 12 * MS)
        assert table.insert(key(3), 13 * MS).evicted == key(2)


class TestOccupancy:
    def test_empty(self):
        table = FlowTable(capacity=8)
        assert table.occupancy(0) == (0, 0)

    def test_counts_by_owner(self):
        table = FlowTable(capacity=100)
        for i in range(5):
            table.insert(key(i), i, "attacker")
        for i in range(5, 8):
            table.insert(key(i), i, "background")
        assert table.occupancy(10) == (5, 3)

    def test_hard_timeout_empties_table(self):
        # Hand replay: five entries with hard 1000 ms, queried at 2000 ms.
        table = FlowTable(capacity=100, hard_timeout=1000 * MS)
        for i in range(5):
            table.insert(key(i), 0, "background")
        assert table.occupancy(2000 * MS) == (0, 0)
        assert [r.reason for r in table.removal_log] == [EXPIRED] * 5


class TestPurge:
    def test_purge_is_idempotent(self):
        table = FlowTable(capacity=8, idle_timeout=100 * MS)
        for i in range(4):
            table.insert(key(i), 0)
        first = table.purge_expired(150 * MS)
        assert sorted(k.src_ip for k in first) == sorted(key(i).src_ip for i in range(4))
        snapshot = dict(table.entries)
        assert table.purge_expired(150 * MS) == []
        assert table.entries == snapshot

    def test_hits_leave_the_due_alone(self, monkeypatch):
        # Hits every 0.1 ms up to 1000 ms: the idle due, 1000 ms, passes
        # only at the last one, which looks at the head once.
        table = FlowTable(capacity=4, idle_timeout=1000 * MS)
        table.insert(key(1), 0)
        calls = []
        expire_head = table._expire_head
        monkeypatch.setattr(table, "_expire_head",
                            lambda *args: calls.append(args[-1]) or expire_head(*args))
        for t in range(1, 10_001):
            assert table.lookup(key(1), t * MS // 10) is True
        assert calls == [1000 * MS] and table._due == 999_900 + 1000 * MS

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("log", [True, False])
    def test_a_hard_and_an_idle_head_falling_due_together(self, policy, log):
        # key(1) in at 0 and hit at 45 is due at 100 by its hard timeout;
        # key(2), in at 40, by its idle one. key(3), in at 50, lives to 110.
        table = FlowTable(4, policy, hard_timeout=100, idle_timeout=60, log=log)
        table.insert(key(1), 0)
        table.insert(key(2), 40)
        assert table.lookup(key(1), 45)
        table.insert(key(3), 50)
        assert table.purge_expired(99) == []
        assert table.purge_expired(100) == [key(1), key(2)]
        assert list(table.entries) == [key(3)]
        assert table.removal_log == ([(100, key(1), "attacker", EXPIRED),
                                      (100, key(2), "attacker", EXPIRED)] if log else [])

    def test_frequent_access_prevents_idle_expiry(self):
        idle = 1000 * MS
        table = FlowTable(capacity=4, idle_timeout=idle)
        table.insert(key(1), 0)
        t = 0
        for _ in range(200):
            t += idle - 1
            assert table.lookup(key(1), t) is True


class TestRecordDeadlineExpiry:
    """purge_expired expires entries never hit, hit only in their insert
    microsecond and hit later, each at its own deadline."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("hard, idle", [(0, 300), (400, 0), (400, 300),
                                            (300, 400)])
    def test_matches_the_oracle(self, policy, hard, idle):
        table = FlowTable(16, policy, hard, idle)
        oracle = ReplayOracle(capacity=16, policy=policy)
        # Entry i is inserted at 10 * i; 0-3 are never looked up, 4-7 only in
        # their insert microsecond (last_access unchanged), 8-11 hit 150 us
        # after their insert, and 12-15 hit in their insert microsecond and
        # again 250 us after it.
        hits = {i: [10 * i] for i in range(4, 8)}
        hits.update({i: [10 * i + 150] for i in range(8, 12)})
        hits.update({i: [10 * i, 10 * i + 250] for i in range(12, 16)})
        events = sorted([(10 * i, False, i) for i in range(16)]
                        + [(t, True, i) for i, times in hits.items() for t in times])
        for now in range(0, 1200, 5):
            while events and events[0][0] == now:
                _, is_hit, i = events.pop(0)
                if is_hit:
                    assert table.lookup(key(i), now) is True
                    assert oracle.lookup(key(i), now) is True
                else:
                    table.insert(key(i), now)
                    oracle.insert(key(i), now, hard, idle)
            assert sorted(table.purge_expired(now)) == sorted(oracle.purge(now))
            assert set(table.entries) == set(oracle.entries)
        assert table.removal_log == oracle.removal_log
        assert len(table.removal_log) == 16


class TestOracleEquivalence:
    """Random traces against the scan-based reference model."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_trace_matches_oracle(self, policy, seed):
        rng = random.Random(seed)
        capacity = rng.randint(4, 24)
        hard = rng.choice((0, 0, 900, 4000))
        idle = rng.choice((0, 0, 700, 2500))
        table = FlowTable(capacity, policy, hard, idle)
        oracle = ReplayOracle(capacity=capacity, policy=policy)
        now = 0
        evictions = []
        oracle_evictions = []
        for step in range(10_000):
            now += rng.choice((0, 0, 1, 3, 50, 1200))
            i = rng.randint(0, 40)
            hit = table.lookup(key(i), now)
            assert hit == oracle.lookup(key(i), now), (
                f"lookup divergence at step {step}"
            )
            if not hit and rng.random() < 0.8:
                result = table.insert(key(i), now)
                expected, expected_full = oracle.insert(
                    key(i), now, hard=hard, idle=idle
                )
                assert result.was_full == expected_full, f"fullness at step {step}"
                assert result.evicted == expected, f"victim at step {step}"
                if result.evicted is not None:
                    evictions.append(result.evicted)
                    oracle_evictions.append(expected)
            if step % 500 == 0:
                occ = table.occupancy(now)
                assert (occ.attacker, occ.background) == oracle.occupancy(now)
                assert len(table) <= capacity
        assert evictions == oracle_evictions
        assert len(evictions) > 100, "trace too tame to be meaningful"

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @settings(max_examples=1500, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        hard=st.sampled_from((0, 0, 15, 60)),  # hard timeout, us
        idle=st.sampled_from((0, 0, 5, 30)),   # idle timeout, us
        steps=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 0, 1, 2, 7, 40)),  # time step, us
                st.integers(0, 9),                        # key index
                st.booleans(),                            # install on a miss
            ),
            max_size=60,
        ),
    )
    def test_generated_trace_matches_oracle(self, policy, capacity, hard, idle, steps):
        # Small tables, tiny key space and frequent zero time steps make
        # same-microsecond ties, expiries and reinstalls the common case.
        table = FlowTable(capacity, policy, hard, idle)
        oracle = ReplayOracle(capacity=capacity, policy=policy)
        now = 0
        for step, (dt, i, install) in enumerate(steps):
            now += dt
            owner = "background" if i % 3 == 0 else "attacker"
            hit = table.lookup(key(i), now)
            assert hit == oracle.lookup(key(i), now), f"hit at step {step}"
            if not hit and install:
                result = table.insert(key(i), now, owner)
                expected, expected_full = oracle.insert(
                    key(i), now, hard=hard, idle=idle, owner=owner
                )
                assert result.evicted == expected, f"victim at step {step}"
                assert result.was_full == expected_full, f"fullness at step {step}"
            assert tuple(table.occupancy(now)) == oracle.occupancy(now), (
                f"occupancy at step {step}"
            )
        # Flush with fresh keys so every surviving entry's victim rank shows.
        for j in range(100, 100 + capacity):
            assert table.insert(key(j), now).evicted == oracle.insert(
                key(j), now, hard, idle)[0]
        # Expiries that share a timestamp may be logged in any order.
        assert sorted(table.removal_log) == sorted(oracle.removal_log)

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_occupancy_never_exceeds_capacity(self, policy):
        rng = random.Random(99)
        table = FlowTable(6, policy, idle_timeout=rng.choice((0, 40)))
        now = 0
        for _ in range(5_000):
            now += rng.randint(0, 20)
            i = rng.randint(0, 30)
            if not table.lookup(key(i), now):
                table.insert(key(i), now)
            assert len(table) <= 6


def table_state(table, raw=False):
    """What twin tables agree on when they hold the same entries: the
    table's timeouts, each entry's fields (seq too) in victim order, each
    one's next deadline, the removal log, the sequence counter and both
    clocks. The access order and the dues are added only if `raw` (a table
    checked against its own earlier state). Also asserts the two orders'
    invariants: both hold the same records, `_born` in insertion order and
    `_used` in access order, and each enabled timer's due is at or below
    every live entry's deadline under it."""
    entries = table.entries
    hard, idle = table.hard_timeout, table.idle_timeout
    born, used = table._born, table._used
    assert born.keys() == used.keys() and all(born[k] is used[k] for k in born)
    seqs = [record[1] for record in born.values()]
    accesses = [record[3] for record in used.values()]
    assert seqs == sorted(seqs) and accesses == sorted(accesses)
    for e in entries.values():
        assert not hard or table._hard_due <= e.inserted_at + hard
        assert not idle or table._idle_due <= e.last_access + idle
    assert table._due == min(table._hard_due, table._idle_due)
    return (hard, idle,
            [(e.key, e.inserted_at, e.last_access, e.owner, e.seq, next_deadline(table, e))
             for e in entries.values()],
            table.removal_log, table._seq, table._touched_at, table._now,
            *([list(used), table._hard_due, table._idle_due] if raw else []))


class TestPreload:
    """One `admit` at t = 0, the simulator's preload, installs as an insert
    loop."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("usage", [0, 1, 5, 7])
    @pytest.mark.parametrize("hard, idle", [(0, 0), (300, 0), (0, 200),
                                            (300, 200), (200, 300)])
    def test_matches_an_insert_loop(self, policy, usage, hard, idle):
        # A fresh table of 5: the keys past capacity evict at t = 0.
        keys = [key(i) for i in range(usage)]
        table, twin = FlowTable(5, policy, hard, idle), FlowTable(5, policy, hard, idle)
        assert table.admit(keys, [0] * usage, "background") == list(
            range(5, usage))
        for k in keys:
            twin.insert(k, 0, "background")
        assert table_state(table) == table_state(twin)
        # Both go on alike: a hit at t = 0, then inserts that evict and expire.
        for each in (table, twin):
            each.lookup(key(0), 0)
            for i, t in enumerate((0, 150, 250, 400, 700), start=10):
                each.insert(key(i), t)
        assert table_state(table) == table_state(twin)


class TestTouchRun:
    def filled(self, policy="LRU", idle=0):
        table = FlowTable(4, policy, idle_timeout=idle)
        for i in range(3):
            table.insert(key(i), i)
        return table

    def test_answers_hits_as_lookups_would(self):
        table, twin = self.filled(), self.filled()
        keys = [key(0), key(1), key(0), key(2)]
        assert table.touch_run(keys, 10, 5, float("inf")) == 4
        for i, k in enumerate(keys):
            assert twin.lookup(k, 10 + 5 * i)
        assert table_state(table) == table_state(twin)
        assert list(table.entries) == [key(1), key(0), key(2)]

    def test_stops_at_the_first_missing_key(self):
        table = self.filled()
        assert table.touch_run([key(0), key(7), key(1)], 10, 5, float("inf")) == 1
        assert (table._now, table.entries[key(1)].last_access) == (10, 1)

    def test_stops_before_until(self):
        table = self.filled()
        assert table.touch_run([key(0)] * 5, 10, 5, 25) == 3
        assert table._now == 20

    def test_stops_before_the_earliest_deadline(self):
        # key(0)'s idle deadline is 100: a lookup at 100 would purge.
        table = self.filled(idle=100)
        assert table.touch_run([key(1)] * 50, 10, 10, float("inf")) == 9
        assert table._now == 90

    @pytest.mark.parametrize("extra_us, answered", [(0, 3), (1, 4)])
    def test_answers_the_send_times_below_until(self, extra_us, answered):
        # Sends at 10, 15, 20, 25, ...: until = 10 + 3*5 leaves three below
        # it, one microsecond more admits the fourth.
        table = self.filled()
        assert table.touch_run([key(0)] * 9, 10, 5, 10 + 3 * 5 + extra_us) == answered
        assert table._now == 10 + (answered - 1) * 5

    def test_send_times_past_float_range(self):
        # Integer send times too large for a float, against an infinite bound.
        table = self.filled()
        start_us = 10 ** 400
        assert table.touch_run([key(0)] * 3, start_us, start_us, float("inf")) == 3
        assert table._now == 3 * start_us

    @pytest.mark.parametrize("until_us", [10, 9, 0, -7])
    def test_until_at_or_before_start_answers_nothing(self, until_us):
        table = self.filled()
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.touch_run([key(0), key(1)] * 5, 10, 5, until_us) == 0
        assert table_state(table, raw=True) == before

    def test_stops_before_a_deadline_on_a_send_time(self):
        # key(0)'s idle deadline, 100, is the fourth send time, 40 + 3*20,
        # and comes before `until`.
        table = self.filled(idle=100)
        assert table.touch_run([key(1)] * 50, 40, 20, 200) == 3
        assert key(0) in table.entries and table._now == 80
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.touch_run([key(1)] * 50, 100, 20, 200) == 0
        assert table_state(table, raw=True) == before

    @pytest.mark.parametrize("policy, start_us, gap_us, touched", [
        ("LRU", 2, 5, 0),    # the microsecond of the last touch (an insert)
        ("FIFO", 2, 5, 0),
        ("LRU", 10, 0, 0),   # every probe in one microsecond
        ("LRU", 3, 1, 3),
    ])
    def test_guards(self, policy, start_us, gap_us, touched):
        table = self.filled(policy)
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.touch_run([key(2), key(0), key(1)], start_us, gap_us,
                               float("inf")) == touched
        if not touched:
            assert table_state(table, raw=True) == before

    def test_answers_from_the_first_index(self):
        table, twin = self.filled(), self.filled()
        keys = [key(7), key(0), key(1), key(8)]
        assert table.touch_run(keys, 10, 5, float("inf"), first=1) == 2
        assert twin.lookup(key(0), 10) and twin.lookup(key(1), 15)
        assert table_state(table) == table_state(twin)
        # keys[0] is live but keys[first] is not: nothing is answered.
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.touch_run([key(0), key(7)], 30, 5, float("inf"), first=1) == 0
        assert table_state(table, raw=True) == before

    def test_fifo_hits_leave_the_order_and_touch_time(self):
        table = self.filled("FIFO")
        assert table.touch_run([key(0), key(1)], 10, 5, float("inf")) == 2
        assert list(table.entries) == [key(0), key(1), key(2)]
        assert (table._touched_at, table._now) == (2, 15)

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 6),
        hard=st.sampled_from((0, 0, 40)),
        idle=st.sampled_from((0, 0, 25)),
        steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=20),
        start_dt=st.integers(0, 3),
        gap_us=st.integers(0, 4),
        until_dt=st.integers(0, 60),
        run=st.lists(st.integers(0, 7), max_size=20),
        data=st.data(),
    )
    def test_matches_a_lookup_loop(self, policy, capacity, hard, idle, steps, start_dt,
                                   gap_us, until_dt, run, data):
        def build():
            table = FlowTable(capacity, policy, hard, idle)
            now = 0
            for dt, i in steps:
                now += dt
                if not table.lookup(key(i), now):
                    table.insert(key(i), now)
            return table, now

        table, now = build()
        twin, _ = build()
        start_us = now + start_dt
        until_us = start_us + until_dt
        keys = [key(i) for i in run]
        # From 0 (the whole list) to len(run) (nothing left to answer).
        first = data.draw(st.integers(0, len(run)), label="first")
        guarded = gap_us >= 1 and start_us > table._touched_at
        touched = table.touch_run(keys, start_us, gap_us, until_us, first)
        for i in range(touched):
            assert twin.lookup(keys[first + i], start_us + i * gap_us)
        assert table_state(table) == table_state(twin)
        if guarded and first + touched < len(keys):
            # The run is maximal: the next key misses or could interleave.
            at_us = start_us + touched * gap_us
            assert (keys[first + touched] not in twin.entries or at_us >= until_us
                    or at_us >= twin._due)


def owner_by_index(k: FlowKey) -> str:
    """Mixed owners: every third key index is a background tenant's."""
    return "background" if int(k.src_ip.rsplit(".", 1)[1]) % 3 == 0 else "attacker"


class TestInstallRun:
    def filled(self, policy="FIFO", capacity=6, hard=0, idle=0):
        """key(0), key(1) and key(2), inserted at 0, 1 and 2 in a table with
        the timeouts `hard` and `idle`."""
        table = FlowTable(capacity, policy, hard, idle)
        for i in range(3):
            table.insert(key(i), i)
        return table

    def insert_loop(self, table, keys, start_us, gap_us):
        for i, k in enumerate(keys):
            at_us = start_us + i * gap_us
            assert not table.lookup(k, at_us)
            table.insert(k, at_us, owner_by_index(k))

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("hard, idle", [(0, 0), (500, 0), (0, 400), (500, 400)])
    def test_installs_as_inserts_would(self, policy, hard, idle):
        table, twin = self.filled(policy, hard=hard, idle=idle), self.filled(
            policy, hard=hard, idle=idle)
        keys = [key(i) for i in (10, 11, 12)]
        assert table.install_run(keys, 10, 5, float("inf"), owner_by_index) == (3, [])
        self.insert_loop(twin, keys, 10, 5)
        assert table_state(table) == table_state(twin)
        assert [table.entries[k].owner for k in keys] == [
            "attacker", "attacker", "background"]

    def test_installs_from_the_first_index(self):
        table, twin = self.filled(), self.filled()
        keys = [key(1), key(10), key(11)]
        assert table.install_run(keys, 10, 5, float("inf"), owner_by_index,
                                 first=1) == (2, [])
        self.insert_loop(twin, keys[1:], 10, 5)
        assert table_state(table) == table_state(twin)

    def test_stops_at_the_first_live_key(self):
        table = self.filled()
        keys = [key(10), key(11), key(0), key(12)]
        assert table.install_run(keys, 10, 5, float("inf"), owner_by_index) == (2, [])
        assert key(12) not in table.entries and table._now == 15

    def test_a_repeated_key_is_live_by_its_second_send(self):
        table = self.filled()
        keys = [key(10), key(10)]
        assert table.install_run(keys, 10, 5, float("inf"), owner_by_index) == (1, [])

    def test_stops_once_the_table_is_full(self):
        table = self.filled(capacity=5)
        keys = [key(i) for i in range(10, 15)]
        assert table.install_run(keys, 10, 5, float("inf"), owner_by_index) == (2, [])
        assert len(table) == 5 and table.removal_log == []
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.install_run(keys, 20, 5, float("inf"), owner_by_index,
                                 first=2) == (0, [])
        assert table_state(table, raw=True) == before

    @pytest.mark.parametrize("until_us, answered", [(25, 3), (26, 4)])
    def test_stops_before_until(self, until_us, answered):
        # Sends at 10, 15, 20, 25, ...
        table = self.filled(capacity=10)
        keys = [key(i) for i in range(10, 16)]
        assert table.install_run(keys, 10, 5, until_us, owner_by_index) == (answered, [])

    def test_stops_before_the_earliest_deadline(self):
        # key(0)'s idle deadline is 100: an insert at 100 would purge it.
        table = self.filled(idle=100)
        keys = [key(i) for i in range(10, 13)]
        assert table.install_run(keys, 60, 20, float("inf"), owner_by_index) == (2, [])
        assert table._now == 80

    @pytest.mark.parametrize("hard, idle, answered", [
        (30, 0, 3), (0, 30, 3), (45, 30, 3), (30, 45, 3), (31, 0, 4)])
    def test_stops_before_its_own_first_deadline(self, hard, idle, answered):
        # The first key, installed at 0 into a table built at 0, is due at
        # min(timeouts), the table's due. Installs go out at 0, 10, 20, ...
        table = FlowTable(10, "FIFO", hard, idle)
        keys = [key(i) for i in range(10, 16)]
        assert table.install_run(keys, 0, 10, float("inf"), owner_by_index) == (
            answered, [])

    @pytest.mark.parametrize("hard, idle", [(30, 0), (0, 30), (30, 45), (45, 30)])
    def test_stops_before_the_due_the_purge_that_emptied_the_table_set(self, hard, idle):
        # key(1), in at 0, expires at 30 and leaves the table empty: both
        # dues become 30 plus their timeouts, at or below the deadline of
        # any entry it takes later. A run from 40 stops before 60, ahead of
        # its own first deadline, 40 + min(timeouts).
        table = FlowTable(10, "FIFO", hard, idle)
        table.insert(key(1), 0)
        assert table.purge_expired(30) == [key(1)]
        assert table._due == 60
        keys = [key(i) for i in range(10, 16)]
        assert table.install_run(keys, 40, 10, math.inf, owner_by_index) == (2, [])

    @pytest.mark.parametrize("start_us, until_us, answered", [
        (10, 10, 0), (10, 11, 3),  # until
        (100, math.inf, 0),        # key(0)'s idle deadline
    ])
    def test_a_zero_gap_run_is_all_before_until_or_none(self, start_us, until_us,
                                                         answered):
        table = self.filled(idle=100)
        keys = [key(i) for i in range(10, 13)]
        assert table.install_run(keys, start_us, 0, until_us, owner_by_index) == (
            answered, [])

    @pytest.mark.parametrize("start_us, gap_us, first", [
        (1, 5, 0),    # behind the table clock
        (10, 5, 1),   # keys[1] is live
        (10, 5, 3),   # past the end of the keys
    ])
    def test_guards(self, start_us, gap_us, first):
        table = self.filled()
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.install_run([key(10), key(1), key(11)], start_us, gap_us,
                                 float("inf"), owner_by_index, first) == (0, [])
        assert table_state(table, raw=True) == before

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("ahead", [0, 5])
    @pytest.mark.parametrize("watch", [None, key(1)])
    def test_run_entries_fall_due_as_inserted_ones(self, policy, ahead, watch):
        # `ahead` admitted entries, then key(1), which may be watched; every
        # entry takes (500, 400).
        def build():
            table = FlowTable(40, policy, 500, 400)
            table.admit([key(100 + j) for j in range(ahead)], [0] * ahead, "background")
            table.insert(key(1), 1)
            return table

        table, twin = build(), build()
        keys = [key(i) for i in range(10, 40)]
        assert table.install_run(keys, 10, 5, math.inf, owner_by_index,
                                 watch=watch) == (30, [])
        if watch is None:
            self.insert_loop(twin, keys, 10, 5)
        else:
            TestRoundRun.round_loop(twin, keys, watch, 10, 5)
        assert table_state(table) == table_state(twin)
        # They fall due alike, the admitted ones first.
        for each in (table, twin):
            each.purge_expired(10_000)
        assert table.removal_log == twin.removal_log and len(table.removal_log) == (
            31 + ahead)

    @pytest.mark.parametrize("watch", [None, key(1)])
    def test_hit_flow_entries_keep_their_own_records(self, watch):
        # A (0, 400) table holds three entries, inserted at 0, 0 and 1 and
        # hit at 100, so the idle due, 400, is early for each. Five of eight
        # slots are free; with `watch` two more installs evict key(100) and
        # key(101), and the next would evict key(1).
        def build():
            table, oracle = FlowTable(8, "FIFO", 0, 400), ReplayOracle(8, "FIFO")
            for k, at_us, owner in ((key(100), 0, "background"),
                                    (key(101), 0, "background"), (key(1), 1, "attacker")):
                table.insert(k, at_us, owner)
                oracle.insert(k, at_us, 0, 400, owner)
            for k in (key(100), key(101), key(1)):
                assert table.lookup(k, 100) and oracle.lookup(k, 100)
            return table, oracle

        (table, oracle), (twin, _) = build(), build()
        keys = [key(i) for i in range(10, 18)]
        assert table._due == 400
        rounds, full = table.install_run(keys, 110, 5, math.inf, owner_by_index,
                                         watch=watch)
        assert (rounds, full) == ((5, []) if watch is None else (7, [5, 6]))
        ahead = [k for k in table.entries if k not in keys]
        assert ahead == ([key(100), key(101), key(1)] if watch is None else [key(1)])
        assert table._due == 400 < min(next_deadline(table, table.entries[k])
                                       for k in ahead)
        if watch is None:
            self.insert_loop(twin, keys[:rounds], 110, 5)
        else:
            TestRoundRun.round_loop(twin, keys[:rounds], watch, 110, 5)
        assert table_state(table) == table_state(twin)
        gap = 5 if watch is None else 10
        for i, k in enumerate(keys[:rounds]):
            oracle.insert(k, 110 + i * gap, 0, 400, owner_by_index(k))
            if watch is not None:
                assert oracle.lookup(watch, 110 + i * gap + 5)
        # At 505 the due has moved past 400 and key(100) and key(101) are
        # gone at 500; the run's entries are not yet, nor is
        # a watched key(1).
        for now in (505, 1000):
            assert table.occupancy(now) == twin.occupancy(now) == oracle.occupancy(now)
        assert table.removal_log == twin.removal_log
        assert sorted(table.removal_log) == sorted(oracle.removal_log)

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 8),
        steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=12),
        start_dt=st.integers(0, 3),
        gap_us=st.integers(0, 4),
        until_dt=st.integers(0, 60),
        hard=st.sampled_from((0, 0, 7, 30)),
        idle=st.sampled_from((0, 0, 5, 20)),
        first=st.integers(0, 2),
        run=st.lists(st.integers(0, 15), max_size=12),
    )
    def test_matches_an_insert_loop_and_the_oracle(
            self, policy, capacity, steps, start_dt, gap_us, until_dt, hard,
            idle, first, run):
        def build():
            table = FlowTable(capacity, policy, hard, idle)
            oracle = ReplayOracle(capacity=capacity, policy=policy)
            now = 0
            for dt, i in steps:
                now += dt
                hit = table.lookup(key(i), now)
                assert hit == oracle.lookup(key(i), now)
                if not hit:
                    table.insert(key(i), now, owner_by_index(key(i)))
                    oracle.insert(key(i), now, hard, idle, owner_by_index(key(i)))
            return table, oracle, now

        table, oracle, now = build()
        twin, _, _ = build()
        start_us = now + start_dt
        until_us = start_us + until_dt
        keys = [key(i) for i in run]
        installed, full = table.install_run(keys, start_us, gap_us, until_us,
                                            owner_by_index, first)
        assert full == []
        sent = keys[first:first + installed]
        self.insert_loop(twin, sent, start_us, gap_us)
        for i, k in enumerate(sent):
            at_us = start_us + i * gap_us
            assert not oracle.lookup(k, at_us)
            assert oracle.insert(k, at_us, hard, idle, owner_by_index(k)) == (None, False)
        assert table_state(table) == table_state(twin)
        if first + installed < len(keys):
            # The run is maximal: the next key is live, the table is full, or
            # the next send could purge or meet an arrival.
            at_us = start_us + installed * gap_us
            assert (keys[first + installed] in twin.entries
                    or len(twin) >= capacity or at_us >= until_us
                    or at_us >= twin._due)
        # Flush with fresh keys so every surviving entry's victim rank shows.
        end_us = max(now, start_us + (installed - 1) * gap_us)
        for j in range(100, 100 + capacity):
            assert table.insert(key(j), end_us).evicted == oracle.insert(
                key(j), end_us, hard, idle)[0]
        assert sorted(table.removal_log) == sorted(oracle.removal_log)


class TestRoundRun:
    """`install_run` with a watched key answers rounds of a miss-and-install,
    then a hit on the watched key; the table must end as with a `lookup` and an `insert`, then
    a `lookup` of the watched key, per round."""

    @staticmethod
    def round_loop(table, keys, watch, start_us, gap_us):
        """The loop `install_run(..., watch=watch)` stands for; returns the indexes of the
        inserts that found the table full."""
        full = []
        for i, k in enumerate(keys):
            at_us = start_us + 2 * i * gap_us
            assert not table.lookup(k, at_us)
            if table.insert(k, at_us, owner_by_index(k)).was_full:
                full.append(i)
            assert table.lookup(watch, at_us + gap_us)
        return full

    @staticmethod
    def filled(policy="FIFO", capacity=6, ahead=2, hard=0, idle=0):
        """A table with the timeouts (`hard`, `idle`): `ahead` admitted
        background entries, then key(0), watched, and key(1), inserted at 1
        and 2."""
        table = FlowTable(capacity, policy, hard, idle)
        table.admit([key(100 + j) for j in range(ahead)], [0] * ahead, "background")
        table.insert(key(0), 1)
        table.insert(key(1), 2)
        return table

    def run_matches_loop(self, table, twin, keys, start_us, gap_us, until_us=math.inf,
                         first=0, watch=key(0)):
        """Run `install_run` watching `watch` on `table` and the loop on
        `twin`; assert both end alike and return what `install_run`
        returned."""
        rounds, full = table.install_run(keys, start_us, gap_us, until_us,
                                         owner_by_index, first, watch)
        assert full == self.round_loop(twin, keys[first:first + rounds], watch,
                                       start_us, gap_us)
        assert table_state(table) == table_state(twin)
        return rounds, full

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("hard, idle", [(0, 0), (500, 0), (0, 400), (500, 400)])
    def test_answers_rounds_as_inserts_and_lookups_would(self, policy, hard, idle):
        table = self.filled(policy, hard=hard, idle=idle)
        twin = self.filled(policy, hard=hard, idle=idle)
        keys = [key(i) for i in (10, 11, 12)]
        assert self.run_matches_loop(table, twin, keys, 10, 5) == (3, [2])
        watched = table.entries[key(0)]
        assert watched.last_access == 35 and table._now == 35
        assert table._touched_at == (35 if policy == "LRU" else 30)
        assert list(table.entries)[-1] == (key(0) if policy == "LRU" else key(12))

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_evicts_fresh_entries_ahead_and_names_the_full_rounds(self, policy):
        # Five slots hold two admitted entries, key(0) and key(1): round 0
        # takes the last free one, rounds 1 and 2 evict the admitted entries.
        table, twin = self.filled(policy, capacity=5), self.filled(policy, capacity=5)
        keys = [key(i) for i in (10, 11, 12)]
        assert self.run_matches_loop(table, twin, keys, 10, 5) == (3, [1, 2])
        assert table.removal_log == [(20, key(100), "background", "evicted"),
                                     (30, key(101), "background", "evicted")]
        # Under LRU every round moved key(0) to the back, so key(1) is next.
        keys.append(key(13))
        assert self.run_matches_loop(table, twin, keys, 40, 5, first=3) == (
            (1, [0]) if policy == "LRU" else (0, []))

    def test_stops_at_the_round_that_would_evict_the_watched_key(self):
        # FIFO, full: rounds 0 and 1 evict the two admitted entries; round
        # 2's install would evict key(0), the head.
        table, twin = self.filled(capacity=4), self.filled(capacity=4)
        keys = [key(i) for i in range(10, 15)]
        assert self.run_matches_loop(table, twin, keys, 10, 5) == (2, [0, 1])
        assert next(iter(table.entries)) == key(0)
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.install_run(keys, 30, 5, math.inf, owner_by_index, 2,
                                 key(0)) == (0, [])
        assert table_state(table, raw=True) == before

    def test_the_watched_key_at_the_head_of_a_table_with_room(self):
        table, twin = self.filled(ahead=0), self.filled(ahead=0)
        keys = [key(i) for i in range(10, 14)]
        assert self.run_matches_loop(table, twin, keys, 10, 5) == (4, [])
        assert table.removal_log == []

    def test_answers_nothing_when_the_watched_key_is_absent(self):
        table = self.filled()
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.install_run([key(10)], 10, 5, math.inf, owner_by_index,
                                 watch=key(9)) == (0, [])
        assert table_state(table, raw=True) == before

    def test_an_admitted_watched_key_is_an_ordinary_entry(self):
        table, twin = self.filled(), self.filled()
        assert self.run_matches_loop(table, twin, [key(10)], 10, 5,
                                     watch=key(100)) == (1, [])

    def test_stops_at_the_first_live_key(self):
        table, twin = self.filled(), self.filled()
        keys = [key(10), key(11), key(1), key(12)]
        assert self.run_matches_loop(table, twin, keys, 10, 5) == (2, [])
        assert key(12) not in table.entries and table._now == 25

    @pytest.mark.parametrize("until_us, answered", [
        (20, 1),  # round 1's install time
        (25, 1),  # round 1's lookup time
        (26, 2),
    ])
    def test_stops_before_until(self, until_us, answered):
        # Installs at 10, 20, 30, ..., lookups at 15, 25, 35, ...
        table, twin = self.filled(capacity=20), self.filled(capacity=20)
        keys = [key(i) for i in range(10, 16)]
        assert self.run_matches_loop(table, twin, keys, 10, 5, until_us)[0] == answered

    @pytest.mark.parametrize("idle, answered", [
        (120, 2),  # key(100)'s deadline, 120, is round 2's install time
        (125, 2),  # ... round 2's lookup time
        (126, 3),
    ])
    def test_stops_before_the_earliest_deadline(self, idle, answered):
        # Installs at 100, 110, 120, 130, lookups 5 us after each.
        table = self.filled(capacity=20, idle=idle)
        twin = self.filled(capacity=20, idle=idle)
        keys = [key(i) for i in range(10, 14)]
        assert self.run_matches_loop(table, twin, keys, 100, 5)[0] == answered

    @pytest.mark.parametrize("hard, idle, answered", [
        (20, 0, 2),   # due at 20, round 2's install time
        (0, 25, 2),   # due at 25, round 2's lookup time
        (45, 25, 2), (0, 26, 3), (0, 0, 6)])
    def test_stops_before_its_own_first_deadline(self, hard, idle, answered):
        # The first key, installed at 0, is due at min(timeouts), as is the
        # watched key, inserted at 0 into a table built at 0 with nothing
        # ahead: that is the table's due. Installs go out at 0, 10, 20, ...,
        # lookups at 5, 15, 25, ...
        table, twin = (FlowTable(20, "FIFO", hard, idle) for _ in range(2))
        for each in (table, twin):
            each.insert(key(0), 0)
        keys = [key(i) for i in range(10, 16)]
        assert self.run_matches_loop(table, twin, keys, 0, 5)[0] == answered

    @pytest.mark.parametrize("start_us, gap_us, first", [
        (1, 5, 0),    # behind the table clock
        (10, 0, 0),   # a zero gap
        (10, 5, 1),   # keys[1] is live
        (10, 5, 3),   # past the end of the keys
    ])
    def test_guards(self, start_us, gap_us, first):
        table = self.filled()
        before = copy.deepcopy(table_state(table, raw=True))
        assert table.install_run([key(10), key(1), key(11)], start_us, gap_us,
                                 math.inf, owner_by_index, first, key(0)) == (0, [])
        assert table_state(table, raw=True) == before

    @settings(max_examples=400, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 8),
        fresh=st.integers(0, 4),
        steps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=12),
        watch=st.integers(0, 9),
        start_dt=st.integers(0, 3),
        gap_us=st.integers(0, 4),
        until_dt=st.integers(0, 60),
        hard=st.sampled_from((0, 0, 7, 30)),
        idle=st.sampled_from((0, 0, 5, 20)),
        first=st.integers(0, 2),
        run=st.lists(st.integers(0, 15), max_size=12),
    )
    def test_matches_a_round_loop_and_the_oracle(
            self, policy, capacity, fresh, steps, watch, start_dt, gap_us,
            until_dt, hard, idle, first, run):
        # `fresh` admitted entries go in first, so they sort ahead of the
        # watched key; watch 8 and 9 are admitted keys (live, or absent).
        def build():
            table = FlowTable(capacity, policy, hard, idle)
            oracle = ReplayOracle(capacity=capacity, policy=policy)
            admitted = [key(100 + j) for j in range(fresh)]
            table.admit(admitted, [0] * fresh, "background")
            for k in admitted:
                oracle.insert(k, 0, hard, idle, "background")
            now = 0
            for dt, i in steps:
                now += dt
                hit = table.lookup(key(i), now)
                assert hit == oracle.lookup(key(i), now)
                if not hit:
                    table.insert(key(i), now, owner_by_index(key(i)))
                    oracle.insert(key(i), now, hard, idle, owner_by_index(key(i)))
            return table, oracle, now

        table, oracle, now = build()
        twin, _, _ = build()
        watched = key(watch) if watch < 8 else key(100 + watch - 8)
        start_us = now + start_dt
        until_us = start_us + until_dt
        keys = [key(i) for i in run]
        rounds, full = table.install_run(keys, start_us, gap_us, until_us,
                                         owner_by_index, first, watched)
        sent = keys[first:first + rounds]
        assert full == self.round_loop(twin, sent, watched, start_us, gap_us)
        assert table_state(table) == table_state(twin)
        oracle_full = []
        for i, k in enumerate(sent):
            at_us = start_us + 2 * i * gap_us
            assert not oracle.lookup(k, at_us)
            if oracle.insert(k, at_us, hard, idle, owner_by_index(k))[1]:
                oracle_full.append(i)
            assert oracle.lookup(watched, at_us + gap_us)
        assert full == oracle_full
        if rounds:
            assert start_us + (2 * rounds - 1) * gap_us < until_us
        if gap_us >= 1 and first + rounds < len(keys) and watched in twin.entries:
            # The run is maximal: the next key is live, its install would
            # evict the watched key, or a time of the next round could
            # purge or meet an arrival.
            at_us = start_us + (2 * rounds + 1) * gap_us  # the next lookup's
            assert (keys[first + rounds] in twin.entries
                    or (len(twin) >= capacity and next(iter(twin.entries)) == watched)
                    or at_us >= until_us or at_us >= twin._due)
        # Flush with new keys so every surviving entry's victim rank shows.
        end_us = max(now, start_us + (2 * rounds - 1) * gap_us)
        for j in range(200, 200 + capacity):
            assert table.insert(key(j), end_us).evicted == oracle.insert(
                key(j), end_us, hard, idle)[0]
        assert sorted(table.removal_log) == sorted(oracle.removal_log)


class TestAdmit:
    """`admit` installs a batch; the table must behave as with one `insert`
    per key, whatever is done with the entries afterwards."""

    @staticmethod
    def insert_loop(table, keys, times, owner="background"):
        """The loop `admit` stands for; returns the indexes that found the
        table full."""
        return [i for i, (k, t) in enumerate(zip(keys, times))
                if table.insert(k, t, owner).was_full]

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 8),
        hard=st.sampled_from((0, 40, 100)),
        idle=st.sampled_from((0, 25, 60)),
        ops=st.lists(st.one_of(
            st.tuples(st.just("probe"), st.integers(0, 30),
                      st.one_of(st.integers(0, 7), st.integers(100, 125))),
            st.tuples(st.just("admit"), st.lists(st.integers(0, 12), max_size=10)),
            st.tuples(st.just("run"), st.integers(1, 30), st.integers(1, 4),
                      st.lists(st.one_of(st.integers(0, 7), st.integers(100, 125)),
                               max_size=6)),
        ), max_size=14),
    )
    def test_matches_an_insert_loop_and_the_oracle(self, policy, capacity, hard,
                                                   idle, ops):
        table, twin = (FlowTable(capacity, policy, hard, idle) for _ in range(2))
        oracle = ReplayOracle(capacity, policy)
        now, admitted = 0, 100

        def probed(i):
            """Index i >= 100 picks a key admitted so far, if there is one."""
            if i < 100:
                return key(i)
            return key(100 + (i - 100) % (admitted - 100) if admitted > 100 else i - 100)

        for op in ops:
            if op[0] == "probe":  # a miss installs an attacker entry
                _, dt, i = op
                now += dt
                k = probed(i)
                hit = table.lookup(k, now)
                assert hit == twin.lookup(k, now) == oracle.lookup(k, now)
                if not hit:
                    for each in (table, twin):
                        each.insert(k, now, "attacker")
                    oracle.insert(k, now, hard, idle, "attacker")
            elif op[0] == "admit":
                times = list(itertools.accumulate(op[1], initial=now))[1:]
                keys = [key(admitted + j) for j in range(len(times))]
                admitted += len(keys)
                full = table.admit(keys, times, "background")
                assert full == self.insert_loop(twin, keys, times)
                assert full == [j for j, (k, t) in enumerate(zip(keys, times))
                                if oracle.insert(k, t, hard, idle, "background")[1]]
                now = times[-1] if times else now
            else:  # a hit run, which stops at a missing key
                _, dt, gap, run = op
                now += dt
                keys = [probed(i) for i in run]
                answered = table.touch_run(keys, now, gap, math.inf)
                for j in range(answered):
                    assert twin.lookup(keys[j], now + j * gap)
                    assert oracle.lookup(keys[j], now + j * gap)
                now += max(0, answered - 1) * gap
            assert table_state(table) == table_state(twin)
            assert table.removal_log == twin.removal_log
        # Flush with new keys so every surviving entry's victim rank shows.
        for j in range(200, 200 + capacity):
            assert table.insert(key(j), now).evicted == oracle.insert(
                key(j), now, hard, idle)[0]
        assert sorted(table.removal_log) == sorted(oracle.removal_log)

    def test_stores_entries_in_insert_order(self):
        table = FlowTable(4, hard_timeout=100)
        keys = [key(i) for i in range(3)]
        assert table.admit(keys, [0, 5, 5], "background") == []
        assert [(e.inserted_at, e.last_access, e.seq, e.owner)
                for e in table.entries.values()] == [
            (0, 0, 1, "background"), (5, 5, 2, "background"), (5, 5, 3, "background")]
        assert table.occupancy(99) == (0, 3)
        assert table.purge_expired(105) == keys

    def test_idle_expiries_follow_access_order(self):
        # key(1) (due 50) and key(3) (hit at 12, due 62) expire, in that
        # order, when key(5) goes in at 62; key(4) (due 70) and key(2) (hit
        # at 40, due 90) expire when key(6) goes in at 100.
        table, twin = FlowTable(10, idle_timeout=50), FlowTable(10, idle_timeout=50)
        admits = ((table, lambda keys, times: table.admit(keys, times, "background")),
                  (twin, lambda keys, times: self.insert_loop(twin, keys, times)))
        for each, admit in admits:
            admit([key(1)], [0])
            each.insert(key(2), 1)
            each.insert(key(3), 2)
            assert each.lookup(key(3), 12)
            admit([key(4)], [20])
            assert each.lookup(key(2), 40)
        assert list(table._used) == [key(1), key(3), key(4), key(2)]
        for each, admit in admits:
            admit([key(5), key(6)], [62, 100])
        assert table_state(table) == table_state(twin)
        assert [r.key for r in table.removal_log] == [key(1), key(3), key(4), key(2)]

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_a_hit_in_the_admit_microsecond_with_int_keys(self, policy):
        # The hit at 0 on key 0, admitted at 0, changes nothing; key 0 is
        # falsy, and both still expire at 300 in insert order.
        table, oracle = FlowTable(4, policy, idle_timeout=300), ReplayOracle(4, policy)

        def admit(keys, times):
            table.admit(keys, times, "background")
            for k, at in zip(keys, times):
                oracle.insert(k, at, 0, 300, "background")

        admit([0, 1], [0, 0])
        assert table.lookup(0, 0) and oracle.lookup(0, 0)
        admit([2], [5])
        assert list(table._used) == [0, 1, 2] and table._due == 300
        assert table.purge_expired(300) == oracle.purge(300) == [0, 1]
        assert table.purge_expired(305) == oracle.purge(305) == [2]
        assert table.removal_log == oracle.removal_log

    def test_occupancy_counts_fresh_entries_of_their_owner(self):
        table = FlowTable(4)
        table.admit([key(1), key(2)], [0, 0], "attacker")
        table.insert(key(3), 1, "background")
        assert table.occupancy(1) == (2, 1)

    def test_reading_entries_changes_nothing(self):
        table = FlowTable(4, idle_timeout=50)
        table.insert(key(9), 0)
        table.admit([key(1), key(2)], [1, 2], "background")
        before = copy.deepcopy(table_state(table, raw=True))
        view = table.entries
        assert list(view) == [key(9), key(1), key(2)]
        view[key(1)].last_access = 40
        del view[key(9)]
        assert table_state(table, raw=True) == before
        assert table.entries is not table.entries

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_a_hit_moves_the_entry_in_access_order_only(self, policy):
        table = FlowTable(4, policy, idle_timeout=50)
        table.admit([key(1), key(2), key(3)], [0, 0, 0], "background")
        assert table.lookup(key(2), 10)
        assert table.entries[key(2)].last_access == 10
        assert list(table._born) == [key(1), key(2), key(3)]
        assert list(table._used) == [key(1), key(3), key(2)]
        assert table.purge_expired(50) == [key(1), key(3)]

    def test_an_lru_touch_in_the_insert_microsecond_orders_the_tail(self):
        # key(0) hit at 5 moves to the back, then behind it go key(2), hit
        # at 5, and fresh key(1), admitted at 5: all were last touched at
        # 5, and key(0) was inserted first.
        table, twin = FlowTable(3, "LRU"), FlowTable(3, "LRU")
        for each in (table, twin):
            each.insert(key(0), 0)
            each.insert(key(2), 1)
            assert each.lookup(key(2), 5)
        table.admit([key(1)], [5], "background")
        self.insert_loop(twin, [key(1)], [5])
        for each in (table, twin):
            assert each.lookup(key(0), 5)
        assert table_state(table) == table_state(twin)
        assert list(table.entries) == [key(0), key(2), key(1)]

    def test_one_table_admits_one_kind(self):
        # Every fresh entry takes the table's timeouts; the owner is each
        # entry's own.
        table = FlowTable(2, hard_timeout=1000)
        table.admit([key(1)], [0], "background")
        table.insert(key(2), 1)
        assert table.admit([], [], "background") == []
        assert table.admit([key(3)], [5], "attacker") == [0]
        table.admit([key(4)], [6], "background")
        assert table.occupancy(6) == (1, 1)
        assert [r.owner for r in table.removal_log] == ["background", "attacker"]

    @pytest.mark.parametrize("times, keys, error", [
        ([10, 12, 11], [key(5), key(6), key(7)], ClockError),
        ([5, 10], [key(1), key(5)], ClockError),
        ([10, 20, 30], [key(5), key(1), key(6)], DuplicateEntryError),
        ([10, 20, 30], [key(5), key(6), key(5)], DuplicateEntryError),
    ])
    def test_errors_leave_the_state_of_the_insert_loop(self, times, keys, error):
        table, twin = FlowTable(3, idle_timeout=25), FlowTable(3, idle_timeout=25)
        for each in (table, twin):
            each.insert(key(1), 8)
        with pytest.raises(error):
            table.admit(keys, times, "background")
        with pytest.raises(error):
            self.insert_loop(twin, keys, times)
        assert table_state(table) == table_state(twin)


def owner_by_range(k: FlowKey) -> str:
    """Keys 100 and up are background arrivals, the rest the attacker's."""
    return "background" if int(k.src_ip.rsplit(".", 1)[1]) >= 100 else "attacker"


class TestFreshOwners:
    """Background arrivals (`admit`) and the attacker's fresh-key runs
    (`install_run`, with and without a watched key) share one table; it
    must behave as with one `lookup`, and `insert` on a miss, per probe,
    whichever owner's entries it hits, evicts or expires."""

    @settings(max_examples=300, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 8),
        hard=st.sampled_from((0, 40, 100)),
        idle=st.sampled_from((0, 25, 60)),
        ops=st.lists(st.one_of(
            st.tuples(st.just("admit"), st.lists(st.integers(0, 12), max_size=8)),
            st.tuples(st.just("probe"), st.integers(0, 30), st.integers(0, 40)),
            st.tuples(st.just("run"), st.integers(0, 30), st.integers(0, 4),
                      st.lists(st.integers(0, 15), max_size=8),
                      st.none() | st.integers(0, 40)),
        ), max_size=12),
    )
    def test_matches_a_probe_loop_and_the_oracle(self, policy, capacity, hard, idle, ops):
        table, twin = (FlowTable(capacity, policy, hard, idle) for _ in range(2))
        oracle = ReplayOracle(capacity, policy)
        now, admitted = 0, 0

        def probed(i):
            """i < 16 is an attacker key; above, a background key admitted so
            far, if there is one."""
            return key(i) if i < 16 or not admitted else key(100 + (i - 16) % admitted)

        def probe(each, k, at_us):
            """A lookup of `k` on `each`, and an insert on a miss; returns
            whether it hit and whether the insert found the table full."""
            if each.lookup(k, at_us):
                return True, False
            return False, each.insert(k, at_us, owner_by_range(k)).was_full

        def replay(k, at_us):
            """`probe` on the twin, checked against the oracle."""
            hit = oracle.lookup(k, at_us)
            full = not hit and oracle.insert(k, at_us, hard, idle, owner_by_range(k))[1]
            assert probe(twin, k, at_us) == (hit, full)
            return hit, full

        for op in ops:
            if op[0] == "admit":
                times = list(itertools.accumulate(op[1], initial=now))[1:]
                keys = [key(100 + admitted + j) for j in range(len(times))]
                admitted += len(keys)
                full = table.admit(keys, times, "background")
                assert full == TestAdmit.insert_loop(twin, keys, times)
                assert full == [j for j, (k, t) in enumerate(zip(keys, times))
                                if oracle.insert(k, t, hard, idle, "background")[1]]
                now = times[-1] if times else now
            elif op[0] == "probe":
                now += op[1]
                k = probed(op[2])
                assert probe(table, k, now) == replay(k, now)
            else:  # a fresh-key run, driven as `SwitchSimulator.send_rounds` does
                _, dt, gap, run, watch = op
                now += dt
                if watch is not None:  # live from here on
                    watch = probed(watch)
                    assert probe(table, watch, now) == replay(watch, now)
                    now += 1
                keys = [key(i) for i in run]
                step = gap if watch is None else 2 * gap
                sent, at_us = 0, now
                while sent < len(keys):
                    rounds, full = table.install_run(keys, at_us, gap, math.inf,
                                                     owner_by_range, sent, watch)
                    if rounds:
                        for j in range(rounds):
                            assert replay(keys[sent + j], at_us) == (False, j in full)
                            if watch is not None:
                                assert replay(watch, at_us + gap)[0]
                            at_us += step
                    else:  # one round, probe by probe
                        rounds = 1
                        assert probe(table, keys[sent], at_us) == replay(keys[sent], at_us)
                        if watch is not None:
                            assert probe(table, watch, at_us + gap) == replay(
                                watch, at_us + gap)
                        at_us += step
                    sent += rounds
                    now = at_us - step + (gap if watch is not None else 0)
            assert table_state(table) == table_state(twin)
            assert table.removal_log == twin.removal_log
        # Flush with new keys so every surviving entry's victim rank shows.
        for j in range(200, 200 + capacity):
            assert table.insert(key(j), now).evicted == oracle.insert(
                key(j), now, hard, idle)[0]
        assert sorted(table.removal_log) == sorted(oracle.removal_log)

    def test_an_admit_batch_expires_attacker_fresh_entries_of_their_owner(self):
        # Run keys installed at 10, 15 and 20 fall due at 60, 65 and 70 in
        # one admit batch: the first by a purge at 61, the others and key(100)
        # (due 80) by the batch itself.
        table, twin = FlowTable(10, idle_timeout=50), FlowTable(10, idle_timeout=50)
        run = [key(1), key(2), key(3)]
        assert table.install_run(run, 10, 5, math.inf, owner_by_range) == (3, [])
        for i, k in enumerate(run):
            twin.insert(k, 10 + 5 * i, "attacker")
        times, arrivals = [30, 61, 66, 71, 80], [key(100 + j) for j in range(5)]
        assert table.admit(arrivals, times, "background") == []
        TestAdmit.insert_loop(twin, arrivals, times)
        assert table_state(table) == table_state(twin)
        assert table.removal_log == [(61, key(1), "attacker", EXPIRED),
                                     (66, key(2), "attacker", EXPIRED),
                                     (71, key(3), "attacker", EXPIRED),
                                     (80, key(100), "background", EXPIRED)]


class TestTableTimeouts:
    """Every entry takes its table's timeouts, however it was installed."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("hard, idle, due", [
        (0, 0, None), (500, 0, 510), (0, 400, 650), (500, 400, 510), (400, 500, 410)])
    def test_inserted_and_admitted_entries_fall_due_together(self, policy, hard, idle,
                                                             due):
        # key(1) by `insert` and key(2) by `admit`, both at 10, both hit at
        # 100 and 250.
        table, oracle = FlowTable(4, policy, hard, idle), ReplayOracle(4, policy)
        table.insert(key(1), 10, "background")
        assert table.admit([key(2)], [10], "background") == []
        for k in (key(1), key(2)):
            oracle.insert(k, 10, hard, idle, "background")

        def seen():
            view = table.entries
            return [(view[k].inserted_at, view[k].last_access, view[k].owner)
                    for k in (key(1), key(2))]

        assert seen() == [(10, 10, "background")] * 2
        for t in (100, 250):
            for k in (key(1), key(2)):
                assert table.lookup(k, t) and oracle.lookup(k, t)
        assert seen() == [(10, 250, "background")] * 2
        for now in range(251, 1200):
            assert sorted(table.purge_expired(now)) == sorted(oracle.purge(now))
        assert table.removal_log == sorted(oracle.removal_log)
        assert [r.time for r in table.removal_log] == ([] if due is None else [due] * 2)


def unlogged_state(table):
    """`table_state(table, raw=True)` less the removal log, in which twins
    built with and without `log` differ."""
    state = list(table_state(table, raw=True))
    assert state.pop(3) is table.removal_log
    return state


class TestUnlogged:
    """A table built with `log=False` keeps `removal_log` empty and
    otherwise runs exactly as one with the log."""

    @settings(max_examples=400, deadline=None)
    @given(
        policy=st.sampled_from(("FIFO", "LRU")),
        capacity=st.integers(1, 6),
        hard=st.sampled_from((0, 40, 150)),
        idle=st.sampled_from((0, 25, 90)),
        ops=st.lists(st.tuples(
            st.sampled_from(("lookup", "insert", "admit", "touch_run",
                             "install_run", "purge_expired", "occupancy")),
            st.integers(0, 60),                                   # wait before, us
            st.lists(st.integers(0, 11), min_size=1, max_size=8),  # keys
            st.integers(0, 3),                                    # gap, us
            st.sampled_from((30, 200, math.inf)),                 # until, after now
            st.integers(0, 2),                                    # first
            st.one_of(st.none(), st.integers(0, 11)),             # watched key
        ), max_size=20),
    )
    def test_matches_a_logged_twin(self, policy, capacity, hard, idle, ops):
        logged = FlowTable(capacity, policy, hard, idle)
        unlogged = FlowTable(capacity, policy, hard, idle, log=False)
        for name, wait, indexes, gap, until, first, watched in ops:
            now = logged._now + wait
            keys = [key(i) for i in indexes]
            args = {
                "lookup": (keys[0], now),
                "insert": (keys[0], now, owner_by_index(keys[0])),
                "admit": (keys, [now + gap * i for i in range(len(keys))], "background"),
                "touch_run": (keys, now, gap, now + until, first),
                "install_run": (keys, now, gap, now + until, owner_by_index, first,
                                None if watched is None else key(watched)),
                "purge_expired": (now,),
                "occupancy": (now,),
            }[name]

            def outcome(table):
                try:
                    return getattr(table, name)(*args)
                except DuplicateEntryError as error:  # a live key, in both
                    return str(error)

            assert outcome(unlogged) == outcome(logged)
            assert unlogged_state(unlogged) == unlogged_state(logged)
            assert unlogged.removal_log == []
