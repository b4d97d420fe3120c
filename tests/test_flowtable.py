"""Unit and oracle-equivalence tests for the flow table."""

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


def entry(i: int, hard: int = 0, idle: int = 0, owner: str = "attacker") -> FlowEntry:
    return FlowEntry(key=key(i), hard_timeout=hard, idle_timeout=idle, owner=owner)


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
        table.insert(entry(1), 0)
        assert table.lookup(key(1), 1) is True

    def test_idle_expiry_misses(self):
        # Hand replay: inserted at 0 with idle 5000 ms, probed at 6000 ms;
        # 6000 - 0 >= 5000 so the entry is gone.
        table = FlowTable(capacity=4)
        table.insert(entry(1, idle=5000 * MS), 0)
        assert table.lookup(key(1), 6000 * MS) is False

    def test_hit_refreshes_idle_timer(self):
        table = FlowTable(capacity=4)
        table.insert(entry(1, idle=5000 * MS), 0)
        assert table.lookup(key(1), 4000 * MS) is True
        assert table.lookup(key(1), 8500 * MS) is True  # 4500 ms since refresh
        assert table.lookup(key(1), 14000 * MS) is False

    def test_hard_expiry_ignores_refreshes(self):
        table = FlowTable(capacity=4)
        table.insert(entry(1, hard=1000 * MS), 0)
        for t in range(100, 1000, 100):
            assert table.lookup(key(1), t * MS) is True
        assert table.lookup(key(1), 1000 * MS) is False

    def test_clock_must_not_go_backwards(self):
        table = FlowTable(capacity=4)
        table.insert(entry(1), 100)
        with pytest.raises(ClockError):
            table.lookup(key(1), 50)


class TestInsert:
    def test_under_capacity(self):
        table = FlowTable(capacity=2)
        result = table.insert(entry(1), 0)
        assert result.evicted is None and not result.was_full

    def test_fifo_evicts_oldest(self):
        table = FlowTable(capacity=3, policy="FIFO")
        for i in (1, 2, 3):
            table.insert(entry(i), i)
        result = table.insert(entry(4), 10)
        assert result.was_full and result.evicted == key(1)

    def test_fifo_hit_does_not_reorder(self):
        table = FlowTable(capacity=3, policy="FIFO")
        for i in (1, 2, 3):
            table.insert(entry(i), i)
        table.lookup(key(1), 5)  # refresh must not protect k1 under FIFO
        assert table.insert(entry(4), 10).evicted == key(1)

    def test_lru_evicts_least_recent(self):
        table = FlowTable(capacity=3, policy="LRU")
        for i in (1, 2, 3):
            table.insert(entry(i), i)
        table.lookup(key(1), 5)
        assert table.insert(entry(4), 10).evicted == key(2)

    def test_lru_tie_on_last_access_prefers_older_insert(self):
        # k1 inserted before k2; both end up with last_access == 5.
        table = FlowTable(capacity=2, policy="LRU")
        table.insert(entry(1), 0)
        table.insert(entry(2), 5)
        table.lookup(key(1), 5)
        assert table.insert(entry(3), 6).evicted == key(1)

    def test_lru_tie_all_equal_uses_insert_sequence(self):
        table = FlowTable(capacity=3, policy="LRU")
        for i in (1, 2, 3):
            table.insert(entry(i), 0)
        assert table.insert(entry(4), 0).evicted == key(1)

    def test_duplicate_insert_rejected(self):
        table = FlowTable(capacity=2)
        table.insert(entry(1), 0)
        with pytest.raises(DuplicateEntryError):
            table.insert(entry(1), 1)

    def test_reinstall_after_expiry_gets_fresh_position(self):
        # k1 expires, is reinstalled, and must then be newest, not oldest.
        table = FlowTable(capacity=2, policy="FIFO")
        table.insert(entry(1, idle=10 * MS), 0)
        table.insert(entry(2), 5 * MS)
        assert table.lookup(key(1), 20 * MS) is False
        table.insert(entry(1), 20 * MS)
        assert table.insert(entry(3), 21 * MS).evicted == key(2)


class TestOccupancy:
    def test_empty(self):
        table = FlowTable(capacity=8)
        assert table.occupancy(0) == (0, 0)

    def test_counts_by_owner(self):
        table = FlowTable(capacity=100)
        for i in range(5):
            table.insert(entry(i, owner="attacker"), i)
        for i in range(5, 8):
            table.insert(entry(i, owner="background"), i)
        assert table.occupancy(10) == (5, 3)

    def test_hard_timeout_empties_table(self):
        # Hand replay: five entries with hard 1000 ms, queried at 2000 ms.
        table = FlowTable(capacity=100)
        for i in range(5):
            table.insert(entry(i, hard=1000 * MS, owner="background"), 0)
        assert table.occupancy(2000 * MS) == (0, 0)
        assert [r.reason for r in table.removal_log] == [EXPIRED] * 5


class TestPurge:
    def test_purge_is_idempotent(self):
        table = FlowTable(capacity=8)
        for i in range(4):
            table.insert(entry(i, idle=100 * MS), 0)
        first = table.purge_expired(150 * MS)
        assert sorted(k.src_ip for k in first) == sorted(key(i).src_ip for i in range(4))
        snapshot = dict(table.entries)
        assert table.purge_expired(150 * MS) == []
        assert table.entries == snapshot

    def test_frequent_access_prevents_idle_expiry(self):
        table = FlowTable(capacity=4)
        idle = 1000 * MS
        table.insert(entry(1, idle=idle), 0)
        t = 0
        for _ in range(200):
            t += idle - 1
            assert table.lookup(key(1), t) is True


class TestOracleEquivalence:
    """Random traces against the scan-based reference model."""

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_trace_matches_oracle(self, policy, seed):
        rng = random.Random(seed)
        capacity = rng.randint(4, 24)
        table = FlowTable(capacity=capacity, policy=policy)
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
                hard = rng.choice((0, 0, 900, 4000))
                idle = rng.choice((0, 0, 700, 2500))
                result = table.insert(entry(i, hard=hard, idle=idle), now)
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
        steps=st.lists(
            st.tuples(
                st.sampled_from((0, 0, 0, 1, 2, 7, 40)),  # time step, us
                st.integers(0, 9),                        # key index
                st.booleans(),                            # install on a miss
                st.sampled_from((0, 0, 15, 60)),          # hard timeout, us
                st.sampled_from((0, 0, 5, 30)),           # idle timeout, us
            ),
            max_size=60,
        ),
    )
    def test_generated_trace_matches_oracle(self, policy, capacity, steps):
        # Small tables, tiny key space and frequent zero time steps make
        # same-microsecond ties, expiries and reinstalls the common case.
        table = FlowTable(capacity=capacity, policy=policy)
        oracle = ReplayOracle(capacity=capacity, policy=policy)
        now = 0
        for step, (dt, i, install, hard, idle) in enumerate(steps):
            now += dt
            owner = "background" if i % 3 == 0 else "attacker"
            hit = table.lookup(key(i), now)
            assert hit == oracle.lookup(key(i), now), f"hit at step {step}"
            if not hit and install:
                result = table.insert(entry(i, hard, idle, owner), now)
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
            assert table.insert(entry(j), now).evicted == oracle.insert(key(j), now)[0]

    @pytest.mark.parametrize("policy", ["FIFO", "LRU"])
    def test_occupancy_never_exceeds_capacity(self, policy):
        rng = random.Random(99)
        table = FlowTable(capacity=6, policy=policy)
        now = 0
        for _ in range(5_000):
            now += rng.randint(0, 20)
            i = rng.randint(0, 30)
            if not table.lookup(key(i), now):
                table.insert(entry(i, idle=rng.choice((0, 40))), now)
            assert len(table) <= 6
