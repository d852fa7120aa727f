"""Log broker: topics, offsets, groups, deletion, crash redelivery."""
import threading
import time

import pytest

from hybridflow.broker import Broker
from hybridflow.errors import DuplicateTopic, UnknownGroup, UnknownTopic
from hybridflow.model import ConsumerMode

EO = ConsumerMode.EXACTLY_ONCE
ALO = ConsumerMode.AT_LEAST_ONCE
AMO = ConsumerMode.AT_MOST_ONCE


def make_broker(**kw) -> Broker:
    return Broker(**kw)


class TestTopics:
    def test_create_single_partition(self):
        b = make_broker()
        b.create_topic("s-001", 1)
        stats = b.stats("s-001")
        assert stats.partitions == 1
        assert stats.appended == 0
        assert stats.remaining == 0

    def test_duplicate_name(self):
        b = make_broker()
        b.create_topic("s-001", 1)
        with pytest.raises(DuplicateTopic):
            b.create_topic("s-001", 1)

    def test_partition_offsets_independent(self):
        # oracle: appends routed round-robin land once on each partition,
        # so every partition's first offset must be 0
        b = make_broker()
        b.create_topic("s-002", 3)
        offs = [b.append("s-002", f"v{i}".encode()) for i in range(3)]
        assert offs == [0, 0, 0]

    def test_delete_then_recreate_is_empty(self):
        b = make_broker()
        b.create_topic("t", 1)
        b.append("t", b"x")
        b.delete_topic("t")
        b.create_topic("t", 1)
        assert b.stats("t").appended == 0

    def test_delete_unknown(self):
        b = make_broker()
        with pytest.raises(UnknownTopic):
            b.delete_topic("nope")

    def test_delete_drops_group_state(self):
        b = make_broker()
        b.create_topic("t", 1)
        b.poll("t", "g", "c1", EO)
        b.delete_topic("t")
        b.create_topic("t", 1)
        with pytest.raises(UnknownGroup):
            b.expire_consumer("t", "g", "c1")


class TestAppend:
    def test_first_offset_zero(self):
        b = make_broker()
        b.create_topic("t", 1)
        assert b.append("t", b"a") == 0

    def test_sequential_offsets(self):
        b = make_broker()
        b.create_topic("t", 1)
        assert [b.append("t", bytes([i])) for i in range(3)] == [0, 1, 2]

    def test_unknown_topic(self):
        b = make_broker()
        with pytest.raises(UnknownTopic):
            b.append("nope", b"a")

    def test_offsets_survive_deletion(self):
        # deletion must not renumber: offsets keep counting all appends ever
        b = make_broker()
        b.create_topic("t", 1)
        b.append("t", b"a")
        recs = b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE)
        assert [r.offset for r in recs] == [0]
        assert b.append("t", b"b") == 1


class TestFetchCommit:
    """What a poll hands out, to whom, and what a crash gives back."""

    def test_fetch_all_from_zero(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(5):
            b.append("t", bytes([i]))
        records = b.poll("t", "g", "c", EO)
        # replay oracle: everything appended, in order
        assert [r.offset for r in records] == [0, 1, 2, 3, 4]
        # in-flight marker advanced: nothing further to hand out
        assert b.poll("t", "g", "c", EO) == []

    def test_empty_log(self):
        b = make_broker()
        b.create_topic("t", 1)
        for mode in (EO, ALO, AMO):
            assert b.poll("t", "g", "c", mode) == []

    def test_two_members_disjoint_union(self):
        b = make_broker()
        b.create_topic("t", 1)
        values = [bytes([i]) for i in range(10)]
        for v in values:
            b.append("t", v)
        got1 = b.poll("t", "g", "c1", ALO, max_records=4)
        got2 = b.poll("t", "g", "c2", ALO)
        set1 = {r.value for r in got1}
        set2 = {r.value for r in got2}
        assert len(got1) == 4
        assert set1.isdisjoint(set2)
        assert set1 | set2 == set(values)

    def test_commit_then_refetch_empty(self):
        # exactly-once deletes on delivery: no lease is left behind, so a
        # crash right after the poll gives nothing back
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(3):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "c1", EO)) == 3
        assert b.stats("t").remaining == 0
        b.expire_consumer("t", "g", "c1")
        assert b.pending("t", "g") == 0
        assert b.poll("t", "g", "c2", EO) == []

    def test_crash_redelivery_at_least_once(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(4):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "dead1", ALO, max_records=2)) == 2
        assert len(b.poll("t", "g", "dead2", ALO)) == 2
        # crashes in reverse order still redeliver lowest offset first
        b.expire_consumer("t", "g", "dead2")
        b.expire_consumer("t", "g", "dead1")
        redelivered = b.poll("t", "g", "alive", ALO)
        assert [r.offset for r in redelivered] == [0, 1, 2, 3]

    def test_no_redelivery_at_most_once(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(3):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "dead", AMO)) == 3
        b.expire_consumer("t", "g", "dead")
        assert b.poll("t", "g", "alive", AMO) == []

    def test_lease_timeout_redelivery(self):
        b = make_broker(lease_ms=20)
        b.create_topic("t", 1)
        b.append("t", b"a")
        assert len(b.poll("t", "g", "dead", ALO)) == 1
        time.sleep(0.05)
        assert len(b.poll("t", "g", "alive", ALO)) == 1


class TestModePolls:
    def test_exactly_once_poll_removes_records(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(4):
            b.append("t", bytes([i]))
        got = b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE)
        assert len(got) == 4
        assert b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE) == []
        assert b.stats("t").remaining == 0

    def test_at_least_once_lagged_commit(self):
        b = make_broker()
        b.create_topic("t", 1)
        b.append("t", b"a")
        first = b.poll("t", "g", "c1", ConsumerMode.AT_LEAST_ONCE)
        assert len(first) == 1
        # crash before the next poll: batch is still leased, so it redelivers
        b.expire_consumer("t", "g", "c1")
        again = b.poll("t", "g", "c2", ConsumerMode.AT_LEAST_ONCE)
        assert [r.value for r in again] == [b"a"]
        # empty follow-up poll acknowledges; after that no redelivery
        assert b.poll("t", "g", "c2", ConsumerMode.AT_LEAST_ONCE) == []
        b.expire_consumer("t", "g", "c2")
        assert b.poll("t", "g", "c3", ConsumerMode.AT_LEAST_ONCE) == []

    def test_greedy_first_poller_takes_all(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(4):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "c1", ConsumerMode.EXACTLY_ONCE)) == 4
        assert b.poll("t", "g", "c2", ConsumerMode.EXACTLY_ONCE) == []


class TestPendingAndWait:
    def test_pending_counts_leased_records(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(3):
            b.append("t", bytes([i]))
        assert b.pending("t", "g") == 3
        assert len(b.poll("t", "g", "c1", ALO, max_records=2)) == 2
        assert b.pending("t", "g") == 3  # two leased, one fresh
        assert len(b.poll("t", "g", "c1", ALO)) == 1  # commits the first two
        assert b.pending("t", "g") == 1
        assert b.poll("t", "g", "c1", ALO) == []
        assert b.pending("t", "g") == 0

    def test_change_before_wait_is_not_lost(self):
        b = make_broker()
        b.create_topic("t", 1)
        seen = b.version("t")
        assert b.poll("t", "g", "c1", EO) == []
        b.append("t", b"late")  # lands between the empty poll and the wait
        start = time.monotonic()
        b.wait("t", "g", seen, time.monotonic() + 5)
        assert time.monotonic() - start < 0.5
        assert len(b.poll("t", "g", "c1", EO)) == 1

    def test_wake_releases_a_waiter(self):
        b = make_broker()
        b.create_topic("t", 1)
        threading.Timer(0.05, b.wake, args=("t",)).start()
        start = time.monotonic()
        b.wait("t", "g", b.version("t"), time.monotonic() + 5)
        assert 0.04 <= time.monotonic() - start < 1.0

    def test_wait_ends_at_lease_deadline(self):
        b = make_broker(lease_ms=100)
        b.create_topic("t", 1)
        b.append("t", b"v")
        assert len(b.poll("t", "g", "dead", ALO)) == 1
        start = time.monotonic()
        b.wait("t", "g", b.version("t"), time.monotonic() + 5)
        assert 0.08 <= time.monotonic() - start < 1.0
        assert [r.value for r in b.poll("t", "g", "live", ALO)] == [b"v"]


class TestInvariants:
    def test_conservation_exactly_once(self):
        # |appended| == |fetched and committed| + |remaining| at quiescence
        b = make_broker()
        b.create_topic("t", 2)
        for i in range(20):
            b.append("t", bytes([i]))
        delivered = []
        delivered += b.poll("t", "g", "c1", ConsumerMode.EXACTLY_ONCE, max_records=7)
        delivered += b.poll("t", "g", "c2", ConsumerMode.EXACTLY_ONCE, max_records=5)
        stats = b.stats("t")
        assert stats.appended == 20
        assert len(delivered) + stats.remaining == 20

    def test_partition_order_prefix_monotone(self):
        b = make_broker()
        b.create_topic("t", 1)
        for i in range(30):
            b.append("t", bytes([i]))
        seen = []
        for consumer in ("c1", "c2", "c1", "c3"):
            for rec in b.poll("t", "g", consumer, ConsumerMode.EXACTLY_ONCE, max_records=9):
                seen.append(rec.offset)
        assert seen == sorted(seen)
        assert seen == list(range(len(seen)))

    def test_record_immutable(self):
        b = make_broker()
        b.create_topic("t", 1)
        b.append("t", b"a")
        rec = b.poll("t", "g", "c", ConsumerMode.AT_LEAST_ONCE)[0]
        with pytest.raises(Exception):
            rec.value = b"mutated"
