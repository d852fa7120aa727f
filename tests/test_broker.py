"""Log broker: topics, offsets, groups, deletion, crash redelivery."""
import random
import threading
import time
import tracemalloc

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from hybridflow.broker import Broker
from hybridflow.errors import DuplicateTopic, UnknownGroup, UnknownTopic
from hybridflow.model import ConsumerMode

EO = ConsumerMode.EXACTLY_ONCE
ALO = ConsumerMode.AT_LEAST_ONCE
AMO = ConsumerMode.AT_MOST_ONCE


def make_broker(**kw) -> Broker:
    return Broker(**kw)


class _CountingRecords(dict):
    """A topic's record dict that counts membership tests."""

    contains = 0

    def __contains__(self, key):
        self.contains += 1
        return super().__contains__(key)


class TestTopics:
    def test_create_single_partition(self):
        b = make_broker()
        b.create_topic("s-001")
        stats = b.stats("s-001")
        assert stats.appended == 0
        assert stats.remaining == 0

    def test_duplicate_name(self):
        b = make_broker()
        b.create_topic("s-001")
        with pytest.raises(DuplicateTopic):
            b.create_topic("s-001")

    def test_delete_then_recreate_is_empty(self):
        b = make_broker()
        b.create_topic("t")
        b.append("t", b"x")
        b.delete_topic("t")
        b.create_topic("t")
        assert b.stats("t").appended == 0

    def test_delete_unknown(self):
        b = make_broker()
        with pytest.raises(UnknownTopic):
            b.delete_topic("nope")

    def test_delete_drops_group_state(self):
        b = make_broker()
        b.create_topic("t")
        b.poll("t", "g", "c1", EO)
        b.delete_topic("t")
        b.create_topic("t")
        with pytest.raises(UnknownGroup):
            b.expire_consumer("t", "g", "c1")


class TestAppend:
    def test_first_offset_zero(self):
        b = make_broker()
        b.create_topic("t")
        assert b.append("t", b"a") == 0

    def test_sequential_offsets(self):
        b = make_broker()
        b.create_topic("t")
        assert [b.append("t", bytes([i])) for i in range(3)] == [0, 1, 2]

    def test_unknown_topic(self):
        b = make_broker()
        with pytest.raises(UnknownTopic):
            b.append("nope", b"a")

    def test_offsets_survive_deletion(self):
        # deletion must not renumber: offsets keep counting all appends ever
        b = make_broker()
        b.create_topic("t")
        b.append("t", b"a")
        recs = b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE)
        assert [r.offset for r in recs] == [0]
        assert b.append("t", b"b") == 1

    def test_batch_takes_consecutive_offsets_one_time_and_one_version(self):
        b = make_broker()
        b.create_topic("t")
        b.append("t", b"a")
        version = b.version("t")
        assert b.append("t", b"b", b"c", b"d") == 1
        assert b.version("t") == version + 1
        recs = b.poll("t", "g", "c", EO)
        assert [(r.offset, r.value) for r in recs] == [
            (0, b"a"), (1, b"b"), (2, b"c"), (3, b"d")]
        assert len({r.publish_time for r in recs[1:]}) == 1

    def test_appending_nothing_changes_nothing(self):
        b = make_broker()
        b.create_topic("t")
        b.append("t", b"a")
        version = b.version("t")
        assert b.append("t") == 1
        assert b.version("t") == version
        assert b.stats("t").appended == 1
        assert b.append("t", b"b") == 1


class TestFetchCommit:
    """What a poll hands out, to whom, and what a crash gives back."""

    def test_fetch_all_from_zero(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(5):
            b.append("t", bytes([i]))
        records = b.poll("t", "g", "c", EO)
        # replay oracle: everything appended, in order
        assert [r.offset for r in records] == [0, 1, 2, 3, 4]
        # in-flight marker advanced: nothing further to hand out
        assert b.poll("t", "g", "c", EO) == []

    def test_empty_log(self):
        b = make_broker()
        b.create_topic("t")
        for mode in (EO, ALO, AMO):
            assert b.poll("t", "g", "c", mode) == []

    def test_two_members_disjoint_union(self):
        b = make_broker()
        b.create_topic("t")
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
        b.create_topic("t")
        for i in range(3):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "c1", EO)) == 3
        assert b.stats("t").remaining == 0
        b.expire_consumer("t", "g", "c1")
        assert b.pending("t", "g") == 0
        assert b.poll("t", "g", "c2", EO) == []

    def test_crash_redelivery_at_least_once(self):
        b = make_broker()
        b.create_topic("t")
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
        b.create_topic("t")
        for i in range(3):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "dead", AMO)) == 3
        b.expire_consumer("t", "g", "dead")
        assert b.poll("t", "g", "alive", AMO) == []

    def test_lease_timeout_redelivery(self):
        b = make_broker(lease_ms=20)
        b.create_topic("t")
        b.append("t", b"a")
        assert len(b.poll("t", "g", "dead", ALO)) == 1
        time.sleep(0.05)
        assert len(b.poll("t", "g", "alive", ALO)) == 1


class TestModePolls:
    def test_exactly_once_poll_removes_records(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(4):
            b.append("t", bytes([i]))
        got = b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE)
        assert len(got) == 4
        assert b.poll("t", "g", "c", ConsumerMode.EXACTLY_ONCE) == []
        assert b.stats("t").remaining == 0

    def test_at_least_once_lagged_commit(self):
        b = make_broker()
        b.create_topic("t")
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
        b.create_topic("t")
        for i in range(4):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "g", "c1", ConsumerMode.EXACTLY_ONCE)) == 4
        assert b.poll("t", "g", "c2", ConsumerMode.EXACTLY_ONCE) == []


class TestPendingAndWait:
    def test_pending_counts_leased_records(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(3):
            b.append("t", bytes([i]))
        assert b.pending("t", "g") == 3
        assert len(b.poll("t", "g", "c1", ALO, max_records=2)) == 2
        assert b.pending("t", "g") == 3  # two leased, one fresh
        assert len(b.poll("t", "g", "c1", ALO)) == 1  # commits the first two
        assert b.pending("t", "g") == 1
        assert b.poll("t", "g", "c1", ALO) == []
        assert b.pending("t", "g") == 0

    @pytest.mark.parametrize("mode", [EO, ALO])
    def test_drained_check_stops_at_the_first_unfinished_record(self, mode):
        # a closed stream's POLLREQ asks after every poll whether the group is
        # drained; walking the whole backlog there made draining quadratic
        b = make_broker()
        b.create_topic("t")
        for _ in range(50_000):
            b.append("t", b"v")
        topic = b._topics["t"]
        topic.records = records = _CountingRecords(topic.records)
        lookups = []
        while True:
            b.poll("t", "g", "c", mode, max_records=500)
            records.contains = 0
            drained = b.drained("t", "g")
            lookups.append(records.contains)
            if drained:
                break
        # the 100th poll takes the last batch; at least once holds it one poll more
        assert len(lookups) == (100 if mode is EO else 101)
        assert max(lookups) <= 1, max(lookups)
        assert b.pending("t", "g") == 0

    def test_change_before_wait_is_not_lost(self):
        b = make_broker()
        b.create_topic("t")
        seen = b.version("t")
        assert b.poll("t", "g", "c1", EO) == []
        b.append("t", b"late")  # lands between the empty poll and the wait
        start = time.monotonic()
        b.wait("t", "g", seen, time.monotonic() + 5)
        assert time.monotonic() - start < 0.5
        assert len(b.poll("t", "g", "c1", EO)) == 1

    def test_wake_releases_a_waiter(self):
        b = make_broker()
        b.create_topic("t")
        threading.Timer(0.05, b.wake, args=("t",)).start()
        start = time.monotonic()
        b.wait("t", "g", b.version("t"), time.monotonic() + 5)
        assert 0.04 <= time.monotonic() - start < 1.0

    def test_wait_ends_at_lease_deadline(self):
        b = make_broker(lease_ms=100)
        b.create_topic("t")
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
        b.create_topic("t")
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
        b.create_topic("t")
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
        b.create_topic("t")
        b.append("t", b"a")
        rec = b.poll("t", "g", "c", ConsumerMode.AT_LEAST_ONCE)[0]
        with pytest.raises(Exception):
            rec.value = b"mutated"


class TestRetention:
    """Records live only until every joined group has committed past them."""

    def test_at_least_once_drain_leaves_only_the_last_lease(self):
        rng = random.Random(7)
        pool = [rng.randbytes(rng.randrange(16, 257)) for _ in range(1024)]
        b = make_broker()
        b.create_topic("t")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            delivered = 0
            for start in range(0, 400_000, 100):
                for seq in range(start, start + 100):
                    b.append("t", seq.to_bytes(4, "big") + pool[seq % 1024])
                delivered += len(b.poll("t", "g", "c", ALO, max_records=500))
            while delivered < 400_000:
                delivered += len(b.poll("t", "g", "c", ALO, max_records=500))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert b.stats("t").remaining <= 500
        assert held < 5 * 2**20, f"{held} bytes still traced"

    def test_late_group_starts_at_the_low_water_mark(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(1005):
            b.append("t", b"v%d" % i)
        assert len(b.poll("t", "a", "c", ALO, max_records=1000)) == 1000
        assert len(b.poll("t", "a", "c", ALO, max_records=1)) == 1  # commits 0-999
        assert b.stats("t").remaining == 5
        got = b.poll("t", "b", "c", ALO, max_records=2)
        assert [r.offset for r in got] == [1000, 1001]
        assert b.pending("t", "b") == b.stats("t").remaining == 5

    def test_a_group_that_stops_polling_pins_the_log(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(10):
            b.append("t", bytes([i]))
        assert len(b.poll("t", "idle", "c", ALO, max_records=2)) == 2
        assert len(b.poll("t", "busy", "c", ALO)) == 10
        assert b.poll("t", "busy", "c", ALO) == []
        assert b.stats("t").remaining == 10
        assert len(b.poll("t", "idle", "c", ALO)) == 8  # commits 0-1
        assert b.stats("t").remaining == 8

    def test_frontier_passes_offsets_another_group_deleted(self):
        b = make_broker()
        b.create_topic("t")
        for i in range(6):
            b.append("t", bytes([i]))
        assert b.poll("t", "alo", "c", ALO, max_records=1)[0].offset == 0
        assert len(b.poll("t", "eo", "c", EO, max_records=3)) == 3  # deletes 0-2
        assert [r.offset for r in b.poll("t", "alo", "c", ALO)] == [3, 4, 5]
        assert b.poll("t", "alo", "c", ALO) == []
        assert b.stats("t").committed["alo"] == 6
        assert len(b.poll("t", "eo", "c", EO)) == 3
        assert b.stats("t").remaining == 0


CONSUMERS = st.sampled_from(["c0", "c1", "c2", "c3"])


class _GroupModel:
    def __init__(self, start: int) -> None:
        self.cursor = start
        # every offset below is finished for this group, or no longer in the log
        self.committed = start
        self.done: set[int] = set()
        self.redeliver: set[int] = set()
        self.leases: dict[str, list[int]] = {}

    def commit(self, offsets: list[int], live: set[int]) -> None:
        self.done.update(offsets)
        while self.committed in self.done or (
                self.committed < self.cursor and self.committed not in live):
            self.committed += 1


class BrokerMachine(RuleBasedStateMachine):
    """One topic polled by one group per mode, against a plain model of one log.

    Leases never time out (the lease is far longer than any run), so only
    expire_consumer returns a batch for redelivery. After every poll the log
    keeps only offsets at or above the lowest committed frontier of the
    groups that have polled, and a group's first poll starts at that mark.
    """

    def __init__(self) -> None:
        super().__init__()
        self.broker = Broker(lease_ms=10**9)
        self.broker.create_topic("t")
        self.appended = 0
        self.live: set[int] = set()
        self.low = 0
        self.groups: dict[str, _GroupModel] = {}
        self.handed: dict[str, set[int]] = {m.value: set() for m in ConsumerMode}
        self.last_fresh: dict[str, int] = {m.value: -1 for m in ConsumerMode}

    def _model_poll(self, mode: ConsumerMode, consumer: str,
                    limit: int | None) -> list[int]:
        g = self.groups.get(mode.value)
        if g is None:
            g = self.groups[mode.value] = _GroupModel(self.low)
        alo = mode is ALO
        if alo and consumer in g.leases:
            g.commit(g.leases.pop(consumer), self.live)
        budget = limit if limit is not None else float("inf")
        taken = []
        for off in sorted(g.redeliver):
            if len(taken) == budget:
                break
            g.redeliver.discard(off)
            if off in self.live and off not in g.done:
                taken.append(off)
        while g.cursor < self.appended and len(taken) < budget:
            if g.cursor in self.live and g.cursor not in g.done:
                taken.append(g.cursor)
            g.cursor += 1
        if alo and taken:
            g.leases[consumer] = taken
        elif not alo and taken:
            self.live.difference_update(taken)
            g.commit(taken, self.live)
        low = min(group.committed for group in self.groups.values())
        self.live = {off for off in self.live if off >= low}
        self.low = low
        return taken

    @rule()
    def append(self):
        assert self.broker.append("t", b"v%d" % self.appended) == self.appended
        self.live.add(self.appended)
        self.appended += 1

    @rule(n=st.integers(min_value=1, max_value=5))
    def append_batch(self, n):
        first = self.appended
        values = [b"v%d" % off for off in range(first, first + n)]
        assert self.broker.append("t", *values) == first
        self.live.update(range(first, first + n))
        self.appended += n

    @initialize(modes=st.sampled_from([(EO, AMO, ALO), (ALO,)]))
    def choose_modes(self, modes):
        # a run polled by the at-least-once group alone is the one whose
        # log shrinks by retention rather than by delete-on-delivery
        self.modes = modes

    @rule(data=st.data(), consumer=CONSUMERS, limit=st.sampled_from([None, 1, 5]))
    def poll(self, data, consumer, limit):
        mode = data.draw(st.sampled_from(self.modes))
        got = [r.offset for r in self.broker.poll("t", mode.value, consumer, mode, limit)]
        assert got == self._model_poll(mode, consumer, limit)
        handed = self.handed[mode.value]
        redelivered = [off for off in got if off in handed]
        fresh = [off for off in got if off not in handed]
        assert redelivered == sorted(redelivered)
        for off in fresh:
            assert off > self.last_fresh[mode.value]
            self.last_fresh[mode.value] = off
        if mode is not ALO:
            assert not redelivered
        handed.update(got)

    @rule(consumer=CONSUMERS)
    def expire_consumer(self, consumer):
        # only at-least-once members hold leases; the other modes have none to expire
        g = self.groups.get(ALO.value)
        if g is None:
            with pytest.raises(UnknownGroup):
                self.broker.expire_consumer("t", ALO.value, consumer)
            return
        self.broker.expire_consumer("t", ALO.value, consumer)
        g.redeliver.update(g.leases.pop(consumer, []))

    @invariant()
    def pending_matches_model(self):
        for mode in (EO, AMO, ALO):
            g = self.groups.get(mode.value)
            if g is None:
                want = len(self.live)
            else:
                want = (sum(len(offs) for offs in g.leases.values())
                        + sum(1 for off in range(g.cursor, self.appended) if off in self.live)
                        + sum(1 for off in g.redeliver if off in self.live))
            assert self.broker.pending("t", mode.value) == want

    @invariant()
    def appended_counts_every_append(self):
        assert self.broker.stats("t").appended == self.appended

    @invariant()
    def remaining_is_the_live_log(self):
        assert self.broker.stats("t").remaining == len(self.live)

    @invariant()
    def frontiers_match_model(self):
        want = {gid: g.committed for gid, g in self.groups.items()}
        assert self.broker.stats("t").committed == want


BrokerMachine.TestCase.settings = settings(max_examples=300, stateful_step_count=40,
                                           deadline=None)
TestBrokerMachine = BrokerMachine.TestCase
