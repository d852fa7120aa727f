"""In-process append-only log with consumer groups and deletion.

Topics are named after stream ids; each topic is one log whose records carry
a strictly sequential offset that survives deletion. Broker.append takes a
batch: one call is one hold of the topic lock, one publish time shared by its
records and one wake of the topic's waiters. The stream server checks every
payload of a PUBREQ first and then appends them with one call, so a request
is appended whole or not at all. A consumer group tracks a committed frontier
over the log: every offset below it the group has finished or can never
receive. Broker.poll is the only consume path:
EXACTLY_ONCE and AT_MOST_ONCE delete what they deliver, while AT_LEAST_ONCE
leases each batch until the consumer's next poll commits it, so a member that
dies in between has its batch redelivered. A poll hands out redeliveries
first, lowest offset first, then fresh records in publish order.

Retention: a record is kept only until every group that has joined the topic
has committed past it. A poll that moves its group's frontier deletes every
offset below the lowest frontier of the topic's groups and raises the topic's
low-water mark to it, walking each offset once. A group joins at its first
poll and starts at the mark, so it never sees a record other groups have
already released; a joined group that stops polling keeps every record from
its frontier on. Broker.poll never blocks; wait() blocks until the topic's
version moves, and delete_topic() wakes the topic's waiters.
"""
from __future__ import annotations

import heapq
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import DuplicateTopic, UnknownGroup, UnknownTopic
from .model import ConsumerMode, LogRecord, TopicStats

DEFAULT_LEASE_MS = 30_000


def _now_ms() -> int:
    return int(time.time() * 1000)


@dataclass
class _Lease:
    offsets: list[int]  # handed out, in delivery order
    deadline: float


class _Group:
    def __init__(self, start: int) -> None:
        # committed frontier: everything below is permanently done
        self.committed = start
        # individually acked offsets not yet contiguous with the frontier
        self.done: set[int] = set()
        # next fresh offset to hand out (>= committed frontier)
        self.cursor = start
        # min-heap of offsets returned by expired leases, awaiting redelivery
        self.redeliver: list[int] = []
        # at-least-once batch each consumer holds until its next poll
        self.leases: dict[str, _Lease] = {}

    def mark_done(self, offsets: list[int], records: dict[int, LogRecord]) -> None:
        """Record finished offsets (ascending) and advance the frontier.

        The frontier also passes offsets behind the cursor that are no longer
        in the log: another group consumed them, so this one never will.
        """
        done = self.done
        frontier = self.committed
        if offsets and offsets[0] == frontier and offsets[-1] - frontier == len(offsets) - 1:
            frontier += len(offsets)  # one run starting at the frontier: the common case
        else:
            if offsets and offsets[0] < frontier:  # passed while leased
                offsets = [off for off in offsets if off >= frontier]
            done.update(offsets)
        cursor = self.cursor
        while frontier in done or (frontier < cursor and frontier not in records):
            done.discard(frontier)
            frontier += 1
        self.committed = frontier

    def reap_expired(self) -> None:
        now = time.monotonic()
        expired = [c for c, lease in self.leases.items() if lease.deadline <= now]
        for consumer in expired:
            self.requeue(self.leases.pop(consumer))

    def requeue(self, lease: _Lease) -> None:
        for off in lease.offsets:
            heapq.heappush(self.redeliver, off)


class _Topic:
    def __init__(self, name: str) -> None:
        self.name = name
        self.next_offset = 0
        # live records by offset; a dict, because a poll may delete a
        # redelivered offset after later ones
        self.records: dict[int, LogRecord] = {}
        self.groups: dict[str, _Group] = {}
        # low-water mark: every offset below it is deleted for good
        self.low = 0
        self.lock = threading.RLock()
        self.changed = threading.Condition(self.lock)
        self.version = 0

    def bump(self) -> None:  # caller holds the lock
        self.version += 1
        self.changed.notify_all()

    def join(self, group_id: str) -> _Group:
        group = self.groups.get(group_id)
        if group is None:
            group = self.groups[group_id] = _Group(self.low)
        return group

    def unfinished(self, group_id: str) -> Iterator[int]:
        """Offsets the group has not finished, leased ones first; caller holds the lock."""
        records = self.records
        group = self.groups.get(group_id)
        if group is None:
            yield from records
            return
        group.reap_expired()
        for lease in group.leases.values():
            yield from lease.offsets
        yield from (off for off in group.redeliver if off in records)
        # fresh: only offsets past the cursor
        yield from (off for off in range(group.cursor, self.next_offset) if off in records)

    def retain(self) -> None:
        """Delete what every group has committed past; caller holds the lock."""
        low = min(g.committed for g in self.groups.values())
        records = self.records
        for off in range(self.low, low):
            records.pop(off, None)
        self.low = max(self.low, low)


class Broker:
    """Thread-safe in-memory log broker; mutation is serialized per topic."""

    def __init__(self, lease_ms: int = DEFAULT_LEASE_MS) -> None:
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.RLock()
        self.lease_ms = lease_ms

    # -- topic management --

    def create_topic(self, name: str) -> None:
        with self._lock:
            if name in self._topics:
                raise DuplicateTopic(name)
            self._topics[name] = _Topic(name)

    def delete_topic(self, name: str) -> None:
        """Drop the topic; its waiters wake and find it gone."""
        with self._lock:
            t = self._topics.pop(name, None)
        if t is None:
            raise UnknownTopic(name)
        with t.lock:
            t.bump()

    def _topic(self, name: str) -> _Topic:
        with self._lock:
            try:
                return self._topics[name]
            except KeyError:
                raise UnknownTopic(name) from None

    # -- producer side --

    def append(self, topic: str, *values: bytes) -> int:
        """Append the values to the end of the log; returns the first one's offset.

        One call is one hold of the topic lock, one publish time and one wake,
        however many values it carries. Appending none changes nothing.
        """
        t = self._topic(topic)
        with t.lock:
            first = offset = t.next_offset
            if not values:
                return first
            now = _now_ms()
            records = t.records
            for value in values:
                records[offset] = LogRecord(value, offset, now)
                offset += 1
            t.next_offset = offset
            t.bump()
            return first

    # -- consumer side --

    def _take(self, t: _Topic, group: _Group, limit: int | None) -> list[LogRecord]:
        """Next records for the group: redeliveries first, then fresh ones."""
        out: list[LogRecord] = []
        budget = limit if limit is not None else -1
        records = t.records
        frontier = group.committed
        done = group.done
        queue = group.redeliver
        while queue and budget != 0:
            off = heapq.heappop(queue)
            rec = records.get(off)
            if rec is not None and off >= frontier and off not in done:
                out.append(rec)
                budget -= 1
        # no offset at or past the cursor was handed out, so none is done
        cursor = group.cursor
        end = t.next_offset
        while cursor < end and budget != 0:
            rec = records.get(cursor)
            if rec is not None:
                out.append(rec)
                budget -= 1
            cursor += 1
        group.cursor = cursor
        return out

    def poll(self, topic: str, group_id: str, consumer: str,
             mode: ConsumerMode, max_records: int | None = None) -> list[LogRecord]:
        """Hand the next unread records of the topic to one group member.

        EXACTLY_ONCE and AT_MOST_ONCE mark the records done and delete them
        before returning, so nothing is ever redelivered. AT_LEAST_ONCE first
        commits the consumer's previous batch and then leases the new one, so
        only a member that never polls again, or outlives the lease, leaves
        its batch to be redelivered. A poll that moves the group's frontier
        then deletes what every group has committed past.
        """
        t = self._topic(topic)
        with t.lock:
            group = t.join(group_id)
            group.reap_expired()
            frontier = group.committed
            alo = mode is ConsumerMode.AT_LEAST_ONCE
            held = group.leases.pop(consumer, None) if alo else None
            if held is not None:
                group.mark_done(held.offsets, t.records)
            taken = self._take(t, group, max_records)
            if taken:
                offsets = [rec.offset for rec in taken]
                if alo:
                    group.leases[consumer] = _Lease(
                        offsets=offsets,
                        deadline=time.monotonic() + self.lease_ms / 1000.0,
                    )
                else:
                    records = t.records
                    for off in offsets:
                        del records[off]
                    group.mark_done(offsets, records)
            if group.committed != frontier:
                t.retain()
            if taken or held is not None:
                t.bump()
            return taken

    def expire_consumer(self, topic: str, group_id: str, consumer: str) -> None:
        """Simulate a member crash: its leased batch returns for redelivery."""
        t = self._topic(topic)
        with t.lock:
            group = t.groups.get(group_id)
            if group is None:
                raise UnknownGroup(group_id)
            lease = group.leases.pop(consumer, None)
            if lease is not None:
                group.requeue(lease)
                t.bump()

    def version(self, topic: str) -> int:
        """Change counter: appends, commits, redeliveries and wake() bump it."""
        return self._topic(topic).version

    def wake(self, topic: str | None = None) -> None:
        """Count a change made outside the broker and wake one topic's waiters, or all."""
        with self._lock:
            topics = list(self._topics.values()) if topic is None else [self._topic(topic)]
        for t in topics:
            with t.lock:
                t.bump()

    def wait(self, topic: str, group_id: str, seen: int, deadline: float) -> None:
        """Block while the version is `seen`, up to `deadline` or the group's next lease expiry."""
        t = self._topic(topic)
        with t.lock:
            while t.version == seen:
                leases = t.join(group_id).leases.values()
                until = min([deadline, *(lease.deadline for lease in leases)])
                remaining = until - time.monotonic()
                if remaining <= 0:
                    return
                t.changed.wait(remaining)

    # -- inspection --

    def stats(self, topic: str) -> TopicStats:
        t = self._topic(topic)
        with t.lock:
            return TopicStats(
                name=t.name,
                appended=t.next_offset,
                remaining=len(t.records),
                committed={gid: g.committed for gid, g in t.groups.items()},
            )

    def pending(self, topic: str, group_id: str) -> int:
        """Records the group has not finished: fresh, redeliverable or leased."""
        t = self._topic(topic)
        with t.lock:
            return sum(1 for _ in t.unfinished(group_id))

    def drained(self, topic: str, group_id: str) -> bool:
        """Whether pending() is 0, found by stopping at the first unfinished record."""
        t = self._topic(topic)
        with t.lock:
            return next(t.unfinished(group_id), None) is None
