"""In-process partitioned append-only log with consumer groups and deletion.

Topics are named after stream ids. Each partition numbers its records with a
strictly sequential offset that survives deletion. A consumer group tracks a
committed frontier per partition. Broker.poll is the only consume path:
EXACTLY_ONCE and AT_MOST_ONCE delete what they deliver, while AT_LEAST_ONCE
leases each batch until the consumer's next poll commits it, so a member that
dies in between has its batch redelivered.
Broker.poll never blocks; wait() blocks until the topic's version moves.
"""
from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field

from .errors import DuplicateTopic, UnknownGroup, UnknownTopic
from .model import ConsumerMode, LogRecord, TopicStats

DEFAULT_LEASE_MS = 30_000


def _now_ms() -> int:
    return int(time.time() * 1000)


@dataclass
class _Partition:
    index: int
    next_offset: int = 0
    records: dict[int, LogRecord] = field(default_factory=dict)

    def append(self, value: bytes) -> int:
        offset = self.next_offset
        self.records[offset] = LogRecord(
            value=value, offset=offset, partition=self.index,
            publish_time=_now_ms(),
        )
        self.next_offset += 1
        return offset


@dataclass
class _Lease:
    offsets: dict[int, list[int]]  # partition -> offsets handed out
    deadline: float


class _Group:
    def __init__(self, partitions: int) -> None:
        # committed frontier: everything below is permanently done
        self.committed: dict[int, int] = {p: 0 for p in range(partitions)}
        # individually acked offsets not yet contiguous with the frontier
        self.done: dict[int, set[int]] = {p: set() for p in range(partitions)}
        # next fresh offset to hand out (>= committed frontier)
        self.cursor: dict[int, int] = {p: 0 for p in range(partitions)}
        # min-heaps of offsets returned by expired leases, awaiting redelivery
        self.redeliver: dict[int, list[int]] = {p: [] for p in range(partitions)}
        # at-least-once batch each consumer holds until its next poll
        self.leases: dict[str, _Lease] = {}

    def mark_done(self, partition: int, offsets: list[int]) -> None:
        done = self.done[partition]
        done.update(offsets)
        frontier = self.committed[partition]
        while frontier in done:
            done.remove(frontier)
            frontier += 1
        self.committed[partition] = frontier

    def reap_expired(self) -> None:
        now = time.monotonic()
        expired = [c for c, lease in self.leases.items() if lease.deadline <= now]
        for consumer in expired:
            self.requeue(self.leases.pop(consumer))

    def requeue(self, lease: _Lease) -> None:
        for part_idx, offsets in lease.offsets.items():
            queue = self.redeliver[part_idx]
            for off in offsets:
                heapq.heappush(queue, off)


class _Topic:
    def __init__(self, name: str, partition_count: int) -> None:
        self.name = name
        self.partitions = [_Partition(i) for i in range(partition_count)]
        self.groups: dict[str, _Group] = {}
        self.rr_counter = 0
        self.lock = threading.RLock()
        self.changed = threading.Condition(self.lock)
        self.version = 0

    def bump(self) -> None:  # caller holds the lock
        self.version += 1
        self.changed.notify_all()

    def join(self, group_id: str) -> _Group:
        group = self.groups.get(group_id)
        if group is None:
            group = self.groups[group_id] = _Group(len(self.partitions))
        return group


class Broker:
    """Thread-safe in-memory log broker; mutation is serialized per topic."""

    def __init__(self, lease_ms: int = DEFAULT_LEASE_MS) -> None:
        self._topics: dict[str, _Topic] = {}
        self._lock = threading.RLock()
        self.lease_ms = lease_ms

    # -- topic management --

    def create_topic(self, name: str, partition_count: int = 1) -> None:
        if partition_count < 1:
            raise ValueError("partition_count must be positive")
        with self._lock:
            if name in self._topics:
                raise DuplicateTopic(name)
            self._topics[name] = _Topic(name, partition_count)

    def delete_topic(self, name: str) -> None:
        with self._lock:
            if name not in self._topics:
                raise UnknownTopic(name)
            del self._topics[name]

    def _topic(self, name: str) -> _Topic:
        with self._lock:
            try:
                return self._topics[name]
            except KeyError:
                raise UnknownTopic(name) from None

    # -- producer side --

    def append(self, topic: str, value: bytes) -> int:
        """Append one record, routing partitions round-robin; returns its offset."""
        t = self._topic(topic)
        with t.lock:
            part = t.partitions[t.rr_counter % len(t.partitions)]
            t.rr_counter += 1
            offset = part.append(value)
            t.bump()
            return offset

    # -- consumer side --

    def _take(self, t: _Topic, group: _Group, limit: int | None) -> dict[int, list[LogRecord]]:
        """Next records for the group: redeliveries first, then fresh ones."""
        taken: dict[int, list[LogRecord]] = {}
        budget = limit if limit is not None else -1
        for part in t.partitions:
            out: list[LogRecord] = []
            frontier = group.committed[part.index]
            done = group.done[part.index]
            queue = group.redeliver[part.index]
            while queue and budget != 0:
                off = heapq.heappop(queue)
                rec = part.records.get(off)
                if rec is not None and off >= frontier and off not in done:
                    out.append(rec)
                    budget -= 1
            cursor = group.cursor[part.index]
            while cursor < part.next_offset and budget != 0:
                off = cursor
                rec = part.records.get(off)
                cursor += 1
                if rec is not None and off >= frontier and off not in done:
                    out.append(rec)
                    budget -= 1
            group.cursor[part.index] = cursor
            if out:
                taken[part.index] = out
            if budget == 0:
                break
        return taken

    def poll(self, topic: str, group_id: str, consumer: str,
             mode: ConsumerMode, max_records: int | None = None) -> list[LogRecord]:
        """Hand the next unread records of the topic to one group member.

        EXACTLY_ONCE and AT_MOST_ONCE mark the records done and delete them
        before returning, so nothing is ever redelivered. AT_LEAST_ONCE first
        commits the consumer's previous batch (without deletion) and then
        leases the new one, so only a member that never polls again, or
        outlives the lease, leaves its batch to be redelivered.
        """
        t = self._topic(topic)
        with t.lock:
            group = t.join(group_id)
            group.reap_expired()
            alo = mode is ConsumerMode.AT_LEAST_ONCE
            held = group.leases.pop(consumer, None) if alo else None
            if held is not None:
                for part_idx, offsets in held.offsets.items():
                    group.mark_done(part_idx, offsets)
            taken = self._take(t, group, max_records)
            if alo and taken:
                group.leases[consumer] = _Lease(
                    offsets={p: [r.offset for r in recs] for p, recs in taken.items()},
                    deadline=time.monotonic() + self.lease_ms / 1000.0,
                )
            elif not alo:
                for part_idx, recs in taken.items():
                    records = t.partitions[part_idx].records
                    for rec in recs:
                        del records[rec.offset]
                    group.mark_done(part_idx, [r.offset for r in recs])
            if taken or held is not None:
                t.bump()
            return [rec for recs in taken.values() for rec in recs]

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
                partitions=len(t.partitions),
                appended=sum(p.next_offset for p in t.partitions),
                remaining=sum(len(p.records) for p in t.partitions),
                committed={
                    gid: sum(g.committed.values()) for gid, g in t.groups.items()
                },
            )

    def pending(self, topic: str, group_id: str) -> int:
        """Records the group has not finished: fresh, redeliverable or leased."""
        t = self._topic(topic)
        with t.lock:
            group = t.groups.get(group_id)
            if group is None:
                return sum(len(part.records) for part in t.partitions)
            group.reap_expired()
            total = sum(len(offsets) for lease in group.leases.values()
                        for offsets in lease.offsets.values())
            for part in t.partitions:  # fresh: only offsets past the cursor
                fresh = range(group.cursor[part.index], part.next_offset)
                total += sum(1 for off in fresh if off in part.records)
                total += sum(1 for off in group.redeliver[part.index] if off in part.records)
            return total
