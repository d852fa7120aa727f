"""User-facing stream abstraction over the object and file backends.

A DistroStream wraps a StreamHandle plus the process-local client. Each
instance carries its own producer/consumer token, so two instances of the
same stream (for example, the same handle deserialized inside two tasks)
count as two producers or two group members -- mirroring the per-process
publisher/consumer instantiation of the backends.
"""
from __future__ import annotations

import time

from .client import DistroStreamClient
from .codec import to_bytes
from .errors import BackendError
from .model import ConsumerMode, StreamElement, StreamHandle, StreamKind


class DistroStream:
    """Publish/poll/close/delete/metadata API bound to one backend stream."""

    def __init__(self, client: DistroStreamClient, handle: StreamHandle,
                 group: str | None = None) -> None:
        self._client = client
        self.handle = handle
        self._group = group
        self._token = client.new_token()

    # -- metadata --

    @property
    def id(self) -> str:
        return self.handle.id

    @property
    def alias(self) -> str | None:
        return self.handle.alias

    @property
    def kind(self) -> StreamKind:
        return self.handle.kind

    def get_metadata(self) -> tuple[str, str | None, StreamKind]:
        """Creation-time metadata, verified against the server registry."""
        entry = self._client.lookup(self.handle.id)
        return self.handle.id, entry.alias, entry.kind

    def is_closed(self) -> bool:
        return self._client.is_closed(self.handle.id)

    # -- producer side --

    def publish(self, elements) -> None:
        """Publish one payload or an ordered list; each becomes one record."""
        if self.handle.kind is not StreamKind.OBJECT:
            raise BackendError(
                "FILE streams publish implicitly: write files into base_dir")
        items = elements if isinstance(elements, list) else [elements]
        if not items:
            return
        payloads = []
        for item in items:
            data = to_bytes(item)
            if not data:
                raise BackendError("stream payloads must be non-empty")
            payloads.append(data)
        self._client.publish(self.handle.id, self._token, payloads)

    def close(self) -> None:
        """Close this instance's producer registration; idempotent."""
        self._client.close_producer(self.handle.id, self._token)

    def delete(self) -> None:
        """Free the stream on the server for every holder of its handle.

        Pending elements are dropped, parked polls fail with UnknownStream,
        and the alias can be registered again as a new stream.
        """
        self._client.delete_stream(self.handle.id)

    # -- consumer side --

    def _poll(self, timeout_ms: int | None,
              max_elements: int | None) -> tuple[list[StreamElement], bool]:
        raw, drained = self._client.poll_once(
            self.handle.id, self._token, self.handle.consumer_mode,
            max_elements, self._group, wait_ms=timeout_ms or 0)
        return [StreamElement(payload=value, publish_time=ts) for ts, value in raw], drained

    def poll(self, timeout_ms: int | None = None,
             max_elements: int | None = None) -> list[StreamElement]:
        """Return all currently unread elements for this consumer's group.

        Without a timeout the call returns immediately (possibly empty).
        With one, the server holds the request until an element arrives, the
        timeout expires, or the stream is closed and drained (early and empty).
        """
        return self._poll(timeout_ms, max_elements)[0]

    def drain(self, proc=None, max_elements: int | None = None,
              timeout_ms: int = 10 * 60 * 1000) -> list[StreamElement]:
        """Consume until the server reports the stream closed and drained.

        Other members' leases count as not drained, so a crashed member's
        batch is redelivered first; the final empty poll acknowledges this
        consumer's last at-least-once batch.
        """
        collected: list[StreamElement] = []
        deadline = time.monotonic() + timeout_ms / 1000.0
        while True:
            wait_ms = max(0, int((deadline - time.monotonic()) * 1000))
            batch, drained = self._poll(wait_ms, max_elements)
            if proc is not None:
                for element in batch:
                    proc(element)
            collected.extend(batch)
            if drained or not wait_ms:
                return collected


def create_stream(client: DistroStreamClient, kind: StreamKind,
                  alias: str | None = None, base_dir: str | None = None,
                  consumer_mode: ConsumerMode = ConsumerMode.EXACTLY_ONCE,
                  register_producer: bool = False,
                  group: str | None = None) -> DistroStream:
    """Create (or attach to, by alias) a stream and return its local binding.

    register_producer acquires a producer grant for this instance up front;
    file producers need it because writing files never goes through publish.
    """
    stream_id, _created = client.register_stream(kind, alias, base_dir)
    handle = StreamHandle(id=stream_id, kind=kind, alias=alias,
                          base_dir=base_dir, consumer_mode=consumer_mode)
    stream = DistroStream(client, handle, group=group)
    if register_producer:
        client.add_producer(stream_id, stream._token)
    return stream


def attach(client: DistroStreamClient, handle: StreamHandle,
           group: str | None = None) -> DistroStream:
    """Bind an existing handle (e.g. received as a task argument) locally."""
    return DistroStream(client, handle, group=group)
