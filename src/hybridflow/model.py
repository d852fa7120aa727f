"""Shared domain types: stream kinds, delivery modes, handles, records."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum


class StreamKind(str, Enum):
    OBJECT = "OBJECT"
    FILE = "FILE"


class ConsumerMode(str, Enum):
    AT_LEAST_ONCE = "AT_LEAST_ONCE"
    AT_MOST_ONCE = "AT_MOST_ONCE"
    EXACTLY_ONCE = "EXACTLY_ONCE"


@dataclass(frozen=True)
class StreamHandle:
    """Typed stream reference; serializable so tasks can carry it across processes."""

    id: str
    kind: StreamKind
    alias: str | None = None
    base_dir: str | None = None
    consumer_mode: ConsumerMode = ConsumerMode.EXACTLY_ONCE

    def to_wire(self) -> bytes:
        return json.dumps({
            "id": self.id,
            "kind": self.kind.value,
            "alias": self.alias,
            "base_dir": self.base_dir,
            "consumer_mode": self.consumer_mode.value,
        }).encode("utf-8")

    @classmethod
    def from_wire(cls, data: bytes) -> "StreamHandle":
        raw = json.loads(data.decode("utf-8"))
        return cls(
            id=raw["id"],
            kind=StreamKind(raw["kind"]),
            alias=raw["alias"],
            base_dir=raw["base_dir"],
            consumer_mode=ConsumerMode(raw["consumer_mode"]),
        )


@dataclass(frozen=True)
class StreamElement:
    """One delivered stream value: raw payload plus its publication time (ms epoch)."""

    payload: bytes
    publish_time: int

    def text(self) -> str:
        return self.payload.decode("utf-8")


@dataclass(frozen=True, slots=True)
class LogRecord:
    """Record inside a topic's log; its offset is never reused.

    The records of one append call, and so of one PUBREQ, share a publish_time.
    """

    value: bytes
    offset: int
    publish_time: int


@dataclass
class TopicStats:
    """Quiescent-point accounting used by conservation checks."""

    name: str
    appended: int
    remaining: int
    committed: dict[str, int] = field(default_factory=dict)
