"""Task materialization shared by local slots and remote worker processes.

A dispatched task travels as a TaskPayload: parameter metadata plus the
already-encoded input values. The executing side decodes inputs, binds
stream handles to its own client, runs the method, and encodes whatever the
method returned for the OUT/INOUT object parameters (in declaration order:
a single such parameter takes the return value, several take a tuple).
"""
from __future__ import annotations

import pickle
import traceback
from dataclasses import dataclass, field
from typing import Callable

from ..client import DistroStreamClient
from ..codec import OBJECT_CODEC
from ..model import StreamHandle
from ..streams import DistroStream, attach
from .model import Direction, ParamSpec, ParamType


@dataclass
class TaskPayload:
    task_id: int
    method: str
    meta: list[tuple[str, str, bytes]]  # (ptype, direction, ref or handle wire)
    values: dict[int, bytes] = field(default_factory=dict)

    def to_wire(self) -> bytes:
        return pickle.dumps(
            (self.task_id, self.method, self.meta, self.values),
            protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_wire(cls, data: bytes) -> "TaskPayload":
        task_id, method, meta, values = pickle.loads(data)
        return cls(task_id=task_id, method=method, meta=meta, values=values)


def build_payload(task_id: int, method: str, params: list[ParamSpec],
                  store: dict[str, bytes]) -> TaskPayload:
    meta = []
    values: dict[int, bytes] = {}
    for idx, p in enumerate(params):
        if p.ptype is ParamType.STREAM:
            meta.append((p.ptype.value, p.direction.value, p.value_ref.to_wire()))
            continue
        meta.append((p.ptype.value, p.direction.value, str(p.value_ref).encode("utf-8")))
        if p.ptype is ParamType.OBJECT and p.direction in (Direction.IN, Direction.INOUT):
            values[idx] = store[str(p.value_ref)]
    return TaskPayload(task_id=task_id, method=method, meta=meta, values=values)


def _load_value(entry) -> bytes:
    """Inline bytes, or a ('file', path) ref staged on the shared filesystem."""
    if isinstance(entry, (bytes, bytearray)):
        return bytes(entry)
    kind, path = entry
    if kind != "file":
        raise RuntimeError(f"unknown value transport {kind!r}")
    with open(path, "rb") as fh:
        return fh.read()


@dataclass
class TaskOutcome:
    task_id: int
    ok: bool
    outs: dict[int, bytes] = field(default_factory=dict)
    error: str = ""

    def to_wire(self) -> bytes:
        return pickle.dumps((self.task_id, self.ok, self.outs, self.error),
                            protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_wire(cls, data: bytes) -> "TaskOutcome":
        task_id, ok, outs, error = pickle.loads(data)
        return cls(task_id=task_id, ok=ok, outs=outs, error=error)


def run_task(payload: TaskPayload, resolver: Callable[[str], Callable],
             stream_client: DistroStreamClient | None,
             group: str | None = None) -> TaskOutcome:
    """Decode inputs, run the method, encode outputs; exceptions become errors.

    STREAM OUT parameters acquire a producer grant before the method runs so
    the method's close() takes effect; a failing method has those grants
    revoked so a retry does not leave the stream permanently open. Anything
    the task raises, SystemExit included, becomes a failed outcome: the slot
    thread that runs it must report and go on serving.
    """
    granted: list[DistroStream] = []
    try:
        fn = resolver(payload.method)
        args: list[object] = []
        for idx, (ptype_raw, direction_raw, ref) in enumerate(payload.meta):
            ptype = ParamType(ptype_raw)
            direction = Direction(direction_raw)
            if ptype is ParamType.STREAM:
                if stream_client is None:
                    raise RuntimeError("task uses streams but no stream client is configured")
                handle = StreamHandle.from_wire(ref)
                stream = attach(stream_client, handle, group=group)
                if direction is Direction.OUT:
                    if not stream_client.add_producer(handle.id, stream._token):
                        raise RuntimeError(f"producer grant denied for {handle.id}")
                    granted.append(stream)
                args.append(stream)
            elif ptype is ParamType.FILE:
                args.append(ref.decode("utf-8"))
            elif direction is Direction.OUT:
                args.append(None)
            else:
                args.append(OBJECT_CODEC.decode(_load_value(payload.values[idx])))
        result = fn(*args)
        out_indices = [
            idx for idx, (ptype_raw, direction_raw, _) in enumerate(payload.meta)
            if ParamType(ptype_raw) is ParamType.OBJECT
            and Direction(direction_raw) in (Direction.OUT, Direction.INOUT)
        ]
        outs: dict[int, bytes] = {}
        if out_indices:
            if len(out_indices) == 1:
                results = [result]
            else:
                results = list(result)
                if len(results) != len(out_indices):
                    raise RuntimeError(
                        f"method {payload.method!r} returned {len(results)} values "
                        f"for {len(out_indices)} OUT parameters")
            for idx, value in zip(out_indices, results):
                outs[idx] = OBJECT_CODEC.encode(value)
        return TaskOutcome(task_id=payload.task_id, ok=True, outs=outs)
    except BaseException:  # noqa: BLE001 - outcome carries the traceback
        for stream in granted:
            try:
                stream._client.revoke_producer(stream.id, stream._token)
            except Exception:  # noqa: BLE001
                pass
        return TaskOutcome(task_id=payload.task_id, ok=False,
                           error=traceback.format_exc(limit=20))
