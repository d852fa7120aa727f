"""Per-process client: framed connection and request plumbing.

Every application process owns one client. Requests from any thread are
multiplexed over the single server connection by correlation id; a background
reader thread matches each reply to its pending request. The server sends
nothing but replies, so stream metadata (the closed flag among it) is always
asked of the server, never cached.
"""
from __future__ import annotations

import itertools
import os
import socket
import threading
import uuid
from dataclasses import dataclass

from . import errors as errmod
from . import protocol
from .codec import pack_blocks
from .errors import ProtocolError, RegistrationError, ServerUnreachable
from .model import ConsumerMode, StreamKind

_ERROR_CLASSES = {
    name: obj for name, obj in vars(errmod).items()
    if isinstance(obj, type) and issubclass(obj, errmod.HybridflowError)
}

DEFAULT_TIMEOUT_S = 30.0


@dataclass
class StreamEntry:
    alias: str | None
    kind: StreamKind
    closed: bool
    backend: str


class _Pending:
    __slots__ = ("event", "frame")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.frame: protocol.Frame | None = None


class DistroStreamClient:
    """Connection to the DistroStream server used by one process."""

    def __init__(self, host: str | None = None, port: int | None = None,
                 group: str | None = None,
                 request_timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.host = host or os.environ.get("DS_SERVER_HOST", "127.0.0.1")
        self.port = port if port is not None else int(os.environ.get("DS_SERVER_PORT", "49049"))
        self.process_id = f"p-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.group = group or os.environ.get("DS_APP_GROUP") or f"app-{self.process_id}"
        self._timeout = request_timeout_s
        self._corr = itertools.count(1)
        self._tokens = itertools.count(1)
        self._pending: dict[str, _Pending] = {}
        self._plock = threading.Lock()
        self._closed = False
        try:
            raw = socket.create_connection((self.host, self.port), timeout=10)
        except OSError as exc:
            raise ServerUnreachable(f"{self.host}:{self.port}: {exc}") from exc
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        raw.settimeout(None)
        self._conn = protocol.Connection(raw)
        self._reader = threading.Thread(target=self._read_loop,
                                        name=f"ds-client-{self.process_id}", daemon=True)
        self._reader.start()

    # -- transport --

    def _read_loop(self) -> None:
        while True:
            try:
                frame = self._conn.recv()
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            with self._plock:
                pending = self._pending.pop(frame.corr_id, None)
            if pending is not None:
                pending.frame = frame
                pending.event.set()
        # connection gone: fail whatever is still waiting
        with self._plock:
            waiters = list(self._pending.values())
            self._pending.clear()
        for pending in waiters:
            pending.event.set()

    def request(self, verb: str, fields: list[str], payload: bytes = b"",
                wait_s: float = 0.0) -> protocol.Frame:
        """Send one request and block for its reply; wait_s is a long poll's hold."""
        if self._closed:
            raise ServerUnreachable("client closed")
        corr = str(next(self._corr))
        pending = _Pending()
        with self._plock:
            self._pending[corr] = pending
        try:
            self._conn.send(protocol.Frame(verb=verb, fields=fields,
                                           corr_id=corr, payload=payload))
        except OSError as exc:
            with self._plock:
                self._pending.pop(corr, None)
            raise ServerUnreachable(str(exc)) from exc
        if not pending.event.wait(self._timeout + wait_s):
            with self._plock:
                self._pending.pop(corr, None)
            raise ServerUnreachable(f"{verb} timed out after {self._timeout}s")
        if pending.frame is None:
            raise ServerUnreachable("connection lost")
        frame = pending.frame
        if frame.verb == "ERR":
            kind = frame.fields[0] if frame.fields else "HybridflowError"
            message = frame.fields[1] if len(frame.fields) > 1 else ""
            raise _ERROR_CLASSES.get(kind, errmod.HybridflowError)(message)
        return frame

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.send(protocol.Frame(verb="BYE", corr_id=str(next(self._corr))))
        except OSError:
            pass
        self._conn.close()

    def new_token(self) -> str:
        return f"{self.process_id}#{next(self._tokens)}"

    # -- registry operations --

    def register_stream(self, kind: StreamKind, alias: str | None,
                        base_dir: str | None) -> tuple[str, bool]:
        try:
            frame = self.request("REGISTER", [kind.value, alias or "", base_dir or ""])
        except ServerUnreachable as exc:
            raise RegistrationError(str(exc)) from exc
        return frame.fields[0], frame.fields[1] == "1"

    def lookup(self, stream_id: str) -> StreamEntry:
        frame = self.request("LOOKUP", [stream_id])
        return StreamEntry(alias=frame.fields[1] or None,
                           kind=StreamKind(frame.fields[2]),
                           closed=frame.fields[3] == "1",
                           backend=frame.fields[4])

    def is_closed(self, stream_id: str) -> bool:
        return self.lookup(stream_id).closed

    def add_producer(self, stream_id: str, token: str) -> bool:
        frame = self.request("ADDPROD", [stream_id, token])
        return frame.fields[0] == "1"

    def close_producer(self, stream_id: str, token: str) -> bool:
        frame = self.request("CLOSE", [stream_id, token])
        return frame.fields[0] == "1"

    def revoke_producer(self, stream_id: str, token: str) -> bool:
        """Erase a grant as if never registered (failed-task cleanup)."""
        frame = self.request("CLOSE", [stream_id, token, "revoke"])
        return frame.fields[0] == "1"

    def delete_stream(self, stream_id: str) -> None:
        """Free the stream on the server; later requests naming it get UnknownStream."""
        self.request("DELETE", [stream_id])

    # -- data path --

    def publish(self, stream_id: str, token: str, payloads: list[bytes]) -> None:
        self.request("PUBREQ", [stream_id, token], pack_blocks(payloads))

    def poll_once(self, stream_id: str, token: str, mode: ConsumerMode,
                  max_records: int | None = None, group: str | None = None,
                  wait_ms: int = 0) -> tuple[list[tuple[int, bytes]], bool]:
        """One POLLREQ held up to wait_ms: (publish_time, value) pairs, drained flag."""
        frame = self.request("POLLREQ", [
            stream_id, token, group or self.group, mode.value,
            str(max_records) if max_records is not None else "", str(wait_ms),
        ], wait_s=wait_ms / 1000.0)
        return protocol.unpack_elements(frame.payload), frame.fields[1] == "1"
