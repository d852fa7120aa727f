"""DistroStream server: stream registry, permission checks, close handling.

One server process coordinates every application sharing the stream set. It
hosts the log broker and the directory monitors in-process and talks to the
per-process clients over the framed socket protocol. Every frame it sends is
the reply to a request. When the last producer of a stream closes, the server
flags the stream closed in its registry before answering the closing request,
so any LOOKUP sent after that close round trip completes sees the flag.

POLLREQ is a long poll: one that finds nothing waits on its own thread, never
on the connection's reader. Its reply carries a drained flag: the stream was
closed before the poll looked at the queue and the group has nothing left to
finish. A poll never lists a FILE stream's directory; the monitor's tick does,
and so does every close of a producer (CLOSE, revoke or a dropped connection)
before it can flag the stream closed.

Nothing leaves the registry on its own. DELETE frees a stream: its registry
entry and alias, its directory monitor state and its broker topic, whose
parked polls then answer UnknownStream, as does every later request naming
the id. Registering the alias again makes a new stream.
"""
from __future__ import annotations

import logging
import os
import socket
import threading
import time
from dataclasses import dataclass, field

from . import protocol
from .broker import DEFAULT_LEASE_MS, Broker
from .codec import unpack_blocks
from .dirmon import DEFAULT_TICK_MS, DirectoryMonitor
from .errors import (
    AliasKindMismatch, BackendError, BindError, ClosedStreamError,
    HybridflowError, InvalidPath, ProtocolError, UnknownStream, UnknownTopic,
)
from .model import ConsumerMode, StreamKind

log = logging.getLogger("hybridflow.server")

DEFAULT_PORT = int(os.environ.get("DS_SERVER_PORT", "49049"))
DEFAULT_HOST = os.environ.get("DS_SERVER_HOST", "127.0.0.1")


@dataclass
class StreamRegistryEntry:
    id: str
    alias: str | None
    kind: StreamKind
    backend_ref: str
    base_dir: str | None = None
    open_producers: set[str] = field(default_factory=set)
    ever_producers: set[str] = field(default_factory=set)
    closed: bool = False
    closes_observed: int = 0


class StreamRegistry:
    """Single source of truth for stream metadata; mutations are serialized."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[str, StreamRegistryEntry] = {}
        self._by_alias: dict[tuple[str, StreamKind], str] = {}
        self._counter = 0
        self.registered_total = 0

    def register(self, kind: StreamKind, alias: str | None,
                 backend_ref_for: "callable", base_dir: str | None) -> tuple[StreamRegistryEntry, bool]:
        with self._lock:
            if alias:
                other = self._by_alias.get((alias, StreamKind.FILE if kind is StreamKind.OBJECT
                                            else StreamKind.OBJECT))
                if other is not None:
                    raise AliasKindMismatch(
                        f"alias {alias!r} already registered with kind "
                        f"{self._entries[other].kind.value}")
                existing = self._by_alias.get((alias, kind))
                if existing is not None:
                    return self._entries[existing], False
            self._counter += 1
            stream_id = f"s-{self._counter:06d}"
            entry = StreamRegistryEntry(
                id=stream_id, alias=alias or None, kind=kind,
                backend_ref=backend_ref_for(stream_id), base_dir=base_dir,
            )
            self._entries[stream_id] = entry
            if alias:
                self._by_alias[(alias, kind)] = stream_id
            self.registered_total += 1
            return entry, True

    def get(self, stream_id: str) -> StreamRegistryEntry:
        with self._lock:
            entry = self._entries.get(stream_id)
            if entry is None:
                raise UnknownStream(stream_id)
            return entry

    def add_producer(self, stream_id: str, token: str) -> bool:
        """Producer grant; denied (False) once the stream is closed."""
        with self._lock:
            entry = self.get(stream_id)
            if entry.closed:
                return False
            entry.open_producers.add(token)
            entry.ever_producers.add(token)
            return True

    def close_producer(self, stream_id: str, token: str) -> bool:
        """Remove a producer grant; returns True when the stream just closed.

        A token without a grant is a no-op. The stream closes once every
        producer that ever registered has closed (and at least one did).
        """
        with self._lock:
            entry = self.get(stream_id)
            if token not in entry.open_producers:
                return False
            entry.open_producers.discard(token)
            entry.closes_observed += 1
            return self._maybe_close(entry)

    def revoke_producer(self, stream_id: str, token: str) -> bool:
        """Erase an open grant as if it never registered (failed attempts).

        Unlike close, a revoke does not count as a close; but removing the
        grant can complete a closure that other producers already initiated.
        """
        with self._lock:
            entry = self.get(stream_id)
            if token not in entry.open_producers:
                return False
            entry.open_producers.discard(token)
            entry.ever_producers.discard(token)
            return self._maybe_close(entry)

    def _maybe_close(self, entry: StreamRegistryEntry) -> bool:
        if (not entry.open_producers and entry.ever_producers
                and entry.closes_observed > 0 and not entry.closed):
            entry.closed = True
            return True
        return False

    def delete(self, stream_id: str) -> StreamRegistryEntry:
        """Forget the stream and free its alias."""
        with self._lock:
            entry = self._entries.pop(stream_id, None)
            if entry is None:
                raise UnknownStream(stream_id)
            if entry.alias:
                self._by_alias.pop((entry.alias, entry.kind), None)
            return entry

    def live_entries(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, StreamRegistryEntry]:
        with self._lock:
            return dict(self._entries)


class StreamServer:
    """TCP front end over the registry, broker, and directory monitors."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 lease_ms: int | None = None, tick_ms: int = DEFAULT_TICK_MS) -> None:
        self.host = host
        self._requested_port = port
        self.port: int | None = None
        self.registry = StreamRegistry()
        self.broker = Broker(lease_ms=lease_ms or DEFAULT_LEASE_MS)
        self.monitor = DirectoryMonitor(self._monitor_sink, tick_ms=tick_ms)
        self._sock: socket.socket | None = None
        self._conn_lock = threading.Lock()
        # open connections, each with the producer grants made through it,
        # which expire when it drops
        self._conns: dict[protocol.Connection, set[tuple[str, str]]] = {}
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def _monitor_sink(self, stream_id: str, payload: bytes) -> None:
        self.broker.append(stream_id, payload)

    # -- lifecycle --

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((self.host, self._requested_port))
        except OSError as exc:
            sock.close()
            raise BindError(f"cannot bind {self.host}:{self._requested_port}: {exc}") from exc
        sock.listen(128)
        self._sock = sock
        self.port = sock.getsockname()[1]
        self.monitor.start()
        self._stop.clear()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="ds-accept", daemon=True)
        self._accept_thread.start()
        log.info("%d | SERVE | - | - | listening on %s:%d",
                 int(time.time() * 1000), self.host, self.port)

    def serve(self) -> None:
        """Run until interrupted; blocking variant used by the CLI."""
        self.start()
        try:
            self._stop.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        self._stop.set()
        self.monitor.stop()
        self.broker.wake()  # parked polls answer once they see the stop flag
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    # -- connection handling --

    def _accept_loop(self) -> None:
        assert self._sock is not None
        # a timeout lets stop() interrupt accept(), which close() alone won't
        self._sock.settimeout(0.25)
        while not self._stop.is_set():
            try:
                raw, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            raw.settimeout(None)
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = protocol.Connection(raw)
            with self._conn_lock:
                self._conns[conn] = set()
            threading.Thread(target=self._serve_conn, args=(conn,),
                             name=f"ds-conn-{conn.peer}", daemon=True).start()

    def _serve_conn(self, conn: protocol.Connection) -> None:
        try:
            while not self._stop.is_set():
                try:
                    frame = conn.recv()
                except ProtocolError:
                    break
                except OSError:
                    break
                if frame is None:
                    break
                if frame.verb == "BYE":
                    try:
                        conn.send(protocol.ok(frame.corr_id))
                    except OSError:
                        pass
                    break
                if not self._answer(conn, frame, self._dispatch, conn, frame):
                    break
        finally:
            self._drop_conn(conn)

    def _answer(self, conn: protocol.Connection, frame: protocol.Frame,
                handler, *args) -> bool:
        """Send the handler's reply (None: it answers later), or an ERR; False if gone."""
        try:
            reply = handler(*args)
        except UnknownTopic as exc:  # the stream was deleted mid-request
            reply = protocol.err(frame.corr_id, UnknownStream.__name__, str(exc))
            self._log(frame, "error:%s", UnknownStream.__name__)
        except HybridflowError as exc:
            reply = protocol.err(frame.corr_id, type(exc).__name__, str(exc))
            self._log(frame, "error:%s", type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - protocol robustness
            reply = protocol.err(frame.corr_id, "InternalError", str(exc))
            self._log(frame, "error:internal")
        try:
            if reply is not None:
                conn.send(reply)
        except OSError:
            return False
        return True

    def _drop_conn(self, conn: protocol.Connection) -> None:
        with self._conn_lock:
            grants = self._conns.pop(conn, set())
        conn.close()
        self.broker.wake()  # its parked polls end without taking anything
        # a producer that vanishes without closing is treated as closed
        for stream_id, token in grants:
            try:
                self._scan_before_close(stream_id)
                if self.registry.close_producer(stream_id, token):
                    self.broker.wake(stream_id)
            except (UnknownStream, UnknownTopic):  # deleted meanwhile
                pass

    def _scan_before_close(self, stream_id: str) -> None:
        """List a FILE stream's directory, so that every file renamed in
        before a close is queued before the closed flag can be seen."""
        if self.registry.get(stream_id).kind is StreamKind.FILE:
            self.monitor.scan_once(stream_id)

    def _log(self, frame: protocol.Frame, outcome: str, *args) -> None:
        """Per-request record at DEBUG; `outcome` is a %-format over args."""
        if not log.isEnabledFor(logging.DEBUG):
            return
        stream_id = frame.fields[0] if frame.fields else "-"
        process = frame.fields[1] if len(frame.fields) > 1 else "-"
        log.debug("%d | %s | %s | %s | " + outcome,
                  int(time.time() * 1000), frame.verb, stream_id, process, *args)

    # -- request dispatch --

    def _dispatch(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        handler = getattr(self, f"_op_{frame.verb.lower()}", None)
        if handler is None:
            raise ProtocolError(f"unknown verb {frame.verb!r}")
        return handler(conn, frame)

    @staticmethod
    def _field(frame: protocol.Frame, idx: int, what: str) -> str:
        try:
            return frame.fields[idx]
        except IndexError:
            raise ProtocolError(f"{frame.verb} missing field {what!r}") from None

    def _op_register(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        kind = StreamKind(self._field(frame, 0, "kind"))
        alias = self._field(frame, 1, "alias") or None
        base_dir = self._field(frame, 2, "base_dir") or None
        if kind is StreamKind.FILE:
            if not base_dir:
                raise InvalidPath("FILE streams require base_dir")
            if not os.path.isabs(base_dir):
                raise InvalidPath(f"base_dir must be absolute: {base_dir!r}")
            if not os.path.isdir(base_dir) or not os.access(base_dir, os.R_OK):
                raise InvalidPath(f"base_dir missing or unreadable: {base_dir!r}")
        elif base_dir:
            raise InvalidPath("base_dir is only valid for FILE streams")

        entry, created = self.registry.register(
            kind, alias, backend_ref_for=lambda sid: sid if kind is StreamKind.OBJECT
            else base_dir, base_dir=base_dir)
        if created:
            self.broker.create_topic(entry.id)
            if kind is StreamKind.FILE:
                self.monitor.register_dir(entry.id, base_dir)
        self._log(frame, "id=%s created=%d", entry.id, created)
        return protocol.ok(frame.corr_id, [entry.id, "1" if created else "0"])

    def _op_lookup(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        entry = self.registry.get(self._field(frame, 0, "id"))
        return protocol.ok(frame.corr_id, [
            entry.id, entry.alias or "", entry.kind.value, "1" if entry.closed else "0",
            entry.backend_ref or "",
        ])

    def _op_addprod(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        stream_id = self._field(frame, 0, "id")
        token = self._field(frame, 1, "token")
        granted = self.registry.add_producer(stream_id, token)
        if granted:
            with self._conn_lock:
                if conn in self._conns:
                    self._conns[conn].add((stream_id, token))
        self._log(frame, "granted" if granted else "denied")
        return protocol.ok(frame.corr_id, ["1" if granted else "0"])

    def _op_close(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        stream_id = self._field(frame, 0, "id")
        token = self._field(frame, 1, "token")
        revoke = len(frame.fields) > 2 and frame.fields[2] == "revoke"
        self._scan_before_close(stream_id)
        if revoke:
            fully_closed = self.registry.revoke_producer(stream_id, token)
        else:
            fully_closed = self.registry.close_producer(stream_id, token)
        if fully_closed:
            self.broker.wake(stream_id)  # parked polls answer with the drained flag
        with self._conn_lock:
            if conn in self._conns:
                self._conns[conn].discard((stream_id, token))
        self._log(frame, "closed" if fully_closed else "open")
        return protocol.ok(frame.corr_id, ["1" if fully_closed else "0"])

    def _op_delete(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        stream_id = self._field(frame, 0, "id")
        self.registry.delete(stream_id)
        # after this no scan of the stream runs, so none appends to its topic
        self.monitor.unregister(stream_id)
        self.broker.delete_topic(stream_id)
        self._log(frame, "deleted")
        return protocol.ok(frame.corr_id)

    def _op_pubreq(self, conn: protocol.Connection, frame: protocol.Frame) -> protocol.Frame:
        stream_id = self._field(frame, 0, "id")
        token = self._field(frame, 1, "token")
        entry = self.registry.get(stream_id)
        if entry.kind is not StreamKind.OBJECT:
            raise BackendError("publish is implicit for FILE streams (write to base_dir)")
        if entry.closed:
            raise ClosedStreamError(stream_id)
        if token not in entry.open_producers:
            if not self.registry.add_producer(stream_id, token):
                raise ClosedStreamError(stream_id)
            with self._conn_lock:
                if conn in self._conns:
                    self._conns[conn].add((stream_id, token))
        payloads = unpack_blocks(frame.payload)
        if not all(payloads):  # checked first: a request is appended whole or not at all
            raise BackendError("empty payloads are not allowed")
        self.broker.append(stream_id, *payloads)
        self._log(frame, "published=%d", len(payloads))
        return protocol.ok(frame.corr_id, [str(len(payloads))])

    def _op_pollreq(self, conn: protocol.Connection,
                    frame: protocol.Frame) -> protocol.Frame | None:
        stream_id = self._field(frame, 0, "id")
        token = self._field(frame, 1, "token")
        group = self._field(frame, 2, "group")
        mode = ConsumerMode(self._field(frame, 3, "mode"))
        max_raw, wait_raw = (frame.fields[4:6] + ["", ""])[:2]
        max_records = int(max_raw) if max_raw else None
        deadline = time.monotonic() + int(wait_raw or 0) / 1000.0
        entry = self.registry.get(stream_id)

        def attempt() -> protocol.Frame | None:
            if conn not in self._conns:  # never take records for a consumer that left
                return protocol.err(frame.corr_id, "ServerUnreachable", "connection dropped")
            closed = entry.closed
            records = self.broker.poll(stream_id, group, token, mode, max_records)
            drained = closed and self.broker.drained(stream_id, group)
            if not (records or drained or self._stop.is_set()
                    or time.monotonic() >= deadline):
                return None
            payload = protocol.pack_elements([(r.publish_time, r.value) for r in records])
            return protocol.ok(frame.corr_id, [str(len(records)), str(int(drained))], payload)

        def park(seen: int) -> protocol.Frame:
            # seen predates the empty attempt, so a change since ends the wait
            reply = None
            while reply is None:
                self.broker.wait(stream_id, group, seen, deadline)
                seen = self.broker.version(stream_id)
                reply = attempt()
            return reply

        seen = self.broker.version(stream_id)
        reply = attempt()
        if reply is None:
            threading.Thread(target=self._answer, args=(conn, frame, park, seen),
                             name=f"ds-poll-{stream_id}", daemon=True).start()
        return reply
