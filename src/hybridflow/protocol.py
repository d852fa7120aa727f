"""Socket framing shared by the stream server, its clients, and the worker link.

A frame is one header line -- verb, tab-separated fields, and a trailing
correlation id, newline-terminated -- followed by a 4-byte big-endian payload
length and the payload bytes (length 0 when there is none). Every request gets
exactly one response frame carrying the same correlation id, and the stream
server sends no other frames. The reserved correlation id "0" marks the worker
link's one-way frames (TASK, TRESULT, WSTOP), which get no response.
"""
from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass, field

from .errors import ProtocolError

_LEN = struct.Struct(">I")
# element header in a poll reply: publish time (ms), value length
_ELEM = struct.Struct(">QI")

MAX_HEADER = 64 * 1024
MAX_PAYLOAD = 1 << 31

ONE_WAY_CORR = "0"


@dataclass
class Frame:
    verb: str
    fields: list[str] = field(default_factory=list)
    corr_id: str = ONE_WAY_CORR
    payload: bytes = b""

    def encode(self) -> bytes:
        parts = [self.verb, *self.fields, self.corr_id]
        for part in parts:
            if "\t" in part or "\n" in part:
                raise ProtocolError(f"field contains framing byte: {part!r}")
        header = "\t".join(parts).encode("utf-8")
        if len(header) > MAX_HEADER:
            raise ProtocolError("header too large")
        return header + b"\n" + _LEN.pack(len(self.payload)) + self.payload


class Connection:
    """Buffered frame reader/writer over one socket; writes are serialized."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._rfile = sock.makefile("rb")
        self._wlock = threading.Lock()
        self._closed = False
        self.peer = "?"
        try:
            name = sock.getpeername()
            self.peer = "%s:%d" % name[:2] if isinstance(name, tuple) else str(name)
        except OSError:
            pass

    def send(self, frame: Frame) -> None:
        data = frame.encode()
        with self._wlock:
            self.sock.sendall(data)

    def recv(self) -> Frame | None:
        """Read one frame; returns None on clean EOF at a frame boundary.

        After a local close() it raises ConnectionAbortedError, so readers
        treat a closed connection like a lost one.
        """
        try:
            return self._recv()
        except ValueError as exc:
            # closing the buffered file under a blocked reader surfaces as
            # ValueError from the io layer, not as an OSError
            if self._closed:
                raise ConnectionAbortedError("connection closed locally") from exc
            raise

    def _recv(self) -> Frame | None:
        header = self._rfile.readline(MAX_HEADER + 1)
        if not header:
            return None
        if not header.endswith(b"\n"):
            raise ProtocolError("header not newline-terminated or too large")
        parts = header[:-1].decode("utf-8", errors="replace").split("\t")
        if len(parts) < 2:
            raise ProtocolError(f"short header: {parts!r}")
        size_raw = self._read_exact(4)
        (size,) = _LEN.unpack(size_raw)
        if size > MAX_PAYLOAD:
            raise ProtocolError("payload too large")
        payload = self._read_exact(size) if size else b""
        return Frame(verb=parts[0], fields=parts[1:-1], corr_id=parts[-1], payload=payload)

    def _read_exact(self, n: int) -> bytes:
        data = self._rfile.read(n)
        if data is None or len(data) != n:
            raise ProtocolError("connection truncated mid-frame")
        return data

    def close(self) -> None:
        self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._rfile.close()
        except OSError:
            pass
        self.sock.close()


def ok(corr_id: str, fields: list[str] | None = None, payload: bytes = b"") -> Frame:
    return Frame(verb="OK", fields=fields or [], corr_id=corr_id, payload=payload)


def err(corr_id: str, kind: str, message: str) -> Frame:
    return Frame(verb="ERR", fields=[kind, message.replace("\t", " ").replace("\n", " ")],
                 corr_id=corr_id)


def pack_elements(records: list[tuple[int, bytes]]) -> bytes:
    """Batch of (publish_time_ms, value) pairs for poll responses."""
    # one join copies each value once; growing a bytearray value by value
    # reallocates as it goes and cost about 20x more per byte
    parts = [_LEN.pack(len(records))]
    for ts, value in records:
        parts.append(_ELEM.pack(ts, len(value)))
        parts.append(value)
    return b"".join(parts)


def unpack_elements(data: bytes) -> list[tuple[int, bytes]]:
    (count,) = _LEN.unpack_from(data, 0)
    pos = 4
    out = []
    for _ in range(count):
        ts, size = _ELEM.unpack_from(data, pos)
        pos += _ELEM.size
        out.append((ts, data[pos:pos + size]))
        pos += size
    return out
