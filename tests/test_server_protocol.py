"""Wire framing and protocol robustness."""
import io
import socket
import threading
import time

import pytest

from hybridflow import protocol
from hybridflow.client import DistroStreamClient
from hybridflow.codec import pack_blocks, unpack_blocks
from hybridflow.errors import ProtocolError, ServerUnreachable
from hybridflow.model import StreamKind
from hybridflow.streams import create_stream


class TestFraming:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        a, b = protocol.Connection(left), protocol.Connection(right)
        frame = protocol.Frame(verb="REGISTER", fields=["OBJECT", "ali", ""],
                               corr_id="7", payload=b"\x00\x01binary")
        a.send(frame)
        got = b.recv()
        assert got.verb == "REGISTER"
        assert got.fields == ["OBJECT", "ali", ""]
        assert got.corr_id == "7"
        assert got.payload == b"\x00\x01binary"

    def test_empty_payload(self):
        left, right = socket.socketpair()
        a, b = protocol.Connection(left), protocol.Connection(right)
        a.send(protocol.Frame(verb="BYE", corr_id="1"))
        got = b.recv()
        assert got.payload == b""

    def test_field_with_tab_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.Frame(verb="X", fields=["a\tb"], corr_id="1").encode()

    def test_eof_returns_none(self):
        left, right = socket.socketpair()
        b = protocol.Connection(right)
        left.close()
        assert b.recv() is None

    def test_truncated_frame(self):
        left, right = socket.socketpair()
        b = protocol.Connection(right)
        left.sendall(b"VERB\t1\n\x00\x00\x00\x10partial")
        left.close()
        with pytest.raises(ProtocolError):
            b.recv()

    def test_element_batch_roundtrip(self):
        batch = [(1700000000000, b"alpha"), (1700000000001, b"")]
        assert protocol.unpack_elements(protocol.pack_elements(batch)) == batch

    def test_element_batch_layout(self):
        # count, then per element an 8-byte publish time and a 4-byte length
        assert protocol.pack_elements([(2, b"ab"), (3, b"")]) == (
            b"\x00\x00\x00\x02"
            b"\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x02ab"
            b"\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00\x00")
        assert protocol.pack_elements([]) == b"\x00\x00\x00\x00"

    def test_block_batch_layout(self):
        blocks = [b"ab", b"", b"x" * 70000]
        packed = pack_blocks(blocks)
        assert packed[:14] == b"\x00\x00\x00\x03\x00\x00\x00\x02ab\x00\x00\x00\x00"
        assert unpack_blocks(packed) == blocks


class _ByeOnlyPeer:
    """Accepts clients and answers BYE only, so every other request blocks."""

    def __init__(self) -> None:
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(64)
        self.port = self.sock.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                raw, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(protocol.Connection(raw),),
                             daemon=True).start()

    @staticmethod
    def _serve(conn: protocol.Connection) -> None:
        try:
            while (frame := conn.recv()) is not None:
                if frame.verb == "BYE":
                    conn.send(protocol.ok(frame.corr_id))
        except (ProtocolError, OSError):
            pass
        conn.close()


class TestLocalClose:
    def test_recv_after_local_close_is_a_lost_connection(self):
        left, right = socket.socketpair()
        conn = protocol.Connection(left)
        conn.close()
        with pytest.raises(OSError):
            conn.recv()
        right.close()

    def test_blocked_requests_fail_promptly_on_close(self):
        # a close racing the BYE reply used to kill the reader thread with a
        # ValueError, leaving its waiter blocked for request_timeout_s (30 s)
        peer = _ByeOnlyPeer()
        clients = [DistroStreamClient(host="127.0.0.1", port=peer.port)
                   for _ in range(32)]
        outcomes = []

        def blocked(client):
            t0 = time.monotonic()
            try:
                client.lookup("never-answered")
            except ServerUnreachable:
                outcomes.append(time.monotonic() - t0)

        threads = [threading.Thread(target=blocked, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 5
        while any(not c._pending for c in clients) and time.monotonic() < deadline:
            time.sleep(0.01)
        for client in clients:
            client.close()
        for t in threads:
            t.join(timeout=40)
        peer.sock.close()
        assert len(outcomes) == len(clients)
        assert max(outcomes) < 10


class _RawClient:
    """Minimal synchronous wire client for protocol-level poking."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port))
        self.conn = protocol.Connection(self.sock)
        self.n = 0

    def call(self, verb, fields, payload=b""):
        self.n += 1
        corr = f"raw{self.n}"
        self.conn.send(protocol.Frame(verb=verb, fields=fields,
                                      corr_id=corr, payload=payload))
        while True:
            frame = self.conn.recv()
            if frame.corr_id == corr:
                return frame

    def close(self):
        self.conn.close()


class TestServerRobustness:
    def test_register_bye_clean_teardown(self, server):
        raw = _RawClient(server.host, server.port)
        reply = raw.call("REGISTER", ["OBJECT", "", "", "1", ""])
        assert reply.verb == "OK"
        bye = raw.call("BYE", [])
        assert bye.verb == "OK"
        raw.close()

    def test_register_ignores_a_trailing_partition_count(self, server, monkeypatch):
        # an older client sends a fourth REGISTER field, a partition count
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        raw = _RawClient(server.host, server.port)
        reply = raw.call("REGISTER", ["OBJECT", "old-client", "", "0"])
        assert reply.verb == "OK", reply.fields
        stream_id = reply.fields[0]
        published = raw.call("PUBREQ", [stream_id, "old#1"], pack_blocks([b"x"]))
        assert published.verb == "OK", published.fields
        polled = raw.call("POLLREQ", [stream_id, "old#2", "g", "EXACTLY_ONCE", "", "0"])
        assert polled.verb == "OK", polled.fields
        assert [value for _, value in protocol.unpack_elements(polled.payload)] == [b"x"]
        peer = "%s:%d" % raw.sock.getsockname()[:2]
        served = [t for t in threading.enumerate() if t.name == f"ds-conn-{peer}"]
        assert served
        raw.close()  # the server closes the producer grant the PUBREQ took
        for thread in served:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert thread_errors == []

    def test_pubreq_is_appended_whole_or_not_at_all(self, server):
        raw = _RawClient(server.host, server.port)
        stream_id = raw.call("REGISTER", ["OBJECT", "", "", "1", ""]).fields[0]
        bad = raw.call("PUBREQ", [stream_id, "p#1"], pack_blocks([b"a", b"b", b"", b"c"]))
        assert bad.verb == "ERR"
        assert bad.fields[0] == "BackendError"
        assert server.broker.stats(stream_id).appended == 0
        polled = raw.call("POLLREQ", [stream_id, "c#1", "g", "EXACTLY_ONCE", "", "0"])
        assert polled.verb == "OK", polled.fields
        assert protocol.unpack_elements(polled.payload) == []
        raw.close()

    def test_empty_pubreq_answers_zero(self, server):
        raw = _RawClient(server.host, server.port)
        stream_id = raw.call("REGISTER", ["OBJECT", "", "", "1", ""]).fields[0]
        version = server.broker.version(stream_id)
        empty = raw.call("PUBREQ", [stream_id, "p#1"], pack_blocks([]))
        assert (empty.verb, empty.fields) == ("OK", ["0"])
        assert server.broker.version(stream_id) == version
        raw.close()

    def test_malformed_frame_connection_survives(self, server):
        raw = _RawClient(server.host, server.port)
        missing = raw.call("REGISTER", [])
        assert missing.verb == "ERR"
        # unknown verbs, among them raw broker verbs the server does not serve
        for verb in ("NOSUCHVERB", "NEWTOPIC", "APPEND", "FETCH", "COMMIT",
                     "DELTOPIC", "BPOLL", "BJOIN", "STATUS", "ADDCONS"):
            bad = raw.call(verb, ["x", "g", "c", "", "EXACTLY_ONCE"])
            assert bad.verb == "ERR", verb
            assert bad.fields[0] == "ProtocolError", verb
            # connection still serves valid requests
            good = raw.call("REGISTER", ["OBJECT", "", "", "1", ""])
            assert good.verb == "OK", verb
        raw.close()

    def test_server_sends_only_replies(self, server, client):
        # a close elsewhere pushes nothing: the next frame answers LOOKUP
        s = create_stream(client, StreamKind.OBJECT, alias="replies-only")
        raw = _RawClient(server.host, server.port)
        assert raw.call("LOOKUP", [s.id]).fields[3] == "0"
        s.publish(b"x")
        s.close()
        raw.conn.send(protocol.Frame(verb="LOOKUP", fields=[s.id], corr_id="after-close"))
        first = raw.conn.recv()
        assert first.corr_id == "after-close", first.verb
        assert first.verb == "OK"
        assert first.fields[3] == "1"
        raw.close()

    def test_error_fields_carry_class(self, server):
        raw = _RawClient(server.host, server.port)
        reply = raw.call("LOOKUP", ["s-424242"])
        assert reply.verb == "ERR"
        assert reply.fields[0] == "UnknownStream"
        raw.close()

    def test_concurrent_registrations_distinct_ids(self, server):
        ids = []
        lock = threading.Lock()
        errors = []

        def worker():
            try:
                raw = _RawClient(server.host, server.port)
                reply = raw.call("REGISTER", ["OBJECT", "", "", "1", ""])
                with lock:
                    ids.append(reply.fields[0])
                raw.call("BYE", [])
                raw.close()
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(ids) == 64
        assert len(set(ids)) == 64

    def test_connection_drop_expires_producer(self, server, client_factory):
        dying = client_factory()
        watcher = client_factory()
        sp = create_stream(dying, StreamKind.OBJECT, alias="drop")
        sw = create_stream(watcher, StreamKind.OBJECT, alias="drop")
        sp.publish(b"x")
        assert sw.is_closed() is False
        dying.close()  # connection drops without CLOSE
        deadline = time.monotonic() + 2
        while not sw.is_closed() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sw.is_closed() is True
