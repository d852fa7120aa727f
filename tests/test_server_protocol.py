"""Wire framing, protocol robustness, and the raw broker verbs."""
import io
import socket
import threading
import time

import pytest

from hybridflow import protocol
from hybridflow.client import DistroStreamClient
from hybridflow.errors import ProtocolError, ServerUnreachable, StaleCommit, UnknownTopic
from hybridflow.model import ConsumerMode, StreamKind
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

    def test_malformed_frame_connection_survives(self, server):
        raw = _RawClient(server.host, server.port)
        bad = raw.call("NOSUCHVERB", ["x"])
        assert bad.verb == "ERR"
        assert bad.fields[0] == "ProtocolError"
        missing = raw.call("REGISTER", [])
        assert missing.verb == "ERR"
        # connection still serves valid requests
        good = raw.call("REGISTER", ["OBJECT", "", "", "1", ""])
        assert good.verb == "OK"
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


class TestRawBrokerVerbs:
    def test_topic_lifecycle_over_wire(self, client):
        client.new_topic("wire-t", 2)
        off0 = client.append("wire-t", b"v0")
        off1 = client.append("wire-t", b"v1")
        assert {off0, off1} == {0}
        client.delete_topic("wire-t")
        with pytest.raises(UnknownTopic):
            client.append("wire-t", b"v2")

    def test_fetch_commit_over_wire(self, client):
        client.new_topic("fc", 1)
        for i in range(3):
            client.append("fc", bytes([i]))
        client.add_consumer_raw = None  # (sanity: raw path joins explicitly)
        # join via ADDCONS against a registered stream is not required for raw
        # topics; join explicitly through the broker-side auto-join of POLLREQ
        # is unavailable here, so use fetch after join via server broker:
        from hybridflow.errors import UnknownGroup
        with pytest.raises(UnknownGroup):
            client.fetch("fc", "g", "c1")

    def test_fetch_after_join_and_commit(self, server, client):
        server.broker.create_topic("fj", 1)
        for i in range(4):
            server.broker.append("fj", bytes([i]))
        server.broker.join_group("fj", "g", "c1")
        records = client.fetch("fj", "g", "c1", mode=ConsumerMode.AT_LEAST_ONCE)
        assert [r.offset for r in records] == [0, 1, 2, 3]
        offsets = {}
        for rec in records:
            offsets.setdefault(rec.partition, []).append(rec.offset)
        client.commit("fj", "g", "c1", offsets, delete=True)
        with pytest.raises(StaleCommit):
            client.commit("fj", "g", "c1", offsets, delete=True)
        assert server.broker.stats("fj").remaining == 0
