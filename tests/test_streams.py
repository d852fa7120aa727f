"""Stream API over a live server: create, publish, poll, close, metadata."""
import os
import threading
import time

import pytest

from hybridflow.client import DistroStreamClient
from hybridflow.errors import (
    AliasKindMismatch, BackendError, ClosedStreamError, InvalidPath,
    RegistrationError, ServerUnreachable, UnknownStream, UnknownTopic,
)
from hybridflow.model import ConsumerMode, StreamHandle, StreamKind
from hybridflow.server import StreamServer
from hybridflow.streams import attach, create_stream


class TestCreate:
    def test_object_stream_with_alias(self, client):
        s = create_stream(client, StreamKind.OBJECT, alias="myStream")
        assert s.kind is StreamKind.OBJECT
        assert s.alias == "myStream"
        assert s.id

    def test_file_stream_with_base_dir(self, client, tmp_path):
        s = create_stream(client, StreamKind.FILE, alias="myStream",
                          base_dir=str(tmp_path))
        assert s.kind is StreamKind.FILE

    def test_same_alias_same_id(self, client):
        # registry-lookup oracle on a two-call sequence
        a = create_stream(client, StreamKind.OBJECT, alias="shared")
        b = create_stream(client, StreamKind.OBJECT, alias="shared")
        assert a.id == b.id

    def test_distinct_ids_without_alias(self, client):
        a = create_stream(client, StreamKind.OBJECT)
        b = create_stream(client, StreamKind.OBJECT)
        assert a.id != b.id

    def test_alias_kind_mismatch(self, client, tmp_path):
        create_stream(client, StreamKind.OBJECT, alias="dual")
        with pytest.raises(AliasKindMismatch):
            create_stream(client, StreamKind.FILE, alias="dual",
                          base_dir=str(tmp_path))

    def test_relative_base_dir(self, client):
        with pytest.raises(InvalidPath):
            create_stream(client, StreamKind.FILE, base_dir="not/absolute")

    def test_missing_base_dir(self, client, tmp_path):
        with pytest.raises(InvalidPath):
            create_stream(client, StreamKind.FILE,
                          base_dir=str(tmp_path / "absent"))

    def test_server_unreachable(self):
        from hybridflow.client import DistroStreamClient
        from hybridflow.errors import ServerUnreachable
        with pytest.raises(ServerUnreachable):
            DistroStreamClient(host="127.0.0.1", port=1)

    def test_default_mode_exactly_once(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        assert s.handle.consumer_mode is ConsumerMode.EXACTLY_ONCE


class TestPublishPoll:
    def test_list_preserves_order(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish([b"a", b"b", b"c"])
        got = [e.payload for e in s.poll()]
        assert got == [b"a", b"b", b"c"]

    def test_empty_list_no_records(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish([])
        assert s.poll() == []

    def test_publish_on_closed(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish(b"x")
        s.close()
        with pytest.raises(ClosedStreamError):
            s.publish(b"y")

    def test_publish_on_file_stream_rejected(self, client, tmp_path):
        s = create_stream(client, StreamKind.FILE, base_dir=str(tmp_path))
        with pytest.raises(BackendError):
            s.publish(b"x")

    def test_publish_of_a_non_bytes_value_sends_nothing(self, client, monkeypatch):
        s = create_stream(client, StreamKind.OBJECT)
        verbs = []
        request = client.request

        def counting(verb, *args, **kwargs):
            verbs.append(verb)
            return request(verb, *args, **kwargs)

        monkeypatch.setattr(client, "request", counting)
        with pytest.raises(TypeError):
            s.publish(123)
        with pytest.raises(TypeError):
            s.publish([b"ok", 123])
        assert verbs == []
        assert s.poll() == []

    def test_second_poll_empty(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish([b"1", b"2", b"3"])
        assert len(s.poll()) == 3
        assert s.poll() == []

    def test_poll_timeout_expires(self, client):
        s = create_stream(client, StreamKind.OBJECT, register_producer=True)
        start = time.monotonic()
        assert s.poll(timeout_ms=60) == []
        elapsed = time.monotonic() - start
        assert elapsed >= 0.06
        # the server answers once the wait runs out (plus generous
        # scheduling slack)
        assert elapsed < 0.06 + 0.05 + 0.25

    def test_poll_timeout_sees_late_publish(self, client_factory):
        import threading
        c1 = client_factory()
        c2 = client_factory()
        s1 = create_stream(c1, StreamKind.OBJECT, alias="late")
        s2 = create_stream(c2, StreamKind.OBJECT, alias="late")
        publisher = threading.Timer(0.05, lambda: s1.publish(b"v"))
        publisher.start()
        got = s2.poll(timeout_ms=2000)
        # the poll can answer before the publish's own reply arrives; closing
        # the producer's client under it would fail the publish
        publisher.join(5)
        assert not publisher.is_alive()
        assert [e.payload for e in got] == [b"v"]

    def test_long_poll_is_one_request(self, client_factory, monkeypatch):
        producer = client_factory()
        consumer = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="one-req")
        sc = create_stream(consumer, StreamKind.OBJECT, alias="one-req")
        verbs = []
        request = consumer.request

        def counting(verb, *args, **kwargs):
            verbs.append(verb)
            return request(verb, *args, **kwargs)

        monkeypatch.setattr(consumer, "request", counting)
        publisher = threading.Timer(0.3, lambda: sp.publish(b"v"))
        publisher.start()
        start = time.monotonic()
        got = sc.poll(timeout_ms=2000)
        elapsed = time.monotonic() - start
        publisher.join(5)
        assert not publisher.is_alive()
        assert [e.payload for e in got] == [b"v"]
        assert elapsed >= 0.25
        assert verbs == ["POLLREQ"]

    def test_parked_poll_leaves_the_connection_free(self, client):
        # a poll waiting on one stream must not hold up other requests that
        # share the client's connection
        waiting = create_stream(client, StreamKind.OBJECT, register_producer=True)
        other = create_stream(client, StreamKind.OBJECT)
        got = []
        poller = threading.Thread(target=lambda: got.extend(waiting.poll(timeout_ms=3000)))
        poller.start()
        time.sleep(0.1)
        start = time.monotonic()
        other.publish(b"x")
        assert time.monotonic() - start < 0.5
        start = time.monotonic()
        client.lookup(other.id)
        assert time.monotonic() - start < 0.5
        assert poller.is_alive()
        waiting.publish(b"wake")
        poller.join(5)
        assert [e.payload for e in got] == [b"wake"]

    def test_append_after_empty_poll_wakes_parked_poll(self, server, client, monkeypatch):
        s = create_stream(client, StreamKind.OBJECT, register_producer=True)
        poll = server.broker.poll

        def poll_then_append(*args, **kwargs):
            records = poll(*args, **kwargs)
            if not records:
                monkeypatch.setattr(server.broker, "poll", poll)
                server.broker.append(s.id, b"late")
            return records

        monkeypatch.setattr(server.broker, "poll", poll_then_append)
        start = time.monotonic()
        got = s.poll(timeout_ms=5000)
        assert [e.payload for e in got] == [b"late"]
        assert time.monotonic() - start < 1.0

    def test_close_after_empty_poll_wakes_parked_poll(self, server, client_factory,
                                                     monkeypatch):
        producer = client_factory()
        consumer = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="late-close",
                           register_producer=True)
        sc = create_stream(consumer, StreamKind.OBJECT, alias="late-close")
        poll = server.broker.poll

        def poll_then_close(*args, **kwargs):
            records = poll(*args, **kwargs)
            monkeypatch.setattr(server.broker, "poll", poll)
            sp.close()
            return records

        monkeypatch.setattr(server.broker, "poll", poll_then_close)
        start = time.monotonic()
        assert sc.drain(timeout_ms=5000) == []
        assert time.monotonic() - start < 1.0
        assert sc.is_closed()

    def test_greedy_group_delivery(self, client_factory):
        # two consumers, one group: first poller takes everything
        c1 = client_factory(group="app")
        c2 = client_factory(group="app")
        s1 = create_stream(c1, StreamKind.OBJECT, alias="greedy")
        s2 = create_stream(c2, StreamKind.OBJECT, alias="greedy")
        s1.publish([b"1", b"2", b"3", b"4"])
        assert len(s1.poll()) == 4
        assert s2.poll() == []

    def test_poll_never_errors_on_closed(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish([b"a", b"b"])
        s.close()
        assert s.is_closed()
        assert len(s.poll()) == 2

    def test_payloads_non_empty(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        with pytest.raises(BackendError):
            s.publish(b"")

    def test_max_elements_cap(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish([b"1", b"2", b"3"])
        assert len(s.poll(max_elements=1)) == 1
        assert len(s.poll(max_elements=2)) == 2


class TestClose:
    def test_single_producer_close_flips_flag(self, client_factory):
        producer = client_factory()
        consumer = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="c1")
        sc = create_stream(consumer, StreamKind.OBJECT, alias="c1")
        sp.publish(b"x")
        assert sc.is_closed() is False
        sp.close()
        deadline = time.monotonic() + 2
        while not sc.is_closed() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert sc.is_closed() is True

    def test_one_of_two_producers(self, client):
        # registry oracle: closed iff zero open producers remain
        a = create_stream(client, StreamKind.OBJECT, alias="two")
        b = create_stream(client, StreamKind.OBJECT, alias="two")
        a.publish(b"1")
        b.publish(b"2")
        a.close()
        assert a.is_closed() is False
        b.close()
        assert b.is_closed() is True

    def test_double_close_idempotent(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.publish(b"x")
        s.close()
        s.close()
        assert s.is_closed() is True

    def test_fresh_stream_not_closed(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        assert s.is_closed() is False

    def test_close_without_grant_is_noop(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        s.close()  # never published, never granted
        assert s.is_closed() is False

    def test_close_is_visible_to_another_client_at_once(self, client_factory):
        # no polling: once close() returns, every client's next query sees it
        producer = client_factory()
        consumer = client_factory()
        missed = []
        for i in range(300):
            sp = create_stream(producer, StreamKind.OBJECT, alias=f"at-once-{i}")
            sc = create_stream(consumer, StreamKind.OBJECT, alias=f"at-once-{i}")
            sp.publish(b"x")
            assert sc.is_closed() is False
            sp.close()
            if not sc.is_closed():
                missed.append(i)
        assert missed == []

    def test_timeout_poll_returns_early_on_close(self, client_factory):
        import threading
        producer = client_factory()
        consumer = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="early")
        sc = create_stream(consumer, StreamKind.OBJECT, alias="early")
        sp.publish(b"x")
        assert len(sc.poll()) == 1
        closer = threading.Timer(0.05, sp.close)
        closer.start()
        start = time.monotonic()
        got = sc.poll(timeout_ms=10_000)
        elapsed = time.monotonic() - start
        closer.join(5)
        assert not closer.is_alive()
        assert got == []
        assert elapsed < 5.0


    def test_parked_polls_lose_no_wakeup_under_contention(self, client_factory):
        # more consuming threads than cores share one group and long-poll
        # while a producer publishes; every element arrives exactly once
        # and every drain ends once the stream is closed and drained
        import sys
        producer = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="stress")
        clients = [client_factory() for _ in range(4)]
        views = [create_stream(c, StreamKind.OBJECT, alias="stress")
                 for c in clients for _ in range(2)]
        got, errors = [], []

        def consume(view):
            try:
                got.extend(e.payload for e in view.drain(timeout_ms=20_000))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=consume, args=(v,)) for v in views]
            for t in threads:
                t.start()
            for i in range(0, 400, 4):
                sp.publish([b"%d" % j for j in range(i, i + 4)])
            sp.close()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert sorted(got, key=int) == [b"%d" % j for j in range(400)]

    def test_parked_poll_of_a_departed_client_takes_nothing(self, client_factory):
        producer = client_factory()
        leaving = client_factory()
        staying = client_factory()
        sp = create_stream(producer, StreamKind.OBJECT, alias="departed")
        gone_view = create_stream(leaving, StreamKind.OBJECT, alias="departed")
        stay_view = create_stream(staying, StreamKind.OBJECT, alias="departed")
        poller = threading.Thread(
            target=lambda: pytest.raises(ServerUnreachable, gone_view.poll, timeout_ms=10_000))
        poller.start()
        time.sleep(0.1)  # the poll is parked
        leaving.close()
        poller.join(5)
        deadline = time.monotonic() + 2
        while (any(t.name.startswith("ds-poll-") for t in threading.enumerate())
               and time.monotonic() < deadline):
            time.sleep(0.01)
        sp.publish(b"kept")
        assert [e.payload for e in stay_view.poll(timeout_ms=2000)] == [b"kept"]
        assert not poller.is_alive()

    def test_at_least_once_drain_waits_for_crashed_peer(self):
        server = StreamServer(host="127.0.0.1", port=0, lease_ms=300)
        server.start()
        clients = [DistroStreamClient(host=server.host, port=server.port, group="alo")
                   for _ in range(3)]
        try:
            producer, peer, consumer = clients
            sp = create_stream(producer, StreamKind.OBJECT, alias="alo")
            peer_view = create_stream(peer, StreamKind.OBJECT, alias="alo",
                                      consumer_mode=ConsumerMode.AT_LEAST_ONCE)
            sc = create_stream(consumer, StreamKind.OBJECT, alias="alo",
                               consumer_mode=ConsumerMode.AT_LEAST_ONCE)
            sp.publish([b"1", b"2", b"3"])
            assert len(peer_view.poll()) == 3
            peer.close()  # crashes holding the lease on all three
            sp.close()
            start = time.monotonic()
            elements = sc.drain(timeout_ms=10_000)
            elapsed = time.monotonic() - start
            assert sorted(e.payload for e in elements) == [b"1", b"2", b"3"]
            # returned once the lease ran out, with no settle time after it
            assert 0.2 <= elapsed < 0.3 + 0.5
        finally:
            for cli in clients:
                cli.close()
            server.stop()

    def test_stop_releases_parked_polls(self):
        def parked():
            return [t for t in threading.enumerate() if t.name.startswith("ds-poll-")]

        server = StreamServer(host="127.0.0.1", port=0)
        server.start()
        cli = DistroStreamClient(host=server.host, port=server.port)
        s = create_stream(cli, StreamKind.OBJECT, register_producer=True)
        outcome = []

        def poll():
            try:
                outcome.append(s.poll(timeout_ms=20_000))
            except ServerUnreachable as exc:
                outcome.append(exc)

        poller = threading.Thread(target=poll)
        poller.start()
        deadline = time.monotonic() + 2
        while not parked() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert parked()
        server.stop()
        deadline = time.monotonic() + 1
        while parked() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not parked()
        poller.join(2)
        assert outcome and not poller.is_alive()
        cli.close()


class TestMemory:
    """The server holds unfinished work only, and DELETE frees a whole stream."""

    def test_at_least_once_drain_leaves_nothing_in_the_broker(self, server, client_factory):
        sp = create_stream(client_factory(), StreamKind.OBJECT, alias="alo-drain")
        sc = create_stream(client_factory(), StreamKind.OBJECT, alias="alo-drain",
                           consumer_mode=ConsumerMode.AT_LEAST_ONCE)
        for i in range(0, 20_000, 500):
            sp.publish([b"%d" % j for j in range(i, i + 500)])
        sp.close()
        assert len(sc.drain(max_elements=500, timeout_ms=30_000)) == 20_000
        stats = server.broker.stats(sp.id)
        assert (stats.appended, stats.remaining) == (20_000, 0)

    def test_delete_frees_the_stream_and_answers_parked_polls(self, server, client_factory,
                                                              tmp_path):
        owner, reader = client_factory(), client_factory()
        stream = create_stream(owner, StreamKind.FILE, alias="doomed",
                               base_dir=str(tmp_path), register_producer=True)
        view = attach(reader, stream.handle)
        outcome = []

        def poll():
            try:
                view.poll(timeout_ms=20_000)
            except UnknownStream:
                outcome.append(time.monotonic())

        poller = threading.Thread(target=poll)
        poller.start()
        time.sleep(0.2)  # the poll is parked
        deleted_at = time.monotonic()
        stream.delete()
        poller.join(5)
        assert outcome and outcome[0] - deleted_at < 1.0
        assert stream.id not in server.registry.snapshot()
        assert stream.id not in server.monitor._states
        with pytest.raises(UnknownTopic):
            server.broker.stats(stream.id)
        for request in (stream.get_metadata, stream.close, stream.delete, view.poll,
                        lambda: owner.add_producer(stream.id, "late"),
                        lambda: owner.publish(stream.id, "late", [b"x"])):
            with pytest.raises(UnknownStream):
                request()
        again = create_stream(owner, StreamKind.FILE, alias="doomed", base_dir=str(tmp_path))
        assert again.id != stream.id
        assert server.registry.registered_total == 2
        assert server.registry.live_entries() == 1

class TestMetadata:
    def test_metadata_roundtrip(self, client):
        s = create_stream(client, StreamKind.OBJECT, alias="myStream")
        sid, alias, kind = s.get_metadata()
        assert sid == s.id
        assert alias == "myStream"
        assert kind is StreamKind.OBJECT

    def test_alias_absent(self, client):
        s = create_stream(client, StreamKind.OBJECT)
        _, alias, _ = s.get_metadata()
        assert alias is None

    def test_forged_id(self, client):
        forged = attach(client, StreamHandle(id="s-999999", kind=StreamKind.OBJECT))
        with pytest.raises(UnknownStream):
            forged.get_metadata()

    def test_handle_transitivity(self, client_factory):
        # serialize a handle, rebuild it on another process's client
        c1 = client_factory()
        c2 = client_factory()
        s1 = create_stream(c1, StreamKind.OBJECT, alias="carry")
        wire = s1.handle.to_wire()
        s2 = attach(c2, StreamHandle.from_wire(wire))
        assert s2.id == s1.id
        assert s2.kind is s1.kind
        s1.publish(b"via-wire")
        assert [e.payload for e in s2.poll()] == [b"via-wire"]


class TestFileStreams:
    def test_file_paths_flow_through(self, client, tmp_path):
        s = create_stream(client, StreamKind.FILE, base_dir=str(tmp_path))
        tmp = tmp_path / ".f1"
        tmp.write_bytes(b"body")
        os.rename(tmp, tmp_path / "f1")
        got = s.poll(timeout_ms=2000)
        assert [e.text() for e in got] == [str(tmp_path / "f1")]

    def test_consumer_gets_paths_not_contents(self, client, tmp_path):
        s = create_stream(client, StreamKind.FILE, base_dir=str(tmp_path))
        (tmp_path / "data.bin").write_bytes(b"\x00" * 128)
        got = s.poll(timeout_ms=2000)
        assert len(got) == 1
        assert os.path.isabs(got[0].text())
        assert got[0].text().startswith(str(tmp_path))

    def test_file_producer_close_via_registered_grant(self, client_factory, tmp_path):
        producer = client_factory()
        consumer = client_factory()
        sp = create_stream(producer, StreamKind.FILE, alias="fclose",
                           base_dir=str(tmp_path), register_producer=True)
        sc = create_stream(consumer, StreamKind.FILE, alias="fclose",
                           base_dir=str(tmp_path))
        (tmp_path / "one").write_bytes(b"1")
        sp.close()
        elements = sc.drain(timeout_ms=5000)
        assert [e.text() for e in elements] == [str(tmp_path / "one")]
        assert sc.is_closed()

    def test_file_renamed_in_before_close_precedes_drained(self, tmp_path):
        # with no background scan due, only the scan that follows the close
        # can find the file; drain must not report drained without it
        server = StreamServer(host="127.0.0.1", port=0, tick_ms=60_000)
        server.start()
        clients = [DistroStreamClient(host=server.host, port=server.port, group="f")
                   for _ in range(2)]
        try:
            sp = create_stream(clients[0], StreamKind.FILE, alias="late-file",
                               base_dir=str(tmp_path), register_producer=True)
            sc = create_stream(clients[1], StreamKind.FILE, alias="late-file",
                               base_dir=str(tmp_path))
            got = []
            drainer = threading.Thread(target=lambda: got.extend(sc.drain(timeout_ms=5000)))
            drainer.start()
            time.sleep(0.1)  # the drain's poll is parked
            tmp = tmp_path / ".last"
            tmp.write_bytes(b"1")
            os.rename(tmp, tmp_path / "last")
            sp.close()
            drainer.join(5)
            assert [e.text() for e in got] == [str(tmp_path / "last")]
        finally:
            for cli in clients:
                cli.close()
            server.stop()

    def test_polls_never_list_the_directory(self, tmp_path, listings):
        server = StreamServer(host="127.0.0.1", port=0, tick_ms=60_000)
        server.start()
        cli = DistroStreamClient(host=server.host, port=server.port)
        try:
            for i in range(2000):
                (tmp_path / f"f{i:04d}").write_bytes(b"x")
            s = create_stream(cli, StreamKind.FILE, base_dir=str(tmp_path))
            got = []
            while len(got) < 2000:  # emitted by the pass that registration starts
                batch = s.poll(timeout_ms=2000)
                assert batch
                got.extend(batch)
            listings.clear()
            for _ in range(25):
                assert s.poll() == []
                assert s.poll(timeout_ms=20) == []  # parks, then wakes at its deadline
            assert listings[str(tmp_path)] == 0
        finally:
            cli.close()
            server.stop()

    @pytest.mark.parametrize("how", ["dropped connection", "revoke"])
    def test_file_renamed_in_before_a_producer_leaves_precedes_drained(self, tmp_path, how):
        # on a 60 s tick only the scan made for the departing producer can
        # find the file
        server = StreamServer(host="127.0.0.1", port=0, tick_ms=60_000)
        server.start()
        clients = [DistroStreamClient(host=server.host, port=server.port, group="f")
                   for _ in range(3)]
        try:
            first, last, consumer = (
                create_stream(cli, StreamKind.FILE, alias="leaving", base_dir=str(tmp_path),
                              register_producer=producer)
                for cli, producer in zip(clients, [True, True, False]))
            first.close()  # the stream stays open until the last producer leaves
            got = []
            drainer = threading.Thread(
                target=lambda: got.extend(consumer.drain(timeout_ms=5000)))
            drainer.start()
            time.sleep(0.1)  # the drain's poll is parked
            tmp = tmp_path / ".last"
            tmp.write_bytes(b"1")
            os.rename(tmp, tmp_path / "last")
            if how == "revoke":
                assert clients[1].revoke_producer(last.id, last._token)
            else:
                clients[1].close()
            drainer.join(5)
            assert not drainer.is_alive()
            assert [e.text() for e in got] == [str(tmp_path / "last")]
            assert consumer.is_closed()
        finally:
            for cli in clients:
                cli.close()
            server.stop()
