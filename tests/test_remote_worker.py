"""Master/worker over the wire: worker processes join, run tasks, use streams."""
import os
import pickle
import socket
import subprocess
import sys
import threading
import time

import pytest

from hybridflow import protocol
from hybridflow.model import StreamKind
from hybridflow.runtime import Runtime, obj_in, obj_out, stream_in, stream_out
from hybridflow.runtime.worker import WorkerProcess
from hybridflow.streams import create_stream

HERE = os.path.dirname(os.path.abspath(__file__))


def spawn_worker(master_host, master_port, cores=1):
    env = dict(os.environ)
    env["PYTHONPATH"] = HERE + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "hybridflow.runtime.worker",
         "--master", f"{master_host}:{master_port}", "--cores", str(cores)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


@pytest.fixture
def remote_runtime(server, client_factory):
    client = client_factory(group="remote-app")
    rt = Runtime(stream_client=client)
    host, port = rt.start_listening()
    workers = [spawn_worker(host, port), spawn_worker(host, port)]
    rt.wait_for_workers(2, timeout_s=20)
    yield rt
    rt.shutdown()
    for proc in workers:
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()


def test_remote_task_roundtrip(remote_runtime):
    remote_runtime.put("x", 21)
    remote_runtime.submit("remote_methods:double", [obj_in("x"), obj_out("y")])
    assert remote_runtime.wait_on("y", timeout_s=20) == 42


def test_remote_value_transfer_integrity(remote_runtime):
    import hashlib
    blob = os.urandom(1 << 20)
    remote_runtime.put("blob", blob)
    remote_runtime.submit("remote_methods:checksum_blob",
                          [obj_in("blob"), obj_out("digest")])
    assert remote_runtime.wait_on("digest", timeout_s=20) == hashlib.sha256(blob).hexdigest()


def _staged_files(rt):
    return os.listdir(rt.staging_dir())


def test_staged_inputs_deleted_when_results_arrive(remote_runtime):
    import hashlib
    blob = os.urandom(1 << 18)  # above the 64 KiB staging threshold
    remote_runtime.put("big", blob)
    for i in range(6):
        remote_runtime.submit("remote_methods:checksum_blob",
                              [obj_in("big"), obj_out(f"d{i}")])
    assert remote_runtime.barrier(timeout_s=20)
    digest = hashlib.sha256(blob).hexdigest()
    assert [remote_runtime.wait_on(f"d{i}") for i in range(6)] == [digest] * 6
    # every task got a file of its own, and each went with its result
    assert _staged_files(remote_runtime) == []


def test_staged_inputs_deleted_when_the_worker_is_lost():
    rt = Runtime()
    host, port = rt.start_listening()
    proc = spawn_worker(host, port)
    try:
        rt.wait_for_workers(1, timeout_s=20)
        rt.put("big", os.urandom(1 << 18))
        task_id = rt.submit("remote_methods:hold_blob", [obj_in("big"), obj_out("r")])
        deadline = time.monotonic() + 20
        while rt.task(task_id).state.value != "RUNNING" or not _staged_files(rt):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        proc.kill()
        proc.wait(timeout=5)
        # the lost worker's task is sent back for retry, with nowhere to run
        deadline = time.monotonic() + 10
        while _staged_files(rt):
            assert time.monotonic() < deadline, _staged_files(rt)
            time.sleep(0.01)
        assert rt.task(task_id).state.value == "READY"
    finally:
        rt.shutdown()
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=5)


def test_remote_parallel_tasks(remote_runtime):
    t0 = time.monotonic()
    for i in range(2):
        remote_runtime.put(f"v{i}", i)
        remote_runtime.submit("remote_methods:slow_echo",
                              [obj_in(f"v{i}"), obj_out(f"o{i}")])
    assert remote_runtime.barrier(timeout_s=20)
    assert [remote_runtime.wait_on(f"o{i}") for i in range(2)] == [0, 1]
    assert time.monotonic() - t0 < 5.0


def test_remote_stream_pipeline(remote_runtime, client_factory):
    client = client_factory(group="remote-app")
    s = create_stream(client, StreamKind.OBJECT, alias="remote-pipe")
    remote_runtime.put("n", 5)
    remote_runtime.submit("remote_methods:publish_then_close",
                          [stream_out(s.handle), obj_in("n")])
    remote_runtime.submit("remote_methods:drain_stream",
                          [stream_in(s.handle), obj_out("seen")])
    assert remote_runtime.wait_on("seen", timeout_s=25) == [f"m{i}" for i in range(5)]


@pytest.fixture
def two_core_worker(server, client_factory):
    """A runtime whose only worker is one process with two cores."""
    rt = Runtime(stream_client=client_factory(group="remote-app"))
    host, port = rt.start_listening()
    proc = spawn_worker(host, port, cores=2)
    try:
        rt.wait_for_workers(1, timeout_s=20)
        yield rt
    finally:
        rt.shutdown()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=5)


def test_remote_tasks_share_one_thread_per_core(two_core_worker):
    rt = two_core_worker
    for i in range(30):
        rt.put(f"i{i}", i)
        rt.submit("remote_methods:thread_name", [obj_in(f"i{i}"), obj_out(f"n{i}")])
    assert rt.barrier(timeout_s=30) is True
    names = {rt.wait_on(f"n{i}") for i in range(30)}
    assert 1 <= len(names) <= 2, names


def test_remote_tasks_start_with_a_fresh_context(two_core_worker):
    rt = two_core_worker
    for i in range(10):
        rt.put(f"i{i}", i)
        rt.submit("remote_methods:context_mark", [obj_in(f"i{i}"), obj_out(f"m{i}")])
    assert [rt.wait_on(f"m{i}", timeout_s=20) for i in range(10)] == ["unset"] * 10


def test_producer_and_consumer_share_one_worker(two_core_worker, client_factory):
    # the consumer holds one slot thread while it drains, the producer needs the other
    client = client_factory(group="remote-app")
    s = create_stream(client, StreamKind.OBJECT, alias="one-worker-pipe")
    rt = two_core_worker
    rt.put("n", 5)
    rt.submit("remote_methods:drain_stream", [stream_in(s.handle), obj_out("seen")])
    rt.submit("remote_methods:publish_then_close", [stream_out(s.handle), obj_in("n")])
    assert rt.wait_on("seen", timeout_s=25) == [f"m{i}" for i in range(5)]
    assert rt.barrier(timeout_s=10) is True


def test_undecodable_task_closes_the_worker_connection():
    # the master retries the tasks of a worker whose connection ends; a slot
    # thread dying on the frame instead would hold a core that never reports
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]
    after = []

    def master():
        sock, _ = listener.accept()
        sock.settimeout(5)
        conn = protocol.Connection(sock)
        hello = conn.recv()
        conn.send(protocol.ok(hello.corr_id, ["", "", ""]))
        conn.send(protocol.Frame(verb="TASK", fields=["1"], corr_id="0",
                                 payload=b"\x00not a task"))
        try:
            after.append(conn.recv())
        except TimeoutError:
            after.append("worker still connected")
        conn.close()

    fake = threading.Thread(target=master, daemon=True)
    fake.start()
    try:
        worker = WorkerProcess(host, port, cores=2)
        with pytest.raises(pickle.UnpicklingError):
            worker.run()
        fake.join(timeout=5)
    finally:
        listener.close()
    assert after == [None]  # end of stream, no TRESULT
