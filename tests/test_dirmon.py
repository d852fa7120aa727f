"""Directory monitor: registration, scan semantics, temp-name convention."""
import os
import threading
import time

import pytest

from hybridflow.dirmon import DirectoryMonitor
from hybridflow.errors import InvalidPath


def write_file(directory, name, body=b"x"):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(body)
    return path


def atomic_write(directory, name, body=b"x"):
    tmp = os.path.join(directory, "." + name)
    with open(tmp, "wb") as fh:
        fh.write(body)
    final = os.path.join(directory, name)
    os.rename(tmp, final)
    return final


@pytest.fixture
def sink():
    emitted = []
    return emitted, lambda sid, payload: emitted.append((sid, payload.decode()))


def test_preexisting_emitted_on_first_scan(tmp_path, sink):
    emitted, cb = sink
    f1 = write_file(str(tmp_path), "f1")
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    assert mon.scan_once("s1") == [f1]
    assert emitted == [("s1", f1)]


def test_register_missing_dir(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    with pytest.raises(InvalidPath):
        mon.register_dir("s1", str(tmp_path / "missing"))


def test_register_relative_dir(sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    with pytest.raises(InvalidPath):
        mon.register_dir("s1", "relative/dir")


def test_two_streams_no_crosstalk(tmp_path, sink):
    emitted, cb = sink
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    write_file(str(d1), "only-in-a")
    mon = DirectoryMonitor(cb)
    mon.register_dir("sa", str(d1))
    mon.register_dir("sb", str(d2))
    assert len(mon.scan_once("sa")) == 1
    assert mon.scan_once("sb") == []
    assert [sid for sid, _ in emitted] == ["sa"]


def test_new_file_between_scans(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    assert mon.scan_once("s1") == []
    f2 = write_file(str(tmp_path), "f2")
    assert mon.scan_once("s1") == [f2]


def test_no_changes_empty_scan(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    write_file(str(tmp_path), "f1")
    mon.scan_once("s1")
    assert mon.scan_once("s1") == []


def test_deleted_before_scan_never_emitted(tmp_path, sink):
    # scripted filesystem sequence: create + delete between scans
    emitted, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    mon.scan_once("s1")
    path = write_file(str(tmp_path), "ghost")
    os.unlink(path)
    assert mon.scan_once("s1") == []
    assert emitted == []


def test_emitted_exactly_once(tmp_path, sink):
    emitted, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    write_file(str(tmp_path), "once")
    for _ in range(4):
        mon.scan_once("s1")
    assert len(emitted) == 1


def test_dot_prefixed_ignored(tmp_path, sink):
    emitted, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    write_file(str(tmp_path), ".partial")
    assert mon.scan_once("s1") == []
    final = atomic_write(str(tmp_path), "done")
    assert mon.scan_once("s1") == [final]
    assert not any("/." in p for _, p in emitted)


def test_subdirectories_not_recursed(tmp_path, sink):
    _, cb = sink
    sub = tmp_path / "sub"
    sub.mkdir()
    write_file(str(sub), "nested")
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    assert mon.scan_once("s1") == []


def test_order_mtime_then_name(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    a = write_file(str(tmp_path), "newer")
    time.sleep(0.01)
    b = write_file(str(tmp_path), "later")
    got = mon.scan_once("s1")
    assert got == [a, b]


def test_paths_absolute_under_base(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb)
    mon.register_dir("s1", str(tmp_path))
    write_file(str(tmp_path), "f")
    for path in mon.scan_once("s1"):
        assert os.path.isabs(path)
        assert path.startswith(str(tmp_path))


def test_background_loop_picks_up_files(tmp_path, sink):
    emitted, cb = sink
    mon = DirectoryMonitor(cb, tick_ms=20)
    mon.register_dir("s1", str(tmp_path))
    mon.start()
    try:
        write_file(str(tmp_path), "live")
        deadline = time.monotonic() + 2.0
        while not emitted and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        mon.stop()
    assert len(emitted) == 1


def test_register_on_running_monitor_scans_without_waiting(tmp_path, sink):
    # registration wakes the loop, which may be idle with nothing registered
    emitted, cb = sink
    f1 = write_file(str(tmp_path), "f1")
    mon = DirectoryMonitor(cb, tick_ms=20)
    mon.start()
    try:
        time.sleep(0.05)  # the loop has found nothing to scan and gone idle
        mon.register_dir("s1", str(tmp_path))
        deadline = time.monotonic() + 0.2  # a few ticks
        while not emitted and time.monotonic() < deadline:
            time.sleep(0.005)
    finally:
        mon.stop()
    assert emitted == [("s1", f1)]


def test_stop_ends_an_idle_loop_at_once(tmp_path, sink):
    _, cb = sink
    mon = DirectoryMonitor(cb, tick_ms=60_000)
    mon.register_dir("s1", str(tmp_path))
    mon.start()
    time.sleep(0.05)
    start = time.monotonic()
    mon.stop()
    assert time.monotonic() - start < 1.0


def test_concurrent_scan_returns_after_sink(tmp_path):
    # a scan that finds nothing new must not return while a file another
    # scan already marked seen is still on its way to the sink; otherwise a
    # poll racing a background scan can miss a file written before close
    f1 = atomic_write(str(tmp_path), "f1")
    emitted = []
    entered, release = threading.Event(), threading.Event()

    def blocking_sink(sid, payload):
        if not entered.is_set():
            entered.set()
            release.wait(5)
        emitted.append(payload.decode())

    mon = DirectoryMonitor(blocking_sink)
    mon.register_dir("s1", str(tmp_path))
    first = threading.Thread(target=mon.scan_once, args=("s1",))
    first.start()
    assert entered.wait(5)
    seen_by_second = []
    second = threading.Thread(
        target=lambda: seen_by_second.append((mon.scan_once("s1"), list(emitted))))
    second.start()
    second.join(0.2)
    release.set()
    first.join(5)
    second.join(5)
    assert not first.is_alive() and not second.is_alive()
    assert seen_by_second == [([], [f1])]
