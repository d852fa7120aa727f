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


def age_dir(directory, seconds):
    """Set a directory's mtime `seconds` into the past."""
    mtime = time.time_ns() - int(seconds * 1e9)
    os.utime(directory, ns=(mtime, mtime))


def wait_for(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


def test_idle_dir_outside_racy_window_is_not_listed(tmp_path, sink, listings):
    emitted, cb = sink
    write_file(str(tmp_path), "f1")
    age_dir(str(tmp_path), 10)
    mon = DirectoryMonitor(cb, tick_ms=5)
    mon.register_dir("s1", str(tmp_path))
    mon.start()
    try:
        assert wait_for(lambda: emitted)
        listings.clear()
        time.sleep(0.2)  # about 40 ticks
        assert listings[str(tmp_path)] == 0
        f2 = write_file(str(tmp_path), "f2")  # a change reopens the gate
        assert wait_for(lambda: len(emitted) == 2)
    finally:
        mon.stop()
    assert emitted[-1] == ("s1", f2)


def test_rename_hidden_by_mtime_granularity_inside_racy_window(tmp_path, sink):
    emitted, cb = sink
    mon = DirectoryMonitor(cb, tick_ms=5)
    mon.register_dir("s1", str(tmp_path))
    os.utime(tmp_path)  # now: the next scan begins inside the racy window
    before = os.stat(tmp_path)
    assert mon.scan_once("s1") == []
    f1 = atomic_write(str(tmp_path), "f1")
    os.utime(tmp_path, ns=(before.st_atime_ns, before.st_mtime_ns))
    mon.start()
    try:
        assert wait_for(lambda: emitted)
    finally:
        mon.stop()
    assert emitted == [("s1", f1)]


def test_failed_scan_leaves_the_gate_unarmed(tmp_path, sink, monkeypatch):
    emitted, cb = sink
    f1 = write_file(str(tmp_path), "f1")
    age_dir(str(tmp_path), 10)
    mon = DirectoryMonitor(cb, tick_ms=5)
    mon.register_dir("s1", str(tmp_path))

    def failing(path):
        raise PermissionError(path)

    with monkeypatch.context() as m:
        m.setattr("hybridflow.dirmon.os.listdir", failing)
        assert mon.scan_once("s1") == []
    mon.start()
    try:
        assert wait_for(lambda: emitted)
    finally:
        mon.stop()
    assert emitted == [("s1", f1)]


def test_dangling_symlink_does_not_stop_the_stream(tmp_path, sink):
    # a name that cannot be stat'ed is skipped, not the whole listing
    emitted, cb = sink
    watched = tmp_path / "watched"
    watched.mkdir()
    target = tmp_path / "target"
    os.symlink(str(target), str(watched / "link"))
    f1 = write_file(str(watched), "f1")
    age_dir(str(watched), 10)
    mon = DirectoryMonitor(cb, tick_ms=5)
    mon.register_dir("s1", str(watched))
    assert mon.scan_once("s1") == [f1]
    # the skipped name keeps the gate open: its target appears elsewhere,
    # leaving the watched directory's mtime as it was
    write_file(str(tmp_path), "target")
    mon.start()
    try:
        assert wait_for(lambda: len(emitted) == 2)
    finally:
        mon.stop()
    assert emitted == [("s1", f1), ("s1", str(watched / "link"))]


def test_slow_pass_sleeps_as_long_as_it_ran(tmp_path, sink, monkeypatch):
    # a listing that outlasts the tick must not run back to back
    _, cb = sink
    calls = []
    listdir = os.listdir

    def slow_listdir(path):
        calls.append(path)
        time.sleep(0.03)
        return listdir(path)

    monkeypatch.setattr("hybridflow.dirmon.os.listdir", slow_listdir)
    os.utime(tmp_path)  # inside the racy window, so every tick lists
    mon = DirectoryMonitor(cb, tick_ms=1)
    mon.register_dir("s1", str(tmp_path))
    mon.start()
    time.sleep(0.6)
    mon.stop()
    # back to back would be about 20 listings; sleeping as long as each
    # pass ran allows about 10
    assert 3 <= len(calls) <= 13
