"""File-stream backend: polls directories and emits newly created file paths.

Detection keys on the file name within the directory, so producers must write
to a dot-prefixed temporary name and rename into place; dot-prefixed names are
never emitted. Paths are absolute and the monitored directory must resolve to
the same path on every node (shared filesystem contract).
"""
from __future__ import annotations

import os
import stat
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidPath

# how long a file renamed into a monitored directory can go unnoticed
DEFAULT_TICK_MS = 5
# a directory mtime this close to a listing's start may hide a later change
# on a filesystem with coarse timestamps ("racy git"), so it does not gate
RACY_NS = 2_000_000_000


@dataclass
class MonitorState:
    base_dir: str
    seen: set[str] = field(default_factory=set)
    # directory mtime read before the last successful listing, and the wall
    # clock when that listing began; None until a listing succeeds
    listed_mtime_ns: int | None = None
    listed_at_ns: int = 0

    def unchanged(self) -> bool:
        """True when a listing now would find nothing the last one missed."""
        if self.listed_mtime_ns is None:
            return False
        try:
            mtime = os.stat(self.base_dir).st_mtime_ns
        except OSError:
            return False
        return mtime == self.listed_mtime_ns and self.listed_at_ns - mtime > RACY_NS


class DirectoryMonitor:
    """Scans registered directories every tick and pushes new paths to a sink.

    The sink is called as sink(stream_id, payload) with the absolute path
    encoded as UTF-8; the server wires it to the stream's delivery queue.
    Registering a directory scans it at once, not at the next tick. A tick
    costs one `stat` per directory whose mtime is unchanged since a listing
    that began more than RACY_NS after it; other directories are listed.
    """

    def __init__(self, sink: Callable[[str, bytes], None],
                 tick_ms: int = DEFAULT_TICK_MS) -> None:
        self._sink = sink
        self._states: dict[str, MonitorState] = {}
        self._lock = threading.RLock()
        self._tick_ms = tick_ms
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None

    def register_dir(self, stream_id: str, base_dir: str) -> None:
        if not os.path.isabs(base_dir):
            raise InvalidPath(f"base_dir must be absolute: {base_dir!r}")
        if not os.path.isdir(base_dir) or not os.access(base_dir, os.R_OK):
            raise InvalidPath(f"base_dir missing or unreadable: {base_dir!r}")
        with self._lock:
            if stream_id in self._states:
                return
            self._states[stream_id] = MonitorState(base_dir=os.path.abspath(base_dir))
        self._wake.set()

    def unregister(self, stream_id: str) -> None:
        with self._lock:
            self._states.pop(stream_id, None)

    def scan_once(self, stream_id: str) -> list[str]:
        """One scan pass: returns the new absolute paths, oldest first.

        New files are added to the seen set and appended to the delivery
        queue before returning. The sink runs under the monitor lock, so a
        concurrent scan that finds nothing new returns only after every file
        already marked seen has reached the sink (lock order: monitor lock,
        then the broker's topic lock). A failure to stat or list the
        directory records nothing and disarms the mtime gate, so the next
        tick lists it again. A name that cannot be stat'ed (a dangling
        symlink, a file removed after the listing) is skipped and leaves the
        gate disarmed, so it is looked at again on the next tick.
        """
        with self._lock:
            state = self._states.get(stream_id)
            if state is None:
                return []
            base = state.base_dir
            try:
                started = time.time_ns()
                mtime = os.stat(base).st_mtime_ns
                names = set(os.listdir(base)) - state.seen
            except OSError:
                state.listed_mtime_ns = None
                return []
            entries = []
            skipped = False
            for name in names:
                if name.startswith("."):
                    continue
                try:
                    st = os.stat(os.path.join(base, name))
                except OSError:
                    skipped = True
                    continue
                if stat.S_ISREG(st.st_mode):
                    entries.append((st.st_mtime_ns, name))
            state.listed_mtime_ns = None if skipped else mtime
            state.listed_at_ns = started
            entries.sort()
            new_paths = []
            for _, name in entries:
                state.seen.add(name)
                path = os.path.join(base, name)
                self._sink(stream_id, path.encode("utf-8"))
                new_paths.append(path)
        return new_paths

    # -- background loop --

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="dirmon", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self._wake.clear()  # before the snapshot, so no registration is missed
            started = time.monotonic()
            with self._lock:
                due = [sid for sid, state in self._states.items() if not state.unchanged()]
                idle = not self._states
            for stream_id in due:
                self.scan_once(stream_id)
            # a pass longer than the tick sleeps as long as it ran, so
            # listing a huge directory takes at most half a core
            pause = max(self._tick_ms / 1000.0, time.monotonic() - started)
            self._wake.wait(None if idle else pause)
