"""File-stream backend: polls directories and emits newly created file paths.

Detection keys on the file name within the directory, so producers must write
to a dot-prefixed temporary name and rename into place; dot-prefixed names are
never emitted. Paths are absolute and the monitored directory must resolve to
the same path on every node (shared filesystem contract).
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

from .errors import InvalidPath

# how long a file renamed into a monitored directory can go unnoticed
DEFAULT_TICK_MS = 50


@dataclass
class MonitorState:
    base_dir: str
    seen: set[str] = field(default_factory=set)


class DirectoryMonitor:
    """Scans registered directories every tick and pushes new paths to a sink.

    The sink is called as sink(stream_id, payload) with the absolute path
    encoded as UTF-8; the server wires it to the stream's delivery queue.
    Registering a directory scans it at once, not at the next tick.
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
        then the broker's topic lock). I/O failures skip the tick (retried
        later).
        """
        with self._lock:
            state = self._states.get(stream_id)
            if state is None:
                return []
            try:
                entries = []
                with os.scandir(state.base_dir) as it:
                    for entry in it:
                        name = entry.name
                        if name.startswith(".") or name in state.seen:
                            continue
                        if not entry.is_file():
                            continue
                        entries.append((entry.stat().st_mtime_ns, name))
            except OSError:
                return []
            entries.sort()
            new_paths = []
            for _, name in entries:
                state.seen.add(name)
                path = os.path.join(state.base_dir, name)
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
            with self._lock:
                stream_ids = list(self._states)
            for stream_id in stream_ids:
                self.scan_once(stream_id)
            self._wake.wait(self._tick_ms / 1000.0 if stream_ids else None)
