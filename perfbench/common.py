"""Helpers shared by the workloads: paths, child processes, statistics."""
from __future__ import annotations

import contextlib
import os
import resource
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.join(ROOT, "perfbench")
# everything a run writes (monitored directories, staging files, span
# files) stays under this directory of the checkout
RUN_DIR = os.path.join(ROOT, ".bench_run")

# setup is repeated this many times per run and reported as the median
SETUPS = 5
# an open-loop generator whose p99 lateness exceeds this has fallen behind
# its schedule; two of the interpreter's 5 ms thread switch intervals
LATE_LIMIT_MS = 10.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def trimmed_mean(values) -> float:
    """Mean without the lowest and highest value once there are five or more."""
    data = sorted(values)
    return mean(data[1:-1] if len(data) >= 5 else data)


def timed_setups(make):
    """Set up SETUPS times, keeping the last; returns it and every setup time."""
    times = []
    for k in range(SETUPS):
        t0 = time.perf_counter()
        session = make()
        times.append(time.perf_counter() - t0)
        if k < SETUPS - 1:
            session.close()
    return session, times


def no_span(name: str, ref=None):
    """Stands in for Tracer.span when the run is not traced."""
    return contextlib.nullcontext()


def sleep_until(t: float) -> None:
    remaining = t - time.perf_counter()
    if remaining > 0:
        time.sleep(remaining)


def rss_peak_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = RUN_DIR
    return env


def spawn(script: str, args: list[str], **kw) -> subprocess.Popen:
    """Start python3 on one of the benchmark's scripts."""
    return subprocess.Popen([sys.executable, os.path.join(BENCH, script), *args],
                            cwd=ROOT, env=child_env(), **kw)


def reap(proc: subprocess.Popen, timeout_s: float = 30.0) -> None:
    """Wait for a child; terminate, then kill, if it does not exit in time."""
    try:
        proc.wait(timeout=timeout_s)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class ServerProcess:
    """A stream server in its own process, stopped by closing its stdin."""

    def __init__(self, trace_dir: str | None) -> None:
        args = ["--trace-dir", trace_dir] if trace_dir else []
        self.proc = spawn("server_main.py", args, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"stream server did not start: {line!r}")
        self.host = "127.0.0.1"
        self.port = int(line)

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        reap(self.proc)
        if self.proc.stdout:
            self.proc.stdout.close()


class ThreadCrashCounter:
    """threading.excepthook that counts unhandled thread exceptions.

    The previous hook still runs, so every traceback is printed as before.
    """

    def __init__(self) -> None:
        self.count = 0
        self._lock = threading.Lock()
        self._prev = threading.excepthook

    def install(self) -> None:
        threading.excepthook = self._hook

    def _hook(self, args) -> None:
        with self._lock:
            self.count += 1
        self._prev(args)


def join_client_readers(timeout_s: float = 2.0) -> None:
    """Let closed clients' reader threads finish, so their crashes are counted."""
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread.name.startswith("ds-client-"):
            thread.join(max(0.0, deadline - time.monotonic()))


class Result:
    """What one pass of a workload measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []
        self.attempted = 0
        self.failed = 0
        # inputs for the per-layer metrics of a traced pass
        self.layer: dict[str, float] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, text: str) -> None:
        self.notes.append(text)
