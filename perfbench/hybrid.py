"""`hybrid` workload: the paper's continuous-generation shape on a FILE stream.

A generator thread writes seeded files into a monitored directory on an
absolute schedule, one every GAP_MS, each to a dot-temp name and then
renamed into place. The main thread polls the file stream and submits one
processing task per file to the runtime's in-process slots (`_LocalWorker`
threads, SLOTS cores), and once the stream is closed and drained one merge
task over every output. The directory grows into the thousands, so dirmon's
scan cost grows with it, and the runtime sees tasks submitted online with a
small pending set, unlike `dag`. At a 2 ms gap the runtime is near
saturation. At 4 ms, once the directory holds a few thousand files a scan
outlasts the gap, so every poll finds a file and the consumer stops sleeping
between polls; latency then depends on when in the run that happens. A 6 ms
gap keeps the whole run on one side of both.
"""
from __future__ import annotations

import os
import random
import shutil
import threading
import time
import zlib

from hybridflow.client import DistroStreamClient
from hybridflow.errors import ExecutionFailure
from hybridflow.model import StreamKind
from hybridflow.runtime import Runtime, TaskState, file_in, obj_in, obj_out
from hybridflow.streams import create_stream
from hybridflow.workbench.simoracle import uc1_makespan

from .common import (
    LATE_LIMIT_MS, RUN_DIR, Result, ServerProcess, mean, no_span, quantile, rss_peak_mb,
    sleep_until, timed_setups,
)

GAP_MS = 6.0
GEN_SHARE = 0.6  # of --seconds spent writing files
SLOTS = 2
DRAIN_S = 30.0


def merge_digest(results) -> tuple[int, int]:
    """Count and crc over (name, crc) pairs, independent of arrival order."""
    text = ";".join(f"{name}:{crc:08x}" for name, crc in sorted(results))
    return len(results), zlib.crc32(text.encode())


class _Tasks:
    """The task bodies; each processing task stamps when its body started."""

    def __init__(self) -> None:
        self.started: dict[str, float] = {}

    def process(self, path: str, _out) -> tuple[str, int]:
        name = os.path.basename(path)
        self.started[name] = time.perf_counter()
        with open(path, "rb") as fh:
            return name, zlib.crc32(fh.read())

    def merge(self, *args) -> tuple[int, int]:
        return merge_digest(args[:-1])  # the last argument is the OUT slot


class _Session:
    """Server process, producer and consumer clients, runtime, file stream."""

    def __init__(self, trace_dir: str | None) -> None:
        self.dir = os.path.join(RUN_DIR, f"hybrid-{os.getpid()}-{time.monotonic_ns()}")
        os.makedirs(self.dir)
        self.server = ServerProcess(trace_dir)
        self.clients: list[DistroStreamClient] = []
        self.runtime: Runtime | None = None
        try:
            prod = self._client("bench-producer")
            cons = self._client("bench-consumer")
            self.pub = create_stream(prod, StreamKind.FILE, alias="files",
                                     base_dir=self.dir, register_producer=True)
            self.sub = create_stream(cons, StreamKind.FILE, alias="files", base_dir=self.dir)
            self.tasks = _Tasks()
            self.runtime = Runtime(local_slots=[SLOTS])
            self.runtime.register_method(self.tasks.process, name="process")
            self.runtime.register_method(self.tasks.merge, name="merge")
            warm = os.path.join(self.dir, ".warm")
            with open(warm, "wb") as fh:
                fh.write(b"warm")
            self.runtime.submit("process", [file_in(warm), obj_out("warm")])
            self.runtime.wait_on("warm", timeout_s=30)
            self.sub.poll()
            os.remove(warm)
        except BaseException:
            self.close()
            raise

    def _client(self, group: str) -> DistroStreamClient:
        client = DistroStreamClient(host=self.server.host, port=self.server.port, group=group)
        self.clients.append(client)
        return client

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.shutdown()
        for client in self.clients:
            client.close()
        self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def run(seed: int, seconds: float, tracer, trace_dir: str | None) -> Result:
    rng = random.Random(seed)
    count = int(seconds * GEN_SHARE * 1000.0 / GAP_MS)
    contents = [rng.randbytes(rng.randrange(256, 4097)) for _ in range(count)]
    names = [f"f{seq:06d}.dat" for seq in range(count)]
    reference = merge_digest([(n, zlib.crc32(c)) for n, c in zip(names, contents)])
    span = tracer.span if tracer is not None else no_span
    res = Result()
    session, setups = timed_setups(lambda: _Session(trace_dir))
    try:
        out = _run_schedule(session, names, contents, span)
        rt = session.runtime
        rt.barrier(timeout_s=10)
        merged = out["merged"]
        rows = rt.lifecycle_rows()
        entries = len(os.listdir(session.dir))
    finally:
        session.close()

    latency = [(session.tasks.started[n] - due) * 1000.0
               for n, due in zip(names, out["due"]) if n in session.tasks.started]
    processed = len(latency)
    res.attempted = count + 1
    # a file never delivered or delivered twice, a processing task that did
    # not finish, a wrong merge
    res.failed = (count - out["delivered"] + out["duplicates"] + out["failed_tasks"]
                  + (merged != reference))
    res.metric("setup_s", quantile(setups, 0.5), "s")
    res.metric("throughput_per_s", processed / out["makespan"], "1/s")
    res.metric("latency_p50_ms", quantile(latency, 0.5), "ms")
    res.metric("latency_p99_ms", quantile(latency, 0.99), "ms")
    res.metric("makespan_s", out["makespan"], "s")
    res.metric("rss_peak_mb", rss_peak_mb(), "MB")

    by_method: dict[str, list[float]] = {}
    for _tid, method, _analysis, _schedule, execution in rows:
        by_method.setdefault(method, []).append(execution)
    proc_ms = quantile(by_method.get("process", []), 0.5)
    merge_ms = quantile(by_method.get("merge", []), 0.5)
    oracle = uc1_makespan("hybrid", [SLOTS + 1], 1, count, GAP_MS, proc_ms, merge_ms) / 1000.0
    late = out["late"]
    late_p99, late_max = quantile(late, 0.99), max(late, default=0.0)
    res.note(f"{count} files every {GAP_MS} ms on {SLOTS} slots; {processed} processed, "
             f"{len(latency)} latency samples (due time to task body start); "
             f"merge {'matches' if merged == reference else 'DIFFERS FROM'} the reference "
             f"{reference}")
    res.note(f"generator lateness: p99={late_p99:.3f} ms max={late_max:.3f} ms"
             + ("  BEHIND SCHEDULE" if late_p99 > LATE_LIMIT_MS else ""))
    res.note(f"oracle: simoracle.uc1_makespan('hybrid', [{SLOTS + 1}], 1, {count}, {GAP_MS}, "
             f"{proc_ms:.3f}, {merge_ms:.3f}) = {oracle:.4f} s beside measured "
             f"makespan_s = {out['makespan']:.4f} s (reference only, not gated)")
    res.layer.update({
        "elements": out["delivered"],
        "tasks": len(rows),
        "late_p99_ms": late_p99,
        "late_max_ms": late_max,
        "oracle_makespan_s": oracle,
        "dir_entries_end": entries,
        "analysis_ms_mean": mean([r[2] for r in rows]),
        "schedule_ms_mean": mean([r[3] for r in rows]),
        "execution_ms_mean": mean([r[4] for r in rows]),
    })
    return res


def _run_schedule(session: _Session, names: list[str], contents: list[bytes], span) -> dict:
    count = len(names)
    t0 = time.perf_counter() + 0.05
    due = [t0 + seq * GAP_MS / 1000.0 for seq in range(count)]
    late = [0.0] * count

    def generate() -> None:
        for seq in range(count):
            sleep_until(due[seq])
            late[seq] = (time.perf_counter() - due[seq]) * 1000.0
            with span("bench.write_file", seq):
                tmp = os.path.join(session.dir, "." + names[seq])
                with open(tmp, "wb") as fh:
                    fh.write(contents[seq])
                os.rename(tmp, os.path.join(session.dir, names[seq]))
        session.pub.close()

    gen = threading.Thread(target=generate, name="bench-generator")
    gen.start()
    rt = session.runtime
    outputs: list[str] = []
    task_ids: list[int] = []
    seen: set[str] = set()
    duplicates = 0
    deadline = due[-1] + DRAIN_S
    sub = session.sub
    while time.perf_counter() < deadline:
        batch = sub.poll(timeout_ms=200)
        if not batch and sub.is_closed():
            batch = sub.poll()
            if not batch:
                break
        for element in batch:
            path = element.payload.decode()
            out = "r-" + os.path.basename(path)
            if out in seen:
                duplicates += 1  # the stream delivers each file once
                continue
            seen.add(out)
            with span("bench.submit", out):
                task_ids.append(rt.submit("process", [file_in(path), obj_out(out)]))
            outputs.append(out)
    gen.join()
    rt.submit("merge", [obj_in(o) for o in outputs] + [obj_out("merged")])
    try:
        merged = rt.wait_on("merged", timeout_s=DRAIN_S)
    except (ExecutionFailure, TimeoutError):
        merged = None  # counted as a failure against the reference
    makespan = time.perf_counter() - t0
    failed_tasks = sum(rt.task(tid).state is not TaskState.DONE for tid in task_ids)
    return {"merged": merged, "makespan": makespan, "due": due, "late": late,
            "delivered": len(outputs), "duplicates": duplicates, "failed_tasks": failed_tasks}
