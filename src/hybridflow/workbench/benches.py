"""Scalability/load-balance and task-lifecycle benchmarks.

The scalability bench runs an N-writer/M-reader program over one stream and
reports makespan, efficiency against the ideal (elements * proc / readers),
and the per-reader element distribution. Readers start with a staggered ramp
(reader i sleeps (i+1) * ramp) standing in for the sequential task spawn
across nodes that a distributed deployment exhibits; greedy uncapped polls
then reproduce the first-requester imbalance.

The lifecycle bench compares object-parameter tasks against stream-parameter
tasks over subprocess workers, sweeping payload size and object count, and
reports per-phase times plus totals for the crossover table.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field

from ..client import DistroStreamClient
from ..model import StreamKind
from ..runtime import Runtime, obj_in, obj_out, stream_in, stream_out
from ..server import StreamServer
from ..streams import create_stream
from .config import BenchConfig
from .reports import BalanceReport, CsvLog
from .taskdefs import make_payload
from .usecases import TD, Stack


@dataclass
class ScaleRun:
    writers: int
    readers: int
    elements: int
    makespan_ms: float
    balance: BalanceReport
    efficiency: float
    ok: bool


def _scale_once(cfg: BenchConfig, writers: int, readers: int) -> ScaleRun:
    slots = [1] * (writers + readers)
    with Stack(cfg, slots=slots) as stack:
        rt = stack.runtime
        stream = create_stream(stack.client, StreamKind.OBJECT)
        per_writer = [cfg.payloads // writers] * writers
        for i in range(cfg.payloads % writers):
            per_writer[i] += 1
        t0 = time.monotonic()
        for w in range(writers):
            cid = f"sw-{w}"
            rt.put(cid, {
                "elements": per_writer[w], "gap_ms": cfg.writer_gap_ms,
                "payload_bytes": cfg.payload_bytes, "seed": str(cfg.seed),
                "writer_index": w,
            })
            rt.submit(TD + "scale_writer",
                      [stream_out(stream.handle), obj_in(cid)])
        count_ids = []
        for r in range(readers):
            cid = f"sr-{r}"
            rt.put(cid, {
                "reader_index": r, "ramp_ms": cfg.reader_ramp_ms,
                "proc_ms": cfg.process_time_ms, "poll_cap": cfg.poll_cap,
            })
            rt.submit(TD + "scale_reader",
                      [stream_in(stream.handle), obj_in(cid),
                       obj_out(f"scount-{r}")])
            count_ids.append(f"scount-{r}")
        rt.barrier(timeout_s=600)
        makespan_ms = (time.monotonic() - t0) * 1000.0
        counts = [rt.wait_on(cid, timeout_s=10) for cid in count_ids]
        balance = BalanceReport(counts=counts)
        ideal_ms = cfg.payloads * cfg.process_time_ms / readers
        efficiency = ideal_ms / makespan_ms if makespan_ms > 0 else 0.0
        return ScaleRun(writers=writers, readers=readers, elements=cfg.payloads,
                        makespan_ms=makespan_ms, balance=balance,
                        efficiency=efficiency, ok=balance.total == cfg.payloads)


def bench_scalability(cfg: BenchConfig,
                      writers_list: list[int] | None = None,
                      readers_list: list[int] | None = None,
                      log: CsvLog | None = None) -> tuple[CsvLog, dict[tuple[int, int], ScaleRun]]:
    log = log if log is not None else CsvLog()
    runs: dict[tuple[int, int], ScaleRun] = {}
    for writers in writers_list or [cfg.writers]:
        for readers in readers_list or [cfg.readers]:
            run = _scale_once(cfg, writers, readers)
            runs[(writers, readers)] = run
            config_id = f"scale-w{writers}-r{readers}"
            log.add(config_id, "HYBRID", "time", run.makespan_ms, "ms")
            log.add(config_id, "HYBRID", "efficiency", run.efficiency, "ratio")
            for idx, count in enumerate(run.balance.counts):
                log.add(config_id, "HYBRID", f"reader{idx}_elements", count, "count")
                log.add(config_id, "HYBRID", f"reader{idx}_share",
                        run.balance.fractions[idx], "ratio")
            log.add(config_id, "HYBRID", "conserved", float(run.ok), "bool")
    return log, runs


@dataclass
class LifecycleConfigResult:
    kind: str
    size: int
    count: int
    total_ms: float
    analysis_mean_ms: float
    schedule_mean_ms: float
    execution_mean_ms: float
    analysis_median_ms: float
    schedule_median_ms: float
    ok: bool


@dataclass
class _RemoteStack:
    server: StreamServer
    client: DistroStreamClient
    runtime: Runtime
    workers: list[subprocess.Popen] = field(default_factory=list)

    def close(self) -> None:
        self.runtime.shutdown()
        for proc in self.workers:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        self.client.close()
        self.server.stop()


def _remote_stack(cfg: BenchConfig, worker_cores: list[int]) -> _RemoteStack:
    server = StreamServer(host="127.0.0.1", port=0, tick_ms=cfg.tick_ms)
    server.start()
    client = DistroStreamClient(host=server.host, port=server.port,
                                group=f"life-{uuid.uuid4().hex[:8]}")
    runtime = Runtime(stream_client=client)
    host, port = runtime.start_listening()
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "hybridflow.runtime.worker",
             "--master", f"{host}:{port}", "--cores", str(cores)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for cores in worker_cores
    ]
    runtime.wait_for_workers(len(worker_cores), timeout_s=60)
    return _RemoteStack(server=server, client=client, runtime=runtime,
                        workers=workers)


def _warmup(stack: _RemoteStack, tasks: int = 8) -> None:
    # first dispatches pay import/connection warmup; keep them out of the rows
    rt = stack.runtime
    rt.put("warm-cfg", {"work_ms": 0})
    rt.put("warm-obj", b"warm")
    for t in range(tasks):
        rt.submit(TD + "op_checksum",
                  [obj_in("warm-cfg"), obj_out(f"warm-res-{t}"), obj_in("warm-obj")])
    rt.barrier(timeout_s=60)


def _lifecycle_object_config(stack: _RemoteStack, cfg: BenchConfig,
                             size: int, count: int) -> LifecycleConfigResult:
    rt = stack.runtime
    tag = f"op-{size}-{count}"
    payload = make_payload(f"life:{size}", size)
    rt.put(f"{tag}-cfg", {"work_ms": 0})
    for k in range(count):
        rt.put(f"{tag}-obj-{k}", payload)
    obj_params = [obj_in(f"{tag}-obj-{k}") for k in range(count)]
    task_ids = []
    t0 = time.monotonic()
    for t in range(cfg.lifecycle_tasks):
        task_ids.append(rt.submit(
            TD + "op_checksum",
            [obj_in(f"{tag}-cfg"), obj_out(f"{tag}-res-{t}")] + obj_params))
    rt.barrier(timeout_s=600)
    total_ms = (time.monotonic() - t0) * 1000.0
    ok = all(rt.task(tid).state.value == "DONE" for tid in task_ids)
    return _summarize(rt, task_ids, "OBJECT", size, count, total_ms, ok)


def _lifecycle_stream_config(stack: _RemoteStack, cfg: BenchConfig,
                             size: int, count: int) -> LifecycleConfigResult:
    rt = stack.runtime
    tag = f"sp-{size}-{count}"
    payload = make_payload(f"life:{size}", size)
    stream = create_stream(stack.client, StreamKind.OBJECT)
    rt.put(f"{tag}-cfg", {"count": count})
    task_ids = []
    t0 = time.monotonic()
    for t in range(cfg.lifecycle_tasks):
        task_ids.append(rt.submit(
            TD + "sp_checksum",
            [stream_in(stream.handle), obj_in(f"{tag}-cfg"),
             obj_out(f"{tag}-res-{t}")]))
    for _ in range(cfg.lifecycle_tasks):
        stream.publish([payload] * count)
    stream.close()
    rt.barrier(timeout_s=600)
    total_ms = (time.monotonic() - t0) * 1000.0
    delivered = sum(rt.wait_on(f"{tag}-res-{t}", timeout_s=10)["count"]
                    for t in range(cfg.lifecycle_tasks))
    ok = delivered == cfg.lifecycle_tasks * count
    return _summarize(rt, task_ids, "STREAM", size, count, total_ms, ok)


def _summarize(rt: Runtime, task_ids: list[int], kind: str, size: int,
               count: int, total_ms: float, ok: bool) -> LifecycleConfigResult:
    wanted = set(task_ids)
    rows = [r for r in rt.lifecycle_rows() if r[0] in wanted]
    return LifecycleConfigResult(
        kind=kind, size=size, count=count, total_ms=total_ms,
        analysis_mean_ms=statistics.fmean(r[2] for r in rows),
        schedule_mean_ms=statistics.fmean(r[3] for r in rows),
        execution_mean_ms=statistics.fmean(r[4] for r in rows),
        analysis_median_ms=statistics.median(r[2] for r in rows),
        schedule_median_ms=statistics.median(r[3] for r in rows),
        ok=ok)


def bench_lifecycle(cfg: BenchConfig,
                    worker_cores: list[int] | None = None,
                    log: CsvLog | None = None) -> tuple[CsvLog, list[LifecycleConfigResult]]:
    """Sweep (size, count) for both parameter kinds over subprocess workers."""
    log = log if log is not None else CsvLog()
    shape = worker_cores or [2, 2, 2, 2]
    results: list[LifecycleConfigResult] = []
    for kind, runner in (("OBJECT", _lifecycle_object_config),
                         ("STREAM", _lifecycle_stream_config)):
        stack = _remote_stack(cfg, shape)
        try:
            _warmup(stack)
            for size in cfg.sizes:
                for count in cfg.counts:
                    result = runner(stack, cfg, size, count)
                    results.append(result)
                    config_id = f"life-{kind.lower()}-s{size}-n{count}"
                    log.add(config_id, kind, "total_time", result.total_ms, "ms")
                    log.add(config_id, kind, "analysis_mean",
                            result.analysis_mean_ms, "ms")
                    log.add(config_id, kind, "schedule_mean",
                            result.schedule_mean_ms, "ms")
                    log.add(config_id, kind, "execution_mean",
                            result.execution_mean_ms, "ms")
                    log.add(config_id, kind, "conserved", float(result.ok), "bool")
        finally:
            stack.close()
    return log, results


def crossover_table(results: list[LifecycleConfigResult]) -> list[tuple[int, int, float, float]]:
    """(size, count, object_total, stream_total) for every swept cell."""
    by_key: dict[tuple[int, int], dict[str, float]] = {}
    for r in results:
        by_key.setdefault((r.size, r.count), {})[r.kind] = r.total_ms
    table = []
    for (size, count), cells in sorted(by_key.items()):
        if "OBJECT" in cells and "STREAM" in cells:
            table.append((size, count, cells["OBJECT"], cells["STREAM"]))
    return table
