"""Scalability/load-balance and task-lifecycle benchmarks.

The scalability bench runs an N-writer/M-reader program over one stream and
reports makespan, efficiency against the ideal (elements * proc / readers),
and the per-reader element distribution. Readers start with a staggered ramp
(reader i sleeps (i+1) * ramp) standing in for the sequential task spawn
across nodes that a distributed deployment exhibits; greedy uncapped polls
then reproduce the first-requester imbalance.

The lifecycle bench compares object-parameter tasks against stream-parameter
tasks over subprocess workers, sweeping payload size and object count, and
reports per-phase times plus totals for the crossover table. Every cell runs
LIFECYCLE_PASSES times, one pass over the whole grid at a time. A
burst of 100 submits takes a few milliseconds, so the host's speed at that
moment sets the whole burst: on a shared 2-vCPU VM the median analysis time
of one burst was either about 7 or about 12 us, even in a runtime with no
workers. Over several passes a slow spell falls on different cells each time
instead of deciding one cell alone.
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


# A cell's median follows the host speed of most of its passes (see above).
# Measured passes put the 256 KiB, 4-object total at 1.13 +- 0.13 times the
# 64 KiB one, with 20% spread from pass to pass; modelled so, the medians of
# 9 passes come out in the wrong order once in 20 sweeps, of 13 once in 40.
LIFECYCLE_PASSES = 13


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
                             size: int, count: int) -> tuple[list[int], float, bool]:
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
    return task_ids, total_ms, ok


def _lifecycle_stream_config(stack: _RemoteStack, cfg: BenchConfig,
                             size: int, count: int) -> tuple[list[int], float, bool]:
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
    return task_ids, total_ms, ok


def _summarize(rt: Runtime, task_ids: list[int], kind: str, size: int,
               count: int, totals: list[float], ok: bool) -> LifecycleConfigResult:
    wanted = set(task_ids)
    rows = [r for r in rt.lifecycle_rows() if r[0] in wanted]
    return LifecycleConfigResult(
        kind=kind, size=size, count=count, total_ms=statistics.median(totals),
        analysis_mean_ms=statistics.fmean(r[2] for r in rows),
        schedule_mean_ms=statistics.fmean(r[3] for r in rows),
        execution_mean_ms=statistics.fmean(r[4] for r in rows),
        analysis_median_ms=statistics.median(r[2] for r in rows),
        schedule_median_ms=statistics.median(r[3] for r in rows),
        ok=ok)


def bench_lifecycle(cfg: BenchConfig,
                    worker_cores: list[int] | None = None,
                    log: CsvLog | None = None) -> tuple[CsvLog, list[LifecycleConfigResult]]:
    """Sweep (size, count) for both parameter kinds over subprocess workers.

    A cell's total_ms is the median over its LIFECYCLE_PASSES runs; its
    analysis and schedule statistics pool the task rows of all of them.

    Within a pass, the cells whose figures are read against each other run
    back to back, so they meet the same speed of the host: the object cells
    size after size at each count (their cost is read along the size axis),
    the stream cells count after count at each size (their analysis time is
    read across counts). Where a cell beats its neighbour in every pass, it
    does so in the medians too.
    """
    log = log if log is not None else CsvLog()
    shape = worker_cores or [2, 2, 2, 2]
    by_size = [(size, count) for size in cfg.sizes for count in cfg.counts]
    by_count = [(size, count) for count in cfg.counts for size in cfg.sizes]
    results: list[LifecycleConfigResult] = []
    for kind, runner, order in (("OBJECT", _lifecycle_object_config, by_count),
                                ("STREAM", _lifecycle_stream_config, by_size)):
        stack = _remote_stack(cfg, shape)
        try:
            _warmup(stack)
            runs: dict[tuple[int, int], list[tuple[list[int], float, bool]]] = {
                cell: [] for cell in order}
            for _ in range(LIFECYCLE_PASSES):
                for size, count in order:
                    runs[(size, count)].append(runner(stack, cfg, size, count))
            for size, count in by_size:
                cell_runs = runs[(size, count)]
                result = _summarize(
                    stack.runtime, [tid for ids, _, _ in cell_runs for tid in ids],
                    kind, size, count, [total for _, total, _ in cell_runs],
                    all(ok for _, _, ok in cell_runs))
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
