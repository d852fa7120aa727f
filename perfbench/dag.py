"""`dag` workload: a task-only workflow on one remote worker process.

Every round submits the same seeded DAG up front to a fresh runtime whose
single remote worker (2 cores) joined through `Runtime.start_listening`:
CHAINS chains of LENGTH tasks, submitted level by level, where a seeded fifth
of the tasks also reads the previous level of another chain (fan-in edges).
A seeded quarter of the chains carries values just above the 64 KiB staging
threshold, the rest about 1 KiB. Nearly all the work is in the runtime's
master, scheduler, model, execution and worker modules; the scheduling pass
rescans every pending task per dispatch, so this is where a scheduler whose
cost does not grow with the pending count, or cheaper dispatch and staging,
shows. Streams, broker and dirmon do nothing here.

The benchmark process (generator and master) and the worker process share
one CPU, as every workload's processes do (see run.py). Spread over two
CPUs, the master flipped for minutes at a time between two dispatch regimes:
when the worker's CPU woke at once, results came back while the master was
still sending, so one scheduling pass sent about ten tasks; when waking the
idle CPU was slow, as on a busy host, a pass sent about two and ended with a
scan that found no free core, 35% more scans per task. The master is
CPU-bound, so round times still move with the machine's speed; they are
combined by a mean without the fastest and slowest round.
"""
from __future__ import annotations

import gc
import os
import random
import subprocess
import time

from hybridflow.runtime import Runtime, TaskState, obj_in, obj_out

from .common import SETUPS, Result, mean, quantile, reap, rss_peak_mb, spawn, trimmed_mean
from .dagtasks import derive

CHAINS = 50
LENGTH = 30
LARGE_CHAINS = CHAINS // 4
EXTRA_INPUTS = CHAINS * LENGTH // 5
SMALL_BYTES = 1024
STAGE_THRESHOLD = 65536
WORKER_CORES = 2
METHOD = "perfbench.dagtasks:step"


class DagSpec:
    """Seeded inputs: head values, tasks in submit order, reference outputs."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        large = set(rng.sample(range(CHAINS), LARGE_CHAINS))
        self.heads: dict[str, tuple[bytes, float, float]] = {}
        for c in range(CHAINS):
            size = (STAGE_THRESHOLD + 1 + rng.randrange(4096) if c in large
                    else SMALL_BYTES - 128 + rng.randrange(256))
            self.heads[f"v{c}.0"] = (rng.randbytes(size), 0.0, 0.0)
        slots = [(c, j) for j in range(1, LENGTH + 1) for c in range(CHAINS)]
        extra = set(rng.sample(range(len(slots)), EXTRA_INPUTS))
        self.tasks: list[tuple[str, list[str]]] = []
        for k, (c, j) in enumerate(slots):
            inputs = [f"v{c}.{j - 1}"]
            if k in extra:
                other = rng.choice([x for x in range(CHAINS) if x != c])
                inputs.append(f"v{other}.{j - 1}")
            self.tasks.append((f"v{c}.{j}", inputs))
        self.reference = {did: value[0] for did, value in self.heads.items()}
        for out, inputs in self.tasks:
            self.reference[out] = derive([self.reference[i] for i in inputs])


class _Session:
    """A fresh runtime with one remote worker process joined and warmed up."""

    def __init__(self, trace_dir: str | None) -> None:
        self.runtime = Runtime(stage_threshold=STAGE_THRESHOLD)
        self.proc = None
        try:
            host, port = self.runtime.start_listening()
            args = ["--master", f"{host}:{port}", "--cores", str(WORKER_CORES)]
            if trace_dir:
                args += ["--trace-dir", trace_dir]
            self.proc = spawn("worker_main.py", args, stdout=subprocess.DEVNULL)
            self.runtime.wait_for_workers(1, timeout_s=60)
            self.runtime.put("warm.in", (b"warm", 0.0, 0.0))
            self.runtime.submit(METHOD, [obj_in("warm.in"), obj_out("warm.out")])
            self.runtime.wait_on("warm.out", timeout_s=60)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        self.runtime.shutdown()
        if self.proc is not None:
            reap(self.proc)


def run(seed: int, seconds: float, tracer, trace_dir: str | None) -> Result:
    spec = DagSpec(seed)
    res = Result()
    setups: list[float] = []
    rounds: list[float] = []
    latencies: list[list[float]] = []  # per round
    lifecycle: list[tuple] = []
    staged_files = staged_bytes = 0
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin + setups[-1] + rounds[-1] <= seconds:
        t0 = time.perf_counter()
        session = _Session(trace_dir)
        setups.append(time.perf_counter() - t0)
        rt = session.runtime
        try:
            for did, value in spec.heads.items():
                rt.put(did, value)
            t0 = time.perf_counter()
            task_ids = [rt.submit(METHOD, [obj_in(i) for i in inputs] + [obj_out(out)])
                        for out, inputs in spec.tasks]
            finished = rt.barrier(timeout_s=150)
            rounds.append(time.perf_counter() - t0)
            with os.scandir(rt.staging_dir()) as it:
                for entry in it:
                    staged_files += 1
                    staged_bytes += entry.stat().st_size
            res.attempted += len(spec.tasks)
            latencies.append([])
            res.failed += _check(rt, spec, task_ids, finished, t0, latencies[-1])
            lifecycle.extend(rt.lifecycle_rows())
        finally:
            session.close()
            # free the finished runtime's reference cycles now, so the peak
            # RSS does not depend on when the collector last ran
            gc.collect()
    while len(setups) < SETUPS:
        t0 = time.perf_counter()
        _Session(trace_dir).close()
        setups.append(time.perf_counter() - t0)

    tasks = len(spec.tasks)
    res.metric("setup_s", quantile(setups, 0.5), "s")
    res.metric("throughput_per_s", tasks / trimmed_mean(rounds), "1/s")
    res.metric("latency_p50_ms", trimmed_mean([quantile(r, 0.5) for r in latencies]), "ms")
    res.metric("latency_p99_ms", trimmed_mean([quantile(r, 0.99) for r in latencies]), "ms")
    res.metric("makespan_s", trimmed_mean(rounds), "s")
    res.metric("rss_peak_mb", rss_peak_mb(), "MB")
    res.note(f"round throughputs: {[round(tasks / r, 1) for r in rounds]}")
    res.note(f"rounds={len(rounds)} tasks_per_round={tasks} "
             f"latency_samples={sum(map(len, latencies))} (first submit to task body end)")
    res.layer.update({
        "tasks": len(lifecycle),
        "staged_files": staged_files / len(rounds),
        "staged_bytes": staged_bytes / len(rounds),
        "analysis_ms_mean": mean([row[2] for row in lifecycle]),
        "schedule_ms_mean": mean([row[3] for row in lifecycle]),
        "execution_ms_mean": mean([row[4] for row in lifecycle]),
    })
    return res


def _check(rt: Runtime, spec: DagSpec, task_ids: list[int], finished: bool,
           t0: float, latencies: list[float]) -> int:
    """Failures in one round: tasks not DONE or outputs unlike the reference.

    Also appends each task's turnaround, from the round's first submit to the
    end of the task's body: how long a caller of `wait_on` waits for it.
    """
    failed = 0
    for tid, (out, _inputs) in zip(task_ids, spec.tasks):
        if not finished or rt.task(tid).state is not TaskState.DONE:
            failed += 1
            continue
        value, _start, end = rt.wait_on(out, timeout_s=10)
        if value != spec.reference[out]:
            failed += 1
            continue
        latencies.append((end - t0) * 1000.0)
    return failed
