"""Fixed cost of dispatching a task, per executor kind and for a ready burst.

Three measurements, each a run of no-op tasks through `Runtime`:

- a chain of CHAIN tasks on one remote worker process (one core), each task
  reading the previous one's value, once with 1 KiB values (inline in the
  TASK frame) and once with 80 KiB values (staged through a file);
- the same chain on one local slot of one core;
- an independent burst of P no-op tasks on 16 local slots of one core each,
  submitted in one loop, for each P in BURSTS.

A chain keeps one task in flight, so its time per task is the whole round
trip: scheduling, payload building, staging, the send, the worker's receive
and run, the result and the completion. A burst keeps up to P tasks ready,
so its rate follows the scheduler's cost per dispatch against the ready
count.

The process pins itself, and so the worker process it starts, to the lowest
CPU of its affinity mask, as perfbench/run.py does, so master and worker
share one CPU and time per task is close to their CPU time added up. Each
row is printed as one JSON object:

    {layer, metric, value, unit, params, reps, spread}

where `value` is the median over `reps` runs and `spread` the distance
between its quartiles over the median. CPU rows are the CPU time of all runs
divided by the tasks run, and carry no spread: the worker's CPU time is read
from /proc/<pid>/stat in clock ticks (1/SC_CLK_TCK s), too coarse for one
run. No gate is applied.

    PYTHONPATH=src python3 tools/dispatch_cost.py [--reps 9]
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hybridflow.runtime import Runtime, obj_in, obj_out

HERE = os.path.dirname(os.path.abspath(__file__))
CHAIN = 200
SIZES = (1024, 80 * 1024)  # below and above the 64 KiB staging threshold
BURSTS = (250, 500, 1000)
BURST_SLOTS = 16
RELAY = "dispatch_cost:relay"


def relay(x, out):
    return x


def emit(out):
    return None


def master_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rpartition(")")[2].split()
    # utime and stime, fields 14 and 15 of proc(5); the split starts at field 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def run_chain(rt: Runtime, method: str, size: int, rep: int) -> float:
    """Seconds for a chain of CHAIN tasks, each relaying the previous value."""
    head = f"c{size}r{rep}."
    rt.put(head + "0", os.urandom(size))
    start = time.perf_counter()
    for i in range(CHAIN):
        rt.submit(method, [obj_in(f"{head}{i}"), obj_out(f"{head}{i + 1}")])
    if not rt.barrier(timeout_s=120):
        raise RuntimeError("chain did not finish")
    return time.perf_counter() - start


def row(metric: str, value: float, unit: str, params: dict, reps: int,
        samples: list[float] | None = None) -> dict:
    spread = None
    if samples is not None and len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
        spread = round((q3 - q1) / median, 3)
    return {"layer": "runtime", "metric": metric, "value": round(value, 1),
            "unit": unit, "params": params, "reps": reps, "spread": spread}


def chain_rows(executor: str, size: int, walls: list[float], master_s: float,
               worker_s: float | None, reps: int) -> list[dict]:
    params = {"executor": executor, "chain": CHAIN, "value_bytes": size}
    tasks = CHAIN * reps
    per_task = [w / CHAIN * 1e6 for w in walls]
    rows = [row("chain_us_per_task", statistics.median(per_task), "us", params, reps,
                per_task),
            row("master_cpu_us_per_task", master_s / tasks * 1e6, "us", params, reps)]
    if worker_s is not None:
        rows.append(row("worker_cpu_us_per_task", worker_s / tasks * 1e6, "us", params,
                        reps))
    return rows


def remote_chains(reps: int) -> list[dict]:
    rt = Runtime()
    env = dict(os.environ)
    env["PYTHONPATH"] = HERE + os.pathsep + env.get("PYTHONPATH", "")
    host, port = rt.start_listening()
    proc = subprocess.Popen(
        [sys.executable, "-m", "hybridflow.runtime.worker",
         "--master", f"{host}:{port}", "--cores", "1", "--import", "dispatch_cost"],
        env=env, stdout=subprocess.DEVNULL)
    try:
        rt.wait_for_workers(1, timeout_s=30)
        run_chain(rt, RELAY, SIZES[-1], -1)  # warm up: imports and staging dir
        walls: dict[int, list[float]] = {size: [] for size in SIZES}
        master = dict.fromkeys(SIZES, 0.0)
        worker = dict.fromkeys(SIZES, 0.0)
        for rep in range(reps):
            for k in range(len(SIZES)):
                size = SIZES[(rep + k) % len(SIZES)]
                m0, w0 = master_cpu_s(), proc_cpu_s(proc.pid)
                walls[size].append(run_chain(rt, RELAY, size, rep))
                master[size] += master_cpu_s() - m0
                worker[size] += proc_cpu_s(proc.pid) - w0
    finally:
        rt.shutdown()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return [r for size in SIZES
            for r in chain_rows("remote", size, walls[size], master[size], worker[size],
                                reps)]


def local_chain(reps: int) -> list[dict]:
    rt = Runtime(local_slots=[1])
    try:
        rt.register_method(relay, name=RELAY)
        size = SIZES[0]
        run_chain(rt, RELAY, size, -1)
        walls: list[float] = []
        master = 0.0
        for rep in range(reps):
            m0 = master_cpu_s()
            walls.append(run_chain(rt, RELAY, size, rep))
            master += master_cpu_s() - m0
    finally:
        rt.shutdown()
    return chain_rows("local", size, walls, master, None, reps)


def bursts(reps: int) -> list[dict]:
    rates: dict[int, list[float]] = {p: [] for p in BURSTS}
    for rep in range(reps):
        for k in range(len(BURSTS)):
            p = BURSTS[(rep + k) % len(BURSTS)]
            rt = Runtime(local_slots=[1] * BURST_SLOTS)
            try:
                rt.register_method(emit)
                start = time.perf_counter()
                for i in range(p):
                    rt.submit("emit", [obj_out(f"e{i}")])
                if not rt.barrier(timeout_s=600):
                    raise RuntimeError("burst did not finish")
                rates[p].append(p / (time.perf_counter() - start))
            finally:
                rt.shutdown()
    return [row("burst_tasks_per_s", statistics.median(rates[p]), "1/s",
                {"executor": "local", "slots": BURST_SLOTS, "burst": p}, reps, rates[p])
            for p in BURSTS]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=9, help="runs per configuration")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for r in remote_chains(args.reps) + local_chain(args.reps) + bursts(args.reps):
        print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
