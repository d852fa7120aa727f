"""In-process cost of Broker.append and Broker.poll, per delivery mode and batch size,
and the memory a drained at-least-once log still holds.

Each sample times `calls` operations on a fresh broker. An append sample
makes calls of `values_per_call` 64-byte records each (1, or 100 as the
server's append of a full client batch does) and divides by the number of
records appended. A poll sample makes polls by one consumer that each take
`max_records` records from a log filled beforehand (untimed) and divides by
the number of polls; an at-least-once poll therefore commits the previous
batch and leases the next one, as a consumer does in steady state. The
configurations take one sample each in turn, in a rotating order, so that a
slower spell of the machine weighs on every configuration alike. Each row is
printed as one JSON object:

    {layer, metric, value, unit, params, reps, spread}

where `value` is the median cost of one appended record or one poll, and
`spread` the distance between its quartiles over the median. Two more rows
per log size N come from an at-least-once run: N distinct 64-byte records
appended in calls of 100, each call followed by one poll capped at 500 by
the only group, until all are delivered. `retained_records` is what the log
still holds then, and `traced_bytes_per_appended_record` the memory
`tracemalloc` still traces after the run, over N. No gate is applied.

    PYTHONPATH=src python3 tools/broker_cost.py [--reps 50] [--calls 200]
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc

from hybridflow.broker import Broker
from hybridflow.model import ConsumerMode

VALUE = b"x" * 64
APPEND_BATCHES = (1, 100)
BATCHES = (1, 64)
# (None, n): append calls of n values each; (mode, n): polls of up to n records
CONFIGS = ([(None, n) for n in APPEND_BATCHES]
           + [(mode, n) for mode in ConsumerMode for n in BATCHES])
RETAINED_N = (10_000, 100_000)
MEMORY_REPS = 3


def sample_us(mode: ConsumerMode | None, n: int, calls: int) -> float:
    """Microseconds per record over `calls` appends of n values (mode None),
    or per poll of up to n records."""
    broker = Broker()
    broker.create_topic("t")
    if mode is None:
        values = [VALUE] * n
        start = time.perf_counter()
        for _ in range(calls):
            broker.append("t", *values)
        return (time.perf_counter() - start) * 1e6 / (calls * n)
    for _ in range(calls * n):
        broker.append("t", VALUE)
    start = time.perf_counter()
    for _ in range(calls):
        broker.poll("t", "g", "c", mode, n)
    elapsed = time.perf_counter() - start
    if broker.pending("t", "g") != (n if mode is ConsumerMode.AT_LEAST_ONCE else 0):
        raise RuntimeError(f"{mode.value} polls left records behind")
    return elapsed * 1e6 / calls


def drained_log(n: int) -> tuple[int, int]:
    """Records left and bytes still traced after an at-least-once run of n records."""
    alo = ConsumerMode.AT_LEAST_ONCE
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        broker = Broker()
        broker.create_topic("t")
        delivered = 0
        for start in range(0, n, 100):
            broker.append("t", *(seq.to_bytes(4, "big") + VALUE[4:]
                                 for seq in range(start, min(start + 100, n))))
            delivered += len(broker.poll("t", "g", "c", alo, 500))
        while delivered < n:
            delivered += len(broker.poll("t", "g", "c", alo, 500))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return broker.stats("t").remaining, held


def row(metric: str, values: list[float], unit: str, params: dict) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return json.dumps({
        "layer": "broker", "metric": metric, "value": round(median, 2), "unit": unit,
        "params": params, "reps": len(values),
        "spread": round((q3 - q1) / median, 3) if median else 0.0})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=50, help="samples per configuration")
    parser.add_argument("--calls", type=int, default=200, help="operations per sample")
    args = parser.parse_args()
    samples: list[list[float]] = [[] for _ in CONFIGS]
    for rep in range(args.reps):
        for k in range(len(CONFIGS)):
            i = (rep + k) % len(CONFIGS)
            samples[i].append(sample_us(*CONFIGS[i], args.calls))
    for (mode, n), times in zip(CONFIGS, samples):
        if mode is None:
            metric, params = "append_us_per_record", {"values_per_call": n}
        else:
            metric, params = "poll_us", {"mode": mode.value, "max_records": n}
        print(row(metric, times, "us", {**params, "calls": args.calls}))
    for n in RETAINED_N:
        runs = [drained_log(n) for _ in range(MEMORY_REPS)]
        params = {"mode": ConsumerMode.AT_LEAST_ONCE.value, "records": n,
                  "batch": 100, "max_records": 500}
        print(row("retained_records", [r for r, _ in runs], "count", params))
        print(row("traced_bytes_per_appended_record", [h / n for _, h in runs],
                  "bytes", params))
    return 0


if __name__ == "__main__":
    sys.exit(main())
