"""In-process cost of Broker.append and Broker.poll, per delivery mode and batch size,
and the memory a drained at-least-once log still holds.

Each sample times `calls` operations on a fresh broker and divides by their
number: appends of a 64-byte record, or polls by one consumer that each take
`max_records` records from a log filled beforehand (untimed). An
at-least-once poll therefore commits the previous batch and leases the next
one, as a consumer does in steady state. The configurations take one sample
each in turn, in a rotating order, so that a slower spell of the machine
weighs on every configuration alike. Each row is printed as one JSON object:

    {layer, metric, value, unit, params, reps, spread}

where `value` is the median cost of one call and `spread` the distance
between its quartiles over the median. Two more rows per log size N come
from an at-least-once run: N distinct 64-byte records appended in batches of
100, each batch followed by one poll capped at 500 by the only group, until
all are delivered. `retained_records` is what the log still holds then, and
`traced_bytes_per_appended_record` the memory `tracemalloc` still traces
after the run, over N. No gate is applied.

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
BATCHES = (1, 64)
CONFIGS = [(None, None)] + [(mode, n) for mode in ConsumerMode for n in BATCHES]
RETAINED_N = (10_000, 100_000)
MEMORY_REPS = 3


def sample_us(mode: ConsumerMode | None, max_records: int | None, calls: int) -> float:
    """Microseconds per call over `calls` appends (mode None) or polls."""
    broker = Broker()
    broker.create_topic("t")
    if mode is None:
        start = time.perf_counter()
        for _ in range(calls):
            broker.append("t", VALUE)
        return (time.perf_counter() - start) * 1e6 / calls
    for _ in range(calls * max_records):
        broker.append("t", VALUE)
    start = time.perf_counter()
    for _ in range(calls):
        broker.poll("t", "g", "c", mode, max_records)
    elapsed = time.perf_counter() - start
    if broker.pending("t", "g") != (max_records if mode is ConsumerMode.AT_LEAST_ONCE else 0):
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
            for seq in range(start, min(start + 100, n)):
                broker.append("t", seq.to_bytes(4, "big") + VALUE[4:])
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
    for (mode, max_records), times in zip(CONFIGS, samples):
        if mode is None:
            metric, params = "append_us", {}
        else:
            metric, params = "poll_us", {"mode": mode.value, "max_records": max_records}
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
