"""Run one workload of the hybridflow benchmark and print its metrics.

    python3 perfbench/run.py --workload dag|stream|hybrid|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its `src`.
With --trace 0 the end-to-end metrics are measured with no tracing. With
--trace 1 the workload runs once with every layer traced, which gives the
per-layer metrics and a span file under .bench_run/, and once more untraced
in a child process, and the difference of the two is reported as the
tracing overhead. Every metric is printed by name with its unit; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. `--workload all` runs the three workloads in turn.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["dag", "stream", "hybrid"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hybridflow", "__init__.py")):
        print("perfbench: no src/hybridflow in this checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    # Every thread and process the workload starts inherits this one CPU.
    # Spread over two, the processes wake each other across CPUs, and how
    # long the host takes to wake an idle virtual CPU then decides, for
    # minutes at a time, how their work interleaves: in alternating runs of
    # `stream` on a busy host, p99 latency spread 0.74 between runs over two
    # CPUs and 0.08 on one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import common, dag, hybrid, layers, stream
    from perfbench.tracer import Summary, Tracer, install

    os.makedirs(common.RUN_DIR, exist_ok=True)
    tempfile.tempdir = common.RUN_DIR  # runtime staging directories go here
    crashes = common.ThreadCrashCounter()
    crashes.install()
    workload = {"dag": dag, "stream": stream, "hybrid": hybrid}[args.workload]
    tag = f"{args.workload}-s{args.seed}"

    if not args.trace:
        res = workload.run(args.seed, args.seconds, None, None)
        common.join_client_readers()
        metrics = res.metrics
        correct = res.failed == 0
        attempted, failed = res.attempted, res.failed
    else:
        trace_dir = os.path.join(common.RUN_DIR, f"trace-{tag}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        tracer = Tracer()
        install(tracer)
        try:
            res = workload.run(args.seed, args.seconds, tracer, trace_dir)
        finally:
            tracer.uninstall()
        common.join_client_readers()
        summary: Summary = tracer.summary()
        summary.merge_dir(trace_dir)
        span_path = os.path.join(common.RUN_DIR, f"spans-{tag}.jsonl")
        summary.write_spans(span_path, summary.span_files)
        shutil.rmtree(trace_dir, ignore_errors=True)
        res.note(f"span file: {os.path.relpath(span_path, ROOT)}")
        untraced = _run_child(args, args.workload, trace=0)
        metrics = layers.per_layer(summary, res, untraced["metrics"], crashes.count)
        correct = res.failed == 0 and untraced["correct"]
        attempted = res.attempted + untraced["attempted"]
        failed = res.failed + untraced["failed"]

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in res.notes:
        print(f"  {line}")
    print(f"  fail_ratio = {failed / max(attempted, 1):.6f} ({failed} of {attempted} "
          f"operations failed or lost)")
    print(f"  thread_exceptions = {crashes.count} (unhandled, in the benchmark process)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def _run_child(args, workload: str, trace: int, echo: bool = False) -> dict:
    """One workload with the same seed and length, in a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    if echo:
        print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    result["metrics"] = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    return result


def _run_all(args) -> int:
    """Every workload in turn; the JSON line carries `<workload>.<metric>`."""
    results = {w: _run_child(args, w, args.trace, echo=True) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": {"value": value, "unit": unit}
                    for w, r in results.items()
                    for name, (value, unit) in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
