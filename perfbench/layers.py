"""Per-layer metrics of a traced run, computed from the merged trace summary.

A layer that does no work on a workload reports 0: dirmon on `dag`, the
runtime on `stream`, the remote worker on `hybrid`.
"""
from __future__ import annotations

from .common import Result, quantile
from .tracer import Summary

END_TO_END = ["setup_s", "throughput_per_s", "latency_p50_ms", "latency_p99_ms",
              "makespan_s", "rss_peak_mb"]
VERBS = ["PUBREQ", "POLLREQ", "LOOKUP"]
MODES = ["exactly_once", "at_least_once"]
LAYERS = ["protocol", "codec", "client", "streams", "broker", "dirmon",
          "runtime.master", "runtime.scheduler", "runtime.execution", "runtime.worker"]


def _per(total: float, n: float) -> float:
    return total / n if n else 0.0


def per_layer(s: Summary, res: Result, untraced: dict, crashes: int) -> dict:
    lay = res.layer
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    def pct_us(name: str, q: float) -> float:
        return quantile(s.durations(name), q) / 1e3

    # protocol
    frames = s.n("protocol.encode")
    put("protocol.frames", frames, "count")
    put("protocol.bytes", s.count("protocol.bytes"), "bytes")
    put("protocol.encode_us_mean", _per(s.total_ns("protocol.encode") / 1e3, frames), "us")
    put("protocol.send_us_p50", pct_us("protocol.send", 0.5), "us")
    # codec
    packed = s.count("codec.blocks_packed")
    put("codec.blocks", packed, "count")
    put("codec.pack_us_per_block", _per(s.total_ns("codec.pack_blocks") / 1e3, packed), "us")
    put("codec.unpack_us_per_block", _per(s.total_ns("codec.unpack_blocks") / 1e3,
                                          s.count("codec.blocks_unpacked")), "us")
    put("codec.elements_pack_us_per_element",
        _per(s.total_ns("codec.pack_elements") / 1e3, s.count("codec.elements_packed")), "us")
    put("codec.elements_unpack_us_per_element",
        _per(s.total_ns("codec.unpack_elements") / 1e3, s.count("codec.elements_unpacked")),
        "us")
    # client and server, timed per verb at DistroStreamClient.request
    for verb in VERBS:
        name = "client.request." + verb
        put(f"server.requests.{verb}", s.n(name), "count")
        put(f"server.rtt_us_p50.{verb}", pct_us(name, 0.5), "us")
        put(f"server.rtt_us_p99.{verb}", pct_us(name, 0.99), "us")
    requests = len(s.durations("client.request"))
    put("client.requests_per_element", _per(requests, lay.get("elements", 0)), "ratio")
    # streams
    polls = s.n("streams.poll")
    put("streams.poll_calls", polls, "count")
    put("streams.poll_hit_ratio", _per(s.count("streams.poll_hits"), polls), "ratio")
    put("streams.poll_wait_ms", _per(s.self_ns("streams.poll") / 1e6, polls), "ms")
    # broker, overall and per delivery mode
    put("broker.append_us_p50", pct_us("broker.append", 0.5), "us")
    for suffix, modes in [("", MODES)] + [("." + m, [m]) for m in MODES]:
        n = sum(s.n("broker.poll." + m) for m in modes)
        durs = [d for m in modes for d in s.durations("broker.poll." + m)]
        records = sum(s.count("broker.records." + m) for m in modes)
        put("broker.polls" + suffix, n, "count")
        put("broker.poll_us_p50" + suffix, quantile(durs, 0.5) / 1e3, "us")
        put("broker.poll_us_p99" + suffix, quantile(durs, 0.99) / 1e3, "us")
        put("broker.records_per_poll" + suffix, _per(records, n), "ratio")
    # dirmon
    scans = s.n("dirmon.scan")
    put("dirmon.scans", scans, "count")
    put("dirmon.scan_ms_p50", pct_us("dirmon.scan", 0.5) / 1e3, "ms")
    put("dirmon.scan_ms_p99", pct_us("dirmon.scan", 0.99) / 1e3, "ms")
    put("dirmon.scan_hit_ratio", _per(s.count("dirmon.scan_hits"), scans), "ratio")
    put("dirmon.dir_entries_end", lay.get("dir_entries_end", 0), "count")
    # runtime.master
    put("runtime.submit_us_p50", pct_us("runtime.master.submit", 0.5), "us")
    put("runtime.submit_us_p99", pct_us("runtime.master.submit", 0.99), "us")
    put("runtime.barrier_wait_s", _per(s.total_ns("runtime.master.barrier") / 1e9,
                                       s.n("runtime.master.barrier")), "s")
    for part in ("analysis", "schedule", "execution"):
        put(f"runtime.{part}_ms_mean", lay.get(f"{part}_ms_mean", 0.0), "ms")
    # runtime.scheduler and runtime.model
    tasks = lay.get("tasks", 0)
    put("runtime.scheduler.pick_next_calls", s.n("runtime.scheduler.pick_next"), "count")
    put("runtime.scheduler.pick_next_ms_total",
        s.total_ns("runtime.scheduler.pick_next") / 1e6, "ms")
    put("runtime.scheduler.locality_score_calls_per_task",
        _per(s.count("runtime.scheduler.locality_score"), tasks), "ratio")
    put("runtime.model.deps_checks_per_task",
        _per(s.count("runtime.model.deps_satisfied"), tasks), "ratio")
    # runtime.execution and runtime.worker
    put("runtime.execution.build_payload_us_mean",
        _per(s.total_ns("runtime.execution.build_payload") / 1e3,
             s.n("runtime.execution.build_payload")), "us")
    put("runtime.execution.task_wire_bytes",
        _per(s.count("runtime.execution.wire_bytes"), s.n("runtime.execution.to_wire")),
        "bytes")
    put("runtime.execution.run_task_us_p50", pct_us("runtime.execution.run_task", 0.5), "us")
    put("runtime.worker.run_task_us_p50", pct_us("runtime.worker.run_task", 0.5), "us")
    put("runtime.worker.staged_files", lay.get("staged_files", 0), "count")
    put("runtime.worker.staged_bytes", lay.get("staged_bytes", 0), "bytes")
    # self time of every layer, summed over the processes of the run
    self_ms = s.self_ms_by_layer()
    for layer in LAYERS:
        put(f"{layer}.self_ms", self_ms.get(layer, 0.0), "ms")
    # the benchmark's own health, and the oracle reference on `hybrid`
    put("bench.thread_exceptions", crashes, "count")
    put("bench.generator_late_ms_p99", lay.get("late_p99_ms", 0.0), "ms")
    put("bench.generator_late_ms_max", lay.get("late_max_ms", 0.0), "ms")
    put("bench.oracle_makespan_s", lay.get("oracle_makespan_s", 0.0), "s")
    # the tracer itself: spans kept, and what tracing cost end to end
    put("trace.spans", s.count("trace.spans"), "count")
    put("trace.spans_dropped", s.count("trace.spans_dropped"), "count")
    for name in END_TO_END:
        value, unit = res.metrics[name]
        put(f"trace.overhead.{name}", value - untraced[name][0], unit)
    return out
