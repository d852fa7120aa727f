"""The four workbench applications: pure-task and hybrid variants, measured.

Every use case builds a fresh stack (stream server, client, in-process
runtime shaped by the configured worker list), runs its variants, and
returns both timings and conservation checks. Payloads are deterministic,
so the pure and hybrid variants of the same configuration must aggregate to
identical digests.
"""
from __future__ import annotations

import math
import os
import statistics
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass

from ..client import DistroStreamClient
from ..model import ConsumerMode, StreamKind
from ..runtime import Runtime, file_in, file_out, obj_in, obj_out, stream_in, stream_out
from ..server import StreamServer
from ..streams import create_stream
from .config import BenchConfig
from .reports import GainReport
from .simoracle import oracle_simulate
from .taskdefs import crc, make_payload

TD = "hybridflow.workbench.taskdefs:"


class Stack:
    """Server + client + runtime bundle for one benchmark run.

    Each bench spawns its own server on an ephemeral port.
    """

    def __init__(self, cfg: BenchConfig, slots: list[int] | None = None) -> None:
        self.server = StreamServer(host="127.0.0.1", port=0,
                                   tick_ms=cfg.tick_ms, lease_ms=cfg.lease_ms)
        self.server.start()
        self.client = DistroStreamClient(host=self.server.host, port=self.server.port,
                                         group=f"bench-{uuid.uuid4().hex[:8]}")
        self.runtime = Runtime(local_slots=slots or cfg.worker_cores,
                               stream_client=self.client)

    def close(self) -> None:
        self.runtime.shutdown()
        self.client.close()
        self.server.stop()

    def __enter__(self) -> "Stack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _fresh_dir(root: str, *parts: str) -> str:
    path = os.path.join(root, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# --- use case 1: continuous data generation ---

@dataclass
class UC1Result:
    report: GainReport
    pure_times_ms: list[float]
    hybrid_times_ms: list[float]
    oracle_pure_ms: float
    oracle_hybrid_ms: float
    ok: bool

    @property
    def oracle_gain(self) -> float:
        return (self.oracle_pure_ms - self.oracle_hybrid_ms) / self.oracle_pure_ms


def _uc1_task_cfg(cfg: BenchConfig, sim_index: int) -> dict:
    return {
        "gen_ms": cfg.generation_time_ms,
        "proc_ms": cfg.process_time_ms,
        "merge_ms": cfg.merge_time_ms,
        "payload_bytes": cfg.payload_bytes,
        "elements": cfg.num_files,
        "seed": f"{cfg.seed}:{sim_index}",
    }


def _uc1_pure_rep(stack: Stack, cfg: BenchConfig, rep: int, root: str):
    rt = stack.runtime
    t0 = time.monotonic()
    result_ids = []
    for i in range(cfg.num_sims):
        cfg_id = f"uc1p-{rep}-{i}"
        rt.put(cfg_id, _uc1_task_cfg(cfg, i))
        simdir = _fresh_dir(root, f"pure-{rep}", f"sim{i}")
        outdir = _fresh_dir(root, f"pure-{rep}", f"out{i}")
        paths = [os.path.join(simdir, f"e{j:05d}") for j in range(cfg.num_files)]
        rt.submit(TD + "sim_to_files",
                  [obj_in(cfg_id)] + [file_out(p) for p in paths],
                  cores_required=cfg.sim_cores)
        outs = []
        for path in paths:
            out = os.path.join(outdir, os.path.basename(path) + ".out")
            rt.submit(TD + "proc_file",
                      [file_in(path), file_out(out), obj_in(cfg_id)])
            outs.append(out)
        rid = f"uc1p-merge-{rep}-{i}"
        rt.submit(TD + "merge_files",
                  [file_out(os.path.join(outdir, "merged.gif")), obj_in(cfg_id),
                   obj_out(rid)] + [file_in(o) for o in outs])
        result_ids.append(rid)
    merges = [rt.wait_on(rid, timeout_s=600) for rid in result_ids]
    return (time.monotonic() - t0) * 1000.0, merges


def _uc1_hybrid_rep(stack: Stack, cfg: BenchConfig, rep: int, root: str):
    rt = stack.runtime
    kind = StreamKind(cfg.stream_kind)
    t0 = time.monotonic()
    streams = []
    for i in range(cfg.num_sims):
        cfg_id = f"uc1h-{rep}-{i}"
        rt.put(cfg_id, _uc1_task_cfg(cfg, i))
        outdir = _fresh_dir(root, f"hyb-{rep}", f"out{i}")
        if kind is StreamKind.FILE:
            simdir = _fresh_dir(root, f"hyb-{rep}", f"sim{i}")
            stream = create_stream(stack.client, kind, base_dir=simdir)
            method = TD + "sim_to_stream_files"
        else:
            stream = create_stream(stack.client, kind)
            method = TD + "sim_to_stream_objects"
        rt.submit(method, [stream_out(stream.handle), obj_in(cfg_id)],
                  cores_required=cfg.sim_cores)
        streams.append((i, cfg_id, stream, outdir))
    result_ids = []
    for i, cfg_id, stream, outdir in streams:
        outs = []

        def submit(element):
            if kind is StreamKind.FILE:
                path = element.text()
                out = os.path.join(outdir, os.path.basename(path) + ".out")
                rt.submit(TD + "proc_file",
                          [file_in(path), file_out(out), obj_in(cfg_id)])
                outs.append(out)
            else:
                el_id = f"uc1h-el-{rep}-{i}-{len(outs)}"
                out_id = f"uc1h-crc-{rep}-{i}-{len(outs)}"
                rt.put(el_id, element.payload)
                rt.submit(TD + "proc_object",
                          [obj_in(el_id), obj_in(cfg_id), obj_out(out_id)])
                outs.append(out_id)

        stream.drain(proc=submit)
        rid = f"uc1h-merge-{rep}-{i}"
        if kind is StreamKind.FILE:
            gif = os.path.join(outdir, "merged.gif")
            rt.submit(TD + "merge_files",
                      [file_out(gif), obj_in(cfg_id), obj_out(rid)]
                      + [file_in(o) for o in outs])
        else:
            rt.submit(TD + "merge_objects",
                      [obj_in(cfg_id), obj_out(rid)] + [obj_in(o) for o in outs])
        result_ids.append(rid)
    merges = [rt.wait_on(rid, timeout_s=600) for rid in result_ids]
    return (time.monotonic() - t0) * 1000.0, merges


def uc1_continuous(cfg: BenchConfig) -> UC1Result:
    """Pure-task vs hybrid continuous processing; relative gain plus oracle."""
    pure_times: list[float] = []
    hybrid_times: list[float] = []
    ok = True
    with tempfile.TemporaryDirectory(prefix="hf-uc1-") as root, Stack(cfg) as stack:
        for rep in range(cfg.reps):
            elapsed_p, merges_p = _uc1_pure_rep(stack, cfg, rep, root)
            elapsed_h, merges_h = _uc1_hybrid_rep(stack, cfg, rep, root)
            pure_times.append(elapsed_p)
            hybrid_times.append(elapsed_h)
            counts_ok = all(m["count"] == cfg.num_files for m in merges_p + merges_h)
            digests_ok = ([m["digest"] for m in merges_p]
                          == [m["digest"] for m in merges_h])
            ok = ok and counts_ok and digests_ok
    oracle_pure, oracle_hybrid = oracle_simulate(
        cfg.worker_cores, cfg.num_sims, cfg.num_files, cfg.generation_time_ms,
        cfg.process_time_ms, cfg.merge_time_ms, cfg.sim_cores)
    report = GainReport(time_original_ms=statistics.fmean(pure_times),
                        time_hybrid_ms=statistics.fmean(hybrid_times))
    return UC1Result(report=report, pure_times_ms=pure_times,
                     hybrid_times_ms=hybrid_times, oracle_pure_ms=oracle_pure,
                     oracle_hybrid_ms=oracle_hybrid, ok=ok)


# --- use case 2: asynchronous data exchange ---

@dataclass
class UC2Result:
    report: GainReport
    pure_ms: float
    hybrid_ms: float
    published_per_computation: list[int]
    ok: bool


def uc2_async_exchange(iterations: int, computations: int,
                       cfg: BenchConfig) -> UC2Result:
    """Synchronized per-iteration exchange vs long tasks exchanging via streams."""
    if computations < 2:
        raise ValueError("uc2 needs at least 2 computations")
    with Stack(cfg) as stack:
        rt = stack.runtime
        base = {
            "init_ms": cfg.init_time_ms,
            "compute_ms": cfg.compute_time_ms,
            "exchange_ms": cfg.exchange_time_ms,
            "iterations": iterations,
            "computations": computations,
        }
        comp_cfg_ids = []
        for c in range(computations):
            cid = f"uc2cfg-{c}"
            rt.put(cid, dict(base, comp_index=c))
            comp_cfg_ids.append(cid)

        # pure variant: init tasks, then per iteration compute tasks joined
        # by one exchange task (a full synchronization point)
        t0 = time.monotonic()
        for c in range(computations):
            rt.submit(TD + "init_state",
                      [obj_in(comp_cfg_ids[c]), obj_out(f"st-{c}-0x")])
        for it in range(iterations):
            for c in range(computations):
                rt.submit(TD + "compute_iter",
                          [obj_in(f"st-{c}-{it}x"), obj_in(comp_cfg_ids[c]),
                           obj_out(f"st-{c}-{it + 1}")])
            rt.submit(
                TD + "exchange_states",
                [obj_in(comp_cfg_ids[0])]
                + [obj_out(f"st-{c}-{it + 1}x") for c in range(computations)]
                + [obj_in(f"st-{c}-{it + 1}") for c in range(computations)])
        finals_pure = [rt.wait_on(f"st-{c}-{iterations}x", timeout_s=600)
                       for c in range(computations)]
        pure_ms = (time.monotonic() - t0) * 1000.0

        # hybrid variant: one long task per computation, states over streams
        t0 = time.monotonic()
        streams = [create_stream(stack.client, StreamKind.OBJECT)
                   for _ in range(computations)]
        for c in range(computations):
            others = [stream_in(streams[o].handle)
                      for o in range(computations) if o != c]
            rt.submit(TD + "long_compute",
                      [stream_out(streams[c].handle), obj_in(comp_cfg_ids[c]),
                       obj_out(f"uc2h-res-{c}")] + others)
        results = [rt.wait_on(f"uc2h-res-{c}", timeout_s=600)
                   for c in range(computations)]
        hybrid_ms = (time.monotonic() - t0) * 1000.0

        published = [r["published"] for r in results]
        ok = (all(p == iterations for p in published)
              and all(isinstance(s, float) for s in finals_pure))
        return UC2Result(
            report=GainReport(time_original_ms=pure_ms, time_hybrid_ms=hybrid_ms),
            pure_ms=pure_ms, hybrid_ms=hybrid_ms,
            published_per_computation=published, ok=ok)


# --- use case 3: external streams ---

@dataclass
class UC3Result:
    total: int
    unique: int
    duplicates: int
    filter_counts: list[int]
    failed_filters: int
    ok: bool


def uc3_external_stream(filters: int, payloads: int, cfg: BenchConfig,
                        mode: ConsumerMode = ConsumerMode.EXACTLY_ONCE,
                        crash_filter: bool = False) -> UC3Result:
    """Sensor feeder, N filter tasks, one extract task, task-based reduction."""
    slots = cfg.worker_cores
    if len(slots) < filters + 2:
        slots = [1] * (filters + 2)
    with Stack(cfg, slots=slots) as stack:
        rt = stack.runtime
        sensor_stream = create_stream(stack.client, StreamKind.OBJECT,
                                      consumer_mode=mode)
        extract_stream_obj = create_stream(stack.client, StreamKind.OBJECT)
        filter_ids = []
        for f in range(filters):
            cid = f"uc3f-{f}"
            # in the crash scenario the doomed filter starts alone so it is
            # guaranteed to hold leased elements when it dies
            rt.put(cid, {
                "crash_after": 1 if (crash_filter and f == 0) else 0,
                "start_delay_ms": 200 if (crash_filter and f != 0) else 0,
            })
            rt.submit(TD + "filter_stream",
                      [stream_in(sensor_stream.handle),
                       stream_out(extract_stream_obj.handle),
                       obj_in(cid), obj_out(f"uc3-fcount-{f}")])
            filter_ids.append(f"uc3-fcount-{f}")
        rt.put("uc3x", {})
        rt.submit(TD + "extract_stream",
                  [stream_in(extract_stream_obj.handle), obj_in("uc3x"),
                   obj_out("uc3-extracted")])

        expected = []

        def feeder():
            for j in range(payloads):
                payload = make_payload(f"{cfg.seed}:sensor:{j}", cfg.payload_bytes)
                expected.append(crc(payload))
                sensor_stream.publish(payload)
                time.sleep(cfg.feeder_gap_ms / 1000.0)
            sensor_stream.close()

        thread = threading.Thread(target=feeder, name="uc3-sensor", daemon=True)
        thread.start()
        extracted = rt.wait_on("uc3-extracted", timeout_s=600)
        thread.join(timeout=60)

        # small task-based reduction over the extracted values
        chunk = max(1, len(extracted) // 4) if extracted else 1
        chunk_ids = []
        for idx in range(0, len(extracted), chunk):
            did = f"uc3-rchunk-{idx}"
            rt.put(did, extracted[idx:idx + chunk])
            rt.submit(TD + "reduce_chunk", [obj_in(did), obj_out(f"uc3-rout-{idx}")])
            chunk_ids.append(f"uc3-rout-{idx}")
        rt.submit(TD + "reduce_merge",
                  [obj_out("uc3-final")] + [obj_in(c) for c in chunk_ids])
        final = rt.wait_on("uc3-final", timeout_s=600) if chunk_ids else {}

        filter_counts = []
        failed = 0
        for rid in filter_ids:
            try:
                filter_counts.append(rt.wait_on(rid, timeout_s=5))
            except Exception:  # noqa: BLE001 - crashed filter task
                failed += 1
        total = sum(final.values())
        unique = len(final)
        missing = [c for c in expected if c not in final]
        if mode is ConsumerMode.EXACTLY_ONCE:
            ok = total == payloads and unique == payloads and not missing
        else:
            ok = total >= payloads and unique == payloads and not missing
        return UC3Result(total=total, unique=unique, duplicates=total - unique,
                         filter_counts=filter_counts, failed_filters=failed, ok=ok)


# --- use case 4: dataflow with nested task workflows ---

@dataclass
class UC4Result:
    subtasks: int
    expected_subtasks: int
    total: int
    unique: int
    graph_subtasks: int
    ok: bool


def uc4_nested(batch_size: int, payloads: int, cfg: BenchConfig) -> UC4Result:
    """Filter batches its stream input and spawns one nested task per batch."""
    with Stack(cfg) as stack:
        rt = stack.runtime
        s1 = create_stream(stack.client, StreamKind.OBJECT)
        tag = "uc4"
        rt.put("uc4cfg", {"batch_size": batch_size, "tag": tag,
                          "cfg_id": "uc4cfg", "batch_ms": 0})
        rt.submit(TD + "batching_filter",
                  [stream_in(s1.handle), obj_in("uc4cfg"), obj_out("uc4-filt")])

        def feeder():
            for j in range(payloads):
                s1.publish(make_payload(f"{cfg.seed}:nest:{j}", cfg.payload_bytes))
                time.sleep(cfg.feeder_gap_ms / 1000.0)
            s1.close()

        thread = threading.Thread(target=feeder, name="uc4-feeder", daemon=True)
        thread.start()
        filt = rt.wait_on("uc4-filt", timeout_s=600)
        thread.join(timeout=60)

        rt.put("uc4-crcs", filt["crcs"])
        rt.put("uc4ncfg", {"tag": tag})
        rt.submit(TD + "nested_reduce",
                  [obj_in("uc4-crcs"), obj_in("uc4ncfg"), obj_out("uc4-final")])
        final = rt.wait_on("uc4-final", timeout_s=600)

        expected = math.ceil(payloads / batch_size)
        graph_subtasks = sum(
            1 for t in rt.graph.nodes.values() if t.method.endswith("filter_batch"))
        total = sum(final.values())
        unique = len(final)
        ok = (filt["subtasks"] == expected and graph_subtasks == expected
              and total == payloads and unique == payloads)
        return UC4Result(subtasks=filt["subtasks"], expected_subtasks=expected,
                         total=total, unique=unique,
                         graph_subtasks=graph_subtasks, ok=ok)
