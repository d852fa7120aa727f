"""Task bodies for the workbench applications.

Work is simulated by sleeps of configured duration over checksum-bearing
payloads, so runs are machine-portable while conservation stays checkable:
every element carries a deterministic payload whose crc travels through the
pipeline and is re-aggregated at the end.

All functions live at module level so worker processes can resolve them by
dotted name.
"""
from __future__ import annotations

import hashlib
import os
import time
import zlib


def make_payload(tag: str, size: int) -> bytes:
    seedblock = hashlib.blake2b(tag.encode("utf-8"), digest_size=32).digest()
    reps = size // len(seedblock) + 1
    return (seedblock * reps)[:size]


def crc(data: bytes) -> int:
    return zlib.crc32(data)


def _sleep_ms(ms: float) -> None:
    if ms > 0:
        time.sleep(ms / 1000.0)


def atomic_write(path: str, data: bytes) -> None:
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, "." + name)
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.rename(tmp, path)


# --- continuous generation (uc1) ---

def sim_to_files(cfg, *out_paths):
    """Pure-task simulation: one output file per element, gap between writes."""
    for j, path in enumerate(out_paths):
        _sleep_ms(cfg["gen_ms"])
        atomic_write(path, make_payload(f"{cfg['seed']}:{j}", cfg["payload_bytes"]))
    return None


def sim_to_stream_files(stream, cfg):
    """Streamed simulation over the directory-monitor backend."""
    base = stream.handle.base_dir
    for j in range(cfg["elements"]):
        _sleep_ms(cfg["gen_ms"])
        atomic_write(os.path.join(base, f"e{j:05d}"),
                     make_payload(f"{cfg['seed']}:{j}", cfg["payload_bytes"]))
    stream.close()
    return None


def sim_to_stream_objects(stream, cfg):
    for j in range(cfg["elements"]):
        _sleep_ms(cfg["gen_ms"])
        stream.publish(make_payload(f"{cfg['seed']}:{j}", cfg["payload_bytes"]))
    stream.close()
    return None


def proc_file(in_path, out_path, cfg):
    with open(in_path, "rb") as fh:
        body = fh.read()
    _sleep_ms(cfg["proc_ms"])
    atomic_write(out_path, str(crc(body)).encode("ascii"))
    return None


def proc_object(payload, cfg, _out):
    _sleep_ms(cfg["proc_ms"])
    return crc(payload)


def merge_files(gif_path, cfg, _out, *in_paths):
    parts = []
    for path in in_paths:
        with open(path, "rb") as fh:
            parts.append(int(fh.read()))
    _sleep_ms(cfg["merge_ms"])
    digest = crc(b"|".join(str(p).encode("ascii") for p in sorted(parts)))
    atomic_write(gif_path, str(digest).encode("ascii"))
    return {"count": len(parts), "digest": digest}


def merge_objects(cfg, _out, *crcs):
    _sleep_ms(cfg["merge_ms"])
    digest = crc(b"|".join(str(p).encode("ascii") for p in sorted(crcs)))
    return {"count": len(crcs), "digest": digest}


# --- asynchronous iterative exchange (uc2) ---

def _evolve(value: float, incoming: list[float]) -> float:
    pool = [value, *incoming]
    return sum(pool) / len(pool) + 1.0


def init_state(cfg, _out):
    _sleep_ms(cfg["init_ms"])
    return float(cfg["comp_index"])


def compute_iter(state, cfg, _out):
    _sleep_ms(cfg["compute_ms"])
    return state + 1.0


def exchange_states(cfg, *rest):
    # rest = OUT placeholders followed by the current states, one per computation
    n = cfg["computations"]
    states = rest[n:]
    _sleep_ms(cfg["exchange_ms"])
    mean = sum(states) / len(states)
    updated = tuple((s + mean) / 2.0 for s in states)
    return updated if len(updated) > 1 else updated[0]


def long_compute(my_stream, cfg, _out, *other_streams):
    """Hybrid iterative computation exchanging state through streams."""
    import pickle
    _sleep_ms(cfg["init_ms"])
    state = float(cfg["comp_index"])
    published = 0
    for _ in range(cfg["iterations"]):
        _sleep_ms(cfg["compute_ms"])
        state += 1.0
        my_stream.publish(pickle.dumps(state))
        published += 1
        incoming = []
        for other in other_streams:
            for element in other.poll():
                incoming.append(pickle.loads(element.payload))
        if incoming:
            mean = (state + sum(incoming)) / (1 + len(incoming))
            state = (state + mean) / 2.0
    my_stream.close()
    return {"state": state, "published": published}


# --- external streams (uc3) ---

def filter_stream(in_stream, out_stream, cfg, _out):
    """Tag every sensor payload and forward its crc to the extract stream."""
    _sleep_ms(cfg.get("start_delay_ms", 0))
    seen = 0
    crash_after = cfg.get("crash_after", 0)

    def forward(element):
        nonlocal seen
        out_stream.publish(str(crc(element.payload)).encode("ascii"))
        seen += 1
        if crash_after and seen >= crash_after:
            raise RuntimeError("injected filter crash")

    in_stream.drain(proc=forward, timeout_ms=cfg.get("drain_timeout_ms", 120_000))
    out_stream.close()
    return seen


def extract_stream(in_stream, cfg, _out):
    collected = []
    in_stream.drain(proc=lambda el: collected.append(int(el.payload)),
                    timeout_ms=cfg.get("drain_timeout_ms", 120_000))
    return collected


def reduce_chunk(values, _out):
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return counts


def reduce_merge(_out, *chunks):
    merged = {}
    for chunk in chunks:
        for key, count in chunk.items():
            merged[key] = merged.get(key, 0) + count
    return merged


# --- nested workflows (uc4) ---

def filter_batch(batch, cfg, _out):
    _sleep_ms(cfg.get("batch_ms", 0))
    return [crc(item) for item in batch]


def batching_filter(in_stream, cfg, _out):
    """Accumulate stream input into batches; one nested subtask per batch."""
    from ..runtime import current_runtime, obj_in, obj_out
    rt = current_runtime()
    batch: list[bytes] = []
    result_ids: list[str] = []

    def spawn(items):
        idx = len(result_ids)
        data_id = f"{cfg['tag']}-batch-{idx}"
        out_id = f"{cfg['tag']}-bres-{idx}"
        rt.put(data_id, list(items))
        rt.submit("hybridflow.workbench.taskdefs:filter_batch",
                  [obj_in(data_id), obj_in(cfg["cfg_id"]), obj_out(out_id)])
        result_ids.append(out_id)

    def take(element):
        batch.append(element.payload)
        if len(batch) >= cfg["batch_size"]:
            spawn(batch)
            batch.clear()

    in_stream.drain(proc=take, timeout_ms=cfg.get("drain_timeout_ms", 120_000))
    if batch:
        spawn(batch)
        batch.clear()
    crcs = []
    for out_id in result_ids:
        crcs.extend(rt.wait_on(out_id, timeout_s=120))
    return {"subtasks": len(result_ids), "crcs": crcs}


def nested_reduce(crcs, cfg, _out):
    """Big computation with an internal task-based reduction."""
    from ..runtime import current_runtime, obj_in, obj_out
    rt = current_runtime()
    chunk = max(1, len(crcs) // 4)
    chunk_ids = []
    for idx in range(0, len(crcs), chunk):
        data_id = f"{cfg['tag']}-rchunk-{idx}"
        out_id = f"{cfg['tag']}-rout-{idx}"
        rt.put(data_id, crcs[idx:idx + chunk])
        rt.submit("hybridflow.workbench.taskdefs:reduce_chunk",
                  [obj_in(data_id), obj_out(out_id)])
        chunk_ids.append(out_id)
    merged = {}
    for out_id in chunk_ids:
        for key, count in rt.wait_on(out_id, timeout_s=120).items():
            merged[key] = merged.get(key, 0) + count
    return merged


# --- scalability bench ---

def scale_writer(stream, cfg):
    for j in range(cfg["elements"]):
        _sleep_ms(cfg["gap_ms"])
        stream.publish(make_payload(f"{cfg['seed']}:w{cfg['writer_index']}:{j}",
                                    cfg["payload_bytes"]))
    stream.close()
    return None


def scale_reader(stream, cfg, _out):
    _sleep_ms(cfg["ramp_ms"] * (cfg["reader_index"] + 1))
    processed = stream.drain(proc=lambda _el: _sleep_ms(cfg["proc_ms"]),
                             max_elements=cfg.get("poll_cap") or None)
    return len(processed)


# --- lifecycle bench ---

def op_checksum(cfg, _out, *blobs):
    total = 0
    for blob in blobs:
        total ^= crc(blob)
    _sleep_ms(cfg.get("work_ms", 0))
    return total


def sp_checksum(stream, cfg, _out):
    want = cfg["count"]
    got = 0
    total = 0
    while got < want:
        # empty only once the stream is closed and drained, or on timeout
        batch = stream.poll(timeout_ms=cfg.get("drain_timeout_ms", 120_000),
                            max_elements=want - got)
        if not batch:
            break
        for element in batch:
            total ^= crc(element.payload)
        got += len(batch)
    _sleep_ms(cfg.get("work_ms", 0))
    return {"count": got, "xor": total}
