"""In-memory span tracer installed by wrapping hybridflow's public functions.

Nothing in the package changes: `install` replaces each traced function with
a wrapper, on the object where callers look the name up. For a name bound
with `from x import y` that is the importing module (for example
`runtime.master.pick_next`), not the defining one.

Each wrapper records a span (name, start, end, parent span, element or task
id) and a duration sample, and keeps the span's self time: its duration
minus the part its child spans cover. Functions called millions of times
(`locality_score`, `deps_satisfied`) are only counted. State is per thread,
so the hot path takes no lock; `summary` merges it after the run. Every
process of a traced run (the benchmark, the stream server, a remote worker)
installs its own tracer and dumps it to a shared directory.
"""
from __future__ import annotations

import itertools
import json
import os
import threading
import time
from array import array

MAX_SPANS = 100_000  # spans kept per process; counts and timings are not capped

_now = time.perf_counter_ns


def layer_of(name: str) -> str:
    """Layer a span belongs to: `runtime.<module>` or the first component."""
    parts = name.split(".")
    return ".".join(parts[:2]) if parts[0] == "runtime" else parts[0]


class _ThreadState:
    __slots__ = ("stack", "aggs", "counts", "spans", "ident")

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.aggs: dict[str, list] = {}   # name -> [count, total ns, self ns, durations]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.ident = threading.get_ident()

    def add(self, counter: str, value: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- recording --

    def _record(self, st: _ThreadState, name: str, frame: list[int],
                start: int, end: int, ref) -> None:
        dur = end - start
        if st.stack:
            st.stack[-1][1] += dur
        agg = st.aggs.get(name)
        if agg is None:
            agg = st.aggs[name] = [0, 0, 0, array("q")]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - frame[1]
        agg[3].append(dur)
        if frame[0] <= MAX_SPANS:
            parent = st.stack[-1][0] if st.stack else 0
            st.spans.append((frame[0], parent, name, start, end, st.ident, ref))

    def span(self, name: str, ref=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, ref)

    def wrap(self, owner, attr: str, name, ref=None, after=None) -> None:
        """Trace `owner.attr`; `name` may be a function of the call's args."""
        orig = self._original(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            frame = [next(tracer._ids), 0]
            st.stack.append(frame)
            start = _now()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = _now()
                st.stack.pop()
                label = name(args) if callable(name) else name
                tracer._record(st, label, frame, start, end,
                               ref(args) if ref is not None else None)
            if after is not None:
                after(st, args, result)
            return result

        self._replace(owner, attr, orig, wrapper)

    def wrap_count(self, owner, attr: str, counter: str) -> None:
        """Only count calls of `owner.attr`; for functions called millions of times."""
        orig = self._original(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._state().add(counter)
            return orig(*args, **kwargs)

        self._replace(owner, attr, orig, wrapper)

    @staticmethod
    def _original(owner, attr: str):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    def _replace(self, owner, attr: str, orig, wrapper) -> None:
        wrapper.__wrapped__ = orig
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- output --

    def summary(self) -> "Summary":
        out = Summary()
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (count, total, self_ns, durs) in list(st.aggs.items()):
                out.add_agg(name, count, total, self_ns, durs)
            for counter, value in list(st.counts.items()):
                out.counts[counter] = out.counts.get(counter, 0) + value
            out.spans.extend(st.spans)
        issued = next(self._ids) - 1
        out.counts["trace.spans"] = out.counts.get("trace.spans", 0) + issued
        out.counts["trace.spans_dropped"] = (out.counts.get("trace.spans_dropped", 0)
                                             + max(0, issued - MAX_SPANS))
        return out

    def dump(self, trace_dir: str, role: str) -> None:
        """Write this process's spans and aggregates for the parent to merge."""
        self.summary().write(os.path.join(trace_dir, f"{role}-{os.getpid()}"))


class _Span:
    __slots__ = ("tracer", "name", "ref", "frame", "start", "st")

    def __init__(self, tracer: Tracer, name: str, ref) -> None:
        self.tracer, self.name, self.ref = tracer, name, ref

    def __enter__(self):
        self.st = self.tracer._state()
        self.frame = [next(self.tracer._ids), 0]
        self.st.stack.append(self.frame)
        self.start = _now()
        return self

    def __exit__(self, *exc):
        end = _now()
        self.st.stack.pop()
        self.tracer._record(self.st, self.name, self.frame, self.start, end, self.ref)
        return False


class Summary:
    """Merged spans, per-name timings and counters of one or more processes."""

    def __init__(self) -> None:
        self.aggs: dict[str, list] = {}  # name -> [count, total ns, self ns, durations]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.pid = os.getpid()
        self.span_files: list[str] = []

    def add_agg(self, name, count, total, self_ns, durs) -> None:
        agg = self.aggs.setdefault(name, [0, 0, 0, []])
        agg[0] += count
        agg[1] += total
        agg[2] += self_ns
        agg[3].extend(durs)

    def merge_dir(self, trace_dir: str) -> None:
        for entry in sorted(os.listdir(trace_dir)):
            path = os.path.join(trace_dir, entry)
            if entry.endswith(".agg.json"):
                with open(path) as fh:
                    raw = json.load(fh)
                for name, (count, total, self_ns, durs) in raw["aggs"].items():
                    self.add_agg(name, count, total, self_ns, durs)
                for counter, value in raw["counts"].items():
                    self.counts[counter] = self.counts.get(counter, 0) + value
            elif entry.endswith(".spans.jsonl"):
                self.span_files.append(path)

    def write(self, prefix: str) -> None:
        with open(prefix + ".agg.json", "w") as fh:
            json.dump({"aggs": {k: [c, t, s, list(d)] for k, (c, t, s, d) in self.aggs.items()},
                       "counts": self.counts}, fh)
        self.write_spans(prefix + ".spans.jsonl")

    def write_spans(self, path: str, extra_files: list[str] = ()) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, thread, ref in self.spans:
                fh.write(json.dumps({"pid": self.pid, "id": sid, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end,
                                     "thread": thread, "ref": ref}) + "\n")
            for other in extra_files:
                with open(other) as src:
                    for line in src:
                        fh.write(line)

    # -- queries --

    def n(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg[0] if agg else 0

    def total_ns(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg[1] if agg else 0

    def self_ns(self, name: str) -> int:
        agg = self.aggs.get(name)
        return agg[2] if agg else 0

    def durations(self, prefix: str) -> list[int]:
        """Duration samples of every span named `prefix` or `prefix.*`."""
        out: list[int] = []
        for name, agg in self.aggs.items():
            if name == prefix or name.startswith(prefix + "."):
                out.extend(agg[3])
        return out

    def count(self, counter: str) -> float:
        return self.counts.get(counter, 0)

    def self_ms_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, agg in self.aggs.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + agg[2] / 1e6
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every hybridflow layer."""
    from hybridflow import broker, client, codec, dirmon, protocol, server, streams
    from hybridflow.runtime import execution, master, model, scheduler, worker

    def stream_ref(args):
        return args[0].handle.id

    def counted(counter, measure):
        return lambda st, args, result: st.add(counter, measure(args, result))

    # protocol: frames and bytes are counted where a frame is encoded
    tracer.wrap(protocol.Frame, "encode", "protocol.encode",
                after=counted("protocol.bytes", lambda a, r: len(r)))
    tracer.wrap(protocol.Connection, "send", "protocol.send")
    # codec: publish blocks and poll-reply element batches
    tracer.wrap(client, "pack_blocks", "codec.pack_blocks",
                after=counted("codec.blocks_packed", lambda a, r: len(a[0])))
    tracer.wrap(server, "unpack_blocks", "codec.unpack_blocks",
                after=counted("codec.blocks_unpacked", lambda a, r: len(r)))
    tracer.wrap(protocol, "pack_elements", "codec.pack_elements",
                after=counted("codec.elements_packed", lambda a, r: len(a[0])))
    tracer.wrap(protocol, "unpack_elements", "codec.unpack_elements",
                after=counted("codec.elements_unpacked", lambda a, r: len(r)))
    # client and server: one span per request, named by verb
    tracer.wrap(client.DistroStreamClient, "request",
                lambda a: "client.request." + a[1], ref=lambda a: a[2][0] if a[2] else None)
    # streams
    tracer.wrap(streams.DistroStream, "poll", "streams.poll", ref=stream_ref,
                after=counted("streams.poll_hits", lambda a, r: 1 if r else 0))
    tracer.wrap(streams.DistroStream, "publish", "streams.publish", ref=stream_ref)
    # broker: polls split by delivery mode (delete path vs lease/commit path)
    tracer.wrap(broker.Broker, "append", "broker.append", ref=lambda a: a[1])
    tracer.wrap(broker.Broker, "poll", lambda a: "broker.poll." + _mode(a).lower(),
                ref=lambda a: a[1],
                after=lambda st, a, r: st.add("broker.records." + _mode(a).lower(), len(r)))
    # dirmon
    tracer.wrap(dirmon.DirectoryMonitor, "scan_once", "dirmon.scan", ref=lambda a: a[1],
                after=counted("dirmon.scan_hits", lambda a, r: 1 if r else 0))
    # runtime.master
    tracer.wrap(master.Runtime, "submit", "runtime.master.submit")
    tracer.wrap(master.Runtime, "barrier", "runtime.master.barrier")
    tracer.wrap(master.Runtime, "wait_on", "runtime.master.wait_on", ref=lambda a: a[1])
    # runtime.scheduler and runtime.model
    tracer.wrap(master, "pick_next", "runtime.scheduler.pick_next")
    tracer.wrap_count(scheduler, "locality_score", "runtime.scheduler.locality_score")
    tracer.wrap_count(model.DependencyGraph, "deps_satisfied", "runtime.model.deps_satisfied")
    # runtime.execution and runtime.worker
    tracer.wrap(master, "build_payload", "runtime.execution.build_payload",
                ref=lambda a: a[0])
    tracer.wrap(execution.TaskPayload, "to_wire", "runtime.execution.to_wire",
                ref=lambda a: a[0].task_id,
                after=counted("runtime.execution.wire_bytes", lambda a, r: len(r)))
    tracer.wrap(master, "run_task", "runtime.execution.run_task",
                ref=lambda a: a[0].task_id)
    tracer.wrap(worker, "run_task", "runtime.worker.run_task", ref=lambda a: a[0].task_id)


def _mode(args) -> str:
    mode = args[4] if len(args) > 4 else None
    return getattr(mode, "value", str(mode))
