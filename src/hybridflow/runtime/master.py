"""Workflow master: dependency analysis, event-driven scheduling, executors.

The main program submits tasks and blocks only in wait_on/barrier. Readiness
is event-driven: a submit whose inputs are all DONE, a completion promoting
its successors, or a first failure sent back for retry puts a task in the
ready set. A single scheduler thread chooses from that set only, applying
producer priority and locality, and dispatches. Dispatch performs the
input staging (value encoding and, for remote workers, the socket send) in
that one thread, mirroring a master that funnels every transfer through its
own I/O path; execution itself is concurrent across workers and slots.

Every executor runs tasks on long-lived slot threads, one per core: a local
slot's threads live in this process and take payloads from a queue, a remote
worker process keeps its own (see worker.py). No thread is started per task.
A task that raises, even SystemExit, fails and is retried once like any
failed task; its slot thread reports the failure and goes on serving.
"""
from __future__ import annotations

import contextvars
import csv
import os
import queue
import shutil
import socket
import statistics
import tempfile
import threading
import time
import traceback
from typing import Callable

from .. import protocol
from ..client import DistroStreamClient
from ..codec import OBJECT_CODEC
from ..errors import (
    ExecutionFailure, InvalidAnnotation, ProtocolError, UnknownData, UnknownMethod,
)
from . import registry
from .execution import TaskOutcome, TaskPayload, build_payload, run_task
from .model import (
    DependencyGraph, Direction, ParamSpec, ParamType, ResourceState,
    TaskDescriptor, TaskState,
)
from .scheduler import pick_next

_current_runtime: contextvars.ContextVar["Runtime | None"] = contextvars.ContextVar(
    "hybridflow_runtime", default=None)


def current_runtime() -> "Runtime":
    rt = _current_runtime.get()
    if rt is None:
        raise RuntimeError("no runtime bound to this task context")
    return rt


class _LocalWorker:
    """In-process executor: one long-lived slot thread per core, shared client.

    The slot threads take payloads from one queue. The scheduler never
    dispatches past the slot's free cores, so a dispatched task never waits
    behind another. Each task runs in a fresh contextvars context, as it would
    on a thread of its own; thread-local state does persist from one task to
    the next on the same thread. stop() ends each thread once the tasks queued
    before it have run.
    """

    def __init__(self, worker_id: str, runtime: "Runtime", cores: int) -> None:
        self.worker_id = worker_id
        self.runtime = runtime
        self._tasks: queue.SimpleQueue[TaskPayload | None] = queue.SimpleQueue()
        # "<worker id>-t<n>": the part before "-t" names the worker
        self._threads = [threading.Thread(target=self._serve, name=f"{worker_id}-t{i}",
                                         daemon=True)
                        for i in range(cores)]
        for thread in self._threads:
            thread.start()

    def submit(self, payload: TaskPayload) -> None:
        self._tasks.put(payload)

    def stop(self) -> None:
        for _ in self._threads:
            self._tasks.put(None)

    def _serve(self) -> None:
        while (payload := self._tasks.get()) is not None:
            outcome = contextvars.Context().run(self._run_one, payload)
            try:
                self.runtime._complete(outcome, self.worker_id)
            except Exception:
                # the one task is lost; the thread, and with it the core,
                # goes on serving
                traceback.print_exc()

    def _run_one(self, payload: TaskPayload) -> TaskOutcome:
        runtime = self.runtime
        _current_runtime.set(runtime)
        return run_task(payload, runtime._resolve, runtime.stream_client,
                        runtime.app_group)


def _unlink_all(paths: list[str]) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


class _RemoteWorker:
    """Link to a worker process speaking the TASK/TRESULT framing.

    Values above the staging threshold are written to the master's staging
    directory and travel as file references, the shared-filesystem analog of
    bulk object transfer; small values stay inline in the frame. A task's
    staged files are deleted once its result arrives or its worker is lost:
    the worker reads its inputs before the method runs, and a retry stages
    anew.
    """

    def __init__(self, worker_id: str, conn: protocol.Connection,
                 runtime: "Runtime") -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.runtime = runtime
        # task id -> paths staged for its current attempt on this worker;
        # the scheduler thread adds, the reader thread removes
        self._staged: dict[int, list[str]] = {}
        self._staged_lock = threading.Lock()

    def _stage(self, payload: TaskPayload) -> TaskPayload:
        threshold = self.runtime.stage_threshold
        staging = self.runtime.staging_dir()
        staged: dict[int, object] = {}
        paths: list[str] = []
        for idx, value in payload.values.items():
            if len(value) >= threshold:
                task = self.runtime.graph.nodes.get(payload.task_id)
                attempt = task.attempts if task else 0
                path = os.path.join(staging,
                                    f"t{payload.task_id}a{attempt}-{idx}.bin")
                with open(path, "wb") as fh:
                    fh.write(value)
                paths.append(path)
                staged[idx] = ("file", path)
            else:
                staged[idx] = value
        if paths:
            # registered before the send, so the result cannot come first
            with self._staged_lock:
                self._staged[payload.task_id] = paths
        payload.values = staged
        return payload

    def _unstage(self, task_id: int) -> None:
        with self._staged_lock:
            paths = self._staged.pop(task_id, ())
        _unlink_all(paths)

    def submit(self, payload: TaskPayload) -> None:
        payload = self._stage(payload)
        frame = protocol.Frame(verb="TASK", fields=[str(payload.task_id)],
                               corr_id="0", payload=payload.to_wire())
        try:
            self.conn.send(frame)
        except OSError as exc:
            self._unstage(payload.task_id)
            self.runtime._complete(TaskOutcome(
                task_id=payload.task_id, ok=False,
                error=f"worker {self.worker_id} unreachable: {exc}"),
                self.worker_id)

    def reader_loop(self) -> None:
        while True:
            try:
                frame = self.conn.recv()
            except (ProtocolError, OSError):
                frame = None
            if frame is None:
                break
            if frame.verb == "TRESULT":
                outcome = TaskOutcome.from_wire(frame.payload)
                self._unstage(outcome.task_id)
                self.runtime._complete(outcome, self.worker_id)
        with self._staged_lock:
            left, self._staged = self._staged, {}
        for paths in left.values():
            _unlink_all(paths)
        self.runtime._worker_lost(self.worker_id)


class Runtime:
    """Task runtime with stream-aware scheduling.

    local_slots spawns in-process workers (list of core counts); remote
    workers join over TCP after start_listening(). Both can coexist.
    """

    def __init__(self, local_slots: list[int] | None = None,
                 stream_client: DistroStreamClient | None = None,
                 app_group: str | None = None,
                 stage_threshold: int = 65536) -> None:
        self.graph = DependencyGraph()
        self.stream_client = stream_client
        self.app_group = app_group or (stream_client.group if stream_client else None)
        self.stage_threshold = stage_threshold
        self._staging: str | None = None
        self._methods: dict[str, Callable] = {}
        self._store: dict[str, bytes] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._resources: dict[str, ResourceState] = {}
        self._executors: dict[str, _LocalWorker | _RemoteWorker] = {}
        self._task_seq = 0
        # READY tasks not yet dispatched: the only tasks a scheduling pass
        # looks at, so dispatch cost follows the ready count, not the backlog
        self._ready: dict[int, TaskDescriptor] = {}
        # submitted tasks not yet DONE or FAILED
        self._outstanding = 0
        self._dirty = False
        self._stopped = False
        self._exec_started: dict[int, float] = {}
        self._listener: socket.socket | None = None
        self._listen_thread: threading.Thread | None = None
        for idx, cores in enumerate(local_slots or []):
            worker_id = f"local-{idx}"
            self._resources[worker_id] = ResourceState(
                worker_id=worker_id, total_cores=cores, free_cores=cores)
            self._executors[worker_id] = _LocalWorker(worker_id, self, cores)
        self._scheduler = threading.Thread(target=self._loop, name="hf-scheduler",
                                           daemon=True)
        self._scheduler.start()

    # -- method registration --

    def register_method(self, fn: Callable | None = None, *, name: str | None = None):
        def apply(func: Callable) -> Callable:
            self._methods[name or func.__name__] = func
            return func
        if fn is not None:
            return apply(fn)
        return apply

    def _resolve(self, name: str) -> Callable:
        fn = self._methods.get(name)
        if fn is not None:
            return fn
        return registry.resolve(name)

    # -- data seeding and retrieval --

    def put(self, data_id: str, value: object) -> None:
        with self._lock:
            self._store[data_id] = OBJECT_CODEC.encode(value)

    def wait_on(self, data_id: str, timeout_s: float | None = None) -> object:
        """Block until the current last writer of data_id finishes."""
        with self._cond:
            writer_id = self.graph.last_writer.get(data_id)
            if writer_id is None and data_id not in self._store:
                raise UnknownData(data_id)
            if writer_id is not None:
                writer = self.graph.nodes[writer_id]
                if not self._cond.wait_for(
                        lambda: writer.state in (TaskState.DONE, TaskState.FAILED),
                        timeout_s):
                    raise TimeoutError(f"wait_on({data_id!r})")
                if writer.state is TaskState.FAILED:
                    raise ExecutionFailure(
                        f"writer task {writer_id} of {data_id!r} failed: {writer.error}")
            data = self._store.get(data_id)
            if data is None:
                raise UnknownData(data_id)
            return OBJECT_CODEC.decode(data)

    def barrier(self, timeout_s: float | None = None) -> bool:
        """Wait until every submitted task is DONE or FAILED."""
        with self._cond:
            return self._cond.wait_for(lambda: self._outstanding == 0, timeout_s)

    # -- task submission --

    def submit(self, method: str, params: list[ParamSpec],
               cores_required: int = 1) -> int:
        if not (method in self._methods or registry.known(method)):
            raise UnknownMethod(method)
        if cores_required < 1:
            raise ValueError("cores_required must be positive")
        for p in params:
            if p.ptype is ParamType.STREAM and p.direction is Direction.INOUT:
                raise InvalidAnnotation("STREAM parameters cannot be INOUT")
        with self._lock:
            t0 = time.perf_counter()
            for p in params:
                if p.ptype is ParamType.OBJECT and p.direction is Direction.IN:
                    ref = str(p.value_ref)
                    if ref not in self._store and ref not in self.graph.last_writer:
                        raise UnknownData(ref)
            self._task_seq += 1
            task = TaskDescriptor(task_id=self._task_seq, method=method,
                                  params=list(params), cores_required=cores_required)
            self.graph.add_task(task)
            self._outstanding += 1
            if task.state is TaskState.READY:
                self._ready[task.task_id] = task
            task.timings.analysis_ms = (time.perf_counter() - t0) * 1000.0
            self._dirty = True
            self._cond.notify_all()
        return task.task_id

    # -- scheduling --

    def _wake(self) -> None:
        with self._cond:
            self._dirty = True
            self._cond.notify_all()

    def _loop(self) -> None:
        while not self._stopped:
            with self._cond:
                self._cond.wait_for(lambda: self._dirty or self._stopped)
                self._dirty = False
            if self._stopped:
                return
            self._schedule_pass()

    def _schedule_pass(self) -> None:
        while True:
            with self._lock:
                t0 = time.perf_counter()
                choice = pick_next(list(self._ready.values()),
                                   list(self._resources.values()))
                if choice is None:
                    return
                task_id, worker_id = choice
                task = self._ready.pop(task_id)
                resource = self._resources[worker_id]
                resource.acquire(task.cores_required)
                task.move_to(TaskState.SCHEDULED)
                task.worker = worker_id
                task.timings.schedule_ms = (time.perf_counter() - t0) * 1000.0
                for sid in task.stream_ids(Direction.OUT):
                    resource.stream_producer_history.add(sid)
                executor = self._executors[worker_id]
                task.move_to(TaskState.RUNNING)
                self._exec_started[task_id] = time.perf_counter()
                payload = build_payload(task_id, task.method, task.params, self._store)
            # staging and the send leave the lock but stay on this thread:
            # the master funnels every outbound transfer through its dispatcher
            executor.submit(payload)

    def _complete(self, outcome: TaskOutcome, worker_id: str) -> None:
        with self._cond:
            task = self.graph.nodes.get(outcome.task_id)
            if task is None or task.state is not TaskState.RUNNING:
                return
            resource = self._resources.get(worker_id)
            if resource is not None:
                resource.release(task.cores_required)
            started = self._exec_started.pop(outcome.task_id, None)
            if started is not None:
                task.timings.execution_ms = (time.perf_counter() - started) * 1000.0
            if outcome.ok:
                for idx, p in enumerate(task.params):
                    if p.ptype is ParamType.OBJECT and idx in outcome.outs:
                        self._store[str(p.value_ref)] = outcome.outs[idx]
                    if p.writes_data and resource is not None:
                        resource.data_locations.add(str(p.value_ref))
                for promoted in self.graph.complete(task.task_id):
                    self._ready[promoted.task_id] = promoted
                self._outstanding -= 1
            elif task.attempts == 0:
                task.attempts = 1
                task.excluded_workers.add(worker_id)
                task.error = outcome.error
                task.move_to(TaskState.READY)
                self._ready[task.task_id] = task
            else:
                task.error = outcome.error
                task.move_to(TaskState.FAILED)
                self._outstanding -= 1
            self._dirty = True
            self._cond.notify_all()

    # -- remote workers --

    def start_listening(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(32)
        sock.settimeout(0.25)
        self._listener = sock
        self._listen_thread = threading.Thread(target=self._accept_workers,
                                               name="hf-master-accept", daemon=True)
        self._listen_thread.start()
        return sock.getsockname()[0], sock.getsockname()[1]

    def _accept_workers(self) -> None:
        assert self._listener is not None
        while not self._stopped:
            try:
                raw, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            raw.settimeout(None)
            raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = protocol.Connection(raw)
            try:
                hello = conn.recv()
            except (ProtocolError, OSError):
                conn.close()
                continue
            if hello is None or hello.verb != "WHELLO" or len(hello.fields) < 2:
                conn.close()
                continue
            cores = int(hello.fields[0])
            worker_id = hello.fields[1]
            sc = self.stream_client
            conn.send(protocol.ok(hello.corr_id, [
                self.app_group or "",
                sc.host if sc else "", str(sc.port) if sc else "",
            ]))
            worker = _RemoteWorker(worker_id, conn, self)
            with self._lock:
                self._resources[worker_id] = ResourceState(
                    worker_id=worker_id, total_cores=cores, free_cores=cores)
                self._executors[worker_id] = worker
            threading.Thread(target=worker.reader_loop,
                             name=f"hf-worker-{worker_id}", daemon=True).start()
            self._wake()

    def wait_for_workers(self, count: int, timeout_s: float = 30.0) -> None:
        # _accept_workers notifies through _wake() after each join
        with self._cond:
            if not self._cond.wait_for(lambda: len(self._resources) >= count, timeout_s):
                raise TimeoutError(f"{count} workers did not join within {timeout_s}s")

    def _worker_lost(self, worker_id: str) -> None:
        with self._cond:
            self._resources.pop(worker_id, None)
            self._executors.pop(worker_id, None)
            # _exec_started holds exactly the RUNNING tasks, on every worker
            nodes = self.graph.nodes
            running = [nodes[tid] for tid in self._exec_started
                       if nodes[tid].worker == worker_id]
        for task in running:
            self._complete(TaskOutcome(task_id=task.task_id, ok=False,
                                       error=f"worker {worker_id} lost"), worker_id)

    # -- introspection and reporting --

    def resources(self) -> list[ResourceState]:
        with self._lock:
            return list(self._resources.values())

    def task(self, task_id: int) -> TaskDescriptor:
        with self._lock:
            return self.graph.nodes[task_id]

    def lifecycle_rows(self) -> list[tuple[int, str, float, float, float]]:
        with self._lock:
            return [
                (t.task_id, t.method,
                 t.timings.analysis_ms or 0.0,
                 t.timings.schedule_ms or 0.0,
                 t.timings.execution_ms or 0.0)
                for t in sorted(self.graph.nodes.values(), key=lambda t: t.task_id)
            ]

    def lifecycle_report(self, path: str | None = None) -> list[list[str]]:
        """Per-task lifecycle rows plus mean/stddev aggregates per method."""
        rows = self.lifecycle_rows()
        table: list[list[str]] = [
            ["task_id", "method", "analysis_ms", "schedule_ms", "execution_ms"]]
        for task_id, method, analysis, schedule, execution in rows:
            table.append([str(task_id), method, f"{analysis:.6f}",
                          f"{schedule:.6f}", f"{execution:.6f}"])
        by_method: dict[str, list[tuple[float, float, float]]] = {}
        for _, method, analysis, schedule, execution in rows:
            by_method.setdefault(method, []).append((analysis, schedule, execution))
        for method, samples in sorted(by_method.items()):
            cols = list(zip(*samples))
            means = [statistics.fmean(c) for c in cols]
            devs = [statistics.pstdev(c) if len(c) > 1 else 0.0 for c in cols]
            table.append(["mean", method] + [f"{v:.6f}" for v in means])
            table.append(["stddev", method] + [f"{v:.6f}" for v in devs])
        if path is not None:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(table)
        return table

    def staging_dir(self) -> str:
        with self._lock:
            if self._staging is None:
                self._staging = tempfile.mkdtemp(prefix="hf-stage-")
            return self._staging

    def shutdown(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._staging is not None:
            shutil.rmtree(self._staging, ignore_errors=True)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for executor in list(self._executors.values()):
            if isinstance(executor, _LocalWorker):
                executor.stop()
            else:
                try:
                    executor.conn.send(protocol.Frame(verb="WSTOP", corr_id="0"))
                except OSError:
                    pass
                executor.conn.close()
        self._scheduler.join(timeout=5)
