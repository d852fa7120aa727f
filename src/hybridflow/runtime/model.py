"""Task model: parameter annotations, descriptors, graph, resource state."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import InvalidAnnotation
from ..model import StreamHandle


class ParamType(str, Enum):
    OBJECT = "OBJECT"
    FILE = "FILE"
    STREAM = "STREAM"


class Direction(str, Enum):
    IN = "IN"
    OUT = "OUT"
    INOUT = "INOUT"


class TaskState(str, Enum):
    REGISTERED = "REGISTERED"
    READY = "READY"
    SCHEDULED = "SCHEDULED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"

    def can_move_to(self, nxt: "TaskState") -> bool:
        return nxt in _TRANSITIONS[self]


# built once: submit() promotes tasks inside the timed analysis step, so the
# legality check must not rebuild this table on every transition
_TRANSITIONS: dict[TaskState, frozenset[TaskState]] = {
    TaskState.REGISTERED: frozenset({TaskState.READY}),
    TaskState.READY: frozenset({TaskState.SCHEDULED}),
    TaskState.SCHEDULED: frozenset({TaskState.RUNNING, TaskState.READY}),
    TaskState.RUNNING: frozenset({TaskState.DONE, TaskState.FAILED, TaskState.READY}),
    TaskState.DONE: frozenset(),
    TaskState.FAILED: frozenset(),
}


@dataclass(frozen=True)
class ParamSpec:
    """One annotated task parameter.

    value_ref is a data id for OBJECT params, an absolute path for FILE
    params, and the StreamHandle for STREAM params. STREAM only supports
    IN and OUT.
    """

    ptype: ParamType
    direction: Direction
    value_ref: str | StreamHandle

    def __post_init__(self):
        if self.ptype is ParamType.STREAM:
            if self.direction is Direction.INOUT:
                raise InvalidAnnotation("STREAM parameters cannot be INOUT")
            if not isinstance(self.value_ref, StreamHandle):
                raise InvalidAnnotation("STREAM parameters carry a StreamHandle")

    @property
    def stream_id(self) -> str | None:
        if isinstance(self.value_ref, StreamHandle):
            return self.value_ref.id
        return None

    @property
    def reads_data(self) -> bool:
        return (self.ptype is not ParamType.STREAM
                and self.direction in (Direction.IN, Direction.INOUT))

    @property
    def writes_data(self) -> bool:
        return (self.ptype is not ParamType.STREAM
                and self.direction in (Direction.OUT, Direction.INOUT))


def obj_in(ref: str) -> ParamSpec:
    return ParamSpec(ParamType.OBJECT, Direction.IN, ref)


def obj_out(ref: str) -> ParamSpec:
    return ParamSpec(ParamType.OBJECT, Direction.OUT, ref)


def obj_inout(ref: str) -> ParamSpec:
    return ParamSpec(ParamType.OBJECT, Direction.INOUT, ref)


def file_in(path: str) -> ParamSpec:
    return ParamSpec(ParamType.FILE, Direction.IN, path)


def file_out(path: str) -> ParamSpec:
    return ParamSpec(ParamType.FILE, Direction.OUT, path)


def stream_in(handle: StreamHandle) -> ParamSpec:
    return ParamSpec(ParamType.STREAM, Direction.IN, handle)


def stream_out(handle: StreamHandle) -> ParamSpec:
    return ParamSpec(ParamType.STREAM, Direction.OUT, handle)


@dataclass
class TaskTimings:
    analysis_ms: float | None = None
    schedule_ms: float | None = None
    execution_ms: float | None = None


@dataclass
class TaskDescriptor:
    task_id: int
    method: str
    params: list[ParamSpec]
    cores_required: int = 1
    state: TaskState = TaskState.REGISTERED
    timings: TaskTimings = field(default_factory=TaskTimings)
    attempts: int = 0
    worker: str | None = None
    excluded_workers: set[str] = field(default_factory=set)
    error: str | None = None

    def move_to(self, nxt: TaskState) -> None:
        if not self.state.can_move_to(nxt):
            raise RuntimeError(f"task {self.task_id}: illegal {self.state.value} "
                               f"-> {nxt.value}")
        self.state = nxt

    def stream_ids(self, direction: Direction) -> set[str]:
        return {
            p.stream_id for p in self.params
            if p.ptype is ParamType.STREAM and p.direction is direction
        }

    @property
    def input_refs(self) -> set[str]:
        return {str(p.value_ref) for p in self.params if p.reads_data}


@dataclass
class DependencyGraph:
    """DAG over data ids plus side lists linking tasks to streams.

    STREAM parameters never create edges: writer/reader associations go to
    stream_links so producer and consumer tasks stay concurrently runnable.

    Readiness is kept incrementally: each task counts its writers that were
    not DONE when it was added, and complete() decrements the counters of
    the finished task's successors, so no query ever rescans the graph.
    """

    nodes: dict[int, TaskDescriptor] = field(default_factory=dict)
    edges: list[tuple[int, int, str]] = field(default_factory=list)
    stream_writers: list[tuple[int, str]] = field(default_factory=list)
    stream_readers: list[tuple[int, str]] = field(default_factory=list)
    last_writer: dict[str, int] = field(default_factory=dict)
    incoming: dict[int, set[int]] = field(default_factory=dict)
    outgoing: dict[int, set[int]] = field(default_factory=dict)
    unmet: dict[int, int] = field(default_factory=dict)

    def add_task(self, task: TaskDescriptor) -> None:
        """Record task's edges; a REGISTERED task with no unmet writer becomes READY."""
        self.nodes[task.task_id] = task
        incoming: set[int] = set()
        self.incoming[task.task_id] = incoming
        self.outgoing[task.task_id] = set()
        for p in task.params:
            if p.ptype is ParamType.STREAM:
                sid = p.stream_id
                if p.direction is Direction.OUT:
                    self.stream_writers.append((task.task_id, sid))
                else:
                    self.stream_readers.append((task.task_id, sid))
                continue
            ref = str(p.value_ref)
            if p.reads_data:
                writer = self.last_writer.get(ref)
                if writer is not None and writer != task.task_id:
                    self.edges.append((writer, task.task_id, ref))
                    incoming.add(writer)
                    self.outgoing[writer].add(task.task_id)
        for p in task.params:
            if p.writes_data:
                self.last_writer[str(p.value_ref)] = task.task_id
        unmet = sum(1 for w in incoming if self.nodes[w].state is not TaskState.DONE)
        self.unmet[task.task_id] = unmet
        if unmet == 0 and task.state is TaskState.REGISTERED:
            task.move_to(TaskState.READY)

    def complete(self, task_id: int) -> list[TaskDescriptor]:
        """Mark task_id DONE; return the successors this made READY, in O(out-degree)."""
        self.nodes[task_id].move_to(TaskState.DONE)
        promoted = []
        for succ in self.outgoing[task_id]:
            self.unmet[succ] -= 1
            task = self.nodes[succ]
            if self.unmet[succ] == 0 and task.state is TaskState.REGISTERED:
                task.move_to(TaskState.READY)
                promoted.append(task)
        return promoted

    def deps_satisfied(self, task_id: int) -> bool:
        return self.unmet.get(task_id, 0) == 0


@dataclass
class ResourceState:
    worker_id: str
    total_cores: int
    free_cores: int
    data_locations: set[str] = field(default_factory=set)
    stream_producer_history: set[str] = field(default_factory=set)

    def acquire(self, cores: int) -> None:
        if cores > self.free_cores:
            raise RuntimeError(f"{self.worker_id}: over-allocation")
        self.free_cores -= cores

    def release(self, cores: int) -> None:
        self.free_cores = min(self.total_cores, self.free_cores + cores)
