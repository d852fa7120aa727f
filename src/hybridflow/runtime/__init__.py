from .master import Runtime, current_runtime
from .model import (
    DependencyGraph, Direction, ParamSpec, ParamType, ResourceState,
    TaskDescriptor, TaskState, file_in, file_out, obj_in, obj_inout, obj_out,
    stream_in, stream_out,
)
from .registry import register, resolve
from .scheduler import locality_score, pick_next

__all__ = [
    "Runtime", "current_runtime",
    "DependencyGraph", "Direction", "ParamSpec", "ParamType", "ResourceState",
    "TaskDescriptor", "TaskState",
    "file_in", "file_out", "obj_in", "obj_inout", "obj_out",
    "stream_in", "stream_out",
    "register", "resolve",
    "locality_score", "pick_next",
]
