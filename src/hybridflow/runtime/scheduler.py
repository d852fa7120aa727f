"""Scheduling decisions: producer priority, stream/data locality."""
from __future__ import annotations

from .model import Direction, ParamType, ResourceState, TaskDescriptor


def locality_score(task: TaskDescriptor, resource: ResourceState) -> int:
    """Input data ids already on the worker, plus stream producer history.

    Scores are plain counts, so scaling them by any positive constant can
    never change an argmax comparison.
    """
    score = 0
    for p in task.params:
        if p.ptype is ParamType.STREAM:
            if p.direction is Direction.IN and p.stream_id in resource.stream_producer_history:
                score += 1
        elif p.reads_data and str(p.value_ref) in resource.data_locations:
            score += 1
    return score


def pick_next(ready: list[TaskDescriptor],
              resources: list[ResourceState]) -> tuple[int, str] | None:
    """Choose the next (task, worker) pair, or None when nothing fits.

    Priority: (1) never run a stream consumer while a producer for one of its
    input streams is itself a runnable candidate; (2) highest locality score;
    (3) lowest task id. The worker is the highest-scoring one that fits,
    ties broken by list order.
    """
    candidates: list[tuple[TaskDescriptor, list[ResourceState]]] = []
    for task in sorted(ready, key=lambda t: t.task_id):
        fitting = [r for r in resources if r.free_cores >= task.cores_required]
        if task.excluded_workers and len(fitting) > 1:
            preferred = [r for r in fitting if r.worker_id not in task.excluded_workers]
            if preferred:
                fitting = preferred
        if fitting:
            candidates.append((task, fitting))
    if not candidates:
        return None

    produced: dict[str, set[int]] = {}
    for task, _ in candidates:
        for sid in task.stream_ids(Direction.OUT):
            produced.setdefault(sid, set()).add(task.task_id)

    def blocked(task: TaskDescriptor) -> bool:
        for sid in task.stream_ids(Direction.IN):
            others = produced.get(sid, set()) - {task.task_id}
            if others:
                return True
        return False

    pool = [c for c in candidates if not blocked(c[0])] or candidates

    best: tuple[int, int, TaskDescriptor, ResourceState] | None = None
    for task, fitting in pool:
        for resource in fitting:
            score = locality_score(task, resource)
            key = (score, -task.task_id)
            if best is None or key > (best[0], best[1]):
                best = (score, -task.task_id, task, resource)
    assert best is not None
    return best[2].task_id, best[3].worker_id
