"""Task runtime: dependency analysis, scheduling rules, execution, sync API."""
import random
import threading
import time

import pytest

from hybridflow.errors import (
    ExecutionFailure, InvalidAnnotation, UnknownData, UnknownMethod,
)
from hybridflow.model import ConsumerMode, StreamHandle, StreamKind
from hybridflow.runtime import (
    DependencyGraph, Direction, ParamSpec, ParamType, ResourceState, Runtime,
    TaskDescriptor, TaskState, file_in, file_out, locality_score, obj_in,
    obj_inout, obj_out, pick_next, stream_in, stream_out,
)
from hybridflow.runtime import master as master_mod


def handle(sid: str) -> StreamHandle:
    return StreamHandle(id=sid, kind=StreamKind.OBJECT)


def make_task(task_id, params, cores=1, state=TaskState.READY):
    t = TaskDescriptor(task_id=task_id, method="m", params=params,
                       cores_required=cores)
    t.state = state
    return t


class TestDependencyAnalysis:
    def test_file_chain_edge(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [file_out("/tmp/F")], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [file_in("/tmp/F")], state=TaskState.REGISTERED))
        assert (1, 2, "/tmp/F") in g.edges

    def test_stream_params_create_no_edges(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [stream_out(handle("s-1"))], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [stream_in(handle("s-1"))], state=TaskState.REGISTERED))
        assert g.edges == []
        assert (1, "s-1") in g.stream_writers
        assert (2, "s-1") in g.stream_readers

    def test_stream_inout_rejected(self):
        with pytest.raises(InvalidAnnotation):
            ParamSpec(ParamType.STREAM, Direction.INOUT, handle("s-1"))

    def test_inout_updates_last_writer(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [obj_out("x")], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [obj_inout("x")], state=TaskState.REGISTERED))
        g.add_task(make_task(3, [obj_in("x")], state=TaskState.REGISTERED))
        assert (1, 2, "x") in g.edges
        assert (2, 3, "x") in g.edges
        assert (1, 3, "x") not in g.edges

    def test_dag_matches_bruteforce_oracle(self):
        # oracle: last-writer bookkeeping replayed over the submission order
        rng = random.Random(7)
        for _ in range(200):
            g = DependencyGraph()
            want_edges = set()
            last = {}
            n_tasks = rng.randint(1, 12)
            data_ids = [f"d{i}" for i in range(rng.randint(1, 6))]
            for tid in range(1, n_tasks + 1):
                params = []
                for ref in rng.sample(data_ids, rng.randint(1, len(data_ids))):
                    direction = rng.choice([Direction.IN, Direction.OUT, Direction.INOUT])
                    ptype = rng.choice([ParamType.OBJECT, ParamType.FILE])
                    params.append(ParamSpec(ptype, direction, ref))
                if rng.random() < 0.3:
                    params.append(stream_in(handle("s-9")))
                for p in params:
                    if p.ptype is ParamType.STREAM:
                        continue
                    if p.direction in (Direction.IN, Direction.INOUT):
                        w = last.get(str(p.value_ref))
                        if w is not None and w != tid:
                            want_edges.add((w, tid, str(p.value_ref)))
                for p in params:
                    if p.ptype is not ParamType.STREAM and p.direction in (
                            Direction.OUT, Direction.INOUT):
                        last[str(p.value_ref)] = tid
                g.add_task(make_task(tid, params, state=TaskState.REGISTERED))
            assert set(g.edges) == want_edges
            assert all(g.nodes[a].task_id < g.nodes[b].task_id for a, b, _ in g.edges)


def ready_ids(g):
    return {tid for tid, t in g.nodes.items() if t.state is TaskState.READY}


def finish(g, tid):
    """Run a READY task through dispatch to completion; ids it promoted."""
    g.nodes[tid].move_to(TaskState.SCHEDULED)
    g.nodes[tid].move_to(TaskState.RUNNING)
    return sorted(t.task_id for t in g.complete(tid))


class TestIncrementalReadiness:
    def test_linear_chain(self):
        g = DependencyGraph()
        for tid, params in ((1, [obj_out("x")]), (2, [obj_in("x"), obj_out("y")]),
                            (3, [obj_in("y")])):
            g.add_task(make_task(tid, params, state=TaskState.REGISTERED))
        assert ready_ids(g) == {1}
        assert g.unmet == {1: 0, 2: 1, 3: 1}
        assert finish(g, 1) == [2]
        assert ready_ids(g) == {2}
        assert finish(g, 2) == [3]
        assert finish(g, 3) == []
        assert all(g.deps_satisfied(tid) for tid in g.nodes)

    def test_stream_pair_both_ready_at_submit(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [stream_out(handle("s"))], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [stream_in(handle("s"))], state=TaskState.REGISTERED))
        assert ready_ids(g) == {1, 2}
        assert g.outgoing == {1: set(), 2: set()}

    def test_reader_added_after_writer_done(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [obj_out("x")], state=TaskState.REGISTERED))
        assert finish(g, 1) == []
        g.add_task(make_task(2, [obj_in("x")], state=TaskState.REGISTERED))
        assert (1, 2, "x") in g.edges
        assert g.unmet[2] == 0
        assert g.nodes[2].state is TaskState.READY

    def test_same_writer_through_two_params_counts_once(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [obj_out("x"), obj_out("y")], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [obj_in("x"), obj_in("y")], state=TaskState.REGISTERED))
        assert {(1, 2, "x"), (1, 2, "y")} <= set(g.edges)
        assert g.unmet[2] == 1
        assert finish(g, 1) == [2]
        assert g.unmet[2] == 0

    def test_inout_chains_through_the_updater(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [obj_out("x")], state=TaskState.REGISTERED))
        g.add_task(make_task(2, [obj_inout("x")], state=TaskState.REGISTERED))
        g.add_task(make_task(3, [obj_in("x")], state=TaskState.REGISTERED))
        assert g.outgoing[1] == {2}
        assert finish(g, 1) == [2]
        assert g.nodes[3].state is TaskState.REGISTERED
        assert finish(g, 2) == [3]

    def test_failed_writer_blocks_reader(self):
        g = DependencyGraph()
        g.add_task(make_task(1, [obj_out("x")], state=TaskState.REGISTERED))
        g.nodes[1].state = TaskState.FAILED
        g.add_task(make_task(2, [obj_in("x")], state=TaskState.REGISTERED))
        assert g.unmet[2] == 1
        assert not g.deps_satisfied(2)
        assert g.nodes[2].state is TaskState.REGISTERED

    def test_promotion_matches_state_scan_oracle(self):
        # oracle: a task is ready iff every incoming writer is DONE, checked
        # by scanning all states after each completion in a random order
        rng = random.Random(11)
        for _ in range(200):
            g = DependencyGraph()
            data_ids = [f"d{i}" for i in range(rng.randint(1, 5))]
            for tid in range(1, rng.randint(1, 14) + 1):
                params = [ParamSpec(ParamType.OBJECT,
                                    rng.choice(list(Direction)), ref)
                          for ref in rng.sample(data_ids, rng.randint(0, len(data_ids)))]
                g.add_task(make_task(tid, params, state=TaskState.REGISTERED))
            done = set()
            while True:
                want = {tid for tid in g.nodes if tid not in done
                        and all(w in done for w in g.incoming[tid])}
                assert ready_ids(g) == want
                if not want:
                    break
                tid = rng.choice(sorted(want))
                promoted = set(finish(g, tid))
                done.add(tid)
                assert promoted <= g.outgoing[tid]
            assert done == set(g.nodes)


class TestPickNext:
    def test_producer_beats_consumer_for_last_slot(self):
        consumer = make_task(1, [stream_in(handle("s"))])
        producer = make_task(2, [stream_out(handle("s"))])
        res = [ResourceState("w0", 1, 1)]
        assert pick_next([consumer, producer], res) == (2, "w0")

    def test_locality_prefers_history_worker(self):
        consumer = make_task(1, [stream_in(handle("s"))])
        a = ResourceState("a", 1, 1, stream_producer_history={"s"})
        b = ResourceState("b", 1, 1)
        assert pick_next([consumer], [b, a]) == (1, "a")

    def test_data_locality(self):
        t = make_task(3, [obj_in("x"), obj_in("y")])
        far = ResourceState("far", 2, 2)
        near = ResourceState("near", 2, 2, data_locations={"x", "y"})
        assert pick_next([t], [far, near]) == (3, "near")

    def test_empty_ready(self):
        assert pick_next([], [ResourceState("w", 1, 1)]) is None

    def test_nothing_fits(self):
        t = make_task(1, [], cores=4)
        assert pick_next([t], [ResourceState("w", 2, 2)]) is None

    def test_fifo_tie_break(self):
        t5 = make_task(5, [])
        t2 = make_task(2, [])
        assert pick_next([t5, t2], [ResourceState("w", 1, 1)]) == (2, "w")

    def test_scaling_invariance(self):
        # counts scaled by any positive constant keep the same argmax
        t = make_task(1, [obj_in("x"), obj_in("y"), stream_in(handle("s"))])
        workers = [
            ResourceState("a", 1, 1, data_locations={"x"}),
            ResourceState("b", 1, 1, data_locations={"x", "y"},
                          stream_producer_history={"s"}),
            ResourceState("c", 1, 1),
        ]
        scores = {w.worker_id: locality_score(t, w) for w in workers}
        for scale in (1, 3, 1000):
            scaled = {k: v * scale for k, v in scores.items()}
            assert max(scaled, key=scaled.get) == max(scores, key=scores.get)
        assert pick_next([t], workers)[1] == "b"

    def test_mixed_consumer_producer_yields_to_upstream(self):
        # filter consumes s1 and produces s2; sensor produces s1: sensor first
        sensor = make_task(4, [stream_out(handle("s1"))])
        filt = make_task(3, [stream_in(handle("s1")), stream_out(handle("s2"))])
        res = [ResourceState("w", 1, 1)]
        assert pick_next([filt, sensor], res) == (4, "w")


@pytest.fixture
def runtime():
    rt = Runtime(local_slots=[2, 2])
    yield rt
    rt.shutdown()


class TestExecution:
    def test_chain_runs_and_wait_on(self, runtime):
        @runtime.register_method
        def produce(out):
            return 21

        @runtime.register_method
        def double(x, out):
            return x * 2

        runtime.submit("produce", [obj_out("v")])
        runtime.submit("double", [obj_in("v"), obj_out("v2")])
        assert runtime.wait_on("v2", timeout_s=10) == 42

    def test_wait_on_unknown(self, runtime):
        with pytest.raises(UnknownData):
            runtime.wait_on("never")

    def test_unknown_method(self, runtime):
        with pytest.raises(UnknownMethod):
            runtime.submit("ghost", [])

    def test_unknown_input_data(self, runtime):
        @runtime.register_method
        def reader(x):
            return None
        with pytest.raises(UnknownData):
            runtime.submit("reader", [obj_in("unseeded")])

    def test_seeded_input(self, runtime):
        runtime.put("seed", 5)

        @runtime.register_method
        def addone(x, out):
            return x + 1

        runtime.submit("addone", [obj_in("seed"), obj_out("r")])
        assert runtime.wait_on("r", timeout_s=10) == 6

    def test_one_fault_retried_once(self, runtime):
        attempts = []

        @runtime.register_method
        def flaky(out):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("injected")
            return "ok"

        @runtime.register_method
        def shout(x, out):
            return x + "!"

        tid = runtime.submit("flaky", [obj_out("r")])
        succ = runtime.submit("shout", [obj_in("r"), obj_out("r2")])
        assert runtime.wait_on("r2", timeout_s=10) == "ok!"
        assert runtime.wait_on("r", timeout_s=10) == "ok"
        assert len(attempts) == 2
        assert runtime.task(tid).state is TaskState.DONE
        assert runtime.task(succ).state is TaskState.DONE

    def test_two_faults_fail_and_block_dependents(self, runtime):
        @runtime.register_method
        def broken(out):
            raise RuntimeError("always")

        @runtime.register_method
        def dependent(x, out):
            return x

        t1 = runtime.submit("broken", [obj_out("bad")])
        t2 = runtime.submit("dependent", [obj_in("bad"), obj_out("never")])
        with pytest.raises(ExecutionFailure):
            runtime.wait_on("bad", timeout_s=10)
        assert runtime.barrier(timeout_s=1) is False  # dependent never settles
        # graph-reachability oracle: the dependent must still be unscheduled
        assert runtime.task(t1).state is TaskState.FAILED
        assert runtime.task(t2).state in (TaskState.REGISTERED, TaskState.READY)

    def test_retry_prefers_other_worker(self, runtime):
        seen = []

        @runtime.register_method
        def once(out):
            import threading as th
            seen.append(th.current_thread().name.split("-t")[0])
            if len(seen) == 1:
                raise RuntimeError("first attempt dies")
            return True

        runtime.submit("once", [obj_out("r")])
        assert runtime.wait_on("r", timeout_s=10) is True
        assert len(seen) == 2
        assert seen[0] != seen[1]

    def test_dispatch_cost_independent_of_pending_count(self, monkeypatch):
        # 40 chains of 50 keep about 2000 tasks pending but at most 40 ready;
        # a scan of the pending set costs hundreds of checks per task
        chains, length = 40, 50
        work = {"checks": 0}
        lock = threading.Lock()
        real_pick, real_deps = master_mod.pick_next, DependencyGraph.deps_satisfied

        def counting_pick(ready, resources):
            with lock:
                work["checks"] += len(ready)
            return real_pick(ready, resources)

        def counting_deps(self, task_id):
            with lock:
                work["checks"] += 1
            return real_deps(self, task_id)

        monkeypatch.setattr(master_mod, "pick_next", counting_pick)
        monkeypatch.setattr(DependencyGraph, "deps_satisfied", counting_deps)
        rt = Runtime(local_slots=[2])
        try:
            @rt.register_method
            def step(x, out):
                return x + 1

            for c in range(chains):
                rt.put(f"c{c}-0", c)
                for i in range(length):
                    rt.submit("step", [obj_in(f"c{c}-{i}"), obj_out(f"c{c}-{i + 1}")])
            assert rt.barrier(timeout_s=120) is True
            assert all(rt.wait_on(f"c{c}-{length}") == c + length for c in range(chains))
        finally:
            rt.shutdown()
        assert work["checks"] <= 50 * chains * length, work

    def test_barrier_no_tasks(self, runtime):
        assert runtime.barrier(timeout_s=1) is True

    def test_barrier_waits_for_all(self, runtime):
        done = []

        @runtime.register_method
        def nap(out):
            time.sleep(0.05)
            done.append(1)
            return 1

        for i in range(6):
            runtime.submit("nap", [obj_out(f"n{i}")])
        assert runtime.barrier(timeout_s=10) is True
        assert len(done) == 6

    def test_data_locations_updated(self, runtime):
        @runtime.register_method
        def emit(out):
            return b"data"

        runtime.submit("emit", [obj_out("blob")])
        runtime.barrier(timeout_s=10)
        assert any("blob" in r.data_locations for r in runtime.resources())

    def test_resource_conservation(self, runtime):
        # free core counts stay within [0, total] while tasks churn
        @runtime.register_method
        def spin(out):
            time.sleep(0.01)
            return 0

        bad = []
        stop = threading.Event()

        def watch():
            while not stop.is_set():
                for r in runtime.resources():
                    if not (0 <= r.free_cores <= r.total_cores):
                        bad.append(r.free_cores)
                time.sleep(0.002)

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        for i in range(24):
            runtime.submit("spin", [obj_out(f"s{i}")])
        runtime.barrier(timeout_s=20)
        stop.set()
        watcher.join(timeout=2)
        assert bad == []

    def test_lifecycle_report_rows_and_aggregates(self, runtime, tmp_path):
        @runtime.register_method
        def quick(out):
            return 1

        for i in range(10):
            runtime.submit("quick", [obj_out(f"q{i}")])
        runtime.barrier(timeout_s=10)
        table = runtime.lifecycle_report(str(tmp_path / "life.csv"))
        assert table[0] == ["task_id", "method", "analysis_ms", "schedule_ms",
                            "execution_ms"]
        body = [r for r in table[1:] if r[0] not in ("mean", "stddev")]
        aggregates = [r for r in table[1:] if r[0] in ("mean", "stddev")]
        assert len(body) == 10
        assert len(aggregates) == 2
        text = (tmp_path / "life.csv").read_text()
        assert "mean,quick" in text

    def test_timings_populated_per_phase(self, runtime):
        @runtime.register_method
        def work(out):
            time.sleep(0.02)
            return 1

        tid = runtime.submit("work", [obj_out("w")])
        t = runtime.task(tid)
        assert t.timings.analysis_ms is not None
        runtime.barrier(timeout_s=10)
        assert t.timings.schedule_ms is not None
        assert t.timings.execution_ms >= 20.0


class TestStreamTasks:
    def test_stream_consumer_runs_while_producer_running(self, server, client_factory):
        client = client_factory(group="overlap-app")
        rt = Runtime(local_slots=[1, 1], stream_client=client)
        from hybridflow.streams import create_stream
        s = create_stream(client, StreamKind.OBJECT, alias="overlap")
        states = {}

        @rt.register_method
        def writer(stream):
            stream.publish([b"a", b"b", b"c"])
            time.sleep(0.2)
            stream.publish(b"d")
            stream.close()
            return None

        @rt.register_method
        def reader(stream, out):
            got = stream.drain(timeout_ms=10_000)
            states["reader_saw"] = len(got)
            return len(got)

        rt.submit("writer", [stream_out(s.handle)])
        rt.submit("reader", [stream_in(s.handle), obj_out("count")])
        assert rt.wait_on("count", timeout_s=15) == 4
        rt.shutdown()

    def test_producer_history_recorded(self, server, client_factory):
        client = client_factory(group="hist-app")
        rt = Runtime(local_slots=[1], stream_client=client)
        from hybridflow.streams import create_stream
        s = create_stream(client, StreamKind.OBJECT, alias="hist")

        @rt.register_method
        def producer(stream):
            stream.publish(b"x")
            stream.close()
            return None

        rt.submit("producer", [stream_out(s.handle)])
        rt.barrier(timeout_s=10)
        assert any(s.id in r.stream_producer_history for r in rt.resources())
        rt.shutdown()

    def test_producer_scheduled_before_contending_consumer(self, server, client_factory):
        # one slot, consumer submitted first: without producer priority the
        # consumer would occupy the slot polling an unfed stream forever
        client = client_factory(group="prio-app")
        rt = Runtime(local_slots=[1], stream_client=client)
        from hybridflow.streams import create_stream
        s = create_stream(client, StreamKind.OBJECT, alias="prio")

        @rt.register_method
        def consume(stream, out):
            return len(stream.drain(timeout_ms=20_000))

        @rt.register_method
        def produce(stream):
            stream.publish([b"1", b"2"])
            stream.close()
            return None

        c_id = rt.submit("consume", [stream_in(s.handle), obj_out("n")])
        p_id = rt.submit("produce", [stream_out(s.handle)])
        assert rt.wait_on("n", timeout_s=30) == 2
        producer, consumer = rt.task(p_id), rt.task(c_id)
        assert producer.state is TaskState.DONE
        assert consumer.state is TaskState.DONE
        rt.shutdown()

    def test_nested_submission(self, runtime):
        from hybridflow.runtime import current_runtime

        @runtime.register_method
        def leaf(i, out):
            return i * i

        @runtime.register_method
        def parent(out):
            rt = current_runtime()
            for i in range(3):
                rt.put(f"in{i}", i)
                rt.submit("leaf", [obj_in(f"in{i}"), obj_out(f"sq{i}")])
            return sum(rt.wait_on(f"sq{i}", timeout_s=10) for i in range(3))

        runtime.submit("parent", [obj_out("total")])
        assert runtime.wait_on("total", timeout_s=15) == 5
