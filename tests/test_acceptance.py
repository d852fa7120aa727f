"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets are asserted alongside the functional checks.
"""
import math
import os
import random
import statistics
import threading
import time
from collections import Counter

import pytest

from hybridflow import Broker, DistroStreamClient, StreamServer
from hybridflow.model import ConsumerMode, StreamHandle, StreamKind
from hybridflow.runtime import (
    DependencyGraph, Direction, ParamSpec, ParamType, ResourceState,
    TaskDescriptor, TaskState, locality_score, pick_next,
)
from hybridflow.streams import create_stream
from hybridflow.workbench import (
    BenchConfig, bench_lifecycle, bench_scalability, crossover_table,
    uc1_continuous, uc2_async_exchange,
)


def _line(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num}: {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")


# --- criterion 1: delivery-semantics property suite ---

def _delivery_scenario(rng: random.Random, mode: ConsumerMode) -> None:
    broker = Broker(lease_ms=600_000)
    # the draw was once a partition count; it stays so that every seed
    # still yields the same scenario
    rng.choice([1, 1, 1, 2, 3])
    broker.create_topic("t")
    total = rng.randint(1, 200)
    n_producers = rng.randint(1, 8)
    n_consumers = rng.randint(1, 8)
    consumers = [f"c{i}" for i in range(n_consumers)]
    alive = set(consumers)
    published: list[str] = []
    delivered: Counter = Counter()
    last_batch: dict[str, list[str]] = {}
    has_polled: set[str] = set()
    crashes = 0
    seq = 0

    def publish_some() -> None:
        nonlocal seq
        k = min(rng.randint(1, 8), total - seq)
        for _ in range(k):
            value = f"v{seq}"
            broker.append("t", value.encode())
            published.append(value)
            seq += 1

    def poll_one(consumer: str) -> None:
        records = broker.poll("t", "g", consumer, mode,
                              max_records=rng.choice([None, None, 5]))
        has_polled.add(consumer)
        values = [r.value.decode() for r in records]
        delivered.update(values)
        # an empty at-least-once poll still acknowledges the previous lease
        last_batch[consumer] = values

    def crash_one() -> None:
        nonlocal crashes
        polled = [c for c in sorted(alive) if c in has_polled]
        if not polled:
            return
        victim = rng.choice(polled)
        alive.discard(victim)
        crashes += 1
        if mode is not ConsumerMode.EXACTLY_ONCE:
            # died mid-processing: its unacknowledged batch never counted
            for value in last_batch.pop(victim, []):
                delivered[value] -= 1
                if delivered[value] == 0:
                    del delivered[value]
        broker.expire_consumer("t", "g", victim)

    while seq < total:
        r = rng.random()
        if r < 0.45 or not alive:
            if not alive:
                recovered = f"r{crashes}"
                alive.add(recovered)
            publish_some()
        elif r < 0.9:
            poll_one(rng.choice(sorted(alive)))
        elif crashes < 2:
            crash_one()
    if not alive:
        alive.add("recovery")
    # drain with the survivors until nothing is pending
    for _ in range(10_000):
        got = False
        for consumer in sorted(alive):
            before = sum(delivered.values())
            poll_one(consumer)
            got = got or sum(delivered.values()) > before
        if not got and broker.pending("t", "g") == 0:
            break

    want = Counter(published)
    if mode is ConsumerMode.EXACTLY_ONCE:
        assert delivered == want, f"exactly-once conservation broken: {delivered} != {want}"
    elif mode is ConsumerMode.AT_MOST_ONCE:
        assert all(count <= 1 for count in delivered.values()), "duplicate under at-most-once"
        assert set(delivered) <= set(want)
    else:
        assert all(delivered[v] >= 1 for v in want), "at-least-once lost a record"
        if crashes == 0:
            assert delivered == want, "duplicates without any crash"


def test_criterion_1_delivery_semantics():
    budget = 60.0
    t0 = time.monotonic()
    rng = random.Random(20260810)
    modes = [ConsumerMode.EXACTLY_ONCE, ConsumerMode.AT_MOST_ONCE,
             ConsumerMode.AT_LEAST_ONCE]
    ok = False
    try:
        for i in range(1000):
            _delivery_scenario(rng, modes[i % 3])
        ok = True
    finally:
        elapsed = time.monotonic() - t0
        _line(1, ok and elapsed < budget, elapsed, budget,
              "1000 randomized publish/poll/crash interleavings x 3 modes")
    assert elapsed < budget


# --- criterion 2: DAG oracle equivalence ---

def test_criterion_2_dag_oracle():
    budget = 10.0
    t0 = time.monotonic()
    rng = random.Random(42)
    checked_edges = 0
    ok = False
    try:
        for _ in range(500):
            graph = DependencyGraph()
            last_writer: dict[str, int] = {}
            want = set()
            n_tasks = rng.randint(1, 12)
            data_ids = [f"d{i}" for i in range(rng.randint(1, 6))]
            stream_handles = [StreamHandle(id=f"s-{i}", kind=StreamKind.OBJECT)
                              for i in range(2)]
            for tid in range(1, n_tasks + 1):
                params = []
                for ref in rng.sample(data_ids, rng.randint(0, len(data_ids))):
                    params.append(ParamSpec(
                        rng.choice([ParamType.OBJECT, ParamType.FILE]),
                        rng.choice([Direction.IN, Direction.OUT, Direction.INOUT]),
                        ref))
                if rng.random() < 0.5:
                    params.append(ParamSpec(
                        ParamType.STREAM,
                        rng.choice([Direction.IN, Direction.OUT]),
                        rng.choice(stream_handles)))
                # independent oracle: brute-force last-writer replay
                for p in params:
                    if p.ptype is ParamType.STREAM:
                        continue
                    if p.direction in (Direction.IN, Direction.INOUT):
                        writer = last_writer.get(str(p.value_ref))
                        if writer is not None and writer != tid:
                            want.add((writer, tid, str(p.value_ref)))
                for p in params:
                    if p.ptype is not ParamType.STREAM and p.direction in (
                            Direction.OUT, Direction.INOUT):
                        last_writer[str(p.value_ref)] = tid
                graph.add_task(TaskDescriptor(task_id=tid, method="m", params=params))
            assert set(graph.edges) == want
            # no edge may originate from a STREAM association
            for tid, sid in graph.stream_writers + graph.stream_readers:
                assert not any(e[2] == sid for e in graph.edges)
            checked_edges += len(graph.edges)
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(2, ok and elapsed < budget, elapsed, budget,
              f"500 random programs, {checked_edges} edges matched the oracle")
    assert elapsed < budget


# --- criterion 3: scheduler invariants ---

def _random_contention(rng: random.Random):
    streams = [StreamHandle(id=f"s-{i}", kind=StreamKind.OBJECT) for i in range(3)]
    data_ids = [f"d{i}" for i in range(4)]
    tasks = []
    for tid in range(1, rng.randint(2, 10) + 1):
        kind = rng.random()
        params = []
        if kind < 0.35:
            params.append(ParamSpec(ParamType.STREAM, Direction.OUT,
                                    rng.choice(streams)))
        elif kind < 0.7:
            params.append(ParamSpec(ParamType.STREAM, Direction.IN,
                                    rng.choice(streams)))
        elif kind < 0.8:
            params.append(ParamSpec(ParamType.STREAM, Direction.IN, rng.choice(streams)))
            params.append(ParamSpec(ParamType.STREAM, Direction.OUT, rng.choice(streams)))
        else:
            for ref in rng.sample(data_ids, rng.randint(1, 3)):
                params.append(ParamSpec(ParamType.OBJECT, Direction.IN, ref))
        task = TaskDescriptor(task_id=tid, method="m", params=params,
                              cores_required=rng.choice([1, 1, 2]))
        task.state = TaskState.READY
        tasks.append(task)
    resources = []
    for w in range(rng.randint(1, 4)):
        cores = rng.choice([1, 2, 4])
        resources.append(ResourceState(
            worker_id=f"w{w}", total_cores=cores,
            free_cores=rng.randint(0, cores),
            data_locations=set(rng.sample(data_ids, rng.randint(0, 3))),
            stream_producer_history={s.id for s in streams if rng.random() < 0.4}))
    return tasks, resources


def test_criterion_3_scheduler_invariants():
    budget = 10.0
    t0 = time.monotonic()
    rng = random.Random(777)
    picks = 0
    ok = False
    try:
        for _ in range(200):
            tasks, resources = _random_contention(rng)
            choice = pick_next(tasks, resources)
            fitting = {
                t.task_id: [r for r in resources if r.free_cores >= t.cores_required]
                for t in tasks
            }
            candidates = [t for t in tasks if fitting[t.task_id]]
            if choice is None:
                assert not candidates
                continue
            picks += 1
            task_id, worker_id = choice
            chosen = next(t for t in tasks if t.task_id == task_id)
            produced = {}
            for t in candidates:
                for sid in t.stream_ids(Direction.OUT):
                    produced.setdefault(sid, set()).add(t.task_id)

            def blocked(t):
                return any(produced.get(sid, set()) - {t.task_id}
                           for sid in t.stream_ids(Direction.IN))

            unblocked = [t for t in candidates if not blocked(t)]
            if unblocked:
                # producer priority: a consumer must never outrun a runnable
                # producer of one of its input streams
                assert not blocked(chosen)
            worker = next(r for r in resources if r.worker_id == worker_id)
            assert worker.free_cores >= chosen.cores_required
            # locality: the chosen worker maximizes the score, so a free
            # history worker is always preferred for stream consumers
            best = max(locality_score(chosen, r) for r in fitting[task_id])
            assert locality_score(chosen, worker) == best
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(3, ok and elapsed < budget, elapsed, budget,
              f"200 contention scenarios, {picks} scheduling choices verified")
    assert elapsed < budget


# --- criterion 4: gain at desk scale ---

@pytest.mark.slow
def test_criterion_4_uc1_gain():
    budget = 600.0
    t0 = time.monotonic()
    ok = False
    detail = ""
    try:
        pinned = BenchConfig(num_files=50, generation_time_ms=50,
                             process_time_ms=500, workers="8x1", reps=5,
                             tick_ms=25)
        result = uc1_continuous(pinned)
        assert result.ok, "uc1 conservation failed"
        faster = all(h < p for p, h in zip(result.pure_times_ms,
                                           result.hybrid_times_ms))
        assert faster, "hybrid not faster in every rep"
        delta = abs(result.report.gain - result.oracle_gain)
        assert delta <= 0.10, f"gain {result.report.gain:.3f} vs oracle {result.oracle_gain:.3f}"

        gen_gains = []
        for gen in (50, 100, 250, 500):
            cfg = BenchConfig(num_files=30, generation_time_ms=gen,
                              process_time_ms=4000, workers="8x1", reps=1,
                              tick_ms=25)
            r = uc1_continuous(cfg)
            assert r.ok
            gen_gains.append(r.report.gain)
        assert all(gen_gains[i] < gen_gains[i + 1] for i in range(3)), \
            f"gain not increasing with generation time: {gen_gains}"

        proc_gains = []
        for proc in (250, 500, 1000, 2000):
            cfg = BenchConfig(num_files=50, generation_time_ms=25,
                              process_time_ms=proc, workers="8x1", reps=1,
                              tick_ms=10)
            r = uc1_continuous(cfg)
            assert r.ok
            proc_gains.append(r.report.gain)
        assert all(proc_gains[i] > proc_gains[i + 1] for i in range(3)), \
            f"gain not decreasing with process time: {proc_gains}"
        detail = (f"gain={result.report.gain:.3f} oracle={result.oracle_gain:.3f} "
                  f"gen-sweep={['%.2f' % g for g in gen_gains]} "
                  f"proc-sweep={['%.2f' % g for g in proc_gains]}")
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(4, ok and elapsed < budget, elapsed, budget, detail)
    assert elapsed < budget


# --- criterion 5: uc2 plateau ---

@pytest.mark.slow
def test_criterion_5_uc2_plateau():
    budget = 300.0
    t0 = time.monotonic()
    ok = False
    gains = []
    try:
        for iters in (1, 4, 16, 64):
            cfg = BenchConfig(iterations=iters, computations=2,
                              compute_time_ms=400, exchange_time_ms=100,
                              init_time_ms=500, workers="8x1", tick_ms=10)
            r = uc2_async_exchange(iters, 2, cfg)
            assert r.ok
            gains.append(r.report.gain)
        assert all(g > 0 for g in gains), f"non-positive gain: {gains}"
        settle = abs(gains[3] - gains[2])
        early = abs(gains[1] - gains[0])
        assert settle < early, f"no plateau: |g64-g16|={settle:.3f} vs |g4-g1|={early:.3f}"
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(5, ok and elapsed < budget, elapsed, budget,
              f"gains={['%.3f' % g for g in gains]}")
    assert elapsed < budget


# --- criterion 6: load imbalance and reader speed-up ---

@pytest.mark.slow
def test_criterion_6_load_imbalance():
    budget = 300.0
    t0 = time.monotonic()
    ok = False
    detail = ""
    try:
        cfg = BenchConfig(payloads=100, writer_gap_ms=10, process_time_ms=150,
                          reader_ramp_ms=150, tick_ms=25, poll_cap=0)
        _, runs = bench_scalability(cfg, writers_list=[1], readers_list=[1, 2, 8])
        assert all(run.ok for run in runs.values()), "element conservation failed"
        share0 = runs[(1, 2)].balance.fractions[0]
        assert share0 >= 0.5, f"first reader share {share0:.2f} < 0.5"
        speedup = runs[(1, 1)].makespan_ms / runs[(1, 8)].makespan_ms
        assert 1 < speedup < 8, f"speed-up {speedup:.2f} outside (1, 8)"
        detail = f"first-reader share={share0:.2f} speedup(8)={speedup:.2f}"
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(6, ok and elapsed < budget, elapsed, budget, detail)
    assert elapsed < budget


# --- criterion 7: lifecycle trends ---

@pytest.mark.slow
def test_criterion_7_lifecycle_trends():
    budget = 600.0
    t0 = time.monotonic()
    ok = False
    detail = ""
    try:
        cfg = BenchConfig(sizes=[65536, 262144, 1048576], counts=[1, 4, 16],
                          lifecycle_tasks=100)
        _, results = bench_lifecycle(cfg)
        assert all(r.ok for r in results), "lifecycle conservation failed"

        # stream analysis flat across object count: pool rows by count
        stream_by_count = {}
        for r in results:
            if r.kind == "STREAM":
                stream_by_count.setdefault(r.count, []).append(r.analysis_median_ms)
        pooled = {count: statistics.median(vals)
                  for count, vals in stream_by_count.items()}
        ratio = max(pooled.values()) / min(pooled.values())
        assert ratio <= 1.5, f"stream analysis ratio {ratio:.2f} > 1.5 ({pooled})"

        # object total time grows with payload in both directions
        object_totals = {(r.size, r.count): r.total_ms
                         for r in results if r.kind == "OBJECT"}
        for count in cfg.counts[1:]:
            series = [object_totals[(s, count)] for s in cfg.sizes]
            assert all(series[i] < series[i + 1] for i in range(len(series) - 1)), \
                f"object totals not growing with size at n={count}: {series}"
        big, small = object_totals[(cfg.sizes[-1], 16)], object_totals[(cfg.sizes[0], 1)]
        assert big > 1.2 * small

        # object analysis cost trends upward with the parameter count
        object_by_count = {}
        for r in results:
            if r.kind == "OBJECT":
                object_by_count.setdefault(r.count, []).append(r.analysis_median_ms)
        pooled_obj = {count: statistics.median(vals)
                      for count, vals in object_by_count.items()}
        assert pooled_obj[16] > pooled_obj[1], f"object analysis flat: {pooled_obj}"

        # a crossover cell where the stream variant beats objects exists
        table = crossover_table(results)
        winners = [(s, n) for s, n, op, sp in table if sp < op]
        assert winners, f"no crossover in grid: {table}"
        detail = (f"analysis-ratio={ratio:.2f} crossover-cells={winners}")
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        _line(7, ok and elapsed < budget, elapsed, budget, detail)
    assert elapsed < budget


# --- criterion 8: protocol robustness under concurrency ---

def test_criterion_8_protocol_robustness():
    budget = 60.0
    t0 = time.monotonic()
    ok = False
    detail = ""
    server = StreamServer(host="127.0.0.1", port=0, tick_ms=50)
    server.start()
    clients: list[DistroStreamClient] = []
    try:
        coordinator = DistroStreamClient(host=server.host, port=server.port,
                                         group="soak")
        clients.append(coordinator)
        shared = create_stream(coordinator, StreamKind.OBJECT, alias="soak-shared")
        shared.publish(b"warm")

        own_ids: list[str] = []
        shared_views = []
        errors: list[Exception] = []
        lock = threading.Lock()

        def cycle(index: int) -> None:
            try:
                client = DistroStreamClient(host=server.host, port=server.port,
                                            group=f"soak-{index}")
                with lock:
                    clients.append(client)
                own = create_stream(client, StreamKind.OBJECT)
                own.publish([b"a", b"b", b"c"])
                got = own.poll()
                assert len(got) == 3
                own.close()
                assert own.is_closed() is True
                view = create_stream(client, StreamKind.OBJECT, alias="soak-shared")
                assert view.is_closed() is False  # cache a pre-close answer
                with lock:
                    own_ids.append(own.id)
                    shared_views.append(view)
            except Exception as exc:  # noqa: BLE001
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=cycle, args=(i,)) for i in range(64)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, f"client errors: {errors[:3]}"
        assert len(own_ids) == 64
        assert len(set(own_ids)) == 64, "duplicate stream ids"

        shared.close()
        deadline = time.monotonic() + 10
        pending = list(shared_views)
        while pending and time.monotonic() < deadline:
            pending = [v for v in pending if not v.is_closed()]
            time.sleep(0.02)
        assert not pending, f"{len(pending)} clients missed the close notification"

        snapshot = server.registry.snapshot()
        assert len(snapshot) == 65  # 64 private streams + the shared one
        assert server.registry.live_entries() == server.registry.registered_total
        for sid in own_ids:
            entry = snapshot[sid]
            assert entry.closed and not entry.open_producers
        assert snapshot[shared.id].closed
        detail = "64 clients, 65 streams, all closes observed"
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        for client in clients:
            client.close()
        server.stop()
        _line(8, ok and elapsed < budget, elapsed, budget, detail)
    assert elapsed < budget


# --- criterion 9: file-stream end to end ---

def test_criterion_9_file_stream_end_to_end(tmp_path):
    budget = 30.0
    t0 = time.monotonic()
    ok = False
    detail = ""
    server = StreamServer(host="127.0.0.1", port=0, tick_ms=20)
    server.start()
    producer_client = DistroStreamClient(host=server.host, port=server.port,
                                         group="files")
    consumer_client = DistroStreamClient(host=server.host, port=server.port,
                                         group="files")
    try:
        sp = create_stream(producer_client, StreamKind.FILE, alias="f100",
                           base_dir=str(tmp_path), register_producer=True)
        sc = create_stream(consumer_client, StreamKind.FILE, alias="f100",
                           base_dir=str(tmp_path))
        expected = set()

        def writer():
            for j in range(100):
                name = f"record-{j:03d}"
                tmp = tmp_path / ("." + name)
                tmp.write_bytes(b"x" * 64)
                os.rename(tmp, tmp_path / name)
                expected.add(str(tmp_path / name))
                time.sleep(0.002)
            sp.close()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        elements = sc.drain(timeout_ms=20_000)
        thread.join(timeout=10)
        paths = [e.text() for e in elements]
        assert len(paths) == 100, f"polled {len(paths)} paths"
        assert len(set(paths)) == 100, "a path was delivered twice"
        assert set(paths) == expected
        assert all(os.path.isabs(p) for p in paths)
        assert not any(os.path.basename(p).startswith(".") for p in paths), \
            "dot-prefixed temp name leaked"
        assert sc.poll() == []
        detail = "100 files delivered exactly once, no temp names"
        ok = True
    except AssertionError:
        raise
    finally:
        elapsed = time.monotonic() - t0
        producer_client.close()
        consumer_client.close()
        server.stop()
        _line(9, ok and elapsed < budget, elapsed, budget, detail)
    assert elapsed < budget
