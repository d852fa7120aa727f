"""`stream` workload: object streams only, no runtime.

A generator thread and a consumer thread, each with its own client, talk to
a stream server in its own process, in two phases:

(a) open loop: single-element publishes on an absolute schedule at RATE_A
    per second, well below the 8k-12k/s where publishing saturates, read by
    an EXACTLY_ONCE consumer with poll(timeout_ms). Latency runs from each
    element's due time to the consumer receiving it, and makespan from the
    first due time to the last element received. The broker's delete path
    and the client's poll wait dominate here. The generator and the consumer
    share one interpreter; at 2000/s, a host slowed by half for a minute put
    the generator seconds behind its schedule.
(b) closed loop: COUNT_B elements published in batches of BATCH_B, at most
    WINDOW_B ahead of delivery, drained by an AT_LEAST_ONCE consumer whose
    polls are capped at POLL_CAP_B. Throughput is delivered elements per
    second, the median over SEGMENTS_B equal parts of the phase so that a
    short stall of the machine does not decide it; batching, codec work and
    the broker's lease/commit path dominate here.

Phase (a) latency quantiles are taken in each WINDOW_A_S of due times and
the median over windows is reported: a stall of the host delays every
element queued behind it, and over the whole phase one 100 ms stall sets the
p99 by itself.

Almost all the work is in protocol, codec, client, server, broker and
streams, so a gain on one broker path that costs the other shows.
"""
from __future__ import annotations

import random
import threading
import time

from hybridflow.client import DistroStreamClient
from hybridflow.model import ConsumerMode, StreamKind
from hybridflow.streams import create_stream

from .common import (
    LATE_LIMIT_MS, Result, ServerProcess, no_span, quantile, rss_peak_mb, sleep_until,
    timed_setups,
)

RATE_A = 1000          # elements per second in phase (a)
PHASE_A_SHARE = 0.5    # of --seconds spent publishing in phase (a)
COUNT_B = 400_000      # elements in phase (b)
SEGMENTS_B = 16        # phase (b) rate is the median over this many equal parts
WINDOW_A_S = 2.0       # phase (a) latency quantiles are the median over windows this long
BATCH_B = 100
WINDOW_B = 2000
POLL_CAP_B = 500
POOL = 1024            # distinct seeded payload bodies
DRAIN_S = 30.0         # how long a consumer waits beyond the schedule


class Payloads:
    """Element `seq` is its 4-byte number followed by a seeded body."""

    def __init__(self, rng: random.Random) -> None:
        self.pool = [rng.randbytes(rng.randrange(16, 257)) for _ in range(POOL)]

    def make(self, seq: int) -> bytes:
        return seq.to_bytes(4, "big") + self.pool[seq % POOL]

    def seq_of(self, data: bytes, limit: int) -> int:
        """The element's number, or -1 if it is not one this generator made."""
        seq = int.from_bytes(data[:4], "big")
        if seq >= limit or data[4:] != self.pool[seq % POOL]:
            return -1
        return seq


class _Session:
    """Server process and the two clients, with both phases' streams made."""

    def __init__(self, trace_dir: str | None) -> None:
        self.server = ServerProcess(trace_dir)
        self.clients: list[DistroStreamClient] = []
        try:
            prod = self._client("bench-producer")
            cons = self._client("bench-consumer")
            self.pub_a = create_stream(prod, StreamKind.OBJECT, alias="phase-a")
            self.sub_a = create_stream(cons, StreamKind.OBJECT, alias="phase-a",
                                       consumer_mode=ConsumerMode.EXACTLY_ONCE)
            self.pub_b = create_stream(prod, StreamKind.OBJECT, alias="phase-b")
            self.sub_b = create_stream(cons, StreamKind.OBJECT, alias="phase-b",
                                       consumer_mode=ConsumerMode.AT_LEAST_ONCE)
            warm_pub = create_stream(prod, StreamKind.OBJECT, alias="warm")
            warm_sub = create_stream(cons, StreamKind.OBJECT, alias="warm")
            warm_pub.publish([b"warm"] * 10)
            got = 0
            deadline = time.monotonic() + 10
            while got < 10 and time.monotonic() < deadline:
                got += len(warm_sub.poll(timeout_ms=200))
            if got != 10:
                raise RuntimeError("warm-up elements were not delivered")
        except BaseException:
            self.close()
            raise

    def _client(self, group: str) -> DistroStreamClient:
        client = DistroStreamClient(host=self.server.host, port=self.server.port, group=group)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


def run(seed: int, seconds: float, tracer, trace_dir: str | None) -> Result:
    rng = random.Random(seed)
    payloads_a, payloads_b = Payloads(rng), Payloads(rng)
    span = tracer.span if tracer is not None else no_span
    res = Result()
    session, setups = timed_setups(lambda: _Session(trace_dir))
    try:
        a = _phase_a(session, payloads_a, int(RATE_A * seconds * PHASE_A_SHARE), span)
        b = _phase_b(session, payloads_b, span)
    finally:
        session.close()

    res.attempted = a["attempted"] + b["attempted"]
    res.failed = a["failed"] + b["failed"]
    res.metric("setup_s", quantile(setups, 0.5), "s")
    res.metric("throughput_per_s", b["rate"], "1/s")
    windows = _windows(a["latency"])
    res.metric("latency_p50_ms", quantile([quantile(w, 0.5) for w in windows], 0.5), "ms")
    res.metric("latency_p99_ms", quantile([quantile(w, 0.99) for w in windows], 0.5), "ms")
    res.metric("makespan_s", a["makespan"], "s")
    res.metric("rss_peak_mb", rss_peak_mb(), "MB")
    late_p99, late_max = quantile(a["late"], 0.99), max(a["late"], default=0.0)
    res.note(f"phase a: open loop {RATE_A}/s, {a['attempted']} elements, "
             f"{sum(map(len, windows))} latency samples in {len(windows)} windows of "
             f"{WINDOW_A_S:g} s, lost={a['lost']} "
             f"duplicates={a['duplicates']} corrupt={a['corrupt']} publish_errors={a['errors']}")
    res.note(f"phase a generator lateness: p99={late_p99:.3f} ms max={late_max:.3f} ms"
             + ("  BEHIND SCHEDULE" if late_p99 > LATE_LIMIT_MS else ""))
    res.note(f"phase b: closed loop, {b['attempted']} elements in batches of {BATCH_B}, "
             f"window {WINDOW_B}, polls capped at {POLL_CAP_B}; lost={b['lost']} "
             f"duplicates={b['duplicates']} (allowed) corrupt={b['corrupt']} "
             f"publish_errors={b['errors']}")
    res.layer.update({
        "elements": a["attempted"] - a["lost"] + b["delivered"],
        "late_p99_ms": late_p99,
        "late_max_ms": late_max,
    })
    return res


def _phase_a(session: _Session, payloads: Payloads, count: int, span) -> dict:
    late = [0.0] * count
    errors = [0]
    t0 = time.perf_counter() + 0.05

    def generate() -> None:
        for seq in range(count):
            due = t0 + seq / RATE_A
            sleep_until(due)
            late[seq] = (time.perf_counter() - due) * 1000.0
            try:
                with span("bench.publish", seq):
                    session.pub_a.publish(payloads.make(seq))
            except Exception:  # noqa: BLE001 - a failed publish is counted, not fatal
                errors[0] += 1
        session.pub_a.close()

    gen = threading.Thread(target=generate, name="bench-generator")
    gen.start()
    delivered = bytearray(count)
    latency: list[float | None] = [None] * count  # by sequence number
    corrupt = duplicates = 0
    got = 0
    deadline = t0 + count / RATE_A + DRAIN_S
    sub = session.sub_a
    while got < count and time.perf_counter() < deadline:
        batch = sub.poll(timeout_ms=200)
        now = time.perf_counter()
        if not batch and sub.is_closed():
            batch = sub.poll()
            if not batch:
                break
        for element in batch:
            seq = payloads.seq_of(element.payload, count)
            if seq < 0:
                corrupt += 1
            elif delivered[seq]:
                duplicates += 1
            else:
                delivered[seq] = 1
                got += 1
                latency[seq] = (now - (t0 + seq / RATE_A)) * 1000.0
    makespan = time.perf_counter() - t0
    gen.join()
    # anything still delivered after the last element is a second delivery
    for element in sub.poll():
        if payloads.seq_of(element.payload, count) < 0:
            corrupt += 1
        else:
            duplicates += 1
    lost = count - got
    return {"attempted": count, "failed": lost + duplicates + corrupt,
            "latency": latency, "late": late, "lost": lost, "errors": errors[0],
            "makespan": makespan,
            "duplicates": duplicates, "corrupt": corrupt}


def _windows(latency: list[float | None]) -> list[list[float]]:
    """Delivered elements' latencies per WINDOW_A_S of due times.

    A window with under 1000 samples, too few for a p99, is dropped; a phase
    too short for any full window is one window.
    """
    per = int(RATE_A * WINDOW_A_S)
    samples = [x for x in latency if x is not None]
    windows = [[x for x in latency[i:i + per] if x is not None]
               for i in range(0, len(latency), per)]
    return [w for w in windows if len(w) >= 1000] or [samples]


def _phase_b(session: _Session, payloads: Payloads, span) -> dict:
    cond = threading.Condition()
    progress = {"delivered": 0, "errors": 0}
    t0 = time.perf_counter()
    deadline = t0 + 120.0

    def generate() -> None:
        sent = 0
        while sent < COUNT_B and time.perf_counter() < deadline:
            with cond:
                while (sent - progress["delivered"] >= WINDOW_B
                       and time.perf_counter() < deadline):
                    cond.wait(0.5)
            batch = [payloads.make(seq) for seq in range(sent, min(sent + BATCH_B, COUNT_B))]
            try:
                with span("bench.publish_batch", sent):
                    session.pub_b.publish(batch)
            except Exception:  # noqa: BLE001 - a failed publish is counted, not fatal
                progress["errors"] += len(batch)
            sent += len(batch)
        session.pub_b.close()

    gen = threading.Thread(target=generate, name="bench-generator")
    gen.start()
    delivered = bytearray(COUNT_B)
    corrupt = duplicates = got = 0
    step = COUNT_B // SEGMENTS_B
    marks = [t0]  # when each further `step` elements had been delivered
    sub = session.sub_b
    while got < COUNT_B and time.perf_counter() < deadline:
        batch = sub.poll(timeout_ms=200, max_elements=POLL_CAP_B)
        if not batch and sub.is_closed():
            batch = sub.poll(max_elements=POLL_CAP_B)
            if not batch:
                break
        for element in batch:
            seq = payloads.seq_of(element.payload, COUNT_B)
            if seq < 0:
                corrupt += 1
            elif delivered[seq]:
                duplicates += 1
            else:
                delivered[seq] = 1
                got += 1
        while got >= step * len(marks):
            marks.append(time.perf_counter())
        with cond:
            progress["delivered"] = got
            cond.notify()
    elapsed = time.perf_counter() - t0
    gen.join()
    lost = COUNT_B - got
    rates = [step / (end - start) for start, end in zip(marks, marks[1:]) if end > start]
    return {"attempted": COUNT_B, "failed": lost + corrupt,
            "delivered": got, "elapsed": elapsed, "rate": quantile(rates, 0.5),
            "lost": lost, "errors": progress["errors"],
            "duplicates": duplicates, "corrupt": corrupt}
