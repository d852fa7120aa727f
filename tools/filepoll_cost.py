"""Round trip of an empty FILE-stream poll against the number of seen files.

For each directory size it starts a stream server process with its default
monitor tick, fills a directory with that many files, registers a FILE stream
over it and consumes every path, so each file is seen. Once the racy window
of each directory's last change has passed, it times `reps` non-blocking
polls per size that find nothing, taking one poll of each size in turn so
that a slower spell of the machine weighs on every size alike. Each row is
printed as one JSON object:

    {layer, metric, value, unit, params, reps, spread}

where `value` is the median round trip and `spread` the distance between its
quartiles over the median. No gate is applied.

    PYTHONPATH=src python3 tools/filepoll_cost.py [--reps 300]
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

from hybridflow.client import DistroStreamClient
from hybridflow.dirmon import DEFAULT_TICK_MS
from hybridflow.model import StreamKind
from hybridflow.streams import DistroStream, create_stream

SIZES = (0, 2000, 20000)
# longer than the monitor's 2 s racy window, so each idle directory has
# settled into its steady state before the polls are timed
SETTLE_S = 2.5
# each server runs in its own process, as in a deployment, so that its
# threads do not share an interpreter lock with the timed client
SERVER = """
import sys
from hybridflow.server import StreamServer
server = StreamServer(host="127.0.0.1", port=0)
server.start()
print(server.port, flush=True)
sys.stdin.read()
server.stop()
"""


@contextlib.contextmanager
def seen_stream(seen: int):
    """A FILE stream over `seen` files, every one already consumed."""
    server = subprocess.Popen([sys.executable, "-c", SERVER], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True)
    try:
        with tempfile.TemporaryDirectory(prefix="filepoll-") as base:
            client = DistroStreamClient(host="127.0.0.1", port=int(server.stdout.readline()))
            try:
                for i in range(seen):
                    with open(os.path.join(base, f"f{i:06d}"), "wb") as fh:
                        fh.write(b"x")
                stream = create_stream(client, StreamKind.FILE, base_dir=base)
                got = 0
                while got < seen:
                    batch = stream.poll(timeout_ms=5000)
                    if not batch:
                        raise RuntimeError(f"only {got} of {seen} files delivered")
                    got += len(batch)
                yield stream
            finally:
                client.close()
    finally:
        server.communicate(timeout=10)  # closing stdin stops the server


def empty_poll_us(stream: DistroStream) -> float:
    start = time.perf_counter()
    if stream.poll():
        raise RuntimeError("a poll of an idle directory returned files")
    return (time.perf_counter() - start) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=300, help="timed polls per size")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(seen_stream(seen)) for seen in SIZES]
        time.sleep(SETTLE_S)
        samples: list[list[float]] = [[] for _ in SIZES]
        for rep in range(args.reps):
            for k in range(len(SIZES)):
                i = (rep + k) % len(SIZES)
                samples[i].append(empty_poll_us(streams[i]))
    for seen, times in zip(SIZES, samples):
        q1, median, q3 = statistics.quantiles(times, n=4)
        print(json.dumps({
            "layer": "server", "metric": "file_poll_empty_rtt_us_p50",
            "value": round(median, 1), "unit": "us",
            "params": {"seen_files": seen, "tick_ms": DEFAULT_TICK_MS},
            "reps": args.reps, "spread": round((q3 - q1) / median, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
