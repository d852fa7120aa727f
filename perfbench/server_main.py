"""Stream server process for the `stream` and `hybrid` workloads.

Prints the bound port on stdout, serves until stdin closes, then stops. With
--trace-dir it installs the tracer first and dumps it there on exit.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), p)
                for p in ("src", "")]

from hybridflow.server import StreamServer  # noqa: E402

from perfbench.tracer import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()
    tracer = None
    if args.trace_dir:
        tracer = Tracer()
        install(tracer)
    server = StreamServer(host="127.0.0.1", port=0)
    server.start()
    try:
        print(server.port, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_dir, "server")
    return 0


if __name__ == "__main__":
    sys.exit(main())
