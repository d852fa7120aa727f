"""Remote worker process for the `dag` workload.

Runs `hybridflow.runtime.worker` with the checkout's `src` and the benchmark's
task functions importable. With --trace-dir it installs the tracer first and
dumps it there once the master stops the worker.
"""
from __future__ import annotations

import os
import sys

sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), p)
                for p in ("src", "")]

from hybridflow.runtime import worker  # noqa: E402

from perfbench.tracer import Tracer, install  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    trace_dir = None
    if "--trace-dir" in argv:
        at = argv.index("--trace-dir")
        trace_dir = argv[at + 1]
        del argv[at:at + 2]
    tracer = None
    if trace_dir:
        tracer = Tracer()
        install(tracer)
    code = worker.main(argv)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(trace_dir, "worker")
    return code


if __name__ == "__main__":
    sys.exit(main())
