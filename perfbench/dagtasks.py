"""Task function of the `dag` workload, imported by the remote worker.

Each value travels as (bytes, body start, body end); the times are
perf_counter readings, which share one clock across processes on Linux.
"""
from __future__ import annotations

import hashlib
import time
import zlib


def derive(values: list[bytes]) -> bytes:
    """Output of a task: as long as its first input, a function of all inputs."""
    h = hashlib.blake2b(digest_size=32)
    for value in values:
        h.update(zlib.crc32(value).to_bytes(4, "big"))
    digest = h.digest()
    size = len(values[0])
    return (digest * (size // 32 + 1))[:size]


def step(*args):
    start = time.perf_counter()
    value = derive([v[0] for v in args[:-1]])  # the last argument is the OUT slot
    return value, start, time.perf_counter()
