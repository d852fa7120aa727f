"""Task methods importable by worker subprocesses in the remote tests."""
import contextvars
import hashlib
import threading
import time


def double(x, out):
    return x * 2


def checksum_blob(blob, out):
    return hashlib.sha256(blob).hexdigest()


def hold_blob(blob, out):
    time.sleep(30)
    return len(blob)


def slow_echo(x, out):
    time.sleep(0.05)
    return x


def thread_name(i, out):
    return threading.current_thread().name


_mark: contextvars.ContextVar[str] = contextvars.ContextVar("mark", default="unset")


def context_mark(i, out):
    """The mark an earlier task left in this context, then leave one."""
    seen = _mark.get()
    _mark.set(f"task {i}")
    return seen


def publish_then_close(stream, n):
    stream.publish([f"m{i}".encode() for i in range(n)])
    stream.close()
    return None


def drain_stream(stream, out):
    got = stream.drain(timeout_ms=15_000)
    return sorted(e.payload.decode() for e in got)
