"""Worker process: joins a master, executes dispatched tasks on its slots.

The process runs one long-lived slot thread per core. The receive loop only
decodes and queues each TASK payload; a free slot thread takes it, runs it and
sends its TRESULT. The master never dispatches past the worker's free cores,
so a task never waits behind another for a slot thread. A slot outlives every
task it runs: whatever a task raises becomes a failed result.
"""
from __future__ import annotations

import argparse
import contextvars
import importlib
import os
import queue
import socket
import sys
import threading
import uuid

from .. import protocol
from ..client import DistroStreamClient
from ..errors import ProtocolError
from . import registry
from .execution import TaskOutcome, TaskPayload, run_task


class WorkerProcess:
    def __init__(self, master_host: str, master_port: int, cores: int,
                 worker_id: str | None = None) -> None:
        self.cores = cores
        self.worker_id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        raw = socket.create_connection((master_host, master_port), timeout=10)
        raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        raw.settimeout(None)
        self.conn = protocol.Connection(raw)
        self.conn.send(protocol.Frame(verb="WHELLO",
                                      fields=[str(cores), self.worker_id],
                                      corr_id="hello"))
        reply = self.conn.recv()
        if reply is None or reply.verb != "OK":
            raise ProtocolError("master rejected WHELLO")
        self.app_group = reply.fields[0] or None
        self.stream_client: DistroStreamClient | None = None
        if len(reply.fields) > 2 and reply.fields[1]:
            self.stream_client = DistroStreamClient(
                host=reply.fields[1], port=int(reply.fields[2]),
                group=self.app_group)

    def run(self) -> None:
        """Receive TASK frames until the master disconnects or sends WSTOP."""
        tasks: queue.SimpleQueue[TaskPayload | None] = queue.SimpleQueue()
        slots = [threading.Thread(target=self._serve, args=(tasks,),
                                  name=f"slot-{i}", daemon=True)
                 for i in range(self.cores)]
        for slot in slots:
            slot.start()
        try:
            while True:
                try:
                    frame = self.conn.recv()
                except (ProtocolError, OSError):
                    break
                if frame is None or frame.verb == "WSTOP":
                    break
                if frame.verb == "TASK":
                    # a frame that does not decode ends the worker here: the
                    # master sees the connection close and retries the task
                    tasks.put(TaskPayload.from_wire(frame.payload))
        finally:
            for _ in slots:
                tasks.put(None)
            if self.stream_client is not None:
                self.stream_client.close()
            self.conn.close()

    def _serve(self, tasks: queue.SimpleQueue[TaskPayload | None]) -> None:
        """One slot: run queued tasks in turn until the stop sentinel.

        Each task runs in a fresh contextvars context, as it would on a thread
        of its own; thread-local state persists across tasks on the slot.
        """
        while (payload := tasks.get()) is not None:
            outcome = contextvars.Context().run(
                run_task, payload, registry.resolve, self.stream_client, self.app_group)
            self._send_result(outcome)

    def _send_result(self, outcome: TaskOutcome) -> None:
        try:
            self.conn.send(protocol.Frame(verb="TRESULT",
                                          fields=[str(outcome.task_id)],
                                          corr_id="0", payload=outcome.to_wire()))
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridflow-worker",
        description="Join a hybridflow master and execute tasks.")
    parser.add_argument("--master", required=True, metavar="HOST:PORT")
    parser.add_argument("--cores", type=int, default=1)
    parser.add_argument("--import", dest="imports", action="append", default=[],
                        metavar="MODULE", help="import MODULE to register task methods")
    parser.add_argument("--worker-id", default=None)
    args = parser.parse_args(argv)
    for module in args.imports:
        importlib.import_module(module)
    host, _, port = args.master.rpartition(":")
    worker = WorkerProcess(host or "127.0.0.1", int(port), args.cores,
                           worker_id=args.worker_id)
    worker.run()
    return 0


if __name__ == "__main__":
    sys.exit(main())
