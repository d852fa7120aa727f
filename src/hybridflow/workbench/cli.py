"""Command line: stream server, worker wrapper, and the benchmark suite.

Benchmark runs write one CSV (config_id, mode, metric, value, unit) per
invocation and exit non-zero if any conservation check failed.
"""
from __future__ import annotations

import argparse
import logging
import sys

from ..model import ConsumerMode
from ..server import DEFAULT_HOST, DEFAULT_PORT, StreamServer
from .benches import bench_lifecycle, bench_scalability, crossover_table
from .config import load_config, parse_int_list
from .reports import CsvLog
from .usecases import uc1_continuous, uc2_async_exchange, uc3_external_stream, uc4_nested


def _cmd_server(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    server = StreamServer(host=args.host, port=args.port, tick_ms=args.tick_ms)
    server.serve()
    return 0


def _cmd_worker(args) -> int:
    from ..runtime.worker import main as worker_main
    argv = ["--master", args.master, "--cores", str(args.cores)]
    for module in args.imports:
        argv += ["--import", module]
    return worker_main(argv)


def _bench_uc1(cfg, log: CsvLog) -> bool:
    result = uc1_continuous(cfg)
    cid = cfg.config_id()
    log.add(cid, "PURE_TASK", "time", result.report.time_original_ms, "ms")
    log.add(cid, "HYBRID", "time", result.report.time_hybrid_ms, "ms")
    log.add(cid, "HYBRID", "gain", result.report.gain, "fraction")
    log.add(cid, "ORACLE", "time_pure", result.oracle_pure_ms, "ms")
    log.add(cid, "ORACLE", "time_hybrid", result.oracle_hybrid_ms, "ms")
    log.add(cid, "ORACLE", "gain", result.oracle_gain, "fraction")
    log.add(cid, "HYBRID", "conserved", float(result.ok), "bool")
    return result.ok


def _bench_uc2(cfg, log: CsvLog) -> bool:
    result = uc2_async_exchange(cfg.iterations, cfg.computations, cfg)
    cid = f"uc2-i{cfg.iterations}-c{cfg.computations}"
    log.add(cid, "PURE_TASK", "time", result.pure_ms, "ms")
    log.add(cid, "HYBRID", "time", result.hybrid_ms, "ms")
    log.add(cid, "HYBRID", "gain", result.report.gain, "fraction")
    log.add(cid, "HYBRID", "conserved", float(result.ok), "bool")
    return result.ok


def _bench_uc3(cfg, log: CsvLog) -> bool:
    result = uc3_external_stream(cfg.filters, cfg.payloads, cfg,
                                 mode=ConsumerMode.EXACTLY_ONCE)
    cid = f"uc3-f{cfg.filters}-p{cfg.payloads}"
    log.add(cid, "HYBRID", "total", result.total, "count")
    log.add(cid, "HYBRID", "unique", result.unique, "count")
    log.add(cid, "HYBRID", "duplicates", result.duplicates, "count")
    log.add(cid, "HYBRID", "conserved", float(result.ok), "bool")
    return result.ok


def _bench_uc4(cfg, log: CsvLog) -> bool:
    result = uc4_nested(cfg.batch_size, cfg.payloads, cfg)
    cid = f"uc4-b{cfg.batch_size}-p{cfg.payloads}"
    log.add(cid, "HYBRID", "subtasks", result.subtasks, "count")
    log.add(cid, "HYBRID", "expected_subtasks", result.expected_subtasks, "count")
    log.add(cid, "HYBRID", "total", result.total, "count")
    log.add(cid, "HYBRID", "conserved", float(result.ok), "bool")
    return result.ok


def _bench_scale(cfg, log: CsvLog, readers: list[int], writers: list[int]) -> bool:
    _, runs = bench_scalability(cfg, writers_list=writers, readers_list=readers,
                                log=log)
    return all(run.ok for run in runs.values())


def _bench_lifecycle(cfg, log: CsvLog) -> bool:
    _, results = bench_lifecycle(cfg, log=log)
    for size, count, op_total, sp_total in crossover_table(results):
        log.add(f"life-cross-s{size}-n{count}", "BOTH", "stream_beats_object",
                float(sp_total < op_total), "bool")
    return all(r.ok for r in results)


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, args.set)
    log = CsvLog()
    if args.which == "uc1":
        ok = _bench_uc1(cfg, log)
    elif args.which == "uc2":
        ok = _bench_uc2(cfg, log)
    elif args.which == "uc3":
        ok = _bench_uc3(cfg, log)
    elif args.which == "uc4":
        ok = _bench_uc4(cfg, log)
    elif args.which == "scale":
        readers = parse_int_list(args.readers) if args.readers else [cfg.readers]
        writers = parse_int_list(args.writers) if args.writers else [cfg.writers]
        ok = _bench_scale(cfg, log, readers, writers)
    elif args.which == "lifecycle":
        ok = _bench_lifecycle(cfg, log)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)
    if args.out:
        log.write(args.out)
    for row in log.rows:
        print(",".join(str(v) for v in row))
    print(f"# conservation: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hybridflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p_server = sub.add_parser("server", help="run the stream metadata server")
    p_server.add_argument("--host", default=DEFAULT_HOST)
    p_server.add_argument("--port", type=int, default=DEFAULT_PORT)
    p_server.add_argument("--tick-ms", type=int, default=200)
    p_server.set_defaults(fn=_cmd_server)

    p_worker = sub.add_parser("worker", help="run a task worker process")
    p_worker.add_argument("--master", required=True, metavar="HOST:PORT")
    p_worker.add_argument("--cores", type=int, default=1)
    p_worker.add_argument("--import", dest="imports", action="append", default=[])
    p_worker.set_defaults(fn=_cmd_worker)

    p_bench = sub.add_parser("bench", help="run a benchmark")
    p_bench.add_argument("which",
                         choices=["uc1", "uc2", "uc3", "uc4", "scale", "lifecycle"])
    p_bench.add_argument("--config", default=None, help="key=value config file")
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", help="override a config value")
    p_bench.add_argument("--readers", default=None, help="scale: reader sweep, e.g. 1,2,8")
    p_bench.add_argument("--writers", default=None, help="scale: writer sweep")
    p_bench.set_defaults(fn=_cmd_bench)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
