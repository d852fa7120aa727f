"""Benchmark configuration: defaults, key=value config files, validation."""
from __future__ import annotations

from dataclasses import dataclass, field, fields


def parse_workers(spec: str) -> list[int]:
    """Deployment shape: '8x1' is eight single-core slots, '36,48' explicit."""
    spec = spec.strip()
    if "x" in spec:
        count_raw, _, cores_raw = spec.partition("x")
        return [int(cores_raw)] * int(count_raw)
    return [int(part) for part in spec.split(",") if part]


def parse_int_list(spec: str) -> list[int]:
    return [int(part) for part in str(spec).split(",") if part != ""]


@dataclass
class BenchConfig:
    # continuous-generation experiment
    num_sims: int = 1
    num_files: int = 50            # elements per simulation
    generation_time_ms: float = 50.0
    process_time_ms: float = 500.0
    merge_time_ms: float = 0.0
    sim_cores: int = 1
    stream_kind: str = "FILE"      # uc1 backend: FILE (directory monitor) or OBJECT
    # scalability experiment
    readers: int = 2
    writers: int = 1
    payload_bytes: int = 24
    writer_gap_ms: float = 10.0
    reader_ramp_ms: float = 150.0
    poll_cap: int = 0              # 0 = unlimited poll batches
    # iterative-exchange experiment
    iterations: int = 4
    computations: int = 2
    compute_time_ms: float = 400.0
    exchange_time_ms: float = 100.0
    init_time_ms: float = 500.0
    # external-stream / nested experiments
    filters: int = 4
    payloads: int = 100
    batch_size: int = 10
    feeder_gap_ms: float = 2.0
    # lifecycle experiment
    sizes: list[int] = field(default_factory=lambda: [65536, 262144, 1048576])
    counts: list[int] = field(default_factory=lambda: [1, 4, 16])
    lifecycle_tasks: int = 100
    # deployment and measurement
    workers: str = "8x1"
    reps: int = 5
    seed: int = 1
    tick_ms: int = 25
    lease_ms: int = 30_000

    def __post_init__(self):
        for name in ("num_sims", "num_files", "readers", "writers",
                     "computations", "filters", "payloads", "batch_size",
                     "iterations", "payload_bytes", "reps", "lifecycle_tasks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("generation_time_ms", "process_time_ms", "merge_time_ms",
                     "compute_time_ms", "exchange_time_ms", "init_time_ms",
                     "writer_gap_ms", "reader_ramp_ms", "feeder_gap_ms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.stream_kind not in ("FILE", "OBJECT"):
            raise ValueError(f"unknown stream_kind {self.stream_kind!r}")

    @property
    def worker_cores(self) -> list[int]:
        return parse_workers(self.workers)

    def config_id(self) -> str:
        return (f"sims{self.num_sims}-e{self.num_files}-g{self.generation_time_ms:g}"
                f"-p{self.process_time_ms:g}-w{self.workers}")


_FIELD_TYPES = {f.name: f.type for f in fields(BenchConfig)}
_LIST_FIELDS = {"sizes", "counts"}
_FLOAT_FIELDS = {
    "generation_time_ms", "process_time_ms", "merge_time_ms", "compute_time_ms",
    "exchange_time_ms", "init_time_ms", "writer_gap_ms", "reader_ramp_ms",
    "feeder_gap_ms",
}
_STR_FIELDS = {"workers", "stream_kind"}


def apply_setting(cfg_kwargs: dict, key: str, value: str) -> None:
    key = key.strip()
    value = value.strip()
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    if key in _LIST_FIELDS:
        cfg_kwargs[key] = parse_int_list(value)
    elif key in _FLOAT_FIELDS:
        cfg_kwargs[key] = float(value)
    elif key in _STR_FIELDS:
        cfg_kwargs[key] = value
    else:
        cfg_kwargs[key] = int(value)


def load_config(path: str | None, overrides: list[str] | None = None) -> BenchConfig:
    """Build a BenchConfig from a key=value file plus key=value overrides."""
    kwargs: dict = {}
    if path is not None:
        with open(path) as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                apply_setting(kwargs, key, value)
    for override in overrides or []:
        if "=" not in override:
            raise ValueError(f"override {override!r}: expected key=value")
        key, _, value = override.partition("=")
        apply_setting(kwargs, key, value)
    return BenchConfig(**kwargs)
