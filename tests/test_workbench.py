"""Workbench units: gain math, oracle, config parsing, reports, small runs."""
import csv
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridflow.model import ConsumerMode
from hybridflow.workbench import (
    BalanceReport, BenchConfig, CsvLog, GainReport, bench_scalability, gain,
    load_config, oracle_simulate, uc1_makespan, uc2_gain_model,
    uc3_external_stream, uc4_nested,
)
from hybridflow.workbench.config import parse_workers


class TestGain:
    def test_paper_case(self):
        assert gain(100, 77) == 0.23

    def test_equal_times(self):
        assert gain(1234.5, 1234.5) == 0

    def test_slower_hybrid_negative(self):
        assert gain(100, 150) == -0.5

    def test_zero_original(self):
        with pytest.raises(ZeroDivisionError):
            gain(0, 10)

    @given(st.integers(1, 10**6), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_formula_exact_and_bounded(self, orig, hyb):
        g = gain(orig, hyb)
        assert g == (orig - hyb) / orig
        assert g <= 1

    def test_report_gain(self):
        r = GainReport(time_original_ms=200.0, time_hybrid_ms=150.0)
        assert r.gain == 0.25


class TestBalanceReport:
    def test_fractions_sum_to_one(self):
        b = BalanceReport(counts=[75, 25])
        assert abs(sum(b.fractions) - 1.0) <= 1e-9
        assert b.fractions[0] == 0.75

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=16).filter(sum))
    @settings(max_examples=100, deadline=None)
    def test_fractions_sum_property(self, counts):
        b = BalanceReport(counts=counts)
        assert abs(sum(b.fractions) - 1.0) <= 1e-9


class TestOracle:
    def test_hand_computed_three_elements(self):
        # by hand: sim 0-30 on w0; pure procs (25ms) run 30-55, 30-55, 55-80;
        # hybrid: e1 at 10 -> w1 10-35, e2 at 20 -> w0 30-55, e3 at 30 -> w1 35-60
        pure, hybrid = oracle_simulate([1, 1], 1, 3, 10, 25)
        assert pure == 80
        assert hybrid == 60

    def test_hand_computed_with_merge(self):
        pure, hybrid = oracle_simulate([1, 1], 1, 3, 10, 25, merge_ms=5)
        assert pure == 85
        assert hybrid == 65

    def test_zero_process_time_limit(self):
        pure, hybrid = oracle_simulate([1, 1], 1, 3, 10, 0)
        assert pure == hybrid == 30

    def test_single_core_no_overlap(self):
        pure, hybrid = oracle_simulate([1], 1, 5, 10, 25)
        assert pure == hybrid

    def test_paper_shaped_config(self):
        # two nodes (36 and 48 cores), 48-core simulation, 500 elements
        pure, hybrid = oracle_simulate([36, 48], 1, 500, 500, 60_000,
                                       sim_cores=48)
        assert hybrid < pure
        g = (pure - hybrid) / pure
        assert 0.05 < g < 0.5

    def test_hybrid_never_slower(self):
        rng = random.Random(3)
        for _ in range(50):
            workers = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
            pure, hybrid = oracle_simulate(
                workers, rng.randint(1, 2), rng.randint(1, 12),
                rng.randint(1, 50), rng.randint(0, 100))
            assert hybrid <= pure + 1e-9

    def test_uc2_model_zero_exchange_limit(self):
        assert uc2_gain_model(8, 100.0, 0.0, 50.0, 0.0) == 0.0


class TestConfig:
    def test_parse_workers_shapes(self):
        assert parse_workers("8x1") == [1] * 8
        assert parse_workers("2x4") == [4, 4]
        assert parse_workers("36,48") == [36, 48]

    def test_load_file_and_overrides(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# comment\nnum_files = 10\ngeneration_time_ms = 25\nworkers = 4x1\n")
        cfg = load_config(str(path), overrides=["process_time_ms=75"])
        assert cfg.num_files == 10
        assert cfg.generation_time_ms == 25.0
        assert cfg.process_time_ms == 75.0
        assert cfg.worker_cores == [1, 1, 1, 1]

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob = 3\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(num_files=0)
        with pytest.raises(ValueError):
            BenchConfig(generation_time_ms=-1)


class TestCsvLog:
    def test_schema(self, tmp_path):
        log = CsvLog()
        log.add("cfg-a", "HYBRID", "time", 123.4, "ms")
        out = tmp_path / "r.csv"
        log.write(str(out))
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["config_id", "mode", "metric", "value", "unit"]
        assert rows[1][0] == "cfg-a"
        assert float(rows[1][3]) == 123.4


class TestSmallRuns:
    def test_uc3_at_least_once_crash(self):
        cfg = BenchConfig(payloads=24, filters=3, feeder_gap_ms=1,
                          workers="6x1", tick_ms=10, lease_ms=400)
        result = uc3_external_stream(3, 24, cfg,
                                     mode=ConsumerMode.AT_LEAST_ONCE,
                                     crash_filter=True)
        assert result.failed_filters == 1
        assert result.unique == 24
        assert result.total >= 24
        assert result.duplicates == result.total - result.unique
        assert result.duplicates >= 1  # redelivery across the crash
        assert result.ok

    def test_uc4_uneven_batches(self):
        cfg = BenchConfig(payloads=25, batch_size=10, feeder_gap_ms=1,
                          workers="4x1", tick_ms=10)
        result = uc4_nested(10, 25, cfg)
        assert result.subtasks == math.ceil(25 / 10) == 3
        assert result.ok

    def test_uc4_batch_one(self):
        cfg = BenchConfig(payloads=8, batch_size=1, feeder_gap_ms=1,
                          workers="4x1", tick_ms=10)
        result = uc4_nested(1, 8, cfg)
        assert result.subtasks == 8
        assert result.ok

    def test_measured_hybrid_at_least_oracle_bound(self):
        # the simulator has zero overheads, so it lower-bounds real makespans
        from hybridflow.workbench import uc1_continuous
        cfg = BenchConfig(num_files=8, generation_time_ms=20,
                          process_time_ms=80, reps=1, workers="4x1",
                          tick_ms=10, stream_kind="OBJECT")
        result = uc1_continuous(cfg)
        assert result.ok
        assert result.report.time_hybrid_ms >= result.oracle_hybrid_ms - 1.0
        assert result.report.time_original_ms >= result.oracle_pure_ms - 1.0

    def test_capped_poll_fair_queue(self):
        # non-default knob: poll capped at one element balances readers
        cfg = BenchConfig(payloads=100, writer_gap_ms=2, process_time_ms=40,
                          reader_ramp_ms=80, tick_ms=10, poll_cap=1)
        _, runs = bench_scalability(cfg, writers_list=[1], readers_list=[2])
        run = runs[(1, 2)]
        assert run.ok
        hi, lo = max(run.balance.counts), min(run.balance.counts)
        assert lo > 0
        assert hi / lo <= 2.0


class TestCli:
    def test_bench_uc4_exit_code_and_csv(self, tmp_path):
        from hybridflow.workbench.cli import main
        out = tmp_path / "uc4.csv"
        code = main(["bench", "uc4", "--out", str(out),
                     "--set", "payloads=12", "--set", "batch_size=5",
                     "--set", "feeder_gap_ms=1", "--set", "workers=4x1",
                     "--set", "tick_ms=10"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["config_id", "mode", "metric", "value", "unit"]
        metrics = {r[2] for r in rows[1:]}
        assert "subtasks" in metrics
        assert "conserved" in metrics
