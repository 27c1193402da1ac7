"""Tests for endurance/wear monitoring."""

import numpy as np
import pytest

from repro.core.pinatubo import PinatuboSystem
from repro.memsim.geometry import MemoryGeometry
from repro.memsim.mainmem import MainMemory
from repro.nvm.technology import get_technology
from repro.runtime.api import PimRuntime
from repro.runtime.wear import WearMonitor


GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=1,
    subarrays_per_bank=2,
    rows_per_subarray=32,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)


@pytest.fixture
def memory():
    return MainMemory(GEOM)


@pytest.fixture
def monitor(memory):
    return WearMonitor(memory, get_technology("pcm"))


def _write(memory, frame, times=1, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(times):
        memory.write_frame(
            frame, rng.integers(0, 256, GEOM.row_bytes).astype(np.uint8)
        )


class TestReport:
    def test_empty_memory(self, monitor):
        report = monitor.report()
        assert report.frames_written == 0
        assert report.imbalance == 0.0

    def test_counts(self, memory, monitor):
        _write(memory, 0, times=5)
        _write(memory, 1, times=1)
        report = monitor.report()
        assert report.frames_written == 2
        assert report.total_writes == 6
        assert report.max_writes == 5
        assert report.mean_writes == pytest.approx(3.0)
        assert report.hottest[0] == (0, 5)

    def test_imbalance(self, memory, monitor):
        _write(memory, 0, times=9)
        _write(memory, 1, times=1)
        assert monitor.report().imbalance == pytest.approx(9 / 5)

    def test_hot_list_capped(self, memory):
        for f in range(12):
            _write(memory, f)
        monitor = WearMonitor(memory, hot_list_size=4)
        assert len(monitor.report().hottest) == 4

    def test_validation(self, memory):
        with pytest.raises(ValueError):
            WearMonitor(memory, hot_list_size=0)


class TestEnduranceBudget:
    def test_remaining_endurance(self, memory, monitor):
        _write(memory, 0, times=3)
        expected = 1.0 - 3 / get_technology("pcm").endurance
        assert monitor.remaining_endurance(0) == pytest.approx(expected)
        assert monitor.remaining_endurance(1) == 1.0

    def test_lifetime_estimate(self, memory, monitor):
        _write(memory, 0, times=100)
        years = monitor.lifetime_years(elapsed_seconds=1.0)
        # 100 writes/s against ~1e8 endurance -> ~11.6 days; well under 1y
        assert 0 < years < 0.1

    def test_lifetime_infinite_when_idle(self, monitor):
        assert monitor.lifetime_years(10.0) == float("inf")

    def test_lifetime_validation(self, monitor):
        with pytest.raises(ValueError):
            monitor.lifetime_years(0.0)

    def test_over_budget(self, memory):
        scaled = get_technology("pcm").scaled(endurance=10.0)
        monitor = WearMonitor(memory, scaled)
        _write(memory, 3, times=15)
        _write(memory, 4, times=5)
        assert monitor.over_budget_frames() == [3]
        assert monitor.over_budget_frames(budget_fraction=0.3) == [3, 4]
        with pytest.raises(ValueError):
            monitor.over_budget_frames(0.0)


class TestTelemetryPublish:
    def test_publish_pushes_counters_and_gauges(self, memory, monitor):
        from repro import telemetry

        telemetry.reset()
        _write(memory, 0, times=4)
        _write(memory, 1, times=2)
        report = monitor.publish()
        assert report.total_writes == 6
        agg = telemetry.aggregate()
        assert agg["counters"]["runtime.wear.total_writes"] == 6
        assert agg["counters"]["runtime.wear.frames_written"] == 2
        assert agg["gauges"]["runtime.wear.max_writes"] == 4.0
        assert agg["gauges"]["runtime.wear.imbalance"] == pytest.approx(4 / 3)
        telemetry.reset()

    def test_repeated_publish_adds_only_deltas(self, memory, monitor):
        from repro import telemetry

        telemetry.reset()
        _write(memory, 0, times=3)
        monitor.publish()
        monitor.publish()  # nothing new: counters must not double
        agg = telemetry.aggregate()
        assert agg["counters"]["runtime.wear.total_writes"] == 3
        _write(memory, 1, times=2)
        monitor.publish()
        agg = telemetry.aggregate()
        assert agg["counters"]["runtime.wear.total_writes"] == 5
        assert agg["counters"]["runtime.wear.frames_written"] == 2
        telemetry.reset()

    def test_mainmem_live_counter_tracks_every_write(self, memory):
        from repro import telemetry

        telemetry.reset()
        _write(memory, 0, times=3)
        _write(memory, 5, times=1)
        agg = telemetry.aggregate()
        assert agg["counters"]["memsim.mainmem.frame_writes"] == 4
        telemetry.reset()


class TestPimWorkloadWear:
    def test_accumulator_rows_run_hot(self):
        """A PIM accumulation loop concentrates wear on the destination --
        the pattern the monitor exists to expose."""
        rt = PimRuntime(PinatuboSystem.pcm(geometry=GEOM))
        rng = np.random.default_rng(1)
        acc = rt.pim_malloc(GEOM.row_bits, "g")
        rt.pim_write(acc, rng.integers(0, 2, GEOM.row_bits).astype(np.uint8))
        for i in range(10):
            v = rt.pim_malloc(GEOM.row_bits, "g")
            rt.pim_write(v, rng.integers(0, 2, GEOM.row_bits).astype(np.uint8))
            rt.pim_op("xor", acc, [acc, v])
        monitor = WearMonitor(rt.system.memory)
        report = monitor.report()
        assert report.hottest[0][0] == acc.frames[0]
        assert report.imbalance > 3


class TestMaintainedWear:
    """``publish()`` reads the totals ``MainMemory`` maintains on every
    write; they must agree with ``report()``'s full scan."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_publish_matches_report_after_random_writes(self, monkeypatch, seed):
        from repro import telemetry
        from repro.memsim import mainmem

        # 4 frames per storage block, so batches straddle blocks
        monkeypatch.setattr(mainmem, "_BLOCK_BYTES", 4 * GEOM.row_bytes)
        memory = MainMemory(GEOM)
        assert memory._block_rows == 4
        monitor = WearMonitor(memory)
        rng = np.random.default_rng(seed)
        n_frames = GEOM.total_rows
        for _ in range(40):
            if rng.random() < 0.4:
                frame = int(rng.integers(0, n_frames))
                memory.write_frame(
                    frame, rng.integers(0, 256, GEOM.row_bytes, dtype=np.uint8)
                )
            else:
                # duplicates within one call and frames from several blocks
                frames = rng.integers(0, n_frames, int(rng.integers(1, 12)))
                rows = rng.integers(
                    0, 256, (frames.size, GEOM.row_bytes), dtype=np.uint8
                )
                memory.write_frames(frames.tolist(), rows)
            published = monitor.publish()
            full = monitor.report()
            assert published.hottest == []
            assert published.frames_written == full.frames_written
            assert published.total_writes == full.total_writes
            assert published.max_writes == full.max_writes
            assert published.mean_writes == pytest.approx(full.mean_writes)
            assert memory.frames_written == full.frames_written
            gauges = telemetry.aggregate()["gauges"]
            assert gauges["runtime.wear.max_writes"] == full.max_writes
            assert gauges["runtime.wear.mean_writes"] == pytest.approx(
                full.mean_writes
            )
            assert gauges["runtime.wear.imbalance"] == pytest.approx(
                full.imbalance
            )

    def test_duplicate_frame_in_one_call_counts_once(self, memory):
        rows = np.zeros((3, GEOM.row_bytes), dtype=np.uint8)
        memory.write_frames([7, 7, 7], rows)
        assert memory.frames_written == 1
        assert memory.max_writes == 3
        assert memory.total_writes == 3
        assert memory.write_histogram() == {7: 3}
