"""Endurance monitoring for the NVM main memory.

PCM cells wear out (~1e8 programs in the catalog); a PIM system that
repeatedly writes operation results to the same accumulator rows
concentrates wear exactly where conventional wear-levelling (which sees
only host writes) cannot.  This module watches the functional memory's
per-frame program counts and answers the questions an operator would
ask: how skewed is the wear, which rows are hot, and how long until the
hottest row dies at the observed rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.memsim.mainmem import MainMemory
from repro.nvm.technology import NVMTechnology, get_technology

SECONDS_PER_YEAR = 365.25 * 24 * 3600.0

# wear rolled up into the process-wide telemetry registry: counters for
# the monotone quantities, gauges for the distribution shape
_TOTAL_WRITES = telemetry.counter("runtime.wear.total_writes")
_FRAMES_WRITTEN = telemetry.counter("runtime.wear.frames_written")
_MAX_WRITES = telemetry.gauge("runtime.wear.max_writes")
_MEAN_WRITES = telemetry.gauge("runtime.wear.mean_writes")
_IMBALANCE = telemetry.gauge("runtime.wear.imbalance")


@dataclass
class WearReport:
    """Snapshot of write-wear across the memory."""

    frames_written: int
    total_writes: int
    max_writes: int
    mean_writes: float
    hottest: list  # [(frame, writes)], descending, capped

    @property
    def imbalance(self) -> float:
        """Max-to-mean write ratio (1.0 = perfectly level)."""
        if self.mean_writes == 0:
            return 0.0
        return self.max_writes / self.mean_writes


class WearMonitor:
    """Tracks frame wear against the technology's endurance budget."""

    def __init__(
        self,
        memory: MainMemory,
        technology: NVMTechnology = None,
        hot_list_size: int = 8,
    ):
        if hot_list_size < 1:
            raise ValueError("hot_list_size must be positive")
        self.memory = memory
        self.technology = technology or get_technology("pcm")
        self.hot_list_size = hot_list_size
        # last values published to the counter registry, so repeated
        # publish() calls add only the delta (counters are monotone)
        self._published_total = 0
        self._published_frames = 0

    def report(self) -> WearReport:
        histogram = self.memory.write_histogram()
        if not histogram:
            return WearReport(0, 0, 0, 0.0, [])
        writes = list(histogram.values())
        hottest = sorted(histogram.items(), key=lambda kv: kv[1], reverse=True)
        return WearReport(
            frames_written=len(histogram),
            total_writes=sum(writes),
            max_writes=max(writes),
            mean_writes=sum(writes) / len(writes),
            hottest=hottest[: self.hot_list_size],
        )

    def publish(self) -> WearReport:
        """Push the current wear snapshot into the telemetry registry.

        Counters (``runtime.wear.total_writes`` / ``.frames_written``)
        accumulate deltas since this monitor's last publish, so calling
        after every workload phase keeps them monotone; gauges
        (``.max_writes`` / ``.mean_writes`` / ``.imbalance``) hold the
        latest snapshot.  The aggregate shows up in
        :func:`repro.telemetry.summary` and the exit report.

        O(1): it reads the totals :class:`MainMemory` maintains on every
        write, so the serving layer can publish after every drain.  The
        returned report carries :meth:`report`'s numeric fields with an
        empty ``hottest`` list; :meth:`report` is the on-demand full
        scan that ranks frames.
        """
        memory = self.memory
        total = memory.total_writes
        frames = memory.frames_written
        report = WearReport(
            frames_written=frames,
            total_writes=total,
            max_writes=memory.max_writes,
            mean_writes=total / frames if frames else 0.0,
            hottest=[],
        )
        _TOTAL_WRITES.add(total - self._published_total)
        _FRAMES_WRITTEN.add(frames - self._published_frames)
        self._published_total = total
        self._published_frames = frames
        _MAX_WRITES.set(report.max_writes)
        _MEAN_WRITES.set(report.mean_writes)
        _IMBALANCE.set(report.imbalance)
        return report

    def remaining_endurance(self, frame: int) -> float:
        """Fraction of the frame's program budget still unused."""
        used = self.memory.frame_writes(frame)
        return max(0.0, 1.0 - used / self.technology.endurance)

    def lifetime_years(self, elapsed_seconds: float) -> float:
        """Years until the hottest frame exhausts its endurance, if the
        observed write rate continues."""
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        report = self.report()
        if report.max_writes == 0:
            return float("inf")
        rate = report.max_writes / elapsed_seconds  # writes/s on the hot frame
        remaining = self.technology.endurance - report.max_writes
        if remaining <= 0:
            return 0.0
        return remaining / rate / SECONDS_PER_YEAR

    def over_budget_frames(self, budget_fraction: float = 1.0) -> list:
        """Frames whose program count exceeds a fraction of endurance."""
        if budget_fraction <= 0:
            raise ValueError("budget_fraction must be positive")
        limit = self.technology.endurance * budget_fraction
        return sorted(
            frame
            for frame, writes in self.memory.write_histogram().items()
            if writes > limit
        )
