"""Memoised host read/write pricing equals the reference interpreter.

``PinatuboExecutor.write_vector`` / ``read_vector`` price one frozen
:class:`CommandBatch` per transfer shape -- the ``(channel, bits)`` of
each row frame -- through the controller's price memo.  Every call,
first or repeat, must account exactly what the paper's host stream
(ACT, [SENSE,] RD/WR, PRE per frame, frames serialised) costs when
re-priced one fenced segment at a time through the reference
``MemoryController.execute``; memo hits must replay the exact floats a
fresh full pricing pass computes; and the memo stays within its cap.
"""

import numpy as np
import pytest

from repro.core import executor as executor_mod
from repro.core.executor import PinatuboExecutor
from repro.memsim.address import RowAddress
from repro.memsim.controller import (
    Command,
    CommandBatch,
    CommandKind,
    ExecutionStats,
    MemoryController,
)
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology

REL = 1e-12

GEOM = MemoryGeometry(
    channels=2,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=64,
    mats_per_subarray=1,
    cols_per_mat=2048,
    mux_ratio=8,
)


def make_executor():
    return PinatuboExecutor(geometry=GEOM, technology=get_technology("pcm"))


def frames_on(ex, channels):
    """One free frame per entry of ``channels`` (row index advances)."""
    return [
        ex.mapper.encode(RowAddress(ch, 0, i % 2, 1, i))
        for i, ch in enumerate(channels)
    ]


def host_segments(ex, frames, n_bits, read):
    """The paper's host stream for one transfer, one list per frame."""
    out = []
    remaining = n_bits
    for frame in frames:
        take = min(remaining, GEOM.row_bits)
        ch = ex.mapper.channel_of(frame)
        seg = [Command(CommandKind.ACT, channel=ch, n_bits=take)]
        if read:
            seg.append(Command(
                CommandKind.PIM_SENSE, channel=ch, n_bits=take,
                n_steps=GEOM.sense_steps_for_bits(take),
            ))
        seg.append(Command(
            CommandKind.RD if read else CommandKind.WR, channel=ch,
            n_bits=take, transfer_bytes=-(-take // 8),
        ))
        seg.append(Command(CommandKind.PRE, channel=ch))
        out.append(seg)
        remaining -= take
        if remaining <= 0:
            break
    return out


def reference_price(controller, segments) -> ExecutionStats:
    total = ExecutionStats()
    for commands in segments:
        total = total.merged(controller.execute(commands))
    return total


def full_pass(ex, segments) -> ExecutionStats:
    """A fresh, unmemoised ``execute_batch`` pass over the same stream."""
    batch = CommandBatch()
    for commands in segments:
        batch.extend(commands)
        batch.fence()
    return MemoryController(GEOM, ex.timing).execute_batch(batch)


def assert_matches(acct, ref, fresh):
    # the reference interpreter: counts and bus ints exact, floats to
    # summation order
    assert acct.bus_commands == ref.bus.commands
    assert acct.bus_data_bytes == ref.bus.data_bytes
    assert acct.latency == pytest.approx(ref.latency, rel=REL)
    assert acct.energy == pytest.approx(ref.energy, rel=REL)
    assert set(acct.energy_by_kind) == set(ref.energy_by_kind)
    for kind, e in acct.energy_by_kind.items():
        assert e == pytest.approx(ref.energy_by_kind[kind], rel=REL)
    # a fresh full pricing pass: every float exact
    assert acct.latency == fresh.latency
    assert acct.energy == fresh.energy
    assert acct.energy_by_kind == fresh.energy_by_kind


# (channel of each frame, vector bits): one frame, several frames on one
# channel, frames alternating channels, and a ragged last frame
SHAPES = [
    ((0,), GEOM.row_bits),
    ((1,), 100),
    ((0, 0, 0), 3 * GEOM.row_bits),
    ((0, 1, 0, 1), 3 * GEOM.row_bits + 17),
    ((1, 0), GEOM.row_bits + 1),
]


class TestMemoisedHostPricing:
    @staticmethod
    def round_trip(ex, ref, channels, n_bits, rng):
        frames = frames_on(ex, channels)
        bits = rng.integers(0, 2, n_bits, dtype=np.uint8)
        acct = ex.write_vector(frames, bits)
        segs = host_segments(ex, frames, n_bits, read=False)
        assert_matches(acct, reference_price(ref, segs), full_pass(ex, segs))
        out, acct = ex.read_vector(frames, n_bits)
        np.testing.assert_array_equal(out, bits)
        segs = host_segments(ex, frames, n_bits, read=True)
        assert_matches(acct, reference_price(ref, segs), full_pass(ex, segs))

    @staticmethod
    def assert_ledgers_match(ex, ref):
        """Per-channel bus ledgers agree with the reference controller's."""
        for mine, theirs in zip(ex.controller.buses, ref.buses):
            assert mine.stats.commands == theirs.stats.commands
            assert mine.stats.data_bytes == theirs.stats.data_bytes
            assert mine.stats.busy_time == pytest.approx(
                theirs.stats.busy_time, rel=REL
            )
            assert mine.stats.energy == pytest.approx(
                theirs.stats.energy, rel=REL
            )

    @pytest.mark.parametrize("channels,n_bits", SHAPES)
    def test_repeat_transfers_match_reference(self, channels, n_bits):
        ex = make_executor()
        ref = MemoryController(GEOM, ex.timing)
        rng = np.random.default_rng(n_bits)
        for _ in range(3):  # first pass prices, the rest replay the memo
            self.round_trip(ex, ref, channels, n_bits, rng)
        self.assert_ledgers_match(ex, ref)

    def test_shapes_differing_only_in_channel_stay_apart(self):
        ex = make_executor()
        ref = MemoryController(GEOM, ex.timing)
        rng = np.random.default_rng(7)
        for _ in range(2):
            for channels, n_bits in SHAPES:
                swapped = tuple(1 - ch for ch in channels)
                self.round_trip(ex, ref, channels, n_bits, rng)
                self.round_trip(ex, ref, swapped, n_bits, rng)
                self.assert_ledgers_match(ex, ref)

    def test_repeat_shape_replays_identical_stats(self):
        ex = make_executor()
        frames = frames_on(ex, (0, 1))
        bits = np.ones(GEOM.row_bits + 5, dtype=np.uint8)
        first = ex.write_vector(frames, bits)
        again = ex.write_vector(frames, bits ^ 1)
        assert (again.latency, again.energy) == (first.latency, first.energy)
        assert again.energy_by_kind == first.energy_by_kind
        assert len(ex._host_batches) == 1

    def test_reads_and_writes_of_one_shape_differ(self):
        ex = make_executor()
        frames = frames_on(ex, (0,))
        w = ex.write_vector(frames, np.ones(64, dtype=np.uint8))
        _, r = ex.read_vector(frames, 64)
        assert CommandKind.WR in w.energy_by_kind
        assert CommandKind.RD in r.energy_by_kind
        assert len(ex._host_batches) == 2


class TestMemoCap:
    def test_default_cap_holds(self):
        ex = make_executor()
        frames = frames_on(ex, (0,))
        for n_bits in range(1, executor_mod._HOST_BATCH_MEMO_LIMIT + 40):
            ex.read_vector(frames, n_bits)
            assert len(ex._host_batches) <= executor_mod._HOST_BATCH_MEMO_LIMIT

    def test_small_cap_holds_and_pricing_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_HOST_BATCH_MEMO_LIMIT", 3)
        ex = make_executor()
        ref = MemoryController(GEOM, ex.timing)
        frames = frames_on(ex, (0, 1))
        for n_bits in [5, 9, GEOM.row_bits + 3, 5, 40, 41, 9, 5]:
            _, acct = ex.read_vector(frames, n_bits)
            assert len(ex._host_batches) <= 3
            segs = host_segments(ex, frames, n_bits, read=True)
            assert_matches(acct, reference_price(ref, segs), full_pass(ex, segs))
