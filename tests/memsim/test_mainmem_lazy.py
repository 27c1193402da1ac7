"""MainMemory lazy-frame semantics, endurance counters, bit packing."""

import numpy as np
import pytest

from repro.memsim.geometry import MemoryGeometry
from repro.memsim.mainmem import MainMemory

GEOM = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=1,
    subarrays_per_bank=2,
    rows_per_subarray=16,
    mats_per_subarray=1,
    cols_per_mat=1024,
    mux_ratio=8,
)


@pytest.fixture
def mem():
    return MainMemory(GEOM)


class TestLazyFrames:
    def test_untouched_frame_reads_zero_without_allocating(self, mem):
        assert mem.frames_written == 0
        data = mem.frame_bytes(3)
        assert np.array_equal(data, np.zeros(GEOM.row_bytes, dtype=np.uint8))
        bits = mem.read_bits(3)
        assert bits.sum() == 0
        # reads must not materialise the frame
        assert mem.frames_written == 0

    def test_returned_bytes_are_a_copy(self, mem):
        mem.write_frame(0, np.full(GEOM.row_bytes, 0xAB, dtype=np.uint8))
        view = mem.frame_bytes(0)
        view[:] = 0
        assert mem.frame_bytes(0)[0] == 0xAB

    def test_write_allocates_only_touched_frames(self, mem):
        mem.write_frame(5, np.zeros(GEOM.row_bytes, dtype=np.uint8))
        mem.write_frame(11, np.ones(GEOM.row_bytes, dtype=np.uint8))
        assert mem.frames_written == 2

    def test_frame_bounds_checked(self, mem):
        with pytest.raises(ValueError):
            mem.frame_bytes(GEOM.total_rows)
        with pytest.raises(ValueError):
            mem.write_frame(-1, np.zeros(GEOM.row_bytes, dtype=np.uint8))


class TestEnduranceCounters:
    def test_per_frame_write_counts(self, mem):
        data = np.zeros(GEOM.row_bytes, dtype=np.uint8)
        for _ in range(3):
            mem.write_frame(2, data)
        mem.write_frame(4, data)
        assert mem.frame_writes(2) == 3
        assert mem.frame_writes(4) == 1
        assert mem.frame_writes(0) == 0  # never written
        assert mem.total_writes == 4
        assert mem.write_histogram() == {2: 3, 4: 1}

    def test_bitwise_writeback_counts_as_a_program(self, mem):
        a = np.zeros(GEOM.row_bits, dtype=np.uint8)
        a[::3] = 1
        b = np.zeros(GEOM.row_bits, dtype=np.uint8)
        b[::5] = 1
        mem.write_bits(0, a)
        mem.write_bits(1, b)
        mem.execute_bitwise("or", 2, [0, 1])
        assert mem.frame_writes(2) == 1
        assert np.array_equal(mem.read_bits(2), np.bitwise_or(a, b))


class TestBitPacking:
    @pytest.mark.parametrize("n_bits", [1, 7, 8, 13, 100, 1023])
    def test_non_byte_aligned_round_trip(self, mem, n_bits):
        rng = np.random.default_rng(n_bits)
        bits = rng.integers(0, 2, size=n_bits).astype(np.uint8)
        mem.write_bits(0, bits)
        assert np.array_equal(mem.read_bits(0, n_bits), bits)
        # the tail of the row reads as zeros
        full = mem.read_bits(0)
        assert full[n_bits:].sum() == 0

    def test_little_endian_layout(self, mem):
        # bit i lives at byte i // 8, bit position i % 8
        bits = np.zeros(GEOM.row_bits, dtype=np.uint8)
        bits[9] = 1
        mem.write_bits(0, bits)
        packed = mem.frame_bytes(0)
        assert packed[1] == 1 << 1
        assert packed[0] == 0

    def test_oversized_write_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.write_bits(0, np.zeros(GEOM.row_bits + 1, dtype=np.uint8))
