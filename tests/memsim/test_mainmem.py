"""Tests for the functional main memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.geometry import MemoryGeometry
from repro.memsim.mainmem import MainMemory, popcount_packed, popcount_rows


SMALL = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=2,
    rows_per_subarray=8,
    mats_per_subarray=1,
    cols_per_mat=256,
    mux_ratio=8,
)


@pytest.fixture
def mem():
    return MainMemory(SMALL)


def rand_frame(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)


class TestFrames:
    def test_unwritten_frame_reads_zero(self, mem):
        assert not mem.frame_bytes(0).any()

    def test_write_read_roundtrip(self, mem):
        data = rand_frame(1)
        mem.write_frame(3, data)
        np.testing.assert_array_equal(mem.frame_bytes(3), data)

    def test_frame_bytes_returns_copy(self, mem):
        data = rand_frame(1)
        mem.write_frame(0, data)
        view = mem.frame_bytes(0)
        view[0] ^= 0xFF
        np.testing.assert_array_equal(mem.frame_bytes(0), data)

    def test_lazy_allocation(self, mem):
        assert mem.frames_written == 0
        mem.frame_bytes(5)  # read does not allocate
        assert mem.frames_written == 0
        mem.write_frame(5, rand_frame(2))
        assert mem.frames_written == 1

    def test_write_counting(self, mem):
        data = rand_frame(1)
        mem.write_frame(0, data)
        mem.write_frame(0, data)
        assert mem.frame_writes(0) == 2
        assert mem.frame_writes(1) == 0
        assert mem.total_writes == 2

    def test_out_of_range_frame(self, mem):
        with pytest.raises(ValueError):
            mem.frame_bytes(SMALL.total_rows)
        with pytest.raises(ValueError):
            mem.write_frame(-1, rand_frame(0))

    def test_wrong_shape_rejected(self, mem):
        with pytest.raises(ValueError, match="shape"):
            mem.write_frame(0, np.zeros(3, np.uint8))


class TestBitAccess:
    def test_bit_roundtrip(self, mem):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=100).astype(np.uint8)
        mem.write_bits(2, bits)
        np.testing.assert_array_equal(mem.read_bits(2, 100), bits)

    def test_bit_order_little_endian(self, mem):
        bits = np.zeros(16, dtype=np.uint8)
        bits[0] = 1  # bit 0 of byte 0
        bits[9] = 1  # bit 1 of byte 1
        mem.write_bits(0, bits)
        packed = mem.frame_bytes(0)
        assert packed[0] == 1
        assert packed[1] == 2

    def test_partial_write_zeroes_rest(self, mem):
        mem.write_frame(0, np.full(SMALL.row_bytes, 0xFF, np.uint8))
        mem.write_bits(0, np.ones(8, np.uint8))
        packed = mem.frame_bytes(0)
        assert packed[0] == 0xFF
        assert not packed[1:].any()

    def test_oversized_bits_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.write_bits(0, np.zeros(SMALL.row_bits + 1, np.uint8))

    def test_bad_nbits_rejected(self, mem):
        with pytest.raises(ValueError):
            mem.read_bits(0, 0)
        with pytest.raises(ValueError):
            mem.read_bits(0, SMALL.row_bits + 1)


class TestBitwiseCompute:
    def _fill(self, mem, frames, seed=0):
        rng = np.random.default_rng(seed)
        data = {}
        for f in frames:
            d = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
            mem.write_frame(f, d)
            data[f] = d
        return data

    def test_or(self, mem):
        data = self._fill(mem, [0, 1, 2])
        mem.execute_bitwise("or", 5, [0, 1, 2])
        expected = data[0] | data[1] | data[2]
        np.testing.assert_array_equal(mem.frame_bytes(5), expected)

    def test_and(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("and", 5, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(5), data[0] & data[1])

    def test_xor(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("xor", 5, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(5), data[0] ^ data[1])

    def test_inv(self, mem):
        data = self._fill(mem, [0])
        mem.execute_bitwise("inv", 5, [0])
        np.testing.assert_array_equal(mem.frame_bytes(5), ~data[0])

    def test_in_place_dest_can_be_source(self, mem):
        data = self._fill(mem, [0, 1])
        mem.execute_bitwise("or", 0, [0, 1])
        np.testing.assert_array_equal(mem.frame_bytes(0), data[0] | data[1])

    def test_multi_operand_or(self, mem):
        data = self._fill(mem, range(8))
        mem.execute_bitwise("or", 10, range(8))
        expected = np.bitwise_or.reduce([data[f] for f in range(8)])
        np.testing.assert_array_equal(mem.frame_bytes(10), expected)

    def test_unknown_op_rejected(self, mem):
        with pytest.raises(ValueError, match="unknown"):
            mem.bitwise_frames("nand", [0, 1])

    def test_operand_count_rules(self, mem):
        self._fill(mem, [0, 1, 2])
        with pytest.raises(ValueError):
            mem.bitwise_frames("or", [0])
        with pytest.raises(ValueError):
            mem.bitwise_frames("inv", [0, 1])

    def test_multi_operand_and_xor(self, mem):
        """The buffered (digital) path accumulates any operand count."""
        data = self._fill(mem, [0, 1, 2])
        mem.execute_bitwise("and", 5, [0, 1, 2])
        np.testing.assert_array_equal(
            mem.frame_bytes(5), data[0] & data[1] & data[2]
        )
        mem.execute_bitwise("xor", 6, [0, 1, 2])
        np.testing.assert_array_equal(
            mem.frame_bytes(6), data[0] ^ data[1] ^ data[2]
        )

    @given(
        seed=st.integers(0, 2**16),
        op=st.sampled_from(["or", "and", "xor"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_numpy_oracle(self, seed, op):
        mem = MainMemory(SMALL)
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
        b = rng.integers(0, 256, size=SMALL.row_bytes).astype(np.uint8)
        mem.write_frame(0, a)
        mem.write_frame(1, b)
        result = mem.bitwise_frames(op, [0, 1])
        oracle = {"or": a | b, "and": a & b, "xor": a ^ b}[op]
        np.testing.assert_array_equal(result, oracle)


#: 8 KB rows: 128 rows per 1 MiB storage block
BLOCKY = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=2,
    rows_per_subarray=128,
    mats_per_subarray=1,
    cols_per_mat=1 << 16,
    mux_ratio=8,
)

#: frame lists by placement: inside one block, across a block boundary,
#: permuted, with a repeat, in a never-written block, and empty
PLACEMENTS = {
    "consecutive": [5, 6, 7],
    "cross_block": [126, 127, 128, 129],
    "permuted": [40, 3, 200],
    "repeated": [9, 9, 10],
    "untouched": [300, 301],
    "empty": [],
}


class TestRowAccess:
    """The read-only view contract of ``frame_view`` / ``rows_view``
    and the fresh-array contract of ``gather_rows``."""

    @pytest.fixture
    def blocky(self):
        mem = MainMemory(BLOCKY)
        rng = np.random.default_rng(0)
        for frame in range(0, 260):
            mem.write_frame(
                frame, rng.integers(0, 256, BLOCKY.row_bytes, dtype=np.uint8)
            )
        return mem

    @staticmethod
    def _reference(mem, frames):
        return np.array(
            [mem.frame_bytes(f) for f in frames], dtype=np.uint8
        ).reshape(len(frames), BLOCKY.row_bytes)

    @pytest.mark.parametrize("frame", [0, 130, 300])
    def test_frame_view_is_read_only(self, blocky, frame):
        view = blocky.frame_view(frame)
        before = blocky.frame_bytes(frame)
        with pytest.raises(ValueError):
            view[0] = 1
        np.testing.assert_array_equal(blocky.frame_bytes(frame), before)

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_rows_view_is_read_only_and_exact(self, blocky, placement):
        frames = PLACEMENTS[placement]
        rows = blocky.rows_view(frames)
        np.testing.assert_array_equal(rows, self._reference(blocky, frames))
        assert not rows.flags.writeable
        if frames:
            with pytest.raises(ValueError):
                rows[0, 0] = 1

    def test_consecutive_frames_are_not_copied(self, blocky):
        frames = PLACEMENTS["consecutive"]
        rows = blocky.rows_view(frames)
        # a view of the storage block: a later write shows through
        new = np.full(BLOCKY.row_bytes, 0xA5, dtype=np.uint8)
        blocky.write_frame(frames[1], new)
        np.testing.assert_array_equal(rows[1], new)

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_gather_rows_is_a_fresh_writeable_copy(self, blocky, placement):
        frames = PLACEMENTS[placement]
        before = self._reference(blocky, frames)
        rows = blocky.gather_rows(frames)
        np.testing.assert_array_equal(rows, before)
        assert rows.flags.writeable
        rows ^= 0xFF
        np.testing.assert_array_equal(self._reference(blocky, frames), before)

    @pytest.mark.parametrize("op", ["or", "and", "xor", "inv"])
    def test_bitwise_rows_result_is_fresh(self, blocky, op):
        srcs = [PLACEMENTS["consecutive"], PLACEMENTS["permuted"]]
        if op == "inv":
            srcs = srcs[:1]
        out = blocky.bitwise_rows(op, srcs)
        expected = np.stack([
            blocky.bitwise_frames(op, [s[i] for s in srcs]) for i in range(3)
        ])
        np.testing.assert_array_equal(out, expected)
        snapshot = blocky.gather_rows(range(260))
        out ^= 0xFF
        np.testing.assert_array_equal(blocky.gather_rows(range(260)), snapshot)

    @pytest.mark.parametrize("frames", [[-1, 0], [511, 512], [512]])
    def test_out_of_range_rejected(self, blocky, frames):
        with pytest.raises(ValueError):
            blocky.rows_view(frames)
        with pytest.raises(ValueError):
            blocky.write_frames(
                frames, np.zeros((len(frames), BLOCKY.row_bytes), np.uint8)
            )
        assert blocky.total_writes == 260

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_write_frames_matches_per_frame_writes(self, placement):
        frames = PLACEMENTS[placement]
        rng = np.random.default_rng(1)
        batched, serial = MainMemory(BLOCKY), MainMemory(BLOCKY)
        for _ in range(3):
            rows = rng.integers(
                0, 256, (len(frames), BLOCKY.row_bytes), dtype=np.uint8
            )
            batched.write_frames(frames, rows)
            for frame, row in zip(frames, rows):
                serial.write_frame(frame, row)
            frames = frames[1:] + frames[:1]
        assert batched.write_histogram() == serial.write_histogram()
        assert (batched.total_writes, batched.frames_written, batched.max_writes) == (
            serial.total_writes, serial.frames_written, serial.max_writes
        )
        every = range(BLOCKY.total_rows)
        np.testing.assert_array_equal(
            batched.gather_rows(every), serial.gather_rows(every)
        )


class TestPopcountRows:
    """``popcount_rows`` against a byte-table reference: the 8-bytes-
    at-a-time path and the byte path must count identically."""

    TABLE = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)

    def _reference(self, packed_2d):
        return [int(self.TABLE[row].sum()) for row in packed_2d]

    @pytest.mark.parametrize("width", [1, 3, 7, 8, 9, 16, 24, 100, 8192])
    def test_random_arrays_match_reference(self, width):
        rng = np.random.default_rng(width)
        for n_rows in (1, 2, 5, 14):
            arr = rng.integers(0, 256, (n_rows, width), dtype=np.uint8)
            assert popcount_rows(arr) == self._reference(arr)

    def test_all_ones_and_zeros(self):
        arr = np.zeros((3, 64), dtype=np.uint8)
        arr[1] = 0xFF
        assert popcount_rows(arr) == [0, 512, 0]

    @pytest.mark.parametrize(
        "view",
        [
            lambda a: a[::2],  # strided rows
            lambda a: a[:, 8:40],  # column slice, width a multiple of 8
            lambda a: a[:, 1:17],  # misaligned column slice
            lambda a: a[:, ::2],  # strided columns
            lambda a: a.T.copy().T,  # Fortran order
            lambda a: a[1:],  # contiguous row-offset slice
        ],
    )
    def test_non_contiguous_slices(self, view):
        base = np.random.default_rng(7).integers(
            0, 256, (6, 64), dtype=np.uint8
        )
        arr = view(base)
        assert popcount_rows(arr) == self._reference(arr)

    @pytest.mark.parametrize(
        "view",
        [
            lambda a: a,
            lambda a: a[0],  # one 1-D row, width a multiple of 8
            lambda a: a[0, :13],  # 1-D, width not a multiple of 8
            lambda a: a[::2],
            lambda a: a[:, 1:17],
            lambda a: a.T.copy().T,
            lambda a: a[:0],
        ],
    )
    def test_popcount_packed_matches_reference(self, view):
        base = np.random.default_rng(9).integers(
            0, 256, (6, 64), dtype=np.uint8
        )
        arr = view(base)
        assert popcount_packed(arr) == int(self.TABLE[arr].sum())

    @pytest.mark.parametrize("width", [0, 8, 13])
    def test_zero_rows(self, width):
        assert popcount_rows(np.zeros((0, width), dtype=np.uint8)) == []

    def test_zero_width_rows(self):
        assert popcount_rows(np.zeros((4, 0), dtype=np.uint8)) == [0] * 4
