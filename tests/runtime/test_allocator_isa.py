"""Tests for pim_malloc handles and the extended-ISA encoding."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ops import PimOp, operand_limits
from repro.memsim.geometry import MemoryGeometry
from repro.nvm.technology import get_technology
from repro.runtime.allocator import AllocationError, BitVectorHandle, PimAllocator
from repro.runtime.isa import (
    PimInstruction,
    decode_instruction,
    encode_instruction,
)
from repro.runtime.os_mm import PimMemoryManager


SMALL = MemoryGeometry(
    channels=1,
    ranks_per_channel=1,
    chips_per_rank=1,
    banks_per_chip=2,
    subarrays_per_bank=4,
    rows_per_subarray=16,
    mats_per_subarray=1,
    cols_per_mat=512,
    mux_ratio=8,
)


@pytest.fixture
def alloc():
    return PimAllocator(PimMemoryManager(SMALL))


class TestPimMalloc:
    def test_small_vector_gets_one_row(self, alloc):
        h = alloc.pim_malloc(100)
        assert h.n_rows == 1
        assert h.n_bits == 100

    def test_long_vector_gets_multiple_rows(self, alloc):
        h = alloc.pim_malloc(SMALL.row_bits * 2 + 1)
        assert h.n_rows == 3

    def test_distinct_vectors_distinct_rows(self, alloc):
        a = alloc.pim_malloc(SMALL.row_bits)
        b = alloc.pim_malloc(SMALL.row_bits)
        assert set(a.frames).isdisjoint(b.frames)

    def test_ids_unique(self, alloc):
        ids = {alloc.pim_malloc(8).vid for _ in range(10)}
        assert len(ids) == 10

    def test_free_releases(self, alloc):
        h = alloc.pim_malloc(100)
        assert alloc.is_live(h)
        alloc.pim_free(h)
        assert not alloc.is_live(h)
        assert alloc.live_handles == 0

    def test_double_free_rejected(self, alloc):
        h = alloc.pim_malloc(100)
        alloc.pim_free(h)
        with pytest.raises(AllocationError):
            alloc.pim_free(h)

    def test_bad_size(self, alloc):
        with pytest.raises(AllocationError):
            alloc.pim_malloc(0)

    def test_handle_validation(self):
        with pytest.raises(ValueError):
            BitVectorHandle(vid=1, n_bits=0, frames=(0,))
        with pytest.raises(ValueError):
            BitVectorHandle(vid=1, n_bits=8, frames=())


class TestIsaEncoding:
    def test_roundtrip(self):
        instr = PimInstruction(PimOp.OR, 42, (1, 2, 3), 4096)
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_mode_codes_distinct(self):
        codes = {PimInstruction(op, 0, (1,), 8).mode_code for op in PimOp}
        assert len(codes) == 4

    def test_bad_magic_rejected(self):
        payload = bytearray(encode_instruction(PimInstruction(PimOp.OR, 0, (1,), 8)))
        payload[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_instruction(bytes(payload))

    def test_truncated_rejected(self):
        payload = encode_instruction(PimInstruction(PimOp.OR, 0, (1, 2), 8))
        with pytest.raises(ValueError):
            decode_instruction(payload[:10])
        with pytest.raises(ValueError, match="length mismatch"):
            decode_instruction(payload[:-8])

    def test_validation(self):
        with pytest.raises(ValueError):
            PimInstruction(PimOp.OR, -1, (0,), 8)
        with pytest.raises(ValueError):
            PimInstruction(PimOp.OR, 0, (), 8)
        with pytest.raises(ValueError):
            PimInstruction(PimOp.OR, 0, (1,), 0)

    @pytest.mark.parametrize("op", list(PimOp))
    def test_roundtrip_every_op_and_source_count(self, op):
        # one to the widest one-step OR the sensing margin allows
        max_sources = operand_limits(get_technology("pcm")).or_rows
        assert max_sources == 128
        for n_src in range(1, max_sources + 1):
            sources = tuple(range(7, 7 + 3 * n_src, 3))
            instr = PimInstruction(op, 5, sources, 4096)
            payload = encode_instruction(instr)
            assert len(payload) == 24 + 8 * n_src
            assert decode_instruction(payload) == instr

    @pytest.mark.parametrize("op", list(PimOp))
    @pytest.mark.parametrize("n_bits", [1, 8, 63, 64, SMALL.row_bits,
                                        SMALL.row_bits + 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("frame", [0, 1, 2**32 - 1, 2**64 - 1])
    def test_roundtrip_boundary_widths(self, op, n_bits, frame):
        instr = PimInstruction(op, frame, (frame, 0), n_bits)
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_unencodable_width_rejected(self):
        for instr in (
            PimInstruction(PimOp.OR, 0, (1,), 2**64),
            PimInstruction(PimOp.OR, 2**64, (1,), 8),
        ):
            with pytest.raises(struct.error):
                encode_instruction(instr)

    @given(
        dest=st.integers(0, 2**40),
        sources=st.lists(st.integers(0, 2**40), min_size=1, max_size=130),
        n_bits=st.integers(1, 2**30),
        op=st.sampled_from(list(PimOp)),
    )
    @settings(max_examples=60)
    def test_roundtrip_property(self, dest, sources, n_bits, op):
        instr = PimInstruction(op, dest, tuple(sources), n_bits)
        assert decode_instruction(encode_instruction(instr)) == instr
