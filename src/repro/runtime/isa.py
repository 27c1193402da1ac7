"""Extended PIM instructions and their DDR-level translation.

The paper extends the host ISA with PIM instructions (after
PIM-enabled-instructions, Ahn et al. ISCA'15); the driver emits them and
the memory controller translates each into a mode-register write plus DDR
commands.  We model the instruction as a compact binary encoding (so the
driver/controller interface is a real byte protocol, testable for
round-tripping) and provide the MR4 mode-code mapping.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.core.ops import MODE_CODES, PimOp

_CODE_TO_OP = {v: k for k, v in MODE_CODES.items()}

#: wire format: magic, op code, flags, dest frame, operand count, length
_HEADER = struct.Struct("<HBBQIQ")
_MAGIC = 0x7012  # "PIM" tag


@dataclass(frozen=True)
class PimInstruction:
    """One extended-ISA PIM operation over physical row frames."""

    op: PimOp
    dest_frame: int
    source_frames: tuple
    n_bits: int

    def __post_init__(self) -> None:
        if self.dest_frame < 0 or any(f < 0 for f in self.source_frames):
            raise ValueError("frames must be non-negative")
        if not self.source_frames:
            raise ValueError("instruction needs at least one source frame")
        if self.n_bits < 1:
            raise ValueError("n_bits must be positive")

    @property
    def mode_code(self) -> int:
        return MODE_CODES[self.op]


def encode_instruction(instr: PimInstruction) -> bytes:
    """Serialise to the driver-controller wire format."""
    header = _HEADER.pack(
        _MAGIC,
        instr.mode_code,
        0,
        instr.dest_frame,
        len(instr.source_frames),
        instr.n_bits,
    )
    body = b"".join(struct.pack("<Q", f) for f in instr.source_frames)
    return header + body


def decode_instruction(payload: bytes) -> PimInstruction:
    """Parse the wire format back into an instruction."""
    if len(payload) < _HEADER.size:
        raise ValueError("truncated PIM instruction")
    magic, code, _flags, dest, n_src, n_bits = _HEADER.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad PIM instruction magic 0x{magic:04x}")
    if code not in _CODE_TO_OP:
        raise ValueError(f"unknown PIM mode code {code:#05b}")
    expected = _HEADER.size + 8 * n_src
    if len(payload) != expected:
        raise ValueError(
            f"PIM instruction length mismatch: {len(payload)} != {expected}"
        )
    sources = struct.unpack_from(f"<{n_src}Q", payload, _HEADER.size)
    return PimInstruction(
        op=_CODE_TO_OP[code],
        dest_frame=dest,
        source_frames=tuple(sources),
        n_bits=n_bits,
    )
