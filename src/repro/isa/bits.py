"""Bit-manipulation helpers shared by ISA semantics and the simulator.

All register values travel through the model as non-negative Python
integers holding the raw 64-bit pattern; these helpers convert between
raw patterns and signed interpretations at the widths the ISA uses
(64, 32, 24 and 16 bits).
"""

from __future__ import annotations

from typing import List, Sequence

MASK16 = 0xFFFF
MASK24 = 0xFF_FFFF
MASK32 = 0xFFFF_FFFF
MASK64 = 0xFFFF_FFFF_FFFF_FFFF

INT16_MIN, INT16_MAX = -(1 << 15), (1 << 15) - 1
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


def mask(value: int, width: int) -> int:
    """Truncate *value* to *width* bits (returns the raw pattern)."""
    return value & ((1 << width) - 1)


def to_signed(value: int, width: int) -> int:
    """Interpret the low *width* bits of *value* as two's complement."""
    value &= (1 << width) - 1
    sign_bit = 1 << (width - 1)
    return value - (1 << width) if value & sign_bit else value


def to_unsigned(value: int, width: int) -> int:
    """Return the raw *width*-bit pattern of *value* (two's complement)."""
    return value & ((1 << width) - 1)


def sext(value: int, from_width: int, to_width: int) -> int:
    """Sign-extend the low *from_width* bits of *value* to *to_width* bits."""
    return to_unsigned(to_signed(value, from_width), to_width)


def zext(value: int, from_width: int) -> int:
    """Zero-extend: simply truncate to *from_width* bits."""
    return value & ((1 << from_width) - 1)


def saturate(value: int, lo: int, hi: int) -> int:
    """Clamp a signed *value* into [lo, hi]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def sat16(value: int) -> int:
    """Saturate a signed value to the int16 range."""
    if value < INT16_MIN:
        return INT16_MIN
    if value > INT16_MAX:
        return INT16_MAX
    return value


# The lane helpers below sit on the SIMD hot path of every interpreter,
# so they spell out the 16-bit sign conversion ((x ^ 0x8000) - 0x8000
# for a 16-bit pattern x) instead of calling to_signed/to_unsigned.


def split_lanes(value: int) -> List[int]:
    """Split a 64-bit pattern into four signed 16-bit lanes.

    Lane 0 ("a" in Table 1) is the least-significant 16 bits.
    """
    return [
        ((value & MASK16) ^ 0x8000) - 0x8000,
        (((value >> 16) & MASK16) ^ 0x8000) - 0x8000,
        (((value >> 32) & MASK16) ^ 0x8000) - 0x8000,
        (((value >> 48) & MASK16) ^ 0x8000) - 0x8000,
    ]


def pack_lanes(lanes: Sequence[int]) -> int:
    """Pack four signed lane values (each truncated to 16 bits) into 64 bits."""
    if len(lanes) != 4:
        raise ValueError("expected 4 lanes, got %d" % len(lanes))
    a, b, c, d = lanes
    return (
        (a & MASK16)
        | (b & MASK16) << 16
        | (c & MASK16) << 32
        | (d & MASK16) << 48
    )
