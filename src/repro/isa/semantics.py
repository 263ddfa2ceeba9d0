"""Bit-accurate execution semantics of the Table 1 instruction set.

The function :func:`execute` evaluates one *dataflow* opcode (everything
except loads, stores, branches and control ops, whose effects involve
machine state and are implemented by the simulator core) on raw 64-bit
operand patterns and returns the raw result pattern.

Width conventions, from the paper (Section 2.B):

* basic groups (arith/logic/shift/comp/pred/mul) operate on the 32 LSBs
  of the 64-bit datapath; the result is written to the low 32 bits with
  the upper 32 bits cleared;
* the SIMD groups operate on the full 64 bits as four 16-bit lanes,
  lane "a" being the least significant;
* the hardwired dividers operate on the 24 LSBs.

SIMD multiply semantics: the paper's Table 1 gives the lane pairing of
``d4prod`` (straight: a*a, b*b, c*c, d*d) and ``c4prod`` (cross:
a*b2, b*a2, c*d2, d*c2) but not the 32->16-bit reduction.  We model the
customary DSP fractional form: ``(x * y) >> 15`` with saturation to
int16 (Q15 multiply), which is what the MIMO-OFDM kernels require.
Together with ``c4add``/``c4sub`` this realises two 16-bit complex
multiplications per instruction pair, the workhorse of the baseband
kernels.

Dispatch structure
------------------
Every opcode's semantics is one entry in a dict dispatch table
(``_SCALAR32_TABLE``, ``_SIMD_TABLE``, ``_COMPARES``), so evaluating an
op is one dict lookup plus one call instead of a walk down an if-chain.
:func:`execute` remains the reference entry point (full operand
validation on every call); the code generator (:mod:`repro.sim.codegen`)
binds the per-opcode handler once via :func:`handler_for` and skips the
per-call validation, which it performs once per kernel at generation
time.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.isa import bits
from repro.isa.bits import (
    MASK32,
    MASK64,
    pack_lanes,
    sat16,
    split_lanes,
    to_signed,
)
from repro.isa.opcodes import Opcode, OpGroup, group_of


class ExecutionError(Exception):
    """Raised for malformed operands or unsupported opcodes."""


#: Scalar 32-bit ops: raw 64-bit patterns in, raw 32-bit pattern out.
#: Each entry masks/sign-interprets its own operands, so callers pass
#: register contents through unchanged.
_SCALAR32_TABLE: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: (a + b) & MASK32,
    Opcode.ADD_U: lambda a, b: (a + b) & MASK32,
    Opcode.SUB: lambda a, b: (a - b) & MASK32,
    Opcode.SUB_U: lambda a, b: (a - b) & MASK32,
    Opcode.OR: lambda a, b: (a | b) & MASK32,
    Opcode.NOR: lambda a, b: ~(a | b) & MASK32,
    Opcode.AND: lambda a, b: (a & b) & MASK32,
    Opcode.NAND: lambda a, b: ~(a & b) & MASK32,
    Opcode.XOR: lambda a, b: (a ^ b) & MASK32,
    Opcode.XNOR: lambda a, b: ~(a ^ b) & MASK32,
    Opcode.LSL: lambda a, b: ((a & MASK32) << (b & 31)) & MASK32,
    Opcode.LSR: lambda a, b: (a & MASK32) >> (b & 31),
    Opcode.ASR: lambda a, b: (to_signed(a, 32) >> (b & 31)) & MASK32,
    Opcode.MUL: lambda a, b: (to_signed(a, 32) * to_signed(b, 32)) & MASK32,
    Opcode.MUL_U: lambda a, b: (a * b) & MASK32,
}


def _scalar32(op: Opcode, a: int, b: int) -> int:
    """Evaluate a 32-bit scalar operation; returns the raw 32-bit pattern."""
    fn = _SCALAR32_TABLE.get(op)
    if fn is None:
        raise ExecutionError("not a scalar32 op: %s" % op)
    return fn(a, b)


_COMPARES = {
    Opcode.EQ: lambda sa, sb, ua, ub: sa == sb,
    Opcode.NE: lambda sa, sb, ua, ub: sa != sb,
    Opcode.GT: lambda sa, sb, ua, ub: sa > sb,
    Opcode.GT_U: lambda sa, sb, ua, ub: ua > ub,
    Opcode.LT: lambda sa, sb, ua, ub: sa < sb,
    Opcode.LT_U: lambda sa, sb, ua, ub: ua < ub,
    Opcode.GE: lambda sa, sb, ua, ub: sa >= sb,
    Opcode.GE_U: lambda sa, sb, ua, ub: ua >= ub,
    Opcode.LE: lambda sa, sb, ua, ub: sa <= sb,
    Opcode.LE_U: lambda sa, sb, ua, ub: ua <= ub,
    Opcode.PRED_EQ: lambda sa, sb, ua, ub: sa == sb,
    Opcode.PRED_NE: lambda sa, sb, ua, ub: sa != sb,
    Opcode.PRED_LT: lambda sa, sb, ua, ub: sa < sb,
    Opcode.PRED_LT_U: lambda sa, sb, ua, ub: ua < ub,
    Opcode.PRED_LE: lambda sa, sb, ua, ub: sa <= sb,
    Opcode.PRED_LE_U: lambda sa, sb, ua, ub: ua <= ub,
    Opcode.PRED_GT: lambda sa, sb, ua, ub: sa > sb,
    Opcode.PRED_GT_U: lambda sa, sb, ua, ub: ua > ub,
    Opcode.PRED_GE: lambda sa, sb, ua, ub: sa >= sb,
    Opcode.PRED_GE_U: lambda sa, sb, ua, ub: ua >= ub,
}


def q15_mul(x: int, y: int) -> int:
    """Fractional Q15 multiply of two signed 16-bit values, saturated."""
    return bits.sat16((x * y) >> 15)


#: SIMD operations that take a single source operand.
UNARY_SIMD = frozenset({Opcode.C4SWAP32, Opcode.C4SWAP16, Opcode.C4NEGB})


def _lanes(fn: Callable[[int, int], int]) -> Callable[[int, int], int]:
    """Lift a per-lane (signed 16-bit) binary function to 4x16 SIMD."""

    def simd(a: int, b: int) -> int:
        return pack_lanes(list(map(fn, split_lanes(a), split_lanes(b))))

    return simd


# The hottest SIMD ops of the modem kernels get dedicated forms: lane-wise
# logic and lane shuffles act on the packed word directly, and the
# saturating add/sub spell out their four lanes.  Each equals its
# lane-lifted definition bit for bit (tests/isa/test_semantics.py).

_EVEN_LANES = 0x0000_FFFF_0000_FFFF


def _sat_add_lanes(a: int, b: int) -> int:
    """Saturating lane-wise ``a + b`` of two packed 4x16 words."""
    out = 0
    for shift in (0, 16, 32, 48):
        s = ((((a >> shift) & 0xFFFF) ^ 0x8000) + (((b >> shift) & 0xFFFF) ^ 0x8000)) - 0x10000
        if s > 0x7FFF:
            s = 0x7FFF
        elif s < -0x8000:
            s = -0x8000
        out |= (s & 0xFFFF) << shift
    return out


def _sat_sub_lanes(a: int, b: int) -> int:
    """Saturating lane-wise ``a - b`` of two packed 4x16 words."""
    out = 0
    for shift in (0, 16, 32, 48):
        s = (((a >> shift) & 0xFFFF) ^ 0x8000) - (((b >> shift) & 0xFFFF) ^ 0x8000)
        if s > 0x7FFF:
            s = 0x7FFF
        elif s < -0x8000:
            s = -0x8000
        out |= (s & 0xFFFF) << shift
    return out


def _c4shiftl(a: int, b: int) -> int:
    shift = b & 15
    return pack_lanes([lane << shift for lane in split_lanes(a)])


def _c4shiftr(a: int, b: int) -> int:
    shift = b & 15
    return pack_lanes([lane >> shift for lane in split_lanes(a)])


def _c4swap32(a: int, b: int) -> int:
    # Swap the 32-bit halves: |a|b|c|d| -> |c|d|a|b|.
    return ((a & MASK32) << 32) | ((a >> 32) & MASK32)


def _c4swap16(a: int, b: int) -> int:
    # Swap within each 32-bit pair: |a|b|c|d| -> |b|a|d|c|.
    return ((a & _EVEN_LANES) << 16) | ((a >> 16) & _EVEN_LANES)


def _c4negb(a: int, b: int) -> int:
    # Negate the odd lanes (complex conjugate of packed re/im pairs).
    la = split_lanes(a)
    return pack_lanes([la[0], sat16(-la[1]), la[2], sat16(-la[3])])


def _c4prod(a: int, b: int) -> int:
    # Cross pairing per Table 1: |a1*b2|b1*a2|c1*d2|d1*c2|
    la, lb = split_lanes(a), split_lanes(b)
    return pack_lanes(
        [
            q15_mul(la[0], lb[1]),
            q15_mul(la[1], lb[0]),
            q15_mul(la[2], lb[3]),
            q15_mul(la[3], lb[2]),
        ]
    )


#: SIMD ops: raw 64-bit patterns in (second operand 0 for the unary
#: forms), packed 4x16 result out.  Lane adds/subs saturate, as
#: customary for DSP SIMD datapaths (a wrapping add would flip signs on
#: near-full-scale phasors).
_SIMD_TABLE: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.C4ADD: _sat_add_lanes,
    Opcode.C4SUB: _sat_sub_lanes,
    Opcode.C4AND: lambda a, b: a & b & MASK64,
    Opcode.C4OR: lambda a, b: (a | b) & MASK64,
    Opcode.C4XOR: lambda a, b: (a ^ b) & MASK64,
    Opcode.C4SHIFTL: _c4shiftl,
    Opcode.C4SHIFTR: _c4shiftr,
    Opcode.C4SWAP32: _c4swap32,
    Opcode.C4SWAP16: _c4swap16,
    Opcode.C4MAX: _lanes(max),
    Opcode.C4MIN: _lanes(min),
    Opcode.C4NEGB: _c4negb,
    Opcode.D4PROD: _lanes(q15_mul),
    Opcode.C4PROD: _c4prod,
}


def _simd(op: Opcode, a: int, b: int) -> int:
    fn = _SIMD_TABLE.get(op)
    if fn is None:
        raise ExecutionError("not a SIMD op: %s" % op)
    return fn(a, b)


def _div(op: Opcode, a: int, b: int) -> int:
    """24-bit division.  Division by zero yields the all-ones 24-bit pattern,
    matching common hardwired-divider behaviour."""
    if op is Opcode.DIV:
        sa, sb = bits.to_signed(a, 24), bits.to_signed(b, 24)
        if sb == 0:
            return bits.MASK24
        # Truncating division toward zero, as in C.
        quotient = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            quotient = -quotient
        return bits.to_unsigned(quotient, 24)
    ua, ub = a & bits.MASK24, b & bits.MASK24
    if ub == 0:
        return bits.MASK24
    return ua // ub


def execute(op: Opcode, srcs: Sequence[int]) -> int:
    """Execute a dataflow opcode on raw operand patterns.

    Parameters
    ----------
    op:
        Any opcode of the arith/logic/shift/comp/pred/mul/simd1/simd2/div
        groups.  Memory, branch and control opcodes raise
        :class:`ExecutionError`; their semantics live in the simulator.
    srcs:
        Raw 64-bit source patterns, in Table 1 order.

    Returns
    -------
    int
        The raw result pattern: 64-bit for SIMD groups, 32-bit
        (zero-extended into the 64-bit register) for the basic groups,
        0/1 for comparisons and predicate-setters.
    """
    group = group_of(op)
    if op is Opcode.PRED_CLEAR:
        return 0
    if op is Opcode.PRED_SET:
        return 1
    if group in (OpGroup.COMP, OpGroup.PRED):
        if len(srcs) != 2:
            raise ExecutionError("%s expects 2 sources" % op.value)
        a, b = srcs
        sa, sb = bits.to_signed(a, 32), bits.to_signed(b, 32)
        ua, ub = a & bits.MASK32, b & bits.MASK32
        return 1 if _COMPARES[op](sa, sb, ua, ub) else 0
    if group in (OpGroup.ARITH, OpGroup.LOGIC, OpGroup.SHIFT, OpGroup.MUL):
        if len(srcs) != 2:
            raise ExecutionError("%s expects 2 sources" % op.value)
        return _scalar32(op, srcs[0], srcs[1])
    if group in (OpGroup.SIMD1, OpGroup.SIMD2):
        if op in UNARY_SIMD:
            if len(srcs) not in (1, 2):
                raise ExecutionError("%s expects 1 source" % op.value)
            return _simd(op, srcs[0], 0)
        if len(srcs) != 2:
            raise ExecutionError("%s expects 2 sources" % op.value)
        return _simd(op, srcs[0], srcs[1])
    if group is OpGroup.DIV:
        if len(srcs) != 2:
            raise ExecutionError("%s expects 2 sources" % op.value)
        return _div(op, srcs[0], srcs[1])
    raise ExecutionError(
        "opcode %s (%s group) has machine-state semantics; "
        "it is executed by the simulator core" % (op.value, group.value)
    )


# ----------------------------------------------------------------------
# Pre-bound handlers for generated code.
# ----------------------------------------------------------------------

#: Groups whose opcodes :func:`execute` can evaluate (pure dataflow).
DATAFLOW_GROUPS = frozenset(
    {
        OpGroup.ARITH,
        OpGroup.LOGIC,
        OpGroup.SHIFT,
        OpGroup.COMP,
        OpGroup.PRED,
        OpGroup.MUL,
        OpGroup.SIMD1,
        OpGroup.SIMD2,
        OpGroup.DIV,
    }
)


def _make_compare(cmp: Callable[[int, int, int, int], bool]) -> Callable[[int, int], int]:
    def compare(a: int, b: int) -> int:
        return 1 if cmp(to_signed(a, 32), to_signed(b, 32), a & MASK32, b & MASK32) else 0

    return compare


def _make_div(op: Opcode) -> Callable[[int, int], int]:
    def div(a: int, b: int) -> int:
        return _div(op, a, b)

    return div


def _make_unary(fn: Callable[[int, int], int]) -> Callable[[int], int]:
    def unary(a: int) -> int:
        return fn(a, 0)

    return unary


def _build_handlers() -> Dict[Opcode, Callable[..., int]]:
    handlers: Dict[Opcode, Callable[..., int]] = {
        Opcode.PRED_CLEAR: lambda: 0,
        Opcode.PRED_SET: lambda: 1,
    }
    handlers.update(_SCALAR32_TABLE)
    for op, cmp in _COMPARES.items():
        handlers[op] = _make_compare(cmp)
    for op, fn in _SIMD_TABLE.items():
        handlers[op] = _make_unary(fn) if op in UNARY_SIMD else fn
    handlers[Opcode.DIV] = _make_div(Opcode.DIV)
    handlers[Opcode.DIV_U] = _make_div(Opcode.DIV_U)
    return handlers


_HANDLERS: Dict[Opcode, Callable[..., int]] = _build_handlers()


def operand_count(op: Opcode) -> int:
    """Number of operands :func:`handler_for`'s handler takes for *op*."""
    if op in (Opcode.PRED_CLEAR, Opcode.PRED_SET):
        return 0
    if op in UNARY_SIMD:
        return 1
    return 2


def handler_for(op: Opcode) -> Callable[..., int]:
    """Return the bound semantic handler of dataflow opcode *op*.

    The handler takes :func:`operand_count` raw operand patterns as
    positional arguments and returns the raw result pattern — exactly
    what :func:`execute` would return for well-formed sources, minus the
    per-call validation (which codegen performs once per kernel).
    Raises :class:`ExecutionError` for opcodes with machine-state
    semantics (memory, branch, control).
    """
    handler = _HANDLERS.get(op)
    if handler is None:
        raise ExecutionError(
            "opcode %s (%s group) has machine-state semantics; "
            "it is executed by the simulator core" % (op.value, group_of(op).value)
        )
    return handler
