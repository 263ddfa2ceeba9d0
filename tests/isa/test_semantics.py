"""Bit-accuracy tests of the ISA execution semantics against NumPy golden."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Opcode, execute
from repro.isa.bits import (
    MASK24,
    MASK32,
    MASK64,
    pack_lanes,
    sat16,
    split_lanes,
    to_signed,
    to_unsigned,
)
from repro.isa.semantics import ExecutionError, q15_mul

u32 = st.integers(min_value=0, max_value=MASK32)
u64 = st.integers(min_value=0, max_value=MASK64)
i16 = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)


@given(u32, u32)
def test_add_matches_numpy_wraparound(a, b):
    with np.errstate(over="ignore"):
        expected = int(np.uint32(a) + np.uint32(b))
    assert execute(Opcode.ADD, [a, b]) == expected
    assert execute(Opcode.ADD_U, [a, b]) == expected


@given(u32, u32)
def test_sub_matches_numpy_wraparound(a, b):
    with np.errstate(over="ignore"):
        expected = int(np.uint32(a) - np.uint32(b))
    assert execute(Opcode.SUB, [a, b]) == expected


@given(u32, u32)
def test_logic_ops(a, b):
    assert execute(Opcode.AND, [a, b]) == (a & b)
    assert execute(Opcode.OR, [a, b]) == (a | b)
    assert execute(Opcode.XOR, [a, b]) == (a ^ b)
    assert execute(Opcode.NAND, [a, b]) == (~(a & b)) & MASK32
    assert execute(Opcode.NOR, [a, b]) == (~(a | b)) & MASK32
    assert execute(Opcode.XNOR, [a, b]) == (~(a ^ b)) & MASK32


@given(u32, st.integers(min_value=0, max_value=31))
def test_shifts(a, n):
    assert execute(Opcode.LSL, [a, n]) == (a << n) & MASK32
    assert execute(Opcode.LSR, [a, n]) == a >> n
    assert execute(Opcode.ASR, [a, n]) == to_unsigned(to_signed(a, 32) >> n, 32)


def test_shift_amount_uses_low_5_bits():
    assert execute(Opcode.LSL, [1, 33]) == execute(Opcode.LSL, [1, 1])


@given(u32, u32)
def test_mul_signed_truncates_to_32(a, b):
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    assert execute(Opcode.MUL, [a, b]) == to_unsigned(sa * sb, 32)
    assert execute(Opcode.MUL_U, [a, b]) == (a * b) & MASK32


@given(u32, u32)
def test_signed_compares(a, b):
    sa, sb = to_signed(a, 32), to_signed(b, 32)
    assert execute(Opcode.GT, [a, b]) == int(sa > sb)
    assert execute(Opcode.LT, [a, b]) == int(sa < sb)
    assert execute(Opcode.GE, [a, b]) == int(sa >= sb)
    assert execute(Opcode.LE, [a, b]) == int(sa <= sb)
    assert execute(Opcode.EQ, [a, b]) == int(a == b)
    assert execute(Opcode.NE, [a, b]) == int(a != b)


@given(u32, u32)
def test_unsigned_compares(a, b):
    assert execute(Opcode.GT_U, [a, b]) == int(a > b)
    assert execute(Opcode.LT_U, [a, b]) == int(a < b)
    assert execute(Opcode.GE_U, [a, b]) == int(a >= b)
    assert execute(Opcode.LE_U, [a, b]) == int(a <= b)


@given(u32, u32)
def test_pred_ops_mirror_compares(a, b):
    assert execute(Opcode.PRED_EQ, [a, b]) == execute(Opcode.EQ, [a, b])
    assert execute(Opcode.PRED_LT, [a, b]) == execute(Opcode.LT, [a, b])
    assert execute(Opcode.PRED_GE_U, [a, b]) == execute(Opcode.GE_U, [a, b])


def test_pred_constants():
    assert execute(Opcode.PRED_CLEAR, []) == 0
    assert execute(Opcode.PRED_SET, []) == 1


@given(u64)
def test_split_lanes_matches_int16_view(a):
    lanes = np.array([a], dtype="<u8").view("<i2")
    assert split_lanes(a) == [int(x) for x in lanes]


@given(st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40), min_size=4, max_size=4))
def test_pack_lanes_truncates_each_lane(lanes):
    packed = np.array(lanes, dtype=np.int64).astype("<u2").view("<u8")
    assert pack_lanes(lanes) == int(packed[0])


def test_pack_lanes_needs_four_lanes():
    with pytest.raises(ValueError):
        pack_lanes([1, 2, 3])


@given(st.integers(min_value=-(1 << 20), max_value=1 << 20))
def test_sat16_clips_to_int16(v):
    assert sat16(v) == int(np.clip(v, -(1 << 15), (1 << 15) - 1))


@given(u64, u64)
def test_c4add_saturating_lanes(a, b):
    la = np.array(split_lanes(a), dtype=np.int32)
    lb = np.array(split_lanes(b), dtype=np.int32)
    expected = pack_lanes([int(x) for x in np.clip(la + lb, -(1 << 15), (1 << 15) - 1)])
    assert execute(Opcode.C4ADD, [a, b]) == expected


@given(u64, u64)
def test_c4sub_saturating_lanes(a, b):
    la = np.array(split_lanes(a), dtype=np.int32)
    lb = np.array(split_lanes(b), dtype=np.int32)
    expected = pack_lanes([int(x) for x in np.clip(la - lb, -(1 << 15), (1 << 15) - 1)])
    assert execute(Opcode.C4SUB, [a, b]) == expected


@given(u64, u64)
def test_c4and_lanewise(a, b):
    assert execute(Opcode.C4AND, [a, b]) == (a & b)


def _lanes_of(word):
    return np.array([word], dtype="<u8").view("<i2")


def _word_of(lanes):
    return int(np.asarray(lanes, dtype="<i2").view("<u8")[0])


@pytest.mark.parametrize(
    "op, reference",
    [
        (Opcode.C4OR, lambda la, lb: la | lb),
        (Opcode.C4XOR, lambda la, lb: la ^ lb),
        (Opcode.C4SWAP32, lambda la, lb: la[[2, 3, 0, 1]]),
        (Opcode.C4SWAP16, lambda la, lb: la[[1, 0, 3, 2]]),
    ],
)
@given(a=u64, b=u64)
def test_word_level_simd_ops_match_lane_definitions(op, reference, a, b):
    srcs = [a] if op in (Opcode.C4SWAP32, Opcode.C4SWAP16) else [a, b]
    assert execute(op, srcs) == _word_of(reference(_lanes_of(a), _lanes_of(b)))


@given(u64, st.integers(min_value=0, max_value=15))
def test_c4shiftl_lanes_do_not_leak(a, n):
    out = execute(Opcode.C4SHIFTL, [a, n])
    la = np.array(split_lanes(a), dtype=np.int16)
    expected = pack_lanes([int(x) for x in (la << n).astype(np.int16)])
    assert out == expected


@given(i16, i16)
def test_q15_mul_reference(x, y):
    ref = (x * y) >> 15
    ref = max(-(1 << 15), min((1 << 15) - 1, ref))
    assert q15_mul(x, y) == ref


def test_q15_mul_saturates_only_at_minus_one_squared():
    assert q15_mul(-(1 << 15), -(1 << 15)) == (1 << 15) - 1


@given(u64, u64)
def test_d4prod_straight_lane_pairing(a, b):
    la, lb = split_lanes(a), split_lanes(b)
    out = split_lanes(execute(Opcode.D4PROD, [a, b]))
    assert out == [q15_mul(la[i], lb[i]) for i in range(4)]


@given(u64, u64)
def test_c4prod_cross_lane_pairing(a, b):
    la, lb = split_lanes(a), split_lanes(b)
    out = split_lanes(execute(Opcode.C4PROD, [a, b]))
    assert out == [
        q15_mul(la[0], lb[1]),
        q15_mul(la[1], lb[0]),
        q15_mul(la[2], lb[3]),
        q15_mul(la[3], lb[2]),
    ]


def test_complex_multiply_from_simd_pair():
    """(3+4j)*(2-1j) = 10+5j realised with d4prod/c4prod/c4sub/c4add in Q15."""

    def q(x):
        return int(round(x * (1 << 12)))  # Q3.12 to stay in range

    a = pack_lanes([q(3), q(4), 0, 0])  # re, im in lanes 0,1
    b = pack_lanes([q(2), q(-1), 0, 0])
    direct = split_lanes(execute(Opcode.D4PROD, [a, b]))  # re*re, im*im
    cross = split_lanes(execute(Opcode.C4PROD, [a, b]))  # re*im2, im*re2
    re = direct[0] - direct[1]
    im = cross[0] + cross[1]
    # Q3.12 * Q3.12 >> 15 = Q6.9; 10 -> 10*2^9, 5 -> 5*2^9 (within rounding).
    assert abs(re - 10 * (1 << 9)) <= 2
    assert abs(im - 5 * (1 << 9)) <= 2


@given(
    st.integers(min_value=-(1 << 23), max_value=(1 << 23) - 1),
    st.integers(min_value=-(1 << 23), max_value=(1 << 23) - 1),
)
def test_div_truncates_toward_zero_like_c(a, b):
    raw_a, raw_b = to_unsigned(a, 24), to_unsigned(b, 24)
    out = execute(Opcode.DIV, [raw_a, raw_b])
    if b == 0:
        assert out == MASK24
    else:
        expected = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            expected = -expected
        assert to_signed(out, 24) == expected


@given(
    st.integers(min_value=0, max_value=MASK24),
    st.integers(min_value=0, max_value=MASK24),
)
def test_div_u(a, b):
    out = execute(Opcode.DIV_U, [a, b])
    assert out == (MASK24 if b == 0 else a // b)


def test_div_ignores_upper_bits():
    # Operands are truncated to 24 bits before dividing.
    assert execute(Opcode.DIV_U, [(1 << 25) | 100, 10]) == 10


@pytest.mark.parametrize("op", [Opcode.LD_I, Opcode.ST_I, Opcode.BR, Opcode.CGA])
def test_machine_state_ops_rejected(op):
    with pytest.raises(ExecutionError):
        execute(op, [0, 0])


@given(u64)
def test_basic_ops_clear_upper_32_bits(a):
    out = execute(Opcode.ADD, [a, 1])
    assert out <= MASK32


@given(st.lists(i16, min_size=4, max_size=4))
def test_lane_pack_unpack_roundtrip(lanes):
    assert split_lanes(pack_lanes(lanes)) == lanes
