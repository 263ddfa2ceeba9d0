"""Property test: a memoised placement binds the caller's values exactly.

Twin loop bodies share one structure and differ in everything emission
binds: ``Const`` values, kernel name, register convention and trip
count.  Scheduling the second twin reuses the first twin's placement
search; the result must equal a fresh, memo-less schedule of the second
twin, and its own constants must be the immediates that get emitted.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_core
from repro.compiler import KernelBuilder
from repro.compiler.dfg import Const
from repro.compiler.modulo import ModuloScheduler, clear_placement_memo, placement_stats
from repro.isa import Opcode
from repro.isa.bits import MASK64
from repro.sim.program import SrcKind

OP_POOL = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.XOR,
    Opcode.MUL,
    Opcode.C4ADD,
    Opcode.C4SUB,
    Opcode.C4PROD,
    Opcode.C4MAX,
]

WORD = st.integers(min_value=0, max_value=MASK64)


@st.composite
def twin_shapes(draw):
    """A random op graph shape, two constant sets for it, and one
    recurrence init (the init is part of the structure)."""
    shape = []
    for i in range(draw(st.integers(min_value=1, max_value=8))):
        operands = []
        for _ in range(2):
            if i and draw(st.booleans()):
                operands.append(("ref", draw(st.integers(min_value=0, max_value=i - 1))))
            else:
                operands.append(("const", None))
        shape.append((draw(st.sampled_from(OP_POOL)), operands))
    n_consts = sum(kind == "const" for _op, operands in shape for kind, _ in operands)
    consts = st.lists(WORD, min_size=n_consts, max_size=n_consts)
    return shape, draw(consts), draw(consts), draw(WORD)


def build(shape, consts, name, init):
    kb = KernelBuilder(name)
    scale = kb.live_in("scale")
    values = iter(consts)
    refs = []
    for opcode, operands in shape:
        srcs = [refs[i] if kind == "ref" else Const(next(values)) for kind, i in operands]
        refs.append(kb.op(opcode, *srcs))
    used = {i for _op, operands in shape for kind, i in operands if kind == "ref"}
    total = kb.op(Opcode.ADD, refs[-1], scale)
    for i, ref in enumerate(refs[:-1]):
        if i not in used:
            total = kb.op(Opcode.XOR, total, ref)
    kb.accumulate(Opcode.ADD, total, init=init, live_out="out")
    return kb.finish()


def immediates(result):
    return {
        src.value
        for ctx in result.kernel.contexts
        for op in ctx.ops.values()
        for src in op.srcs
        if src.kind is SrcKind.IMM
    }


@settings(max_examples=25, deadline=None)
@given(twin_shapes(), st.integers(min_value=1, max_value=64))
def test_memo_hit_equals_fresh_schedule(twins, trip):
    shape, consts_a, consts_b, init = twins
    arch = paper_core()
    first = build(shape, consts_a, "twin_a", init)
    second = build(shape, consts_b, "twin_b", init)

    def schedule_second():
        return ModuloScheduler(second, arch, seed=1).schedule(
            live_in_regs={"scale": 57}, live_out_regs={"out": 58}, trip_count_reg=59
        )

    clear_placement_memo()
    ModuloScheduler(first, arch, seed=1).schedule(
        live_in_regs={"scale": 48}, live_out_regs={"out": 49}, trip_count=trip
    )
    assert placement_stats()["searches"] == 1
    from_memo = schedule_second()
    assert placement_stats()["searches"] == 1

    clear_placement_memo()
    fresh = schedule_second()
    assert placement_stats()["searches"] == 1
    assert from_memo == fresh
    assert repr(from_memo) == repr(fresh)
    assert from_memo.kernel.name == "twin_b"
    assert {value & MASK64 for value in consts_b} <= immediates(from_memo)
