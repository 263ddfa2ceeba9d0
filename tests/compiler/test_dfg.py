"""DFG construction and analysis tests."""

import pytest

from repro.compiler import CompileError, Const, Dfg, KernelBuilder, LiveIn, NodeRef
from repro.isa import Opcode


def test_add_node_and_refs():
    dfg = Dfg("t")
    a = dfg.add_node(Opcode.ADD, [Const(1), Const(2)])
    b = dfg.add_node(Opcode.SUB, [a, Const(1)], live_out="out")
    assert dfg.op_count() == 2
    assert dfg.live_outs == ["out"]
    assert [c.node_id for c, _ in dfg.consumers(a.node_id)] == [b.node_id]


def test_forward_distance0_reference_rejected():
    dfg = Dfg("t")
    with pytest.raises(CompileError):
        dfg.add_node(Opcode.ADD, [NodeRef(5), Const(0)])


def test_distance_rules():
    with pytest.raises(CompileError):
        NodeRef(0, distance=2, init=0)
    with pytest.raises(CompileError):
        NodeRef(0, distance=1)  # init required
    with pytest.raises(CompileError):
        NodeRef(0, distance=0, init=3)  # init meaningless


def test_undeclared_live_in_rejected():
    dfg = Dfg("t")
    with pytest.raises(CompileError):
        dfg.add_node(Opcode.ADD, [LiveIn("nope"), Const(0)])


def test_dead_code_detected():
    kb = KernelBuilder("dead")
    kb.add(1, 2)  # no side effect, no consumer
    with pytest.raises(CompileError):
        kb.finish()


def test_duplicate_live_out_rejected():
    dfg = Dfg("t")
    a = dfg.add_node(Opcode.ADD, [Const(1), Const(2)], live_out="x")
    with pytest.raises(CompileError):
        dfg.add_node(Opcode.ADD, [a, Const(0)], live_out="x")


def test_mem_op_count_and_critical_path():
    kb = KernelBuilder("cp")
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    addr = kb.add(base, i)
    x = kb.load(Opcode.LD_I, addr)
    y = kb.mul(x, x)
    kb.store(Opcode.ST_I, addr, y, offset=64)
    dfg = kb.finish()
    assert dfg.mem_op_count() == 2
    # induction(1) -> addr(1) -> load(5) -> mul(2) -> store(1)
    assert dfg.critical_path() >= 10


def test_recurrence_mii_accumulator_is_1():
    kb = KernelBuilder("acc")
    acc = kb.accumulate(Opcode.ADD, 5, init=0, live_out="sum")
    dfg = kb.finish()
    assert dfg.recurrence_mii() == 1


def test_recurrence_mii_long_cycle():
    """A 2-node cycle with a 2-cycle mul forces II >= 3."""
    kb = KernelBuilder("rec")
    dfg = kb.dfg
    # a = mul(b_prev, c); b = add(a, 1): cycle latency = 2 + 1 = 3, distance 1.
    a = dfg.add_node(Opcode.MUL, [Const(0), Const(3)])
    b = dfg.add_node(Opcode.ADD, [a, Const(1)], live_out="out")
    dfg.nodes[a.node_id].srcs = (NodeRef(b.node_id, distance=1, init=1), Const(3))
    assert dfg.recurrence_mii() == 3


def test_induction_semminatics_init_offset():
    kb = KernelBuilder("ind")
    i = kb.induction(init=100, step=8)
    kb.store(Opcode.ST_I, i, 1)
    dfg = kb.finish()
    node = dfg.nodes[i.node_id]
    self_ref = node.srcs[0]
    assert isinstance(self_ref, NodeRef)
    assert self_ref.distance == 1
    # First iteration reads init - step so the body sees init + k*step.
    assert self_ref.init == (100 - 8)


def test_consumers_sees_nodes_added_after_a_query():
    """The consumer adjacency is built lazily; add_node must invalidate it."""
    dfg = Dfg("t")
    a = dfg.add_node(Opcode.ADD, [Const(1), Const(2)])
    b = dfg.add_node(Opcode.SUB, [a, Const(1)])
    assert [c.node_id for c, _ in dfg.consumers(a.node_id)] == [b.node_id]
    assert dfg.consumers(b.node_id) == []
    c = dfg.add_node(Opcode.ADD, [b, a], live_out="out")
    assert [n.node_id for n, _ in dfg.consumers(a.node_id)] == [b.node_id, c.node_id]
    assert [n.node_id for n, _ in dfg.consumers(b.node_id)] == [c.node_id]


def test_consumers_sees_patched_sources():
    """Builders close recurrences by reassigning ``srcs``; that changes
    the edges too."""
    dfg = Dfg("t")
    a = dfg.add_node(Opcode.ADD, [Const(1), Const(2)])
    b = dfg.add_node(Opcode.ADD, [Const(0), Const(0)], live_out="out")
    assert dfg.consumers(a.node_id) == []
    dfg.nodes[b.node_id].srcs = (NodeRef(b.node_id, distance=1, init=0), a)
    assert [n.node_id for n, _ in dfg.consumers(a.node_id)] == [b.node_id]
    assert [ref.distance for _, ref in dfg.consumers(b.node_id)] == [1]


def test_consumers_returns_a_fresh_list():
    dfg = Dfg("t")
    a = dfg.add_node(Opcode.ADD, [Const(1), Const(2)])
    b = dfg.add_node(Opcode.SUB, [a, Const(1)], live_out="out")
    dfg.consumers(a.node_id).clear()
    dfg.consumers(b.node_id).append("junk")
    assert [n.node_id for n, _ in dfg.consumers(a.node_id)] == [b.node_id]
    assert dfg.consumers(b.node_id) == []
