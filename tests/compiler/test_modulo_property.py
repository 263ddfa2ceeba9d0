"""Differential property test: random DFGs, interpreter vs compiled array.

For randomly generated loop bodies, the value computed by a direct
Python interpretation of the DFG (using the shared ISA semantics) must
equal the value produced by modulo-scheduling the DFG onto the 4x4
array and executing it on the cycle-accurate simulator.  This covers the
scheduler's placement/routing legality, phi initialisation, stage
gating, latch lifetimes and move insertion in one property.  The same
linked program also runs on the reference interpreter and on the
lockstep driver at width 3, and all three must end bit-identical:
differential fuzzing of the generated code at B in {1, 3}.
"""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import paper_core
from repro.compiler import KernelBuilder
from repro.compiler.dfg import Const, Dfg, NodeRef
from repro.compiler.linker import ProgramLinker
from repro.isa import Opcode
from repro.isa.bits import MASK64
from repro.isa.semantics import execute as exec_semantics
from repro.sim import BatchProgramRunner, Core
from tests.sim.test_differential import assert_identical

#: Dataflow opcodes the generator may pick (2-source, no memory).
OP_POOL = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.XOR,
    Opcode.AND,
    Opcode.OR,
    Opcode.MUL,
    Opcode.C4ADD,
    Opcode.C4SUB,
    Opcode.D4PROD,
    Opcode.C4PROD,
    Opcode.C4MAX,
    Opcode.C4MIN,
]


def interpret(dfg: Dfg, trip: int) -> int:
    """Reference interpreter: returns the final live-out value."""
    prev: Dict[int, int] = {}
    live_out_value = 0
    for _iteration in range(trip):
        current: Dict[int, int] = {}
        for nid in sorted(dfg.nodes):
            node = dfg.nodes[nid]
            srcs = []
            for ref in node.srcs:
                if isinstance(ref, Const):
                    srcs.append(ref.value & MASK64)
                elif isinstance(ref, NodeRef):
                    if ref.distance == 0:
                        srcs.append(current[ref.node_id])
                    else:
                        srcs.append(prev.get(ref.node_id, ref.init & MASK64)
                                    if ref.node_id in prev
                                    else ref.init & MASK64)
                else:  # pragma: no cover
                    raise AssertionError("unexpected operand")
            current[nid] = exec_semantics(node.opcode, srcs)
            if node.live_out is not None:
                live_out_value = current[nid]
        prev = current
    return live_out_value


@st.composite
def random_dfg(draw):
    """A random loop body: a DAG of arithmetic ops + one accumulator."""
    kb = KernelBuilder("prop")
    n_ops = draw(st.integers(min_value=1, max_value=8))
    refs: List = []
    for _ in range(n_ops):
        op = draw(st.sampled_from(OP_POOL))
        def operand():
            if refs and draw(st.booleans()):
                return draw(st.sampled_from(refs))
            return Const(draw(st.integers(min_value=0, max_value=MASK64)))
        refs.append(kb.op(op, operand(), operand()))
    acc_op = draw(st.sampled_from([Opcode.ADD, Opcode.XOR, Opcode.C4ADD]))
    init = draw(st.integers(min_value=0, max_value=MASK64))
    kb.accumulate(acc_op, refs[-1], init=init, live_out="out")
    # Mark any dangling roots as consumed via a cheap combine so the
    # DFG has no dead code.
    used = set()
    for node in kb.dfg.nodes.values():
        for ref in node.srcs:
            if isinstance(ref, NodeRef):
                used.add(ref.node_id)
    for ref in refs[:-1]:
        if ref.node_id not in used:
            kb.dfg.nodes[ref.node_id].live_out = None
            # fold into the accumulator chain through an xor with 0 use
            kb.accumulate(Opcode.XOR, ref, init=0, live_out=None)
    # accumulators without live-out would be dead; give them names.
    names = 0
    for node in kb.dfg.nodes.values():
        if not node.has_side_effect and not kb.dfg.consumers(node.node_id):
            node.live_out = "aux%d" % names
            kb.dfg.live_outs.append(node.live_out)
            names += 1
    trip = draw(st.integers(min_value=1, max_value=6))
    return kb.finish(), trip


@settings(max_examples=25, deadline=None)
@given(random_dfg())
def test_compiled_kernel_matches_interpreter(case):
    dfg, trip = case
    expected = interpret(dfg, trip)
    arch = paper_core()
    linker = ProgramLinker(arch, seed=1)
    outs = linker.call_kernel(dfg, live_ins={}, trip_count=trip)
    program = linker.link()
    core = Core(arch, program)
    core.run()
    got = core.cdrf.peek(outs["out"].index)
    assert got == expected
    reference = Core(arch, program, interpreter="reference")
    reference.run()
    assert_identical(core, reference)
    for lane in BatchProgramRunner().run([Core(arch, program) for _ in range(3)]):
        assert lane.error is None
        assert_identical(lane.core, core)
