"""Tracing must stay zero-cost on the compiled tier (the default).

When no tracer is attached (``NULL_TRACER``), the generated code may
consult the tracer only O(1) times per mode switch / kernel entry —
never once per simulated cycle or per op.  The proof: run the same
kernel at two trip counts an order of magnitude apart and require the
*identical* number of tracer attribute lookups.
"""

from repro.arch import paper_core
from repro.isa import Imm, Instruction, Opcode, Reg
from repro.sim import CgaContext, CgaKernel, CgaOp, Core, DstSel, Program, SrcSel, VliwBundle
from repro.sim.program import DstKind


class CountingNullTracer:
    """Disabled tracer that tallies every attribute lookup by name."""

    def __init__(self):
        object.__setattr__(self, "lookups", {})

    def __getattribute__(self, name):
        if name == "lookups":
            return object.__getattribute__(self, "lookups")
        lookups = object.__getattribute__(self, "lookups")
        lookups[name] = lookups.get(name, 0) + 1
        if name == "enabled":
            return False
        return lambda *args, **kwargs: None


def _run_cga_trip(trip):
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(5)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="acc", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=trip,
    )
    bundles = [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    tracer = CountingNullTracer()
    core = Core(paper_core(), Program(bundles=bundles, kernels={0: kernel}), tracer=tracer)
    core.run()
    assert core.cdrf.peek(10) == 5 * trip
    return dict(tracer.lookups)


def test_cga_tracer_lookups_independent_of_trip_count():
    """Steady-state CGA cycles make zero tracer lookups."""
    small = _run_cga_trip(8)
    large = _run_cga_trip(512)
    assert small == large, (
        "tracer lookups scale with trip count: %r vs %r" % (small, large)
    )


def test_vliw_straightline_tracer_lookups_independent_of_length():
    """Issuing more stall-free VLIW bundles adds no tracer lookups.

    The I$ is warmed first (the receiver's steady-state setup) and only
    lookups made during :meth:`Core.run` are compared, so the per-miss
    fill-path lookups don't obscure the issue loop's count.
    """

    def run(n_adds):
        bundles = [
            VliwBundle((
                Instruction(Opcode.ADD, srcs=(Imm(0), Imm(k)), dst=Reg(1)),
                None,
                None,
            ))
            for k in range(n_adds)
        ]
        bundles.append(VliwBundle((Instruction(Opcode.HALT), None, None)))
        tracer = CountingNullTracer()
        core = Core(paper_core(), Program(bundles=bundles), tracer=tracer)
        for pc in range(len(bundles)):
            core.icache.fetch(pc)
        before = dict(tracer.lookups)
        core.run()
        return {
            name: count - before.get(name, 0)
            for name, count in tracer.lookups.items()
            if count - before.get(name, 0)
        }

    assert run(4) == run(64)
