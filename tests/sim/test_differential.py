"""Differential harness: the generated code against the reference tier.

Every program here runs under ``Core(interpreter="reference")`` and
``Core(interpreter="compiled")`` (the engines call the width-1 generated
functions), plus the lockstep driver (:mod:`repro.sim.batch` driving the
same emitter's functions at widths 1, 3 and 4), and the final machine
state must be **bit-identical** to the reference run: cycle counts,
every register file, scratchpad memory, and the full
:class:`~repro.sim.stats.ActivityStats` including per-cause stall
counters.  This is the correctness contract of the code generator
(`src/repro/sim/codegen.py`): generated code is an optimisation, never a
semantic change.  The lockstep driver additionally proves its
divergence story here: ragged widths, per-lane immediate pools, and
mid-batch faults that fall back to per-packet execution bit-identically.
When codegen refuses a kernel or segment (``CodegenUnsupported``) the
engines fall back to the reference tier; the forced-fallback tests
below hold that path to the same contract.
"""

import pytest

from repro.arch import paper_core
from repro.compiler.linker import ProgramLinker
from repro.isa import Imm, Instruction, Opcode, PredReg, Reg
from repro.kernels.fshift import build_fshift_dfg, phasor_table_words
from repro.kernels.xcorr import build_xcorr_dfg
from repro.phy.fixed import quantize_complex
from repro.sim import (
    CgaContext,
    CgaKernel,
    CgaOp,
    Core,
    DstSel,
    Program,
    SrcSel,
    VliwBundle,
)
from repro.sim.batch import BatchProgramRunner
from repro.sim.cga import CgaFault
from repro.sim.memory import MemoryError_
from repro.sim.program import DstKind, Preload
from repro.sim.stats import _COUNTER_FIELDS, _SCALAR_FIELDS


def enter_and_halt(kernel_id=0):
    return [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(kernel_id),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]


def assert_identical(core: Core, reference: Core) -> None:
    """Assert bit-identical architectural state and statistics."""
    assert core.cycle == reference.cycle, "cycle counts differ"
    assert core.pc == reference.pc
    assert core.halted == reference.halted
    assert core.kernel_log == reference.kernel_log
    n = core.cdrf.entries
    assert [core.cdrf.peek(i) for i in range(n)] == [
        reference.cdrf.peek(i) for i in range(n)
    ], "CDRF contents differ"
    n = core.cprf.entries
    assert [core.cprf.peek(i) for i in range(n)] == [
        reference.cprf.peek(i) for i in range(n)
    ], "CPRF contents differ"
    assert set(core.local_rfs) == set(reference.local_rfs)
    for fu, lrf in core.local_rfs.items():
        ref = reference.local_rfs[fu]
        assert [lrf.peek(i) for i in range(lrf.entries)] == [
            ref.peek(i) for i in range(ref.entries)
        ], "local RF %d contents differ" % fu
    assert bytes(core.scratchpad._mem) == bytes(
        reference.scratchpad._mem
    ), "scratchpad contents differ"
    for name in _SCALAR_FIELDS:
        assert getattr(core.stats, name) == getattr(reference.stats, name), (
            "stats.%s differs: core=%r reference=%r"
            % (name, getattr(core.stats, name), getattr(reference.stats, name))
        )
    for name in _COUNTER_FIELDS:
        got = {k: v for k, v in getattr(core.stats, name).items() if v}
        ref = {k: v for k, v in getattr(reference.stats, name).items() if v}
        assert got == ref, "stats.%s differs" % name


INTERPRETERS = ("reference", "compiled")

#: Lanes driven through the batched tier by :func:`run_both`; a small
#: odd width so the batch fns differ from any pre-seeded cache entries.
BATCH_LANES = 3


def assert_batched_identical(make_core, reference, n_lanes=BATCH_LANES,
                             runner=None):
    """Drive *n_lanes* fresh compiled cores through the batched tier and
    assert each lane lands bit-identical to *reference* without needing
    the per-packet fallback.  Returns the lane results."""
    lanes = [make_core() for _ in range(n_lanes)]
    if runner is None:
        runner = BatchProgramRunner()
    results = runner.run(lanes, fresh=lambda i: make_core())
    for lane in results:
        assert lane.error is None, "batched lane errored: %r" % (lane.error,)
        assert not lane.fell_back, "batched lane unexpectedly fell back"
        assert_identical(reference, lane.core)
    return results


def run_both(program, pokes=(), mem=(), arch=None):
    """Run *program* under all interpreter tiers — including the batched
    tier — and diff the final state."""

    def make_core(interpreter="compiled"):
        core = Core(arch or paper_core(), program, interpreter=interpreter)
        for reg, value in pokes:
            core.cdrf.poke(reg, value)
        for addr, value, size in mem:
            core.scratchpad.write_word(addr, value, size)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])
    return cores[0]


# ----------------------------------------------------------------------
# Hand-built CGA kernels covering every structural feature
# ----------------------------------------------------------------------


def k_accumulator():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(5)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    return CgaKernel(
        name="acc", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=10,
    ), (), ()


def k_trip_from_register():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    return CgaKernel(
        name="count", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count_reg=5,
    ), [(5, 7)], ()


def k_pipelined_load():
    n = 8
    addr_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(-4 & 0xFFFFFFFF), SrcSel.imm(4)),
        stage=0,
    )
    load_op = CgaOp(
        opcode=Opcode.LD_I, srcs=(SrcSel.wire(0), SrcSel.imm(0)), stage=1,
    )
    acc_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.wire(1)),
        dsts=(DstSel(DstKind.CDRF, 20, last_iteration_only=True),),
        stage=6,
    )
    kernel = CgaKernel(
        name="sum", ii=1, stage_count=7,
        contexts=[CgaContext(ops={0: addr_op, 1: load_op, 2: acc_op})],
        trip_count=n,
    )
    return kernel, (), [(4 * i, i + 1, 4) for i in range(n)]


def k_store_stream():
    """Induction variable stored through FU0 -> store on FU1 (bank traffic)."""
    idx_op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(-1 & 0xFFFFFFFF), SrcSel.imm(1)),
        stage=0,
    )
    addr_op = CgaOp(
        opcode=Opcode.LSL, srcs=(SrcSel.wire(0), SrcSel.imm(2)), stage=1,
    )
    store_op = CgaOp(
        opcode=Opcode.ST_I,
        srcs=(SrcSel.wire(2), SrcSel.imm(0), SrcSel.wire(0)),
        stage=2,
    )
    kernel = CgaKernel(
        name="fill", ii=1, stage_count=3,
        contexts=[
            CgaContext(ops={0: idx_op, 2: addr_op, 1: store_op}),
        ],
        trip_count=6,
    )
    return kernel, (), ()


def k_predicated():
    """Guarded accumulate: every other iteration squashed via CPRF toggle."""
    toggle = CgaOp(
        opcode=Opcode.XOR,
        srcs=(SrcSel.self_().with_init(1), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CPRF, 3),),
        stage=0,
    )
    acc = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 11, last_iteration_only=True),),
        pred=SrcSel.cprf(3),
        stage=1,
    )
    neg = CgaOp(
        opcode=Opcode.SUB,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(1)),
        dsts=(DstSel(DstKind.CDRF, 12, last_iteration_only=True),),
        pred=SrcSel.cprf(3),
        pred_negate=True,
        stage=1,
    )
    kernel = CgaKernel(
        name="pred", ii=1, stage_count=2,
        contexts=[CgaContext(ops={0: toggle, 1: acc, 2: neg})],
        trip_count=9,
    )
    return kernel, (), ()


def k_ii2_multi_context():
    """II=2 with different ops per context and an LRF-held live-in.

    The multiply sits on FU4 (has a local RF, no central port); the
    result crosses a mesh wire to FU0, which owns a central RF port.
    """
    mul = CgaOp(
        opcode=Opcode.MUL,
        srcs=(SrcSel.self_().with_init(1), SrcSel.lrf(0)),
        stage=0,
    )
    add = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.wire(4), SrcSel.imm(3)),
        dsts=(DstSel(DstKind.CDRF, 13, last_iteration_only=True),),
        stage=0,
    )
    kernel = CgaKernel(
        name="ii2", ii=2, stage_count=1,
        contexts=[CgaContext(ops={4: mul}), CgaContext(ops={0: add})],
        trip_count=5,
        preloads=[Preload(fu=4, lrf_index=0, cdrf_reg=6)],
    )
    return kernel, [(6, 3)], ()


def k_simd_div():
    """SIMD lane math + the 24-bit divider (longest latency, drain test)."""
    lanes = CgaOp(
        opcode=Opcode.C4ADD,
        srcs=(SrcSel.self_().with_init(0x0001_0002_0003_0004), SrcSel.imm(0x0001_0001_0001_0001)),
        dsts=(DstSel(DstKind.CDRF, 14, last_iteration_only=True),),
        stage=0,
    )
    div = CgaOp(
        opcode=Opcode.DIV,
        srcs=(SrcSel.self_().with_init(1000), SrcSel.imm(3)),
        dsts=(DstSel(DstKind.CDRF, 15, last_iteration_only=True),),
        stage=0,
    )
    kernel = CgaKernel(
        name="simd_div", ii=1, stage_count=1,
        contexts=[CgaContext(ops={2: lanes, 0: div})],
        trip_count=4,
    )
    return kernel, (), ()


def k_bank_conflict():
    """Two same-cycle loads to the same L1 bank: stall-cause parity."""
    load_a = CgaOp(opcode=Opcode.LD_I, srcs=(SrcSel.imm(0), SrcSel.imm(0)), stage=0)
    load_b = CgaOp(opcode=Opcode.LD_I, srcs=(SrcSel.imm(64), SrcSel.imm(0)), stage=0)
    kernel = CgaKernel(
        name="conflict", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: load_a, 1: load_b})],
        trip_count=5,
    )
    return kernel, (), [(0, 7, 4), (64, 9, 4)]


CGA_KERNELS = [
    k_accumulator,
    k_trip_from_register,
    k_pipelined_load,
    k_store_stream,
    k_predicated,
    k_ii2_multi_context,
    k_simd_div,
    k_bank_conflict,
]


@pytest.mark.parametrize("build", CGA_KERNELS, ids=lambda b: b.__name__)
def test_cga_kernel_differential(build):
    kernel, pokes, mem = build()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    run_both(program, pokes=pokes, mem=mem)


def test_core_accepts_only_the_two_tiers():
    program = Program(bundles=enter_and_halt(), kernels={0: k_accumulator()[0]})
    core = Core(paper_core(), program)
    assert core.cga.use_compiled and core.vliw.use_compiled  # the default
    with pytest.raises(ValueError, match="'compiled' or 'reference'"):
        Core(paper_core(), program, interpreter="decoded")


def test_zero_trip_differential():
    kernel, _, _ = k_accumulator()
    kernel = CgaKernel(
        name="zero", ii=kernel.ii, stage_count=kernel.stage_count,
        contexts=kernel.contexts, trip_count_reg=5,
    )
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    run_both(program, pokes=[(5, 0)])


def test_repeated_kernel_entry_uses_cache():
    """Entering the same kernel twice exercises the compiled-kernel cache."""
    kernel, _, _ = k_accumulator()
    bundles = [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    program = Program(bundles=bundles, kernels={0: kernel})
    core = run_both(program)
    assert len(core.kernel_log) == 2


def test_patched_constants_differential():
    """``patch_constants`` variants stay bit-identical across tiers and
    share one compiled artifact (signatures exclude immediate values)."""
    from repro.sim import codegen
    from repro.sim.program import patch_constants

    sentinel = 0xDEAD01
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(sentinel)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="patched", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=6,
    )
    template = Program(bundles=enter_and_halt(), kernels={0: kernel})
    results = []
    compiles = []
    for value in (3, 11, -5):
        before = codegen.codegen_stats()["compilations"]
        core = run_both(patch_constants(template, {sentinel: value}))
        compiles.append(codegen.codegen_stats()["compilations"] - before)
        results.append(core.cdrf.peek(10))
        assert core.cdrf.peek(10) == (6 * value) & 0xFFFFFFFF  # ADD wraps at 32b
    assert len(set(results)) == 3
    # The first variant's compiles cover the rest: only the immediate
    # pool differs (counted per variant, so it holds in any test order).
    assert compiles[1:] == [0, 0]


# ----------------------------------------------------------------------
# VLIW control flow, scoreboard, memory
# ----------------------------------------------------------------------


def test_vliw_loop_differential():
    """Counted loop: interlocks, taken/not-taken branches, loads, stores."""
    bundles = [
        # r1 = 5 (counter), r2 = 0 (sum)
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(5)), dst=Reg(1)),
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(0)), dst=Reg(2)),
            None,
        )),
        # loop: r2 += r1; p1 = (r1 > 1); r1 -= 1
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Reg(2), Reg(1)), dst=Reg(2)),
            Instruction(Opcode.PRED_GT, srcs=(Reg(1), Imm(1)), dst=PredReg(1)),
            Instruction(Opcode.SUB, srcs=(Reg(1), Imm(1)), dst=Reg(1)),
        )),
        # if p1: br loop (-2)
        VliwBundle((
            Instruction(Opcode.BR, srcs=(Imm(-2),), pred=PredReg(1)),
            None,
            None,
        )),
        # store r2 to mem[16]; load it back into r3
        VliwBundle((
            Instruction(Opcode.ST_I, srcs=(Reg(2), Imm(4), Reg(2))),
            None,
            None,
        )),
        VliwBundle((
            Instruction(Opcode.LD_I, srcs=(Imm(15), Imm(1)), dst=Reg(3)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(2) == 15  # 5+4+3+2+1
    assert core.stats.stall_causes  # interlock/branch stalls happened


def test_vliw_jmpl_link_differential():
    """jmpl writes the link register and jumps; jmp via register returns."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.JMPL, srcs=(Imm(3),), dst=Reg(9)),
            None,
            None,
        )),
        # Fallthrough target after return: r4 = 42; halt.
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(42)), dst=Reg(4)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
        # Subroutine: jmp back through the link register.
        VliwBundle((
            Instruction(Opcode.JMP, srcs=(Reg(9),)),
            None,
            None,
        )),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(4) == 42
    assert core.cdrf.peek(9) == 1


def test_vliw_predicated_slots_differential():
    """Predicated slots squash without architectural effect."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.PRED_SET, dst=PredReg(2)),
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(1)), dst=Reg(5)),
            None,
        )),
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(7)), dst=Reg(6), pred=PredReg(2)),
            Instruction(
                Opcode.ADD, srcs=(Imm(0), Imm(9)), dst=Reg(7),
                pred=PredReg(2), pred_negate=True,
            ),
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    core = run_both(Program(bundles=bundles))
    assert core.cdrf.peek(6) == 7
    assert core.cdrf.peek(7) == 0
    assert core.stats.squashed_ops == 1  # only the negated slot squashes


# ----------------------------------------------------------------------
# Real compiled kernels (modulo scheduler output)
# ----------------------------------------------------------------------


def _compiled_program(build_dfg, live_ins, trip):
    arch = paper_core()
    linker = ProgramLinker(arch)
    linker.call_kernel(build_dfg, live_ins=live_ins, trip_count=trip)
    return arch, linker.link()


def test_compiled_fshift_differential():
    """The CFO-rotation kernel as produced by the modulo scheduler."""
    import numpy as np

    from repro.kernels.common import store_complex_array

    n = 32
    rng = np.random.default_rng(7)
    x = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    re, im = quantize_complex(x)
    table = phasor_table_words(50e3, 20e6, n)
    arch, program = _compiled_program(
        build_fshift_dfg(),
        live_ins={"src": 0, "dst": 2048, "tab": 1024},
        trip=n // 2,
    )
    def make_core(interpreter="compiled"):
        core = Core(arch, program, interpreter=interpreter)
        store_complex_array(core.scratchpad, 0, re, im)
        for k, w in enumerate(table):
            core.scratchpad.write_word(1024 + 8 * k, w, 8)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])


def test_compiled_xcorr_differential():
    """The cross-correlation kernel (SIMD reduction + live-out latching)."""
    import numpy as np

    from repro.kernels.common import store_complex_array

    n = 16
    rng = np.random.default_rng(11)
    sig = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    ref = 0.25 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    sig_re, sig_im = quantize_complex(sig)
    ref_re, ref_im = quantize_complex(ref)
    arch, program = _compiled_program(
        build_xcorr_dfg(),
        live_ins={"base": 0, "ref": 2048},
        trip=n // 2,
    )
    def make_core(interpreter="compiled"):
        core = Core(arch, program, interpreter=interpreter)
        store_complex_array(core.scratchpad, 0, sig_re, sig_im)
        store_complex_array(core.scratchpad, 2048, ref_re, ref_im)
        return core

    cores = []
    for interpreter in INTERPRETERS:
        core = make_core(interpreter)
        core.run()
        cores.append(core)
    for other in cores[1:]:
        assert_identical(cores[0], other)
    assert_batched_identical(make_core, cores[0])


# ----------------------------------------------------------------------
# Batched tier: ragged widths, per-lane pools, divergence fallback
# ----------------------------------------------------------------------


def _maker(program, pokes=(), mem=(), interpreter="compiled"):
    def make_core():
        core = Core(paper_core(), program, interpreter=interpreter)
        for reg, value in pokes:
            core.cdrf.poke(reg, value)
        for addr, value, size in mem:
            core.scratchpad.write_word(addr, value, size)
        return core

    return make_core


def test_batched_ragged_final_batch():
    """N % B != 0: one resident runner serves a full batch, the ragged
    remainder and a lone lane, each width bit-identical to the
    reference tier."""
    kernel, pokes, mem = k_pipelined_load()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    make_core = _maker(program, pokes, mem)
    reference = _maker(program, pokes, mem, interpreter="reference")()
    reference.run()
    runner = BatchProgramRunner()
    for width in (4, 3, 1):  # 8 packets at B=4 -> batches of 4, 3 and 1
        assert_batched_identical(make_core, reference, n_lanes=width,
                                 runner=runner)
    # Every width, the lone lane included, compiled to (and was served
    # by) its own generated function.
    widths = {key[-1] for key in runner._cga_fns}
    assert widths == {4, 3, 1}
    assert all(fn is not None for fn in runner._cga_fns.values())


def test_batched_patched_constants_per_lane_pools():
    """Lanes carrying different ``patch_constants`` variants batch
    together: one compiled artifact, per-lane immediate pools."""
    from repro.sim import codegen
    from repro.sim.program import patch_constants

    sentinel = 0xDEAD02
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(sentinel)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="pools", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=6,
    )
    template = Program(bundles=enter_and_halt(), kernels={0: kernel})
    values = (3, 11, -5)
    variants = [patch_constants(template, {sentinel: v}) for v in values]
    per_packet = []
    for variant in variants:
        core = _maker(variant, interpreter="reference")()
        core.run()
        per_packet.append(core)
    lanes = [_maker(variant)() for variant in variants]
    runner = BatchProgramRunner()
    before = codegen.codegen_stats()["compilations"]
    results = runner.run(lanes)
    for lane, ref, value in zip(results, per_packet, values):
        assert lane.error is None and not lane.fell_back
        assert_identical(ref, lane.core)
        assert lane.core.cdrf.peek(10) == (6 * value) & 0xFFFFFFFF
    # All three variants shared the batch compiles (one VLIW segment fn
    # at most, one kernel fn at most — pools carry the differing imms).
    assert codegen.codegen_stats()["compilations"] - before <= 2
    assert all(fn is not None for fn in runner._cga_fns.values())


def test_batched_divergent_trip_counts_fall_back_per_packet():
    """Differing register trip counts split the batch; every lane still
    lands bit-identical to its own reference-tier run."""
    kernel, _, _ = k_trip_from_register()
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    trips = (7, 3, 7, 0)
    per_packet = []
    for trip in trips:
        core = _maker(program, pokes=[(5, trip)], interpreter="reference")()
        core.run()
        per_packet.append(core)
    lanes = [_maker(program, pokes=[(5, trip)])() for trip in trips]
    results = BatchProgramRunner().run(lanes)
    for lane, ref in zip(results, per_packet):
        assert lane.error is None and not lane.fell_back
        assert_identical(ref, lane.core)


def test_batched_mid_batch_cga_fault_falls_back():
    """A lane whose kernel faults (preload into a missing local RF — a
    structural property the signature excludes, so the lane still lands
    in the batch group) is replayed per-packet with the canonical
    ``CgaFault``; the surviving lanes stay bit-identical."""
    kernel, pokes, mem = k_pipelined_load()
    bad_kernel = CgaKernel(
        name=kernel.name, ii=kernel.ii, stage_count=kernel.stage_count,
        contexts=kernel.contexts, trip_count=kernel.trip_count,
        preloads=[Preload(fu=99, lrf_index=0, cdrf_reg=0)],
    )
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    bad_program = Program(bundles=enter_and_halt(), kernels={0: bad_kernel})
    reference = _maker(program, pokes, mem, interpreter="reference")()
    reference.run()
    with pytest.raises(CgaFault) as per_packet_exc:
        _maker(bad_program, pokes, mem, interpreter="reference")().run()

    def fresh(lane):
        return _maker(bad_program if lane == 1 else program, pokes, mem)()

    lanes = [fresh(i) for i in range(3)]
    results = BatchProgramRunner().run(lanes, fresh=fresh)
    assert results[1].fell_back
    assert isinstance(results[1].error, CgaFault)
    assert str(results[1].error) == str(per_packet_exc.value)
    for i in (0, 2):
        assert results[i].error is None and not results[i].fell_back
        assert_identical(reference, results[i].core)


def test_batched_mid_segment_memory_fault_falls_back():
    """A data-dependent scratchpad overrun in one lane faults inside the
    batched VLIW function; the fallback reproduces the per-packet
    ``MemoryError_`` while sibling lanes complete batched."""
    bundles = [
        VliwBundle((
            Instruction(Opcode.LD_I, srcs=(Reg(1), Imm(0)), dst=Reg(2)),
            None,
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    program = Program(bundles=bundles)
    good = [(1, 16)]
    bad = [(1, 1 << 20)]  # far outside the scratchpad
    reference = _maker(program, pokes=good, mem=[(64, 5, 4)],
                       interpreter="reference")()
    reference.run()
    with pytest.raises(MemoryError_) as per_packet_exc:
        _maker(program, pokes=bad, interpreter="reference")().run()

    def fresh(lane):
        pokes = bad if lane == 2 else good
        mem = () if lane == 2 else [(64, 5, 4)]
        return _maker(program, pokes=pokes, mem=mem)()

    lanes = [fresh(i) for i in range(4)]
    results = BatchProgramRunner().run(lanes, fresh=fresh)
    assert results[2].fell_back
    assert isinstance(results[2].error, MemoryError_)
    assert str(results[2].error) == str(per_packet_exc.value)
    for i in (0, 1, 3):
        assert results[i].error is None and not results[i].fell_back
        assert_identical(reference, results[i].core)


def test_batched_fault_without_fresh_records_error():
    """Without a ``fresh`` factory the batched-path exception is kept,
    mapped exactly as ``Core.run`` maps it."""
    kernel, pokes, mem = k_pipelined_load()
    bad_kernel = CgaKernel(
        name=kernel.name, ii=kernel.ii, stage_count=kernel.stage_count,
        contexts=kernel.contexts, trip_count=kernel.trip_count,
        preloads=[Preload(fu=99, lrf_index=0, cdrf_reg=0)],
    )
    program = Program(bundles=enter_and_halt(), kernels={0: kernel})
    bad_program = Program(bundles=enter_and_halt(), kernels={0: bad_kernel})
    lanes = [_maker(bad_program if i == 0 else program, pokes, mem)()
             for i in range(3)]
    results = BatchProgramRunner().run(lanes)
    assert isinstance(results[0].error, CgaFault)
    assert not results[0].fell_back
    assert results[1].error is None and results[2].error is None


# ----------------------------------------------------------------------
# Forced fallback: codegen refuses, the reference tier runs instead
# ----------------------------------------------------------------------


def _refuse(*args, **kwargs):
    from repro.sim import codegen

    raise codegen.CodegenUnsupported("refused for the fallback test")


def _loop_then_kernel_program():
    """A counted VLIW loop, a load/accumulate kernel, then more VLIW:
    several segments and one kernel launch, so both engines fall back."""
    kernel, pokes, mem = k_pipelined_load()
    bundles = [
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Imm(0), Imm(3)), dst=Reg(1)),
            None,
            None,
        )),
        VliwBundle((
            Instruction(Opcode.ADD, srcs=(Reg(2), Reg(1)), dst=Reg(2)),
            Instruction(Opcode.PRED_GT, srcs=(Reg(1), Imm(1)), dst=PredReg(1)),
            Instruction(Opcode.SUB, srcs=(Reg(1), Imm(1)), dst=Reg(1)),
        )),
        VliwBundle((Instruction(Opcode.BR, srcs=(Imm(-2),), pred=PredReg(1)), None, None)),
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((
            Instruction(Opcode.ST_I, srcs=(Imm(256), Imm(0), Reg(20))),
            Instruction(Opcode.ADD, srcs=(Reg(20), Reg(2)), dst=Reg(3)),
            None,
        )),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    return Program(bundles=bundles, kernels={0: kernel}), pokes, mem


@pytest.mark.parametrize(
    "refused",
    [("cga_runner",), ("vliw_runner",), ("cga_runner", "vliw_runner"), ("first_segment",)],
    ids=lambda r: "+".join(r),
)
def test_codegen_refusal_falls_back_to_reference(monkeypatch, refused):
    """A kernel or segment ``codegen`` refuses runs on the reference tier
    and the whole run stays bit-identical to an all-reference run, also
    when compiled and reference segments interleave in one program."""
    from repro.sim import codegen

    program, pokes, mem = _loop_then_kernel_program()
    make_core = _maker(program, pokes, mem)
    reference = _maker(program, pokes, mem, interpreter="reference")()
    reference.run()
    assert reference.cdrf.peek(3) == reference.cdrf.peek(20) + 6  # 3+2+1

    if refused == ("first_segment",):
        real = codegen.vliw_runner

        def refuse_pc0(bundles, start_pc, *args, **kwargs):
            if start_pc == 0:
                _refuse()
            return real(bundles, start_pc, *args, **kwargs)

        monkeypatch.setattr(codegen, "vliw_runner", refuse_pc0)
    else:
        for name in refused:
            monkeypatch.setattr(codegen, name, _refuse)
    core = make_core()
    core.run()
    assert_identical(core, reference)

    # The engines pinned the refusal instead of retrying codegen.
    kernel_fns = [fn for _k, fn, _imms in core.cga._compiled.values()]
    assert kernel_fns and all(
        (fn is None) == ("cga_runner" in refused) for fn in kernel_fns
    )
    segments = [entry for entry in core.vliw._compiled if entry is not None]
    if "vliw_runner" in refused:
        assert segments and all(entry is False for entry in segments)
    elif refused == ("first_segment",):
        assert core.vliw._compiled[0] is False
        assert any(entry not in (None, False) for entry in segments)
    else:
        assert segments and all(entry is not False for entry in segments)


@pytest.mark.parametrize("per_packet_refused", [False, True],
                         ids=["to_compiled", "to_reference"])
def test_batched_refusal_falls_back_per_packet(monkeypatch, per_packet_refused):
    """Lanes whose batch functions ``codegen`` refuses step per packet
    (compiled, or reference when that is refused too), bit-identical to
    an all-reference run and without counting as a fault fallback."""
    from repro.sim import codegen

    program, pokes, mem = _loop_then_kernel_program()
    make_core = _maker(program, pokes, mem)
    reference = _maker(program, pokes, mem, interpreter="reference")()
    reference.run()

    monkeypatch.setattr(codegen, "cga_batch_runner", _refuse)
    monkeypatch.setattr(codegen, "vliw_batch_runner", _refuse)
    if per_packet_refused:
        monkeypatch.setattr(codegen, "cga_runner", _refuse)
        monkeypatch.setattr(codegen, "vliw_runner", _refuse)
    runner = BatchProgramRunner()
    results = runner.run([make_core() for _ in range(BATCH_LANES)],
                         fresh=lambda i: make_core())
    for lane in results:
        assert lane.error is None and not lane.fell_back
        assert_identical(lane.core, reference)
        kernel_fns = [fn for _k, fn, _imms in lane.core.cga._compiled.values()]
        assert kernel_fns and all((fn is None) == per_packet_refused
                                  for fn in kernel_fns)
    assert runner._cga_fns and all(fn is None for fn in runner._cga_fns.values())
    assert runner._vliw_fns and all(fn is None for fn in runner._vliw_fns.values())
