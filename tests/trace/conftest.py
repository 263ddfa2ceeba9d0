"""Shared workload for the trace tests: one traced FIR kernel run."""

from types import SimpleNamespace

import pytest

from repro.arch import paper_core
from repro.compiler import KernelBuilder
from repro.compiler.dfg import Const
from repro.compiler.linker import ProgramLinker
from repro.isa import Opcode
from repro.sim import Core
from repro.trace import Tracer, set_tracer
from tests.conftest import _cold_compile_caches


def build_fir_dfg(taps: int = 4):
    """A 4-tap streaming FIR over packed complex pairs."""
    kb = KernelBuilder("fir4")
    src = kb.live_in("src")
    dst = kb.live_in("dst")
    i_src = kb.induction(0, 8)
    i_dst = kb.induction(0, 8)
    addr = kb.add(src, i_src)
    acc = None
    for k in range(taps):
        x = kb.load(Opcode.LD_Q, addr, offset=-k)
        term = kb.cmul(x, Const(0x4000_4000_4000_4000 >> k))
        acc = term if acc is None else kb.c4add(acc, term)
    kb.store(Opcode.ST_Q, kb.add(dst, i_dst), acc)
    return kb.finish()


@pytest.fixture(scope="session")
def fir_run():
    """Compile and simulate the FIR kernel with tracing on.

    The tracer is installed process-wide during compilation so the
    modulo scheduler's II-search and the code generator's compile events
    land in the same buffer the simulator fills.  Every compile cache
    starts cold, so those events do not depend on which tests ran first.
    """
    arch = paper_core()
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        with _cold_compile_caches():
            linker = ProgramLinker(arch, name="fir", seed=0)
            linker.call_kernel(
                build_fir_dfg(), live_ins={"src": 64, "dst": 2048}, trip_count=16
            )
            program = linker.link()
            core = Core(arch, program, tracer=tracer)
            core.load_configuration()
            profiles = []
            with core.region("fir4", profiles, ii=linker.kernel_results[0].ii):
                core.run()
    finally:
        set_tracer(previous)
    return SimpleNamespace(
        arch=arch,
        core=core,
        tracer=tracer,
        profiles=profiles,
        schedule=linker.kernel_results[0],
    )
