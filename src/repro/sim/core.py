"""The processor core: mode orchestration, reset, sleep, profiling.

:class:`Core` wires together the register files, scratchpad, I$, bus and
the two execution engines.  Its :meth:`run` drives a program to
completion: VLIW execution until a ``cga`` instruction hands a kernel to
the array, back to VLIW at loop exit, until ``halt`` (sleep state; the
host may resume) or the end of the instruction stream.

That loop exists twice, once per tier.  A traced or ``reference`` core
runs it here, on the engines' reference interpreters.  An untraced
``compiled`` core runs as a lane of one on
:class:`~repro.sim.batch.BatchProgramRunner`, the one driver of
generated code, which replicates the loop bit-exactly.
:meth:`reset` returns a resident core to the state of a fresh one, so a
long-lived runtime can re-drive it packet after packet.

Profiling regions (the rows of Table 2) are delimited with
:meth:`region` /  via :class:`RegionProfiler`: statistics snapshots
around a region yield per-kernel cycle counts and IPC.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.arch.config import CgaArchitecture
from repro.sim.bus import AmbaBus, DmaEngine
from repro.sim.cga import CgaEngine
from repro.sim.icache import InstructionCache
from repro.sim.memory import Scratchpad
from repro.sim.program import Program
from repro.sim.regfile import LocalRegisterFile, PredicateFile, RegisterFile
from repro.sim.stats import ActivityStats, KernelProfile
from repro.sim.vliw import VliwEngine
from repro.trace.events import StallCause
from repro.trace.tracer import NULL_TRACER, Tracer


class SimulationError(Exception):
    """Raised on unrunnable programs (unknown kernel ids, missing data)."""


#: Cycles to switch the shared register file and control between modes.
MODE_SWITCH_CYCLES = 1


class Core:
    """One hybrid CGA/VLIW processor instance."""

    def __init__(
        self,
        arch: CgaArchitecture,
        program: Program,
        tracer: Optional[Tracer] = None,
        interpreter: str = "compiled",
    ) -> None:
        if interpreter not in ("compiled", "reference"):
            raise ValueError(
                "interpreter must be 'compiled' or 'reference', not %r"
                % (interpreter,)
            )
        self.arch = arch
        self.program = program
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = ActivityStats()
        self.cdrf = RegisterFile(
            entries=arch.cdrf.entries,
            width=arch.cdrf.width,
            read_ports=arch.cdrf.read_ports,
            write_ports=arch.cdrf.write_ports,
            stats=self.stats,
            stat_prefix="cdrf",
        )
        self.cprf = PredicateFile(stats=self.stats)
        self.local_rfs: Dict[int, LocalRegisterFile] = {
            fu.index: LocalRegisterFile(
                entries=fu.local_rf.entries, width=fu.local_rf.width, stats=self.stats
            )
            for fu in arch.fus
            if fu.local_rf is not None
        }
        self.scratchpad = Scratchpad(arch.l1, stats=self.stats, tracer=self.tracer)
        self.icache = InstructionCache(
            arch.icache,
            miss_penalty=arch.icache_miss_penalty,
            stats=self.stats,
            tracer=self.tracer,
        )
        self.bus = AmbaBus(self.scratchpad, stats=self.stats, tracer=self.tracer)
        self.dma = DmaEngine(self.bus)
        self.vliw = VliwEngine(
            bundles=program.bundles,
            cdrf=self.cdrf,
            cprf=self.cprf,
            scratchpad=self.scratchpad,
            icache=self.icache,
            stats=self.stats,
            slot_fus=[fu.index for fu in arch.vliw_fus],
            tracer=self.tracer,
        )
        self.cga = CgaEngine(
            arch=arch,
            cdrf=self.cdrf,
            cprf=self.cprf,
            local_rfs=self.local_rfs,
            scratchpad=self.scratchpad,
            stats=self.stats,
        )
        #: "compiled" or "reference"; generated code has no tracer hooks,
        #: so :meth:`run` takes the reference loop while tracing is on.
        self.interpreter = interpreter
        self.cycle = 0
        self.pc = 0
        self.halted = False
        #: Kernel executions observed, in order (name, cycles).
        self.kernel_log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------

    def reset(self, program: Program, image: bytearray) -> None:
        """Put this core in place into the state a receiver region
        starts from: a fresh ``Core(arch, program)`` whose scratchpad
        holds *image* and whose I$ was warmed in pc order.  Fresh cores
        (``SimReceiver._run_region``) and resident ones
        (``ModemRuntime``) both start a region here.  Statistics keep
        accumulating; callers diff snapshots.
        """
        self.program = program
        self.vliw.bundles = program.bundles
        self.scratchpad._mem[:] = image
        bank_free = self.scratchpad._bank_next_free
        bank_free[:] = [0] * len(bank_free)
        for regs in (self.cdrf._regs, self.cprf._regs,
                     *(lrf._regs for lrf in self.local_rfs.values()),
                     self.cga._out_latch):
            regs[:] = [0] * len(regs)
        self.vliw._reg_ready.clear()
        self.vliw._pred_ready.clear()
        tags = self.icache._tags
        tags[:] = [None] * len(tags)
        self.cycle = 0
        self.pc = 0
        self.halted = False
        self.kernel_log.clear()
        # Ascending pc order determines the direct-mapped tag state.
        fetch = self.icache.fetch
        for pc in range(len(program.bundles)):
            fetch(pc)

    def load_configuration(self, stall_core: bool = False) -> int:
        """DMA-preload all kernels' configuration contexts (accounting only).

        With *stall_core* the core is modelled as waiting for the
        configuration stream (cold start): the bus cycles are booked as
        :attr:`~repro.trace.events.StallCause.DMA_CONFIG` stall on top
        of the VLIW mode counter.  The default leaves core timing
        untouched (steady-state measurement, contexts preloaded while
        the core works on the previous task).  Returns the bus cycles
        spent.
        """
        bus_cycles = 0
        for kernel in self.program.kernels.values():
            bus_cycles += self.dma.load_configuration(
                len(kernel.contexts), kernel.context_words
            )
        if stall_core and bus_cycles:
            self.stats.add_stall(StallCause.DMA_CONFIG, bus_cycles)
            self.stats.vliw_cycles += bus_cycles
            self.cycle += bus_cycles
        return bus_cycles

    def run(self, max_cycles: int = 10_000_000) -> ActivityStats:
        """Run the program to halt/end; returns the accumulated statistics."""
        from repro.sim.vliw import VliwFault

        tracer = self.tracer
        if self.interpreter == "compiled" and not tracer.enabled:
            from repro.sim.batch import BatchProgramRunner  # imports this module

            (lane,) = BatchProgramRunner(max_cycles).run([self])
            if lane.error is not None:
                raise lane.error
            return self.stats.validate()
        while not self.halted:
            if self.cycle > max_cycles:
                raise SimulationError(
                    "exceeded %d cycles; runaway program?" % max_cycles
                )
            segment_start = self.cycle
            try:
                stop, cycle = self.vliw.run_reference(
                    self.pc, self.cycle, max_cycle=max_cycles)
            except VliwFault as exc:
                raise SimulationError(str(exc)) from exc
            self.cycle = cycle
            self.pc = stop.next_pc
            if tracer.enabled and cycle > segment_start:
                tracer.complete("vliw", segment_start, cycle - segment_start, cat="mode")
            if stop.reason == "cga":
                self._run_kernel(stop.kernel_id)
            elif stop.reason in ("halt", "end"):
                self.halted = True
            else:  # pragma: no cover - defensive
                raise SimulationError("unknown stop reason %r" % stop.reason)
        return self.stats.validate()

    def _run_kernel(self, kernel_id: Optional[int]) -> None:
        if kernel_id is None or kernel_id not in self.program.kernels:
            raise SimulationError("cga references unknown kernel %r" % kernel_id)
        kernel = self.program.kernels[kernel_id]
        span_start = self.cycle
        # Mode switch in: the shared register file ports flip to the array.
        self.stats.cga_cycles += MODE_SWITCH_CYCLES
        self.cycle += MODE_SWITCH_CYCLES
        start = self.cycle
        self.cycle = self.cga.run_reference(kernel, self.cycle)
        self.kernel_log.append({"kernel": kernel.name, "cycles": self.cycle - start})
        # Mode switch out.
        self.stats.cga_cycles += MODE_SWITCH_CYCLES
        self.cycle += MODE_SWITCH_CYCLES
        if self.tracer.enabled:
            self.tracer.complete(
                "cga:%s" % kernel.name,
                span_start,
                self.cycle - span_start,
                cat="mode",
                args={"ii": kernel.ii, "stages": kernel.stage_count},
            )

    # ------------------------------------------------------------------

    @contextmanager
    def region(self, name: str, profiles: List[KernelProfile], ii: Optional[int] = None) -> Iterator[None]:
        """Profile a region: appends a :class:`KernelProfile` to *profiles*."""
        before = self.stats.snapshot()
        yield
        delta = self.stats.delta_since(before).validate()
        profiles.append(KernelProfile(name=name, stats=delta, ii=ii))

    def resume(self) -> None:
        """Host-side resume signal: wake from the ``halt`` sleep state."""
        if self.halted and self.pc < len(self.program.bundles):
            self.halted = False
