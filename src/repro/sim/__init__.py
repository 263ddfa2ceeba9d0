"""Cycle-accurate simulator of the hybrid CGA/VLIW processor.

The simulator executes :class:`~repro.sim.program.Program` objects
produced by the compiler (or hand-written in tests).  It models, per
clock cycle:

* VLIW mode: 3-issue in-order execution with scoreboard interlocks,
  predication, branch penalties and I$ miss stalls;
* CGA mode: one configuration context per cycle driving all 16 units in
  lockstep, software-pipeline stage gating, pipelined interconnect
  reads, local/central register file traffic;
* the 4-bank single-ported L1 scratchpad with transparent contention
  queuing (conflicts stall the consumer and are counted);
* a direct-mapped instruction cache with 128-bit lines;
* an AMBA2-style slave bus with DMA used to preload data and
  configuration contexts.

Every architectural event (FU op, RF port access, bank access/conflict,
I$ hit/miss, configuration word fetch, interconnect transfer) is counted
in :class:`~repro.sim.stats.ActivityStats`, the input to the power model.
"""

from repro.sim.stats import ActivityStats, KernelProfile
from repro.sim.regfile import RegisterFile, PredicateFile, LocalRegisterFile
from repro.sim.memory import Scratchpad
from repro.sim.icache import InstructionCache
from repro.sim.bus import AmbaBus, DmaEngine
from repro.sim.program import (
    Program,
    VliwBundle,
    CgaKernel,
    CgaContext,
    CgaOp,
    SrcSel,
    DstSel,
)
from repro.sim.core import Core, SimulationError
from repro.sim.batch import BatchProgramRunner, LaneResult

__all__ = [
    "BatchProgramRunner",
    "LaneResult",
    "ActivityStats",
    "KernelProfile",
    "RegisterFile",
    "PredicateFile",
    "LocalRegisterFile",
    "Scratchpad",
    "InstructionCache",
    "AmbaBus",
    "DmaEngine",
    "Program",
    "VliwBundle",
    "CgaKernel",
    "CgaContext",
    "CgaOp",
    "SrcSel",
    "DstSel",
    "Core",
    "SimulationError",
]
