"""The per-packet runtime: link each region program once, run many packets.

:class:`ModemRuntime` wraps one :class:`SimReceiver` and pins down the
compile-once contract: the first packet of a given shape links every
region program (hitting the two-level schedule cache for the modulo
schedules); every later same-shape packet reuses the linked programs and
pays only simulation time.  Serving many packets across processes is
:mod:`repro.fabric`'s job.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.arch import CgaArchitecture
from repro.compiler.linker import configure_schedule_cache
from repro.modem.memory_map import DEFAULT_MAP, MemoryMap
from repro.modem.receiver import ReceiverOutput, SimReceiver
from repro.phy.params import PARAMS_20MHZ_2X2, OfdmParams
from repro.sim.stats import ActivityStats


class ModemRuntime:
    """A resident receiver: compile on first use, re-run thereafter."""

    def __init__(
        self,
        arch: Optional[CgaArchitecture] = None,
        params: OfdmParams = PARAMS_20MHZ_2X2,
        mem: MemoryMap = DEFAULT_MAP,
        seed: int = 0,
        interpreter: str = "compiled",
        cache_dir: Optional[str] = None,
    ) -> None:
        if cache_dir is not None:
            configure_schedule_cache(cache_dir)
        self.receiver = SimReceiver(
            arch=arch, params=params, mem=mem, seed=seed, interpreter=interpreter
        )
        #: Packet shapes ``(n_samples, n_symbols)`` this runtime has run
        #: (== shapes whose region programs are linked and resident).
        #: ``repro.fabric`` uses this to seed shape-affinity state for
        #: workers forked from a warm template.
        self.warmed_shapes: set = set()
        #: Cumulative activity across every packet this runtime has run.
        #: Fabric worker heartbeats sample it (``host_cycles``, per-cause
        #: stall attribution) so ``/metrics`` can expose per-worker
        #: simulated progress without waiting for end-of-run reports.
        self.activity = ActivityStats()
        #: Packets run by this runtime instance.
        self.packets_run = 0

    @property
    def compiled_programs(self) -> int:
        """Region programs linked so far (grows only on new shapes)."""
        return self.receiver.compiled_programs

    @property
    def host_cycles(self) -> int:
        """Total simulated cycles across every packet run so far."""
        return int(self.activity.total_cycles)

    @property
    def stall_causes(self) -> Dict[str, int]:
        """Cumulative per-cause stall attribution (cause name -> cycles)."""
        return self.activity.stall_breakdown()

    def run_packet(
        self,
        rx: np.ndarray,
        n_symbols: int = 2,
        detect_hint: Optional[int] = None,
    ) -> ReceiverOutput:
        """Run one packet on the resident programs."""
        rx = np.atleast_2d(rx)
        self.warmed_shapes.add((int(rx.shape[1]), int(n_symbols)))
        out = self.receiver.run_packet(
            rx, n_symbols=n_symbols, detect_hint=detect_hint
        )
        self.activity.merge(out.stats)
        self.packets_run += 1
        return out

    def warm_up(self, rx: np.ndarray, **kwargs) -> ReceiverOutput:
        """Run one representative packet to link that shape's programs."""
        return self.run_packet(rx, **kwargs)

