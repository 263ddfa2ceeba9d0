"""Cross-packet lockstep batch driver for the compiled tier.

:class:`BatchProgramRunner` advances one or more structurally-identical
:class:`~repro.sim.core.Core` instances ("lanes") to completion in
lockstep, replicating :meth:`Core.run` bit-exactly while replacing the
hot inner execution with the lane-batched functions emitted by
:mod:`repro.sim.codegen` (:func:`~repro.sim.codegen.cga_batch_runner` /
:func:`~repro.sim.codegen.vliw_batch_runner`): one Python frame advances
every lane through a VLIW segment or a whole CGA steady-state window,
amortizing interpreter overhead across the batch.  A single lane is a
batch of width 1 and takes the same generated functions.

Lanes are expected to run ``patch_constants`` variants of one linked
program — immediate *values* may differ per lane (delivered as per-lane
imm pools), structure may not.  The driver does not trust that contract
blindly: every dispatch groups lanes by structural signature (and, for
kernels, by resolved trip count), so lanes that diverge — different
``pc``, different structure, different trips — simply drop out of the
batch and are stepped one by one through the cores' own engines, which
are bit-identical by the compiled tier's contract.

Faults are per-lane: a lane whose generated code raises (scratchpad
bounds, VLIW runaway) is recorded in its :class:`LaneResult` and — when
a ``fresh`` factory is provided — re-run per-packet from scratch, which
reproduces the per-packet result or exception bit-identically (the
batched fault leaves deferred counters unflushed, so the partial lane
state is never reused).

Tracing must be disabled on every lane: the batched code omits tracer
hooks entirely (that is what makes it fast), so lockstep execution under
an enabled tracer would silently drop events.  :meth:`run` refuses it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim import codegen
from repro.sim.cga import CgaFault
from repro.sim.core import MODE_SWITCH_CYCLES, Core, SimulationError
from repro.sim.vliw import StopEvent, VliwFault

_UNSET = object()


class LaneResult:
    """Outcome of one lane: the core holding final state, the error (if
    the lane faulted), and whether the per-packet fallback ran it."""

    __slots__ = ("core", "error", "fell_back")

    def __init__(self, core: Optional[Core], error: Optional[BaseException] = None,
                 fell_back: bool = False) -> None:
        self.core = core
        self.error = error
        self.fell_back = fell_back

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchProgramRunner:
    """Resident lockstep driver over a fixed set of lane slots.

    One runner instance is meant to live as long as its lane set (e.g.
    the resident cores of one receiver region at one batch width): the
    per-lane signature/imm-pool caches are keyed by lane index and
    invalidated by program-object identity, so re-dispatching the same
    (or a freshly patched) program costs no signature walks after the
    first packet — the 27% of warm per-packet time the profile blamed on
    pool/signature recomputation.
    """

    def __init__(self, max_cycles: int = 10_000_000) -> None:
        self.max_cycles = max_cycles
        #: (signature id, n) -> batch fn | None (codegen refused).
        self._vliw_fns: Dict[tuple, object] = {}
        #: (signature id, trip, n) -> trip-specialized batch fn | None.
        self._cga_fns: Dict[tuple, object] = {}
        #: (pc, lane) -> (bundles, signature id, imms, end_pc).
        self._vliw_lane: Dict[tuple, tuple] = {}
        #: (kernel_id_slot, lane) -> (kernel, signature id, imms).
        self._cga_lane: Dict[tuple, tuple] = {}
        #: signature tuple -> small interned id.  Group keys and batch-fn
        #: cache keys carry the id, so the (large) signature tuple is
        #: hashed once per memo fill, not once per lane per round.
        self._sig_ids: Dict[tuple, int] = {}

    # -- per-lane memoization (identity-guarded: strong refs pin ids) ---

    def _lane_vliw(self, lane: int, core: Core, pc: int) -> tuple:
        key = (pc, lane)
        ent = self._vliw_lane.get(key)
        bundles = core.program.bundles
        if ent is not None and ent[0] is bundles:
            return ent
        end_pc = codegen.vliw_segment_end(bundles, pc)
        sig = codegen.vliw_signature(bundles, pc, end_pc)
        imms = codegen.vliw_imms(bundles, pc, end_pc)
        sid = self._sig_ids.setdefault(sig, len(self._sig_ids))
        ent = (bundles, sid, imms, end_pc)
        self._vliw_lane[key] = ent
        return ent

    def _lane_cga(self, lane: int, kid, kernel) -> tuple:
        key = (kid, lane)
        ent = self._cga_lane.get(key)
        if ent is not None and ent[0] is kernel:
            return ent
        sig = codegen.cga_signature(kernel)
        sid = self._sig_ids.setdefault(sig, len(self._sig_ids))
        ent = (kernel, sid, codegen.cga_imms(kernel))
        self._cga_lane[key] = ent
        return ent

    # -- batch-function lookup ------------------------------------------

    def _vliw_fn(self, core0: Core, pc: int, sid: int, n: int):
        key = (sid, n)
        fn = self._vliw_fns.get(key, _UNSET)
        if fn is _UNSET:
            try:
                fn, _end = codegen.vliw_batch_runner(
                    core0.program.bundles, pc, core0.vliw.slot_fus,
                    core0.cdrf, core0.cprf, core0.scratchpad, core0.icache,
                    VliwFault, n,
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._vliw_fns[key] = fn
        return fn

    def _cga_fn(self, core0: Core, kernel0, sid: int, trip: int, n: int):
        key = (sid, trip, n)
        fn = self._cga_fns.get(key, _UNSET)
        if fn is _UNSET:
            try:
                fn = codegen.cga_batch_runner(
                    kernel0, core0.arch, CgaFault,
                    cdrf_ports=(core0.cdrf.read_ports, core0.cdrf.write_ports),
                    cprf_ports=(core0.cprf.read_ports, core0.cprf.write_ports),
                    n_lanes=n, trip=trip,
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._cga_fns[key] = fn
        return fn

    # -- driving --------------------------------------------------------

    def run(self, cores: List[Core],
            fresh: Optional[Callable[[int], Core]] = None) -> List[LaneResult]:
        """Drive every lane to halt (or error); returns per-lane results.

        *fresh*, when given, maps a lane index to a brand-new fully
        prepared core (pokes and memory applied, nothing run); a lane
        that faults is then replayed per-packet on that core — the
        canonical result or exception — and marked ``fell_back``.
        Without *fresh* the batched-path exception is recorded directly
        (mapped exactly as :meth:`Core.run` would map it).
        """
        for core in cores:
            if core.tracer.enabled:
                raise ValueError("batch execution requires tracing disabled")
        n = len(cores)
        results = [LaneResult(core) for core in cores]

        def fail(lane: int, exc: BaseException) -> None:
            if fresh is None:
                results[lane].error = exc
                results[lane].fell_back = False
                return
            replay = LaneResult(None, fell_back=True)
            results[lane] = replay
            try:
                core = fresh(lane)
                replay.core = core
                core.run(max_cycles=self.max_cycles)
            except Exception as replay_exc:
                replay.error = replay_exc

        while True:
            act = [i for i in range(n)
                   if results[i].error is None and not results[i].fell_back
                   and not results[i].core.halted]
            if not act:
                break
            # Core.run's loop-top runaway check, once per stop round.
            for i in list(act):
                if results[i].core.cycle > self.max_cycles:
                    fail(i, SimulationError(
                        "exceeded %d cycles; runaway program?" % self.max_cycles))
                    act.remove(i)
            if not act:
                continue
            stop_ev = self._vliw_phase(act, results, fail)
            self._stop_phase(stop_ev, results, fail)
        return results

    # -- VLIW phase: run every active lane to its next stop event -------

    def _vliw_phase(self, act: List[int], results: List[LaneResult],
                    fail) -> Dict[int, StopEvent]:
        stop_ev: Dict[int, StopEvent] = {}
        pending = list(act)
        while pending:
            # Fell off the instruction stream: same stop the engine makes.
            regroup: List[int] = []
            for i in pending:
                core = results[i].core
                if 0 <= core.pc < len(core.program.bundles):
                    regroup.append(i)
                else:
                    stop_ev[i] = StopEvent("end", next_pc=core.pc)
            groups: Dict[tuple, List[int]] = {}
            lane_imms: Dict[int, tuple] = {}
            for i in regroup:
                core = results[i].core
                _bundles, sid, imms, _end = self._lane_vliw(i, core, core.pc)
                lane_imms[i] = imms
                groups.setdefault((core.pc, sid), []).append(i)
            pending = []
            convergent = len(groups) == 1
            for (pc, sid), lanes in groups.items():
                fn = None
                if convergent:
                    core0 = results[lanes[0]].core
                    try:
                        fn = self._vliw_fn(core0, pc, sid, len(lanes))
                    except VliwFault as exc:
                        for i in lanes:
                            fail(i, SimulationError(str(exc)))
                        continue
                if fn is None:
                    self._vliw_individual(lanes, results, stop_ev, fail)
                    continue
                pending.extend(
                    self._vliw_batch_step(fn, lanes, lane_imms, results,
                                          stop_ev, fail))
        return stop_ev

    def _vliw_individual(self, lanes, results, stop_ev, fail) -> None:
        """Per-core stepping for divergent lanes and refused segments:
        one full ``vliw.run`` to the next stop event."""
        for i in lanes:
            core = results[i].core
            try:
                stop, cycle = core.vliw.run(core.pc, core.cycle,
                                            max_cycle=self.max_cycles)
            except VliwFault as exc:
                fail(i, SimulationError(str(exc)))
                continue
            except Exception as exc:
                fail(i, exc)
                continue
            core.cycle = cycle
            core.pc = stop.next_pc
            stop_ev[i] = stop

    def _vliw_batch_step(self, fn, lanes, lane_imms, results, stop_ev,
                         fail) -> List[int]:
        """One batched segment; returns the lanes that continue (their
        segment ended without a stop event, e.g. a fallthrough branch)."""
        mcores = [results[i].core for i in lanes]
        m = len(lanes)
        stops: List[object] = [None] * m
        next_pcs = [0] * m
        cycles_out = [0] * m
        faults: List[object] = [None] * m
        fn(
            [c.cycle for c in mcores],
            self.max_cycles,
            [lane_imms[i] for i in lanes],
            [c.cdrf._regs for c in mcores],
            [c.cprf._regs for c in mcores],
            [c.vliw._reg_ready for c in mcores],
            [c.vliw._pred_ready for c in mcores],
            [c.icache for c in mcores],
            [c.scratchpad for c in mcores],
            [c.stats for c in mcores],
            stops, next_pcs, cycles_out, faults,
        )
        carry_on: List[int] = []
        for k, i in enumerate(lanes):
            if faults[k] is not None:
                exc = faults[k]
                if isinstance(exc, VliwFault):
                    exc = SimulationError(str(exc))
                fail(i, exc)
                continue
            core = results[i].core
            core.cycle = cycles_out[k]
            core.pc = next_pcs[k]
            if stops[k] is not None:
                stop_ev[i] = stops[k]
            else:
                carry_on.append(i)
        return carry_on

    # -- stop phase: halts and (batched) kernel execution ---------------

    def _stop_phase(self, stop_ev: Dict[int, StopEvent], results, fail) -> None:
        groups: Dict[tuple, List[int]] = {}
        ginfo: Dict[int, tuple] = {}
        for i, stop in stop_ev.items():
            if stop.reason in ("halt", "end"):
                results[i].core.halted = True
                continue
            if stop.reason != "cga":
                fail(i, SimulationError("unknown stop reason %r" % stop.reason))
                continue
            core = results[i].core
            kid = stop.kernel_id
            if kid is None or kid not in core.program.kernels:
                fail(i, SimulationError("cga references unknown kernel %r" % kid))
                continue
            kernel = core.program.kernels[kid]
            # Mode switch in (Core._run_kernel).
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES
            try:
                trip = core.cga.trip_of(kernel)
            except CgaFault as exc:
                fail(i, exc)
                continue
            if trip <= 0:
                core.kernel_log.append({"kernel": kernel.name, "cycles": 0})
                core.stats.cga_cycles += MODE_SWITCH_CYCLES
                core.cycle += MODE_SWITCH_CYCLES
                continue
            _kernel, sid, imms = self._lane_cga(i, kid, kernel)
            ginfo[i] = (kernel, imms)
            groups.setdefault((sid, trip), []).append(i)
        convergent = len(groups) == 1
        for (sid, trip), lanes in groups.items():
            fn = None
            if convergent:
                core0 = results[lanes[0]].core
                try:
                    fn = self._cga_fn(core0, ginfo[lanes[0]][0], sid, trip,
                                      len(lanes))
                except CgaFault as exc:
                    for i in lanes:
                        fail(i, exc)
                    continue
            if fn is None:
                self._cga_individual(lanes, ginfo, results, fail)
                continue
            self._cga_batch_step(fn, trip, lanes, ginfo, results, fail)

    def _cga_individual(self, lanes, ginfo, results, fail) -> None:
        """Per-core kernel execution for divergent lanes and refused
        kernels (the engine applies preloads and resolves the trip
        itself, exactly as in Core.run)."""
        for i in lanes:
            core = results[i].core
            kernel = ginfo[i][0]
            start = core.cycle
            try:
                end = core.cga.run(kernel, core.cycle)
            except Exception as exc:
                fail(i, exc)
                continue
            core.cycle = end
            core.kernel_log.append({"kernel": kernel.name, "cycles": end - start})
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES

    def _cga_batch_step(self, fn, trip, lanes, ginfo, results, fail) -> None:
        # Preload faults are structural; detect before mutating any lane
        # so survivors can still run (per-packet) without double-applied
        # preload side effects.
        ready: List[int] = []
        for i in lanes:
            try:
                results[i].core.cga.check_preloads(ginfo[i][0])
            except CgaFault as exc:
                fail(i, exc)
            else:
                ready.append(i)
        if len(ready) != len(lanes):
            self._cga_individual(ready, ginfo, results, fail)
            return
        starts = []
        preload_cycles_s = []
        start_cycles = []
        for i in ready:
            core = results[i].core
            pre = core.cga.preload(ginfo[i][0])
            starts.append(core.cycle)
            preload_cycles_s.append(pre)
            start_cycles.append(core.cycle + pre)
        m = len(ready)
        mcores = [results[i].core for i in ready]
        ends = [0] * m
        faults: List[object] = [None] * m
        fn(
            [trip] * m,
            start_cycles,
            preload_cycles_s,
            [ginfo[i][1] for i in ready],
            [c.cga._out_latch for c in mcores],
            [c.cdrf._regs for c in mcores],
            [c.cprf._regs for c in mcores],
            [c.local_rfs for c in mcores],
            [c.scratchpad for c in mcores],
            [c.stats for c in mcores],
            ends, faults,
        )
        for k, i in enumerate(ready):
            if faults[k] is not None:
                fail(i, faults[k])
                continue
            core = results[i].core
            core.cycle = ends[k]
            core.kernel_log.append(
                {"kernel": ginfo[i][0].name, "cycles": ends[k] - starts[k]})
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES
