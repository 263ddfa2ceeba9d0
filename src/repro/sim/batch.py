"""The compiled tier's one driver: cores advanced in lockstep on generated code.

:class:`BatchProgramRunner` advances one or more structurally-identical
:class:`~repro.sim.core.Core` instances ("lanes") to completion in
lockstep, replicating the reference loop of :meth:`Core.run` bit-exactly
with the lane-batched functions emitted by :mod:`repro.sim.codegen`
(:func:`~repro.sim.codegen.cga_batch_runner` /
:func:`~repro.sim.codegen.vliw_batch_runner`): one Python frame advances
every lane through a VLIW segment or a whole CGA steady-state window,
amortizing interpreter overhead across the batch.  It is the only driver
of generated code: an untraced compiled :meth:`Core.run` runs its core
as a lane of one on a fresh runner, and
:class:`repro.runtime.ModemRuntime` keeps one resident runner per
receiver region.

Lanes are expected to run ``patch_constants`` variants of one linked
program — immediate *values* may differ per lane (delivered as per-lane
imm pools), structure may not.  The driver does not trust that contract
blindly: every dispatch groups lanes by structural signature (and, for
kernels, by resolved trip count).  One group of several lanes runs one
batched call; otherwise — lanes that diverge in ``pc``, structure or
trip, or a lane of one — each lane runs alone to its next stop event on
the width-1 function of the same emitter.  Only a segment or kernel that
codegen refuses (:class:`~repro.sim.codegen.CodegenUnsupported`) steps
through the engines' reference interpreters.

Faults are per-lane: a lane whose code raises (scratchpad bounds, VLIW
runaway, a malformed kernel) keeps the exception in its
:class:`LaneResult`, mapped exactly as the reference loop of
:meth:`Core.run` maps it, while its siblings run on.  The faulted lane's
partial state is unusable (generated code leaves deferred counters
unflushed), so a caller that needs the per-packet outcome replays the
lane from its pre-run state, as ``ModemRuntime`` does.

Tracing must be disabled on every lane: the generated code omits tracer
hooks entirely (that is what makes it fast), so running it under an
enabled tracer would silently drop events.  :meth:`run` refuses it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim import codegen
from repro.sim.cga import CgaFault
from repro.sim.core import MODE_SWITCH_CYCLES, Core, SimulationError
from repro.sim.vliw import StopEvent, VliwFault

_UNSET = object()


def _sim_error(exc: VliwFault) -> SimulationError:
    """A VLIW fault as :meth:`Core.run` reports it."""
    err = SimulationError(str(exc))
    err.__cause__ = exc
    return err


class LaneResult:
    """Outcome of one lane: the core holding final state and the error,
    if the lane faulted."""

    __slots__ = ("core", "error")

    def __init__(self, core: Core, error: Optional[BaseException] = None) -> None:
        self.core = core
        self.error = error


class BatchProgramRunner:
    """Lockstep driver over a fixed set of lane slots.

    A resident runner is meant to live as long as its lane set (e.g.
    the resident cores of one receiver region): the per-lane
    signature/imm-pool caches are keyed by lane index and invalidated by
    program-object identity, so re-dispatching the same (or a freshly
    patched) program costs no signature walks after the first packet.
    The generated functions are cached per signature and width, so a
    long-lived runner fed any number of ``patch_constants`` variants
    stays bounded by the number of distinct structures.
    """

    def __init__(self, max_cycles: int = 10_000_000) -> None:
        self.max_cycles = max_cycles
        #: (signature id, n) -> fn | None (codegen refused).
        self._vliw_fns: Dict[tuple, object] = {}
        #: (signature id, trip or None at width 1, n) -> fn | None.
        self._cga_fns: Dict[tuple, object] = {}
        #: (pc, lane) -> (bundles, signature id, imms, end_pc).
        self._vliw_lane: Dict[tuple, tuple] = {}
        #: (kernel_id_slot, lane) -> (kernel, signature id, imms).
        self._cga_lane: Dict[tuple, tuple] = {}
        #: signature tuple -> small interned id.  Group keys and fn-cache
        #: keys carry the id, so the (large) signature tuple is hashed
        #: once per memo fill, not once per lane per round.
        self._sig_ids: Dict[tuple, int] = {}
        #: signature id -> signature, handed to codegen on a fn-cache
        #: miss so it need not walk the segment or kernel again.
        self._sigs: List[tuple] = []

    # -- per-lane memoization (identity-guarded: strong refs pin ids) ---

    def _sid(self, sig: tuple) -> int:
        sid = self._sig_ids.setdefault(sig, len(self._sigs))
        if sid == len(self._sigs):
            self._sigs.append(sig)
        return sid

    def _lane_vliw(self, lane: int, core: Core, pc: int) -> tuple:
        key = (pc, lane)
        ent = self._vliw_lane.get(key)
        bundles = core.program.bundles
        if ent is not None and ent[0] is bundles:
            return ent
        end_pc = codegen.vliw_segment_end(bundles, pc)
        sid = self._sid(codegen.vliw_signature(bundles, pc, end_pc))
        ent = (bundles, sid, codegen.vliw_imms(bundles, pc, end_pc), end_pc)
        self._vliw_lane[key] = ent
        return ent

    def _lane_cga(self, lane: int, kid, kernel) -> tuple:
        key = (kid, lane)
        ent = self._cga_lane.get(key)
        if ent is not None and ent[0] is kernel:
            return ent
        ent = (kernel, self._sid(codegen.cga_signature(kernel)),
               codegen.cga_imms(kernel))
        self._cga_lane[key] = ent
        return ent

    # -- generated-function lookup --------------------------------------

    def _vliw_fn(self, core0: Core, pc: int, sid: int, n: int):
        key = (sid, n)
        fn = self._vliw_fns.get(key, _UNSET)
        if fn is _UNSET:
            try:
                fn, _end = codegen.vliw_batch_runner(
                    core0.program.bundles, pc, core0.vliw.slot_fus,
                    core0.cdrf, core0.cprf, core0.scratchpad, core0.icache,
                    VliwFault, n_lanes=n, signature=self._sigs[sid],
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._vliw_fns[key] = fn
        return fn

    def _cga_fn(self, core0: Core, kernel0, sid: int, trip: int, n: int):
        # Width 1 ignores the trip (see codegen.cga_runner): one entry.
        key = (sid, trip if n > 1 else None, n)
        fn = self._cga_fns.get(key, _UNSET)
        if fn is _UNSET:
            try:
                fn = codegen.cga_batch_runner(
                    kernel0, core0.arch, CgaFault,
                    cdrf_ports=(core0.cdrf.read_ports, core0.cdrf.write_ports),
                    cprf_ports=(core0.cprf.read_ports, core0.cprf.write_ports),
                    n_lanes=n, trip=key[1], signature=self._sigs[sid],
                )
            except codegen.CodegenUnsupported:
                fn = None
            self._cga_fns[key] = fn
        return fn

    # -- driving --------------------------------------------------------

    def run(self, cores: List[Core]) -> List[LaneResult]:
        """Drive every lane to halt (or error); returns per-lane results."""
        for core in cores:
            if core.tracer.enabled:
                raise ValueError("batch execution requires tracing disabled")
        results = [LaneResult(core) for core in cores]
        while True:
            act = [i for i, res in enumerate(results)
                   if res.error is None and not res.core.halted]
            if not act:
                break
            # Core.run's loop-top runaway check, once per stop round.
            for i in list(act):
                if results[i].core.cycle > self.max_cycles:
                    results[i].error = SimulationError(
                        "exceeded %d cycles; runaway program?" % self.max_cycles)
                    act.remove(i)
            if not act:
                continue
            stop_ev = self._vliw_phase(act, results)
            self._stop_phase(stop_ev, results)
        return results

    # -- VLIW phase: run every active lane to its next stop event -------

    def _vliw_phase(self, act: List[int],
                    results: List[LaneResult]) -> Dict[int, StopEvent]:
        stop_ev: Dict[int, StopEvent] = {}
        pending = list(act)
        while pending:
            groups: Dict[tuple, List[int]] = {}
            lane_imms: Dict[int, tuple] = {}
            for i in pending:
                core = results[i].core
                if not 0 <= core.pc < len(core.program.bundles):
                    # Fell off the instruction stream: the engine's stop.
                    stop_ev[i] = StopEvent("end", next_pc=core.pc)
                    continue
                _bundles, sid, imms, _end = self._lane_vliw(i, core, core.pc)
                lane_imms[i] = imms
                groups.setdefault((core.pc, sid), []).append(i)
            pending = []
            if len(groups) == 1:
                ((pc, sid), lanes), = groups.items()
                if len(lanes) > 1:
                    try:
                        fn = self._vliw_fn(results[lanes[0]].core, pc, sid,
                                           len(lanes))
                    except VliwFault as exc:
                        for i in lanes:
                            results[i].error = _sim_error(exc)
                        continue
                    if fn is not None:
                        pending = self._vliw_batch_step(
                            fn, lanes, [lane_imms[i] for i in lanes], results,
                            stop_ev)
                        continue
            for lanes in groups.values():
                for i in lanes:
                    self._vliw_solo(results[i], i, stop_ev)
        return stop_ev

    def _vliw_solo(self, res: LaneResult, i: int, stop_ev) -> None:
        """Run lane *i* alone to its next stop event on width-1
        functions; a segment codegen refuses hands the lane to the
        reference interpreter, which runs on to the stop."""
        core = res.core
        bundles = core.program.bundles
        n_bundles = len(bundles)
        # Width-1 result slots, reused: each call fills them or faults.
        stops, next_pcs, cycles_out, faults = [None], [0], [0], [None]
        try:
            while 0 <= core.pc < n_bundles:
                _bundles, sid, imms, _end = self._lane_vliw(i, core, core.pc)
                fn = self._vliw_fn(core, core.pc, sid, 1)
                if fn is None:
                    stop, core.cycle = core.vliw.run_reference(
                        core.pc, core.cycle, max_cycle=self.max_cycles)
                    core.pc = stop.next_pc
                    stop_ev[i] = stop
                    return
                fn([core.cycle], self.max_cycles, [imms], [core.cdrf._regs],
                   [core.cprf._regs], [core.vliw._reg_ready],
                   [core.vliw._pred_ready], [core.icache], [core.scratchpad],
                   [core.stats], stops, next_pcs, cycles_out, faults)
                if faults[0] is not None:
                    raise faults[0]
                core.pc = next_pcs[0]
                core.cycle = cycles_out[0]
                if stops[0] is not None:
                    stop_ev[i] = stops[0]
                    return
            stop_ev[i] = StopEvent("end", next_pc=core.pc)
        except VliwFault as exc:
            res.error = _sim_error(exc)
        except Exception as exc:
            res.error = exc

    def _vliw_batch_step(self, fn, lanes, imms, results, stop_ev) -> List[int]:
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
            imms,
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
            exc = faults[k]
            if exc is not None:
                results[i].error = (_sim_error(exc) if isinstance(exc, VliwFault)
                                    else exc)
                continue
            core = mcores[k]
            core.cycle = cycles_out[k]
            core.pc = next_pcs[k]
            if stops[k] is not None:
                stop_ev[i] = stops[k]
            else:
                carry_on.append(i)
        return carry_on

    # -- stop phase: halts and kernel execution -------------------------

    def _stop_phase(self, stop_ev: Dict[int, StopEvent], results) -> None:
        groups: Dict[tuple, List[int]] = {}
        ginfo: Dict[int, tuple] = {}
        for i, stop in stop_ev.items():
            if stop.reason in ("halt", "end"):
                results[i].core.halted = True
                continue
            if stop.reason != "cga":
                results[i].error = SimulationError(
                    "unknown stop reason %r" % stop.reason)
                continue
            core = results[i].core
            kid = stop.kernel_id
            if kid is None or kid not in core.program.kernels:
                results[i].error = SimulationError(
                    "cga references unknown kernel %r" % kid)
                continue
            kernel = core.program.kernels[kid]
            # Mode switch in (Core._run_kernel).
            core.stats.cga_cycles += MODE_SWITCH_CYCLES
            core.cycle += MODE_SWITCH_CYCLES
            try:
                trip = core.cga.trip_of(kernel)
            except CgaFault as exc:
                results[i].error = exc
                continue
            if trip <= 0:
                _kernel_done(core, kernel, core.cycle, core.cycle)
                continue
            _kernel, sid, imms = self._lane_cga(i, kid, kernel)
            ginfo[i] = (kernel, sid, imms, trip)
            groups.setdefault((sid, trip), []).append(i)
        if len(groups) == 1:
            ((sid, trip), lanes), = groups.items()
            if len(lanes) > 1 and self._cga_batch_step(sid, trip, lanes, ginfo,
                                                       results):
                return
        for i, info in ginfo.items():
            if results[i].error is None:
                self._cga_solo(results[i], info)

    def _cga_solo(self, res: LaneResult, info: tuple) -> None:
        """Run one lane's kernel alone on its width-1 function, or on
        the reference interpreter when codegen refuses the kernel."""
        core = res.core
        kernel, sid, imms, trip = info
        start = core.cycle
        try:
            fn = self._cga_fn(core, kernel, sid, trip, 1)
            if fn is None:
                end = core.cga.run_reference(kernel, start)
            else:
                pre = core.cga.preload(kernel)
                ends, faults = [0], [None]
                fn([trip], [start + pre], [pre], [imms], [core.cga._out_latch],
                   [core.cdrf._regs], [core.cprf._regs], [core.local_rfs],
                   [core.scratchpad], [core.stats], ends, faults)
                if faults[0] is not None:
                    raise faults[0]
                end = ends[0]
        except Exception as exc:
            res.error = exc
            return
        _kernel_done(core, kernel, start, end)

    def _cga_batch_step(self, sid, trip, lanes, ginfo, results) -> bool:
        """One batched kernel call for a convergent group; returns False,
        with no core touched, when the lanes must run solo instead (a
        lane whose preloads fault only has its error recorded)."""
        try:
            fn = self._cga_fn(results[lanes[0]].core, ginfo[lanes[0]][0], sid,
                              trip, len(lanes))
        except CgaFault as exc:
            for i in lanes:
                results[i].error = exc
            return True
        if fn is None:
            return False
        # Preload faults are structural; detect before mutating any lane
        # so the survivors can still run solo without double-applied
        # preload side effects.
        for i in lanes:
            try:
                results[i].core.cga.check_preloads(ginfo[i][0])
            except CgaFault as exc:
                results[i].error = exc
        if any(results[i].error is not None for i in lanes):
            return False
        mcores = [results[i].core for i in lanes]
        starts = [c.cycle for c in mcores]
        preload_cycles = [c.cga.preload(ginfo[i][0]) for c, i in zip(mcores, lanes)]
        m = len(lanes)
        ends = [0] * m
        faults: List[object] = [None] * m
        fn(
            [trip] * m,
            [s + p for s, p in zip(starts, preload_cycles)],
            preload_cycles,
            [ginfo[i][2] for i in lanes],
            [c.cga._out_latch for c in mcores],
            [c.cdrf._regs for c in mcores],
            [c.cprf._regs for c in mcores],
            [c.local_rfs for c in mcores],
            [c.scratchpad for c in mcores],
            [c.stats for c in mcores],
            ends, faults,
        )
        for k, i in enumerate(lanes):
            if faults[k] is not None:
                results[i].error = faults[k]
            else:
                _kernel_done(mcores[k], ginfo[i][0], starts[k], ends[k])
        return True


def _kernel_done(core: Core, kernel, start: int, end: int) -> None:
    """Kernel exit (Core._run_kernel): log the kernel, switch back."""
    core.cycle = end
    core.kernel_log.append({"kernel": kernel.name, "cycles": end - start})
    core.stats.cga_cycles += MODE_SWITCH_CYCLES
    core.cycle += MODE_SWITCH_CYCLES
