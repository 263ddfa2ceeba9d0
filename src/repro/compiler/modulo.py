"""Modulo scheduling of loop DFGs onto the CGA (the DRESC core idea).

The scheduler implements iterative modulo scheduling with explicit
placement and routing, in the spirit of Mei et al. (the paper's ref [6]):

1. compute the minimum initiation interval
   ``MII = max(ResMII, RecMII)`` from resource pressure (16 units, 4
   memory ports, 2 dividers) and recurrence cycles;
2. for ``II = MII, MII+1, ...``: place operations one by one, highest
   criticality first, onto ``(unit, cycle)`` slots of the modulo routing
   resource graph; every data edge is *routed*: either the consumer
   reads the producer's output latch directly over the interconnect
   (possible while the value's latch live window can be extended), or
   pass-through move operations (64-bit ``c4add x, 0``) are inserted to
   re-latch the value closer in space or time;
3. a few randomised restarts are attempted per II before giving up and
   growing II.

The result is a :class:`~repro.sim.program.CgaKernel` directly
executable by the simulator, plus scheduling metadata (II, stages,
inserted moves, utilization).
"""

from __future__ import annotations

import functools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.compiler.dfg import CompileError, Const, Dfg, LiveIn, Node, NodeRef
from repro.compiler.mrrg import Mrrg
from repro.isa.bits import MASK64
from repro.isa.opcodes import Opcode, OpGroup, latency_of
from repro.sim.program import (
    CgaContext,
    CgaKernel,
    CgaOp,
    DstKind,
    DstSel,
    Preload,
    SrcSel,
)
from repro.trace.tracer import get_tracer

#: Pass-through move: 64-bit lane add with zero (single cycle, any unit).
MOVE_OPCODE = Opcode.C4ADD
MOVE_LATENCY = 1


@dataclass
class _Placed:
    uid: int
    fu: int
    time: int
    opcode: Opcode

    @property
    def avail(self) -> int:
        """Absolute cycle at which the result appears in the output latch."""
        return self.time + latency_of(self.opcode)


@dataclass
class _Move:
    uid: int
    fu: int
    time: int
    read_fu: int  # latch this move reads (wire or self)
    stage_key: int  # uid of the value's producing node (for diagnostics)


@dataclass
class _Resolution:
    """How one consumer operand is fetched at run time.

    Only structural facts live here; an immediate's value and a
    recurrence's init value are read from the operand at emission.
    """

    kind: str  # "imm" | "cdrf:<live-in>" | "lrf:<live-in>" | "latch"
    value: int = 0  # local register entry for "lrf"
    read_fu: int = -1  # latch source for "latch"


@dataclass
class _Placement:
    """Output of one successful placement step at a fixed II.

    It is a function of the op graph's structure alone (the
    :meth:`ModuloScheduler._structure_key`), so every kernel with the
    same structure reuses it and only :meth:`ModuloScheduler._emit` runs
    again.
    """

    ii: int
    placements: Dict[int, _Placed]
    moves: List[_Move]
    resolutions: Dict[Tuple[int, object], _Resolution]
    liveout_moves: Dict[int, _Move]
    preloads: List[Tuple[int, int, str]]  # (fu, entry, live-in) local-RF loads
    utilization: float


@dataclass
class _Search:
    """A finished II search: the winning placement (``None`` when the
    graph is unschedulable up to ``max_ii``) and the failed attempts
    before it, as ``(ii, restart, error)``."""

    mii: int
    placement: Optional[_Placement]
    failures: List[Tuple[int, int, str]]

    @property
    def last_error(self) -> str:
        return self.failures[-1][2] if self.failures else "None"


@dataclass
class ScheduleResult:
    """A successfully scheduled kernel plus metadata."""

    kernel: CgaKernel
    ii: int
    stage_count: int
    n_ops: int
    n_moves: int
    utilization: float
    mii: int


class _RouteFail(Exception):
    pass


#: Placement searches memoised by :meth:`ModuloScheduler._structure_key`.
#: A modem link schedules many kernels that differ only in constants,
#: name, register convention or trip count (the FFT stages, the
#: cross-correlation phases); each structure is searched once.
_SEARCHES: Dict[tuple, _Search] = {}

_SEARCH_STATS = {"searches": 0}


def clear_placement_memo() -> None:
    """Drop the memoised placement searches and zero their counters."""
    _SEARCHES.clear()
    for key in _SEARCH_STATS:
        _SEARCH_STATS[key] = 0


def placement_stats() -> Dict[str, int]:
    """Placement ``searches`` run since the last :func:`clear_placement_memo`."""
    return dict(_SEARCH_STATS)


def _operand_key(operand: object) -> object:
    """An operand as the placement search sees it: constants are
    configuration immediates whatever their value."""
    return "const" if isinstance(operand, Const) else operand


def _rollback(table: dict, size: int) -> None:
    """Undo the insertions made into *table* since it had *size* keys."""
    while len(table) > size:
        table.popitem()


class ModuloScheduler:
    """Schedules one loop DFG onto one architecture.

    Scheduling runs in two steps.  The *placement* step (priority order,
    placement, routing) reads only the op graph's structure and the
    architecture; it is memoised per structure.  The *emission* step
    binds the per-call values (constant operands, recurrence inits, the
    kernel name, the register convention and the trip count).
    """

    def __init__(
        self,
        dfg: Dfg,
        arch: CgaArchitecture,
        max_ii: int = 32,
        restarts: int = 6,
        seed: int = 0,
    ) -> None:
        self.dfg = dfg
        self.arch = arch
        self.max_ii = max_ii
        self.restarts = restarts
        self.seed = seed

    # ------------------------------------------------------------------

    def min_ii(self) -> int:
        """MII = max(ResMII, RecMII)."""
        n_units = self.arch.n_units
        n_mem_units = len(self.arch.fus_with_group(OpGroup.LDMEM))
        n_div_units = len(self.arch.fus_with_group(OpGroup.DIV))
        n_ops = self.dfg.op_count()
        n_mem = self.dfg.mem_op_count()
        n_div = sum(
            1 for n in self.dfg.nodes.values() if n.group is OpGroup.DIV
        )
        # L1 bank pressure: 64-bit accesses claim two (adjacent) banks.
        word_accesses = 0
        for node in self.dfg.nodes.values():
            if node.is_load or node.is_store:
                word_accesses += 2 if node.opcode in (Opcode.LD_Q, Opcode.ST_Q) else 1
        n_banks = self.arch.l1.banks
        res_mii = max(
            -(-n_ops // n_units),
            -(-n_mem // max(n_mem_units, 1)) if n_mem else 1,
            -(-n_div // max(n_div_units, 1)) if n_div else 1,
            -(-word_accesses // n_banks) if word_accesses else 1,
        )
        return max(res_mii, self.dfg.recurrence_mii(), 1)

    def _structure_key(self) -> tuple:
        """Everything the placement step reads.

        That is the architecture's structural fingerprint; per node its
        id, opcode, operands with ``Const`` values erased (live-in names
        and node references kept whole), guard, guard polarity and
        live-out name; and the search parameters.
        """
        nodes = tuple(
            (
                nid,
                node.opcode.value,
                tuple(_operand_key(src) for src in node.srcs),
                _operand_key(node.pred),
                node.pred_negate,
                node.live_out,
            )
            for nid, node in self.dfg.nodes.items()
        )
        return (self.arch.fingerprint(), nodes, self.max_ii, self.restarts, self.seed)

    def schedule(
        self,
        live_in_regs: Optional[Dict[str, int]] = None,
        live_out_regs: Optional[Dict[str, int]] = None,
        trip_count: Optional[int] = None,
        trip_count_reg: Optional[int] = None,
    ) -> ScheduleResult:
        """Schedule the DFG; returns the kernel and metadata.

        *live_in_regs* / *live_out_regs* assign central registers to the
        DFG's named live values (the linker's calling convention).
        """
        live_in_regs = dict(live_in_regs or {})
        live_out_regs = dict(live_out_regs or {})
        missing = [n for n in self.dfg.live_ins if n not in live_in_regs]
        if missing:
            raise CompileError("no central register for live-ins %r" % missing)
        missing = [n for n in self.dfg.live_outs if n not in live_out_regs]
        if missing:
            raise CompileError("no central register for live-outs %r" % missing)

        emit = functools.partial(
            self._emit,
            live_in_regs=live_in_regs,
            live_out_regs=live_out_regs,
            trip_count=trip_count,
            trip_count_reg=trip_count_reg,
        )
        key = self._structure_key()
        search = _SEARCHES.get(key)
        result: Optional[ScheduleResult] = None
        if search is None:
            search, result = self._search(emit)
            _SEARCHES[key] = search
        elif search.placement is not None:
            result = emit(search.placement, search.mii)
        self._trace(search, result)
        if result is None:
            raise CompileError(
                "kernel %s unschedulable up to II=%d: %s"
                % (self.dfg.name, self.max_ii, search.last_error)
            )
        return result

    def _search(
        self, emit: Callable[[_Placement, int], ScheduleResult]
    ) -> Tuple[_Search, Optional[ScheduleResult]]:
        """Try ``II = MII, MII+1, ...`` with seeded restarts per II.

        An attempt is a placement step followed by *emit*; the first
        attempt through both wins.
        """
        _SEARCH_STATS["searches"] += 1
        self._prepare()
        mii = self.min_ii()
        failures: List[Tuple[int, int, str]] = []
        # Large DFGs take noticeably longer per attempt; fewer restarts
        # per II keeps compile times reasonable at a minor II cost.
        restarts = self.restarts if self.dfg.op_count() <= 60 else 2
        for ii in range(mii, self.max_ii + 1):
            for restart in range(restarts):
                rng = random.Random(self.seed * 7919 + ii * 131 + restart)
                try:
                    placement = self._place(ii, rng)
                    result = emit(placement, mii)
                except CompileError as exc:
                    failures.append((ii, restart, str(exc)))
                    continue
                return _Search(mii, placement, failures), result
        return _Search(mii, None, failures), None

    def _trace(self, search: _Search, result: Optional[ScheduleResult]) -> None:
        """Emit the II-search events, the same on a memo hit as on a miss."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        name = self.dfg.name
        tracer.instant(
            "modulo.search",
            tracer.tick(),
            cat="compiler",
            args={"kernel": name, "mii": search.mii, "max_ii": self.max_ii},
        )
        for ii, restart, error in search.failures:
            tracer.instant(
                "modulo.attempt_failed",
                tracer.tick(),
                cat="compiler",
                args={"kernel": name, "ii": ii, "restart": restart, "error": error},
            )
        if result is None:
            tracer.instant(
                "modulo.unschedulable",
                tracer.tick(),
                cat="compiler",
                args={
                    "kernel": name,
                    "max_ii": self.max_ii,
                    "error": search.last_error,
                },
            )
            return
        tracer.instant(
            "modulo.scheduled",
            tracer.tick(),
            cat="compiler",
            args={
                "kernel": name,
                "ii": result.ii,
                "mii": result.mii,
                "stages": result.stage_count,
                "moves": result.n_moves,
                "utilization": result.utilization,
            },
        )

    # ------------------------------------------------------------------
    # Per-graph tables, computed once per scheduler (the graph does not
    # change while it is being scheduled).

    def _prepare(self) -> None:
        dfg = self.dfg
        self._operands_of: Dict[int, List[Tuple[object, object]]] = {}
        self._deps: Dict[int, List[int]] = {}
        # producer id -> [(consumer, ref)], in the order Dfg.consumers
        # reports them.
        self._consumers: Dict[int, List[Tuple[Node, NodeRef]]] = {
            nid: [] for nid in dfg.nodes
        }
        for nid, node in dfg.nodes.items():
            ops: List[Tuple[object, object]] = list(enumerate(node.srcs))
            if node.pred is not None:
                ops.append(("pred", node.pred))
            self._operands_of[nid] = ops
            self._deps[nid] = [
                ref.node_id
                for _key, ref in ops
                if isinstance(ref, NodeRef) and ref.distance != 1
            ]
            for _key, ref in ops:
                if isinstance(ref, NodeRef):
                    self._consumers.setdefault(ref.node_id, []).append((node, ref))
        heights: Dict[int, int] = {}

        def height(nid: int) -> int:
            if nid in heights:
                return heights[nid]
            node = dfg.nodes[nid]
            best = node.latency
            for consumer, ref in self._consumers[nid]:
                if ref.distance == 0:
                    best = max(best, node.latency + height(consumer.node_id))
            heights[nid] = best
            return best

        for nid in dfg.nodes:
            height(nid)
        self._heights = heights
        self._alap = dfg.asap_alap()[1]
        self._fu_classes: Dict[int, Dict[int, int]] = {}
        mem_capable = set(self.arch.fus_with_group(OpGroup.LDMEM))
        vliw = {fu.index for fu in self.arch.vliw_fus}
        for nid, node in dfg.nodes.items():
            needs_cdrf = node.live_out is not None or any(
                isinstance(s, LiveIn) for s in node.srcs
            )
            classes: Dict[int, int] = {}
            for fu in self.arch.fus_supporting(node.opcode):
                # Prefer plain units, keep memory units for memory ops and
                # ported units for ops that need the central RF.
                score = 0
                if node.group not in (OpGroup.LDMEM, OpGroup.STMEM) and fu in mem_capable:
                    score += 2
                if needs_cdrf and fu in vliw:
                    score -= 1  # being on a ported unit avoids extra moves
                elif fu in vliw:
                    score += 1
                classes[fu] = score
            self._fu_classes[nid] = classes

    def _priority_order(self, rng: random.Random) -> List[Node]:
        """Topological order by descending height with seeded jitter."""
        heights = self._heights
        deps = self._deps
        # Topological over distance-0 edges: node ids are already in
        # creation order, and distance-0 refs always point backwards, so
        # id order is a valid topological order.  Sort stably by height
        # descending within windows of the topological order: schedule
        # in id order but, among ready nodes, pick the tallest.
        remaining = set(self.dfg.nodes)
        placed: set = set()
        order: List[Node] = []
        while remaining:
            ready = [
                nid for nid in remaining if all(d in placed for d in deps[nid])
            ]
            if not ready:  # pragma: no cover - guarded by Dfg validation
                raise CompileError("cyclic distance-0 dependences")
            ready.sort(key=lambda nid: (-heights[nid], rng.random()))
            pick = ready[0]
            order.append(self.dfg.nodes[pick])
            remaining.remove(pick)
            placed.add(pick)
        return order

    def _candidate_fus(self, node: Node, rng: random.Random) -> List[int]:
        classes = self._fu_classes[node.node_id]
        return sorted(classes, key=lambda fu: (classes[fu], rng.random()))

    # ------------------------------------------------------------------

    def _place(self, ii: int, rng: random.Random) -> _Placement:
        """The placement step: place and route every node at *ii*."""
        mrrg = Mrrg(self.arch, ii)
        placements: Dict[int, _Placed] = {}
        moves: List[_Move] = []
        resolutions: Dict[Tuple[int, object], _Resolution] = {}
        liveout_moves: Dict[int, _Move] = {}  # node id -> final move with CDRF write
        move_uid = [10_000]

        order = self._priority_order(rng)
        window = 2 * ii + 8
        for node in order:
            self._place_one(
                node, ii, mrrg, placements, moves, resolutions, liveout_moves,
                move_uid, window, rng,
            )
        return _Placement(
            ii, placements, moves, resolutions, liveout_moves,
            mrrg.preload_list(), mrrg.utilization(),
        )

    def _place_one(
        self,
        node: Node,
        ii: int,
        mrrg: Mrrg,
        placements: Dict[int, _Placed],
        moves: List[_Move],
        resolutions: Dict[Tuple[int, object], _Resolution],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
        window: int,
        rng: random.Random,
    ) -> None:
        lat = node.latency
        earliest = 0
        for _key, ref in self._operands_of[node.node_id]:
            if isinstance(ref, NodeRef) and ref.node_id in placements:
                p = placements[ref.node_id]
                earliest = max(earliest, p.avail - ref.distance * ii)
        deadline = earliest + window
        for consumer, ref in self._consumers[node.node_id]:
            if consumer.node_id in placements and consumer.node_id != node.node_id:
                c = placements[consumer.node_id]
                deadline = min(deadline, c.time + ref.distance * ii - lat)
        if deadline < earliest:
            raise CompileError(
                "node %d (%s): empty scheduling window"
                % (node.node_id, node.opcode.value)
            )

        # Prefer times near the node's static ALAP so short side chains
        # (address generation) land next to their consumers instead of
        # at the top of the schedule, which would make their values
        # unroutably stale by the time the consumer reads them.
        target = max(earliest, self._alap.get(node.node_id, earliest))
        target = min(target, deadline)
        times = sorted(range(earliest, deadline + 1), key=lambda t: (abs(t - target), t))

        produces = not node.is_store
        fus = self._candidate_fus(node, rng)
        for t in times:
            for fu in fus:
                if not mrrg.slot_free(fu, t):
                    continue
                if produces and not mrrg.commit_free(fu, t + lat):
                    continue
                snap = mrrg.checkpoint()
                moves_snap = len(moves)
                res_snap = len(resolutions)
                lo_snap = len(liveout_moves)
                try:
                    self._commit_placement(
                        node, fu, t, ii, mrrg, placements, moves,
                        resolutions, liveout_moves, move_uid,
                    )
                    return
                except (_RouteFail, CompileError):
                    # A placement attempt only ever inserts new keys.
                    mrrg.restore(snap)
                    placements.pop(node.node_id, None)
                    del moves[moves_snap:]
                    _rollback(resolutions, res_snap)
                    _rollback(liveout_moves, lo_snap)
        raise CompileError(
            "node %d (%s): no feasible placement at II=%d"
            % (node.node_id, node.opcode.value, ii)
        )

    def _commit_placement(
        self,
        node: Node,
        fu: int,
        t: int,
        ii: int,
        mrrg: Mrrg,
        placements: Dict[int, _Placed],
        moves: List[_Move],
        resolutions: Dict[Tuple[int, object], _Resolution],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
    ) -> None:
        lat = node.latency
        mrrg.claim_slot(fu, t, node.node_id)
        produces = not node.is_store
        if produces:
            mrrg.claim_commit(fu, t + lat)
        placed = _Placed(node.node_id, fu, t, node.opcode)

        # Resolve this node's operands.
        for key, ref in self._operands_of[node.node_id]:
            if isinstance(ref, Const):
                resolutions[(node.node_id, key)] = _Resolution("imm")
            elif isinstance(ref, LiveIn):
                if self.arch.fus[fu].has_cdrf_port:
                    if not mrrg.cdrf_read_free(t):
                        raise _RouteFail()
                    mrrg.claim_cdrf_read(t)
                    resolutions[(node.node_id, key)] = _Resolution(
                        "cdrf:%s" % ref.name, 0, fu
                    )
                else:
                    if not mrrg.lrf_alloc_free(fu, ref.name):
                        raise _RouteFail()
                    entry = mrrg.claim_lrf(fu, ref.name)
                    resolutions[(node.node_id, key)] = _Resolution(
                        "lrf:%s" % ref.name, entry, fu
                    )
            elif isinstance(ref, NodeRef):
                if ref.node_id == node.node_id:
                    producer: _Placed = placed
                elif ref.node_id in placements:
                    producer = placements[ref.node_id]
                else:
                    # Back edge whose producer is not placed yet; the
                    # producer resolves it when it is placed.
                    continue
                read_time = t + ref.distance * ii
                read_fu = self._route(
                    producer, fu, read_time, ii, mrrg, moves, move_uid,
                    value_uid=producer.uid,
                )
                resolutions[(node.node_id, key)] = _Resolution("latch", 0, read_fu)

        placements[node.node_id] = placed

        # Resolve back edges into already-placed consumers.
        for consumer, ref in self._consumers[node.node_id]:
            if consumer.node_id == node.node_id:
                continue
            if consumer.node_id not in placements:
                continue
            c = placements[consumer.node_id]
            # Identify the operand keys of this edge.
            for key, operand in self._operands_of[consumer.node_id]:
                if (
                    isinstance(operand, NodeRef)
                    and operand.node_id == node.node_id
                    and (consumer.node_id, key) not in resolutions
                ):
                    read_time = c.time + operand.distance * ii
                    read_fu = self._route(
                        placed, c.fu, read_time, ii, mrrg, moves, move_uid,
                        value_uid=node.node_id,
                    )
                    resolutions[(consumer.node_id, key)] = _Resolution(
                        "latch", 0, read_fu
                    )

        # Live-out write-back.
        if node.live_out is not None:
            if self.arch.fus[fu].has_cdrf_port:
                mrrg.claim_cdrf_write(t + lat)
            else:
                self._place_liveout_move(
                    node, placed, ii, mrrg, moves, liveout_moves, move_uid
                )

    # ------------------------------------------------------------------

    def _route(
        self,
        producer: _Placed,
        dst_fu: int,
        read_time: int,
        ii: int,
        mrrg: Mrrg,
        moves: List[_Move],
        move_uid: List[int],
        value_uid: int,
    ) -> int:
        """Route *producer*'s value so *dst_fu* can read it at *read_time*.

        Returns the FU whose latch the consumer reads.  Claims all
        resources (window extensions, move slots/commits).  Raises
        :class:`_RouteFail` when no route exists.
        """
        ic = self.arch.interconnect
        avail = producer.avail
        if read_time < avail:
            raise _RouteFail()

        def reaches(src_fu: int) -> bool:
            return src_fu == dst_fu or ic.connected(src_fu, dst_fu)

        # Direct read from the producer's latch.
        slack = read_time - avail
        if reaches(producer.fu) and slack <= ii - 1:
            if mrrg.can_extend_window(producer.fu, avail, slack):
                mrrg.extend_window(producer.fu, avail, slack)
                return producer.fu

        # Breadth-first search over re-latching moves (bounded depth).
        # State: (n_moves, fu, avail); explore a few re-latch times per hop.
        best: Optional[List[Tuple[int, int, int]]] = None  # [(fu, t_m, from_fu)]
        frontier: Deque[Tuple[int, int, int, List[Tuple[int, int, int]]]] = deque(
            [(0, producer.fu, avail, [])]
        )
        visited = {(producer.fu, avail)}
        fus = mrrg.fus
        while frontier:
            n_moves, cur_fu, cur_avail, path = frontier.popleft()
            if n_moves >= 3:
                continue
            # Candidate re-latch times, as early as possible first: the
            # value must still be live on cur_fu when the move reads it.
            t_lo = cur_avail
            t_hi = min(
                cur_avail + mrrg.max_extension(cur_fu, cur_avail),
                read_time - MOVE_LATENCY,
            )
            for nxt_fu in ic.successors(cur_fu):
                slots = fus[nxt_fu].slots
                found_t = None
                for t_m in range(t_lo, t_hi + 1):
                    if t_m % ii in slots:
                        continue
                    if not mrrg.commit_free(nxt_fu, t_m + MOVE_LATENCY):
                        continue
                    found_t = t_m
                    break
                if found_t is None:
                    continue
                new_avail = found_t + MOVE_LATENCY
                state = (nxt_fu, new_avail)
                if state in visited:
                    continue
                visited.add(state)
                new_path = path + [(nxt_fu, found_t, cur_fu)]
                final_slack = read_time - new_avail
                if reaches(nxt_fu) and 0 <= final_slack <= ii - 1:
                    if mrrg.can_extend_window(nxt_fu, new_avail, final_slack):
                        best = new_path
                        break
                frontier.append((n_moves + 1, nxt_fu, new_avail, new_path))
            if best is not None:
                break
        if best is None:
            raise _RouteFail()
        # Claim the route.
        prev_fu, prev_avail = producer.fu, avail
        for hop_fu, t_m, from_fu in best:
            mrrg.extend_window(prev_fu, prev_avail, t_m - prev_avail)
            mrrg.claim_slot(hop_fu, t_m, move_uid[0])
            mrrg.claim_commit(hop_fu, t_m + MOVE_LATENCY)
            moves.append(_Move(move_uid[0], hop_fu, t_m, prev_fu, value_uid))
            move_uid[0] += 1
            prev_fu, prev_avail = hop_fu, t_m + MOVE_LATENCY
        final_slack = read_time - prev_avail
        mrrg.extend_window(prev_fu, prev_avail, final_slack)
        return prev_fu

    def _place_liveout_move(
        self,
        node: Node,
        placed: _Placed,
        ii: int,
        mrrg: Mrrg,
        moves: List[_Move],
        liveout_moves: Dict[int, _Move],
        move_uid: List[int],
    ) -> None:
        """Route a live-out value to a CDRF-ported unit and write it there."""
        ic = self.arch.interconnect
        avail = placed.avail
        for vliw_fu in [fu.index for fu in self.arch.vliw_fus]:
            if not (vliw_fu == placed.fu or ic.connected(placed.fu, vliw_fu)):
                continue
            for t_m in range(avail, avail + ii):
                if not mrrg.slot_free(vliw_fu, t_m):
                    continue
                if not mrrg.commit_free(vliw_fu, t_m + MOVE_LATENCY):
                    continue
                if not mrrg.cdrf_write_free(t_m + MOVE_LATENCY):
                    continue
                if not mrrg.can_extend_window(placed.fu, avail, t_m - avail):
                    continue
                mrrg.extend_window(placed.fu, avail, t_m - avail)
                mrrg.claim_slot(vliw_fu, t_m, move_uid[0])
                mrrg.claim_commit(vliw_fu, t_m + MOVE_LATENCY)
                mrrg.claim_cdrf_write(t_m + MOVE_LATENCY)
                move = _Move(move_uid[0], vliw_fu, t_m, placed.fu, node.node_id)
                moves.append(move)
                liveout_moves[node.node_id] = move
                move_uid[0] += 1
                return
        raise _RouteFail()

    # ------------------------------------------------------------------

    def _emit(
        self,
        placement: _Placement,
        mii: int,
        live_in_regs: Dict[str, int],
        live_out_regs: Dict[str, int],
        trip_count: Optional[int],
        trip_count_reg: Optional[int],
    ) -> ScheduleResult:
        """The emission step: bind this call's values to *placement*."""
        ii = placement.ii
        placements = placement.placements
        moves = placement.moves
        resolutions = placement.resolutions
        liveout_moves = placement.liveout_moves
        max_time = 0
        for p in placements.values():
            max_time = max(max_time, p.time)
        for m in moves:
            max_time = max(max_time, m.time)
        stage_count = max_time // ii + 1

        contexts = [CgaContext() for _ in range(ii)]

        def src_sel(res: _Resolution, operand: object, self_fu: int) -> SrcSel:
            if res.kind == "imm":
                return SrcSel.imm(operand.value & MASK64)
            if res.kind.startswith("cdrf:"):
                name = res.kind.split(":", 1)[1]
                return SrcSel.cdrf(live_in_regs[name])
            if res.kind.startswith("lrf:"):
                return SrcSel.lrf(res.value)
            if res.kind == "latch":
                base = (
                    SrcSel.self_() if res.read_fu == self_fu else SrcSel.wire(res.read_fu)
                )
                if operand.init is not None:
                    base = base.with_init(operand.init)
                return base
            raise CompileError("unresolved operand (%s)" % res.kind)

        for node in self.dfg.nodes.values():
            p = placements[node.node_id]
            phase, stage = p.time % ii, p.time // ii
            srcs = []
            for i, operand in enumerate(node.srcs):
                res = resolutions.get((node.node_id, i))
                if res is None:
                    raise CompileError(
                        "operand %d of node %d unresolved" % (i, node.node_id)
                    )
                srcs.append(src_sel(res, operand, p.fu))
            pred_sel = None
            if node.pred is not None:
                res = resolutions.get((node.node_id, "pred"))
                if res is None:
                    raise CompileError("guard of node %d unresolved" % node.node_id)
                pred_sel = src_sel(res, node.pred, p.fu)
            dsts: List[DstSel] = []
            if node.live_out is not None and node.node_id not in liveout_moves:
                dsts.append(
                    DstSel(
                        DstKind.CDRF,
                        live_out_regs[node.live_out],
                        last_iteration_only=True,
                    )
                )
            contexts[phase].ops[p.fu] = CgaOp(
                opcode=node.opcode,
                srcs=tuple(srcs),
                dsts=tuple(dsts),
                stage=stage,
                pred=pred_sel,
                pred_negate=node.pred_negate,
            )

        for m in moves:
            phase, stage = m.time % ii, m.time // ii
            src = SrcSel.self_() if m.read_fu == m.fu else SrcSel.wire(m.read_fu)
            dsts = []
            for nid, lom in liveout_moves.items():
                if lom.uid == m.uid:
                    name = self.dfg.nodes[nid].live_out
                    dsts.append(
                        DstSel(
                            DstKind.CDRF,
                            live_out_regs[name],
                            last_iteration_only=True,
                        )
                    )
            contexts[phase].ops[m.fu] = CgaOp(
                opcode=MOVE_OPCODE,
                srcs=(src, SrcSel.imm(0)),
                dsts=tuple(dsts),
                stage=stage,
            )

        preloads = [
            Preload(fu, entry, live_in_regs[name.split(":", 1)[-1] if ":" in name else name])
            for fu, entry, name in placement.preloads
        ]

        kernel = CgaKernel(
            name=self.dfg.name,
            ii=ii,
            stage_count=stage_count,
            contexts=contexts,
            trip_count=trip_count,
            trip_count_reg=trip_count_reg,
            preloads=preloads,
        )
        return ScheduleResult(
            kernel=kernel,
            ii=ii,
            stage_count=stage_count,
            n_ops=len(placements),
            n_moves=len(moves),
            utilization=placement.utilization,
            mii=mii,
        )
