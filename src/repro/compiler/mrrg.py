"""The modulo routing resource graph (MRRG).

For a candidate initiation interval II, the MRRG tracks every resource a
modulo schedule can exhaust, all folded modulo II:

* **issue slots** — one operation per functional unit per context phase;
* **write-back slots** — each value-producing operation commits to its
  unit's output latch at phase ``(t + latency) mod II``; commits on one
  unit must be unique per phase;
* **latch live windows** — a latched value stays readable from its
  commit until the next commit on the same unit; a consumer reading
  ``slack`` cycles after the commit extends the value's live window,
  during which no other commit may land (and ``slack <= II - 1``,
  because the producing operation itself re-commits every II cycles);
* **central RF ports** — 6 reads / 3 writes per phase, usable only from
  units with central ports;
* **local RF entries** — loop-invariant live-ins preloaded into the
  consuming unit's local file occupy an entry for the whole kernel.

The object is copy-on-checkpoint so the scheduler can roll back a failed
placement attempt cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.compiler.dfg import CompileError


@dataclass
class _FuState:
    """Per-unit modulo resources."""

    slots: Dict[int, int] = field(default_factory=dict)  # phase -> op uid
    commits: Dict[int, int] = field(default_factory=dict)  # phase -> window len
    lrf_alloc: Dict[str, int] = field(default_factory=dict)  # live-in -> entry


class _MrrgSnapshot:
    """Rollback state for :meth:`Mrrg.checkpoint`.

    Holds fresh copies of the three mutable scheduling structures and
    nothing else — in particular not the (immutable, shared)
    architecture, which a ``copy.deepcopy`` of the whole ``Mrrg`` would
    clone on every backtracking attempt.  All dict keys and values are
    ints or strings, so one level of ``dict()`` copying is a full
    snapshot.
    """

    __slots__ = ("fus", "cdrf_reads", "cdrf_writes")

    def __init__(
        self,
        fus: List[_FuState],
        cdrf_reads: Dict[int, int],
        cdrf_writes: Dict[int, int],
    ) -> None:
        self.fus = fus
        self.cdrf_reads = cdrf_reads
        self.cdrf_writes = cdrf_writes


class Mrrg:
    """Resource bookkeeping for one scheduling attempt at a fixed II."""

    def __init__(self, arch: CgaArchitecture, ii: int) -> None:
        if ii < 1:
            raise CompileError("II must be >= 1")
        self.arch = arch
        self.ii = ii
        self.fus: List[_FuState] = [_FuState() for _ in range(arch.n_units)]
        self.cdrf_reads: Dict[int, int] = {}
        self.cdrf_writes: Dict[int, int] = {}

    # -- checkpointing ---------------------------------------------------

    def checkpoint(self) -> "_MrrgSnapshot":
        """Deep snapshot for backtracking."""
        return _MrrgSnapshot(
            [
                _FuState(dict(s.slots), dict(s.commits), dict(s.lrf_alloc))
                for s in self.fus
            ],
            dict(self.cdrf_reads),
            dict(self.cdrf_writes),
        )

    def restore(self, snap: "_MrrgSnapshot") -> None:
        """Roll back to a snapshot taken with :meth:`checkpoint`."""
        self.fus = snap.fus
        self.cdrf_reads = snap.cdrf_reads
        self.cdrf_writes = snap.cdrf_writes

    # -- issue slots ---------------------------------------------------------

    def slot_free(self, fu: int, time: int) -> bool:
        """True when unit *fu* has no operation at ``time mod II``."""
        return (time % self.ii) not in self.fus[fu].slots

    def claim_slot(self, fu: int, time: int, uid: int) -> None:
        phase = time % self.ii
        if phase in self.fus[fu].slots:
            raise CompileError("slot FU%d@%d already taken" % (fu, phase))
        self.fus[fu].slots[phase] = uid

    # -- write-back / latch windows ----------------------------------------

    def commit_free(self, fu: int, commit_time: int) -> bool:
        """True when the latch of *fu* can accept a commit at this phase.

        The phase must be unused and must not fall inside any existing
        value's live window (the ``length`` phases after its commit).
        """
        ii = self.ii
        phase = commit_time % ii
        commits = self.fus[fu].commits
        if phase in commits:
            return False
        for c0, length in commits.items():
            if length and 0 < (phase - c0) % ii <= length:
                return False
        return True

    def claim_commit(self, fu: int, commit_time: int) -> None:
        if not self.commit_free(fu, commit_time):
            raise CompileError("commit conflict on FU%d" % fu)
        self.fus[fu].commits[commit_time % self.ii] = 0

    def can_extend_window(self, fu: int, commit_time: int, slack: int) -> bool:
        """Can the value committed at *commit_time* stay live *slack* cycles?"""
        return 0 <= slack <= self.max_extension(fu, commit_time)

    def max_extension(self, fu: int, commit_time: int) -> int:
        """Largest slack the value committed at *commit_time* can stay
        live on *fu* (``-1`` when even its current window is blocked).

        The window may grow up to the next other commit on the unit and
        never past ``II - 1``.  The value need not be committed yet
        (placement in progress); then only the window-vs-other-commits
        feasibility is checked.
        """
        ii = self.ii
        phase = commit_time % ii
        commits = self.fus[fu].commits
        nearest = ii  # distance to the next other commit, if any
        for c0 in commits:
            delta = (c0 - phase) % ii
            if delta and delta < nearest:
                nearest = delta
        if commits.get(phase, 0) >= nearest:
            return -1
        return min(ii - 1, nearest - 1)

    def extend_window(self, fu: int, commit_time: int, slack: int) -> None:
        if not self.can_extend_window(fu, commit_time, slack):
            raise CompileError("cannot extend latch window on FU%d" % fu)
        phase = commit_time % self.ii
        state = self.fus[fu]
        state.commits[phase] = max(state.commits.get(phase, 0), slack)

    # -- central RF ports -----------------------------------------------------

    def cdrf_read_free(self, time: int, count: int = 1) -> bool:
        phase = time % self.ii
        return self.cdrf_reads.get(phase, 0) + count <= self.arch.cdrf.read_ports

    def claim_cdrf_read(self, time: int, count: int = 1) -> None:
        phase = time % self.ii
        if not self.cdrf_read_free(time, count):
            raise CompileError("CDRF read ports exhausted at phase %d" % phase)
        self.cdrf_reads[phase] = self.cdrf_reads.get(phase, 0) + count

    def cdrf_write_free(self, time: int) -> bool:
        phase = time % self.ii
        return self.cdrf_writes.get(phase, 0) + 1 <= self.arch.cdrf.write_ports

    def claim_cdrf_write(self, time: int) -> None:
        phase = time % self.ii
        if not self.cdrf_write_free(time):
            raise CompileError("CDRF write ports exhausted at phase %d" % phase)
        self.cdrf_writes[phase] = self.cdrf_writes.get(phase, 0) + 1

    # -- local RF entries -------------------------------------------------------

    def lrf_entry_for(self, fu: int, live_in: str) -> Optional[int]:
        """Entry already holding *live_in* on *fu*, if any."""
        return self.fus[fu].lrf_alloc.get(live_in)

    def lrf_alloc_free(self, fu: int, live_in: str) -> bool:
        state = self.fus[fu]
        if live_in in state.lrf_alloc:
            return True
        spec = self.arch.fus[fu].local_rf
        if spec is None:
            return False
        return len(state.lrf_alloc) < spec.entries

    def claim_lrf(self, fu: int, live_in: str) -> int:
        state = self.fus[fu]
        if live_in in state.lrf_alloc:
            return state.lrf_alloc[live_in]
        if not self.lrf_alloc_free(fu, live_in):
            raise CompileError("local RF of FU%d exhausted" % fu)
        entry = len(state.lrf_alloc)
        state.lrf_alloc[live_in] = entry
        return entry

    # -- reporting ----------------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of issue slots used across all units and phases."""
        used = sum(len(state.slots) for state in self.fus)
        return used / (self.arch.n_units * self.ii)

    def preload_list(self) -> List[Tuple[int, int, str]]:
        """All (fu, entry, live_in) local-RF allocations."""
        out = []
        for fu, state in enumerate(self.fus):
            for name, entry in state.lrf_alloc.items():
                out.append((fu, entry, name))
        return sorted(out)
