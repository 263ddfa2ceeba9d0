"""Compiled tier: compile steady-state loops to specialized Python.

The reference interpreters re-derive every static fact (multiplexer
selections, opcode semantics, port checks) on every simulated cycle.
This module does that work once: per
``(kernel, architecture-fingerprint)`` it emits Python *source* for the
whole CGA steady-state window — the ``II`` contexts unrolled into
straight-line code with the output latches and hot counters as locals,
predication and the 4x16 SIMD lane maths inlined, and the commit ring
replaced by per-operation shift registers whose commits are scheduled
statically — plus straight-line runs of VLIW bundles (one generated
function per branch-free segment).

There is one emitter per engine.  Every generated function is
lane-batched: it advances ``n_lanes >= 1`` packets back to back through
structure-of-arrays arguments, with the scratchpad and instruction-cache
models inlined.  The engines run the width-1 function
(:func:`cga_runner` / :func:`vliw_runner`); the lockstep driver in
:mod:`repro.sim.batch` runs every width (:func:`cga_batch_runner` /
:func:`vliw_batch_runner`).  Generated code carries no tracer hooks, so
a core with an enabled tracer runs the reference engines instead.

Caching is two-level, exactly like the modulo-schedule cache in
:mod:`repro.compiler.linker`:

* an in-memory source + compiled-function cache keyed by the structural
  kernel/segment signature and :meth:`CgaArchitecture.fingerprint` (the
  signature excludes immediate *values*, so ``patch_constants`` variants
  share one compiled artifact and differ only in the immediate pool
  passed at call time);
* a persistent directory of pickled sources living next to the schedule
  cache (``configure_schedule_cache`` / ``REPRO_SCHEDULE_CACHE``), with
  the same atomic-write and corruption-reads-as-miss discipline, so a
  fresh process or a forked fabric worker performs zero codegen.

Correctness contract: for every well-formed program the compiled tier
produces bit-identical architectural state, cycle counts and
:class:`~repro.sim.stats.ActivityStats` (per-cause stall counters
included) to the reference tier at every width
(``tests/sim/test_differential.py`` diffs them).  Central-RF port
pressure, which the reference tier checks dynamically through
:class:`~repro.sim.regfile.RegisterFile`, is checked *statically* at
generation time; a kernel or bundle whose worst case could overflow the
ports raises :class:`CodegenUnsupported` and the engine silently falls
back to the reference tier for that kernel (keeping the dynamic check).
"""

from __future__ import annotations

import hashlib
import linecache
import os
import pickle
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.arch.config import CgaArchitecture
from repro.isa.bits import MASK64
from repro.isa.instruction import Imm, PredReg, Reg
from repro.isa.opcodes import (
    MAX_OP_LATENCY,
    Opcode,
    OpGroup,
    group_of,
    latency_of,
    op_weight,
)
from repro.isa.semantics import DATAFLOW_GROUPS, handler_for, operand_count
from repro.sim import memops
from repro.sim.memory import MemoryError_
from repro.sim.program import CgaKernel, DstKind, SrcKind, SrcSel, VliwBundle
from repro.trace.events import StallCause
from repro.trace.tracer import get_tracer


class CodegenUnsupported(Exception):
    """The construct cannot be compiled with static port-pressure proof;
    the engine falls back to the reference tier (which checks dynamically)."""


#: Sentinel marking an empty shift-register slot in generated code.  It
#: lives only in this process (generated *source* is what gets persisted,
#: never the sentinel), so identity checks are safe.
_ABSENT = object()

_SOURCE_CACHE: Dict[tuple, str] = {}
_FN_CACHE: Dict[tuple, Callable] = {}
_STATS = {"compilations": 0, "memory_hits": 0, "disk_hits": 0}


def codegen_stats() -> Dict[str, int]:
    """Counters since the last :func:`clear_codegen_cache`.

    ``compilations`` counts source *generations* (the expensive step a
    warm disk cache eliminates); memory/disk hits count reuses.
    """
    return dict(_STATS)


def clear_codegen_cache() -> None:
    """Drop the in-memory source/function caches (disk is untouched)."""
    _SOURCE_CACHE.clear()
    _FN_CACHE.clear()
    for key in _STATS:
        _STATS[key] = 0


# ----------------------------------------------------------------------
# Persistent second level, sharing the schedule-cache directory.
# ----------------------------------------------------------------------


def _disk_path(directory: str, key: tuple) -> str:
    """Content-addressed file name: SHA-256 of the key's canonical repr."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
    return os.path.join(directory, digest + ".codegen.pkl")


def _load_disk_source(path: str, key: tuple) -> Optional[str]:
    """Read one cache file; any corruption reads as a miss, never a crash."""
    try:
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, MemoryError, ValueError, TypeError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("key") != key:
        return None
    source = payload.get("source")
    return source if isinstance(source, str) else None


def _store_disk_source(path: str, key: tuple, source: str) -> None:
    """Atomic write (tmp + rename) so readers never see a torn file."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as fh:
            pickle.dump({"key": key, "source": source}, fh)
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only or full disk must never fail execution


def _cached_source(key: tuple, kind: str, label: str, generate: Callable[[], str]) -> str:
    """Two-level lookup of generated source; mirrors ``_schedule_cached``."""
    from repro.compiler.linker import schedule_cache_dir, source_digest

    directory = schedule_cache_dir()
    disk_key = (source_digest(),) + key
    source = _SOURCE_CACHE.get(key)
    if source is not None:
        _STATS["memory_hits"] += 1
        if directory is not None:
            path = _disk_path(directory, disk_key)
            if not os.path.exists(path):
                _store_disk_source(path, disk_key, source)
        return source
    if directory is not None:
        path = _disk_path(directory, disk_key)
        source = _load_disk_source(path, disk_key)
        if source is not None:
            _STATS["disk_hits"] += 1
            _SOURCE_CACHE[key] = source
            return source
    source = generate()
    _STATS["compilations"] += 1
    tracer = get_tracer()
    if tracer.enabled:
        tracer.instant(
            "codegen.compile.%s" % kind,
            tracer.tick(),
            cat="codegen",
            args={"name": label, "source_lines": source.count("\n")},
        )
    _SOURCE_CACHE[key] = source
    if directory is not None:
        _store_disk_source(_disk_path(directory, disk_key), disk_key, source)
    return source


def _base_namespace() -> Dict[str, object]:
    """The exec namespace every generated function closes over."""
    ns: Dict[str, object] = {"_A": _ABSENT}
    for group in OpGroup:
        ns["_G_%s" % group.name] = group
    ns["_BC"] = StallCause.BANK_CONFLICT
    ns["_IC"] = StallCause.ICACHE_MISS
    ns["_IL"] = StallCause.INTERLOCK
    ns["_BR"] = StallCause.BRANCH
    ns["_divs"] = handler_for(Opcode.DIV)
    ns["_divu"] = handler_for(Opcode.DIV_U)
    return ns


def _compiled_fn(key: tuple, source: str, fn_name: str, extra: Dict[str, object],
                 label: str) -> Callable:
    """``compile()`` + ``exec`` the source once per process, per key.

    Each function gets its own file name — *label* plus a digest of the
    key, so structurally different functions never share one — and its
    source is registered (lazily) with :mod:`linecache`.  Profilers then
    report one row per generated function and tracebacks show generated
    lines.
    """
    fn = _FN_CACHE.get(key)
    if fn is None:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:10]
        # No ``<...>`` brackets: linecache expands lazy entries only for
        # names without them, and a lazy entry keeps no second copy of
        # the source until a traceback asks for it.
        filename = "codegen:%s %s" % (label, digest)
        linecache.cache[filename] = (lambda: source,)
        ns = _base_namespace()
        ns.update(extra)
        code = compile(source, filename, "exec")
        exec(code, ns)
        fn = ns[fn_name]
        _FN_CACHE[key] = fn
    return fn


# ----------------------------------------------------------------------
# Inline memory model
# ----------------------------------------------------------------------
#
# Generated code inlines ``Scratchpad.timed_read``/``timed_write`` —
# bounds check, per-bank busy clocks, conflict accounting — against
# per-lane ``_mem``/``_bank_next_free`` views, so the geometry constants
# baked into the source must appear in the cache keys.  Counter locals
# (``n_l1r``/``n_l1w``/``n_bc``/``bc_stall``) are flushed to the lane's
# ActivityStats exactly once.


def _emit_arbitrate(lines: List[str], ind: str, cycle_var: str,
                    addr_expr: str, n_banks: int, first: bool) -> None:
    """Inline ``Scratchpad._arbitrate``: serve at the bank's next free
    cycle, push the bank clock, count a conflict when delayed."""
    lines.append(ind + "bank = ((%s) >> 2) %% %d" % (addr_expr, n_banks))
    lines.append(ind + "serve = BNF[bank]")
    lines.append(ind + "if serve < %s:" % cycle_var)
    lines.append(ind + "    serve = %s" % cycle_var)
    lines.append(ind + "BNF[bank] = serve + 1")
    if first:
        lines.append(ind + "extra = serve - %s" % cycle_var)
        lines.append(ind + "if extra > 0:")
        lines.append(ind + "    n_bc += 1")
        lines.append(ind + "    bc_stall += extra")
    else:  # second word of a 64-bit access: delay is the max of both
        lines.append(ind + "d2 = serve - %s" % cycle_var)
        lines.append(ind + "if d2 > 0:")
        lines.append(ind + "    n_bc += 1")
        lines.append(ind + "    bc_stall += d2")
        lines.append(ind + "    if d2 > extra:")
        lines.append(ind + "        extra = d2")


def _emit_bounds_check(lines: List[str], ind: str, size: int, mem_bytes: int) -> None:
    # ``addr`` is pre-masked to 32 bits at every call site, so only the
    # upper bound can fail (same observable behaviour as ``_check``).
    lines.append(ind + "if addr + %d > %d:" % (size, mem_bytes))
    lines.append(
        ind + "    raise _ME('scratchpad access [%%d, %%d) outside %d bytes'"
        " %% (addr, addr + %d))" % (mem_bytes, size)
    )


def _emit_inline_read(lines: List[str], ind: str, cycle_var: str, size: int,
                      n_banks: int, mem_bytes: int, tally=None) -> None:
    """Inline ``Scratchpad.timed_read``: leaves ``raw`` and ``extra``.

    With *tally* (a counter dict), statically-known access counts are
    accumulated there instead of emitting per-access increments."""
    _emit_bounds_check(lines, ind, size, mem_bytes)
    _emit_arbitrate(lines, ind, cycle_var, "addr", n_banks, True)
    if size == 8:
        _emit_arbitrate(lines, ind, cycle_var, "addr + 4", n_banks, False)
    if tally is None:
        lines.append(ind + "n_l1r += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1r"] += 1 if size <= 4 else 2
    lines.append(ind + "raw = _fb(M[addr:addr + %d], 'little')" % size)


def _emit_inline_write(lines: List[str], ind: str, cycle_var: str, size: int,
                       n_banks: int, mem_bytes: int, tally=None) -> None:
    """Inline ``Scratchpad.timed_write`` of pre-masked ``v_st``; leaves
    ``extra`` (the bank-conflict delay) for callers that account it."""
    _emit_bounds_check(lines, ind, size, mem_bytes)
    _emit_arbitrate(lines, ind, cycle_var, "addr", n_banks, True)
    if size == 8:
        _emit_arbitrate(lines, ind, cycle_var, "addr + 4", n_banks, False)
    if tally is None:
        lines.append(ind + "n_l1w += %d" % (1 if size <= 4 else 2))
    else:
        tally["n_l1w"] += 1 if size <= 4 else 2
    lines.append(ind + "M[addr:addr + %d] = v_st.to_bytes(%d, 'little')" % (size, size))


# ----------------------------------------------------------------------
# CGA: structural signature and immediate pool
# ----------------------------------------------------------------------
#
# The signature keys the cache; the pool carries everything the
# signature excludes (immediate and phi-init values) as runtime
# arguments.  Both walk the kernel in one canonical order (contexts in
# sequence, FUs sorted within a context, pred before srcs within an op)
# so a signature hit guarantees pool-slot agreement.


def _iter_cga_ops(kernel: CgaKernel) -> Iterator[Tuple[int, int, int, object]]:
    """Yield ``(ctx_index, position, fu, op)`` in canonical order."""
    for ci, ctx in enumerate(kernel.contexts):
        for pos, fu in enumerate(sorted(ctx.ops)):
            yield ci, pos, fu, ctx.ops[fu]


def _pool_value(op, src_index: Optional[int], sel: SrcSel) -> int:
    """The runtime value of an IMM selection, with the mem-offset
    pre-scaling :func:`memops.effective_address` applies (IMM offset, no
    phi init)."""
    value = sel.value & MASK64
    if (
        src_index == 1
        and sel.init is None
        and group_of(op.opcode) in (OpGroup.LDMEM, OpGroup.STMEM)
    ):
        value <<= memops.mem_info(op.opcode).imm_scale
    return value


def _cga_pool_map(kernel: CgaKernel):
    """Return ``(values, site_index)`` where ``site_index`` maps
    ``(ctx, fu, role, src_index)`` to ``(imm_slot, init_slot)``."""
    values: List[int] = []
    index: Dict[tuple, Tuple[Optional[int], Optional[int]]] = {}
    for ci, _pos, fu, op in _iter_cga_ops(kernel):
        sites = []
        if op.pred is not None:
            sites.append(("pred", None, op.pred))
        for i, sel in enumerate(op.srcs):
            sites.append(("src", i, sel))
        for role, i, sel in sites:
            imm_slot = init_slot = None
            if sel.kind is SrcKind.IMM:
                imm_slot = len(values)
                values.append(_pool_value(op, i, sel))
            if sel.init is not None:
                init_slot = len(values)
                values.append(sel.init & MASK64)
            index[(ci, fu, role, i)] = (imm_slot, init_slot)
    return values, index


def cga_imms(kernel: CgaKernel) -> Tuple[int, ...]:
    """The kernel's immediate pool, in canonical site order."""
    return tuple(_cga_pool_map(kernel)[0])


def _sel_sig(sel: Optional[SrcSel]) -> Optional[tuple]:
    if sel is None:
        return None
    return (
        sel.kind.value,
        None if sel.kind is SrcKind.IMM else sel.value,
        sel.init is not None,
    )


def cga_signature(kernel: CgaKernel) -> tuple:
    """Structural identity of a kernel: everything except immediate and
    phi-init *values* (pooled), the trip count, preloads and the name."""
    ctxs = []
    for ctx in kernel.contexts:
        ops = []
        for fu in sorted(ctx.ops):
            op = ctx.ops[fu]
            ops.append(
                (
                    fu,
                    op.opcode.value,
                    op.stage,
                    op.pred_negate,
                    _sel_sig(op.pred),
                    tuple(_sel_sig(s) for s in op.srcs),
                    tuple((d.kind.value, d.index, d.last_iteration_only) for d in op.dsts),
                )
            )
        ctxs.append(tuple(ops))
    return (kernel.ii, kernel.stage_count, tuple(ctxs))


# ----------------------------------------------------------------------
# Inline dataflow semantics
# ----------------------------------------------------------------------
#
# Expression templates reproduce :mod:`repro.isa.semantics` bit-exactly
# with the dispatch and the lane split/pack allocations removed.  The
# SIMD lane identities (C4AND == full-width AND, the C4SHIFTL raw-bit
# form, arithmetic-shift C4SHIFTR) are proven equivalent to the lifted
# reference forms in the differential suite.


def _sx(expr: str) -> str:
    """Sign-extend a raw 32-bit pattern expression to a Python int."""
    return "((((%s) & 4294967295) ^ 2147483648) - 2147483648)" % expr


def _ucmp(tmpl: str):
    return lambda a, b: ("(1 if (%s & 4294967295) " + tmpl + " (%s & 4294967295) else 0)") % (a, b)


def _scmp(tmpl: str):
    return lambda a, b: ("(1 if %s " + tmpl + " %s else 0)") % (_sx(a), _sx(b))


_SCALAR_EXPR = {
    Opcode.ADD: lambda a, b: "((%s + %s) & 4294967295)" % (a, b),
    Opcode.ADD_U: lambda a, b: "((%s + %s) & 4294967295)" % (a, b),
    Opcode.SUB: lambda a, b: "((%s - %s) & 4294967295)" % (a, b),
    Opcode.SUB_U: lambda a, b: "((%s - %s) & 4294967295)" % (a, b),
    Opcode.OR: lambda a, b: "((%s | %s) & 4294967295)" % (a, b),
    Opcode.NOR: lambda a, b: "(~(%s | %s) & 4294967295)" % (a, b),
    Opcode.AND: lambda a, b: "((%s & %s) & 4294967295)" % (a, b),
    Opcode.NAND: lambda a, b: "(~(%s & %s) & 4294967295)" % (a, b),
    Opcode.XOR: lambda a, b: "((%s ^ %s) & 4294967295)" % (a, b),
    Opcode.XNOR: lambda a, b: "(~(%s ^ %s) & 4294967295)" % (a, b),
    Opcode.LSL: lambda a, b: "(((%s & 4294967295) << (%s & 31)) & 4294967295)" % (a, b),
    Opcode.LSR: lambda a, b: "((%s & 4294967295) >> (%s & 31))" % (a, b),
    Opcode.ASR: lambda a, b: "((%s >> (%s & 31)) & 4294967295)" % (_sx(a), b),
    Opcode.MUL: lambda a, b: "((%s * %s) & 4294967295)" % (_sx(a), _sx(b)),
    Opcode.MUL_U: lambda a, b: "((%s * %s) & 4294967295)" % (a, b),
    # Equality is sign-agnostic on equal-width patterns.
    Opcode.EQ: _ucmp("=="),
    Opcode.NE: _ucmp("!="),
    Opcode.GT: _scmp(">"),
    Opcode.GT_U: _ucmp(">"),
    Opcode.LT: _scmp("<"),
    Opcode.LT_U: _ucmp("<"),
    Opcode.GE: _scmp(">="),
    Opcode.GE_U: _ucmp(">="),
    Opcode.LE: _scmp("<="),
    Opcode.LE_U: _ucmp("<="),
    Opcode.PRED_EQ: _ucmp("=="),
    Opcode.PRED_NE: _ucmp("!="),
    Opcode.PRED_LT: _scmp("<"),
    Opcode.PRED_LT_U: _ucmp("<"),
    Opcode.PRED_LE: _scmp("<="),
    Opcode.PRED_LE_U: _ucmp("<="),
    Opcode.PRED_GT: _scmp(">"),
    Opcode.PRED_GT_U: _ucmp(">"),
    Opcode.PRED_GE: _scmp(">="),
    Opcode.PRED_GE_U: _ucmp(">="),
    Opcode.DIV: lambda a, b: "_divs(%s, %s)" % (a, b),
    Opcode.DIV_U: lambda a, b: "_divu(%s, %s)" % (a, b),
    Opcode.PRED_CLEAR: lambda a, b: "0",
    Opcode.PRED_SET: lambda a, b: "1",
}

#: Mask selecting lanes 0 and 2 (for the 16-bit swap), lanes 1+3 cleared.
_SWAP16_MASK = 0x0000FFFF0000FFFF
#: Mask selecting lane 2 in place (for C4NEGB's untouched even lane).
_LANE2_MASK = 0x0000FFFF00000000
#: Per-lane sign bits / low-15-bit masks for the SWAR q15 add/sub path.
_SIGN4 = 0x8000800080008000
_LOW4 = 0x7FFF7FFF7FFF7FFF


def _lane_s(x: str, i: int) -> str:
    """Signed 16-bit lane *i* (lane 0 = LSBs) of raw 64-bit var *x*."""
    if i == 0:
        return "(((%s & 65535) ^ 32768) - 32768)" % x
    return "((((%s >> %d) & 65535) ^ 32768) - 32768)" % (x, 16 * i)


def _sat(t: str) -> str:
    return "(32767 if %s > 32767 else (%s if %s >= -32768 else -32768))" % (t, t, t)


def _pack_sat(ts) -> str:
    parts = []
    for i, t in enumerate(ts):
        part = "(%s & 65535)" % _sat(t)
        parts.append(part if i == 0 else "(%s << %d)" % (part, 16 * i))
    return " | ".join(parts)


def _pack_sat_prod(ts) -> str:
    """Pack q15 products: ``(a * b) >> 15`` of two signed 16-bit lanes
    lies in [-32767, 32768], so only the upper clamp can fire."""
    parts = []
    for i, t in enumerate(ts):
        part = "((32767 if %s > 32767 else %s) & 65535)" % (t, t)
        parts.append(part if i == 0 else "(%s << %d)" % (part, 16 * i))
    return " | ".join(parts)


def _emit_swar_addsub(lines: List[str], ind: str, op: Opcode, target: str, a: str, b: str) -> None:
    """Saturating 4x16 add/sub without unpacking (SIMD-within-a-register).

    The wrapped per-lane sum/difference is computed with the classic
    carry-isolation identity; overflowed lanes (sign of both inputs
    equal — for SUB, of input and negated subtrahend — and different
    from the result's) are then overwritten branchlessly with
    ``0x7fff + sign(a)``, i.e. 0x7fff on positive and 0x8000 on
    negative overflow.  Proven equivalent to the unpack/saturate/pack
    form over the full edge grid in the differential suite.
    """
    if op is Opcode.C4ADD:
        lines.append("%sf4 = (((%s) & %d) + ((%s) & %d)) ^ (((%s) ^ (%s)) & %d)"
                     % (ind, a, _LOW4, b, _LOW4, a, b, _SIGN4))
        lines.append("%so4 = (((%s) ^ f4) & ((%s) ^ f4)) & %d" % (ind, a, b, _SIGN4))
    else:  # C4SUB
        lines.append("%sf4 = ((((%s) | %d) - ((%s) & %d)) ^ (((%s) ^ (%s)) & %d)) ^ %d"
                     % (ind, a, _SIGN4, b, _LOW4, a, b, _SIGN4, _SIGN4))
        lines.append("%so4 = (((%s) ^ (%s)) & ((%s) ^ f4)) & %d" % (ind, a, b, a, _SIGN4))
    lines.append("%sif o4:" % ind)
    lines.append("%s    e4 = (o4 >> 15) * 65535" % ind)
    lines.append("%s    f4 = (f4 ^ (f4 & e4)) | ((%d & e4) + (((%s) >> 15) & (o4 >> 15)))"
                 % (ind, _LOW4, a))
    lines.append("%s%s = f4" % (ind, target))


def _emit_simd(lines: List[str], ind: str, op: Opcode, target: str, a: str, b: Optional[str]) -> None:
    """Emit ``target = <simd result>`` for raw 64-bit operand vars."""
    if op is Opcode.C4AND:
        lines.append("%s%s = %s & %s" % (ind, target, a, b))
    elif op is Opcode.C4OR:
        lines.append("%s%s = %s | %s" % (ind, target, a, b))
    elif op is Opcode.C4XOR:
        lines.append("%s%s = %s ^ %s" % (ind, target, a, b))
    elif op is Opcode.C4SHIFTL:
        lines.append("%ssh = %s & 15" % (ind, b))
        lines.append(
            "%s%s = ((%s << sh) & 65535) | ((((%s >> 16) << sh) & 65535) << 16)"
            " | ((((%s >> 32) << sh) & 65535) << 32)"
            " | ((((%s >> 48) << sh) & 65535) << 48)" % (ind, target, a, a, a, a)
        )
    elif op is Opcode.C4SHIFTR:
        lines.append("%ssh = %s & 15" % (ind, b))
        for i in range(4):
            lines.append("%sa%d = %s" % (ind, i, _lane_s(a, i)))
        lines.append(
            "%s%s = ((a0 >> sh) & 65535) | (((a1 >> sh) & 65535) << 16)"
            " | (((a2 >> sh) & 65535) << 32) | (((a3 >> sh) & 65535) << 48)"
            % (ind, target)
        )
    elif op is Opcode.C4SWAP32:
        lines.append(
            "%s%s = ((%s >> 32) & 4294967295) | ((%s & 4294967295) << 32)"
            % (ind, target, a, a)
        )
    elif op is Opcode.C4SWAP16:
        lines.append(
            "%s%s = ((%s >> 16) & %d) | ((%s & %d) << 16)"
            % (ind, target, a, _SWAP16_MASK, a, _SWAP16_MASK)
        )
    elif op is Opcode.C4NEGB:
        lines.append("%sa1 = %s" % (ind, _lane_s(a, 1)))
        lines.append("%sa3 = %s" % (ind, _lane_s(a, 3)))
        lines.append(
            "%s%s = (%s & 65535) | (((32767 if a1 == -32768 else -a1) & 65535) << 16)"
            " | (%s & %d) | (((32767 if a3 == -32768 else -a3) & 65535) << 48)"
            % (ind, target, a, a, _LANE2_MASK)
        )
    elif op in (Opcode.C4ADD, Opcode.C4SUB):
        _emit_swar_addsub(lines, ind, op, target, a, b)
    elif op in (Opcode.C4MAX, Opcode.C4MIN, Opcode.D4PROD, Opcode.C4PROD):
        for i in range(4):
            lines.append("%sa%d = %s" % (ind, i, _lane_s(a, i)))
            lines.append("%sb%d = %s" % (ind, i, _lane_s(b, i)))
        if op is Opcode.C4MAX:
            lines.append(
                "%s%s = ((a0 if a0 > b0 else b0) & 65535)"
                " | (((a1 if a1 > b1 else b1) & 65535) << 16)"
                " | (((a2 if a2 > b2 else b2) & 65535) << 32)"
                " | (((a3 if a3 > b3 else b3) & 65535) << 48)" % (ind, target)
            )
            return
        if op is Opcode.C4MIN:
            lines.append(
                "%s%s = ((a0 if a0 < b0 else b0) & 65535)"
                " | (((a1 if a1 < b1 else b1) & 65535) << 16)"
                " | (((a2 if a2 < b2 else b2) & 65535) << 32)"
                " | (((a3 if a3 < b3 else b3) & 65535) << 48)" % (ind, target)
            )
            return
        if op is Opcode.D4PROD:
            pairs = ["(a%d * b%d) >> 15" % (i, i) for i in range(4)]
        else:  # C4PROD: cross pairing |a1*b2|b1*a2|c1*d2|d1*c2|
            pairs = ["(a0 * b1) >> 15", "(a1 * b0) >> 15",
                     "(a2 * b3) >> 15", "(a3 * b2) >> 15"]
        for i, p in enumerate(pairs):
            lines.append("%st%d = %s" % (ind, i, p))
        lines.append("%s%s = %s" % (ind, target, _pack_sat_prod(["t%d" % i for i in range(4)])))
    else:  # pragma: no cover - closed SIMD opcode set
        raise CodegenUnsupported("no inline template for %s" % op.value)


# ----------------------------------------------------------------------
# CGA source generation
# ----------------------------------------------------------------------


class _CgaChain:
    """One operation's result pipeline: issue phase, commit phase, the
    shift registers carrying the in-flight value."""

    __slots__ = ("oid", "ci", "pos", "fu", "op", "group", "kind", "latency",
                 "weight", "stage", "q", "delta", "n")

    def __init__(self, oid, ci, pos, fu, op, group, kind, ii):
        self.oid = oid
        self.ci = ci
        self.pos = pos
        self.fu = fu
        self.op = op
        self.group = group
        self.kind = kind  # "dataflow" | "load" | "store"
        self.latency = latency_of(op.opcode)
        self.weight = op_weight(op.opcode)
        self.stage = op.stage
        if kind == "store":
            self.q = self.delta = self.n = 0
            return
        self.q = (ci + self.latency) % ii
        self.delta = (ci + self.latency) // ii
        self.n = self.delta + (1 if self.q > ci else 0)


class _CgaGen:
    """Emits the specialized steady-state function of one kernel."""

    def __init__(self, kernel: CgaKernel, arch: CgaArchitecture, fault,
                 cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                 n_lanes: int, trip: Optional[int] = None) -> None:
        self.kernel = kernel
        self.arch = arch
        self.fault = fault
        self.cdrf_ports = cdrf_ports
        self.cprf_ports = cprf_ports
        self.cdrf_mask = (1 << arch.cdrf.width) - 1
        self.cprf_mask = 1  # PredicateFile is 1-bit regardless of arch.cprf
        self.n_lanes = n_lanes
        #: Trip-count specialization: with a concrete trip the whole
        #: modulo schedule is compile-time, so the iteration loop splits
        #: into unrolled prologue/epilogue slots and a guard-free steady
        #: state.  ``None`` emits the runtime-guarded loop.
        self.trip = trip
        self.pool, self.pool_index = _cga_pool_map(kernel)
        self.latch_fus = set()
        self.lrf_fus = set()
        self.ops: List[_CgaChain] = []
        self.by_issue: Dict[int, List[_CgaChain]] = {}
        self.by_commit: Dict[int, List[_CgaChain]] = {}
        self._classify()
        self.has_mem = any(rec.kind != "dataflow" for rec in self.ops)
        self.has_load = any(rec.kind == "load" for rec in self.ops)

    # -- validation + classification ------------------------------------

    def _classify(self) -> None:
        arch, fault = self.arch, self.fault
        ii = self.kernel.ii
        for oid, (ci, pos, fu, op) in enumerate(_iter_cga_ops(self.kernel)):
            if fu >= arch.n_units:
                raise fault("context names FU%d beyond %d units" % (fu, arch.n_units))
            if not arch.fus[fu].supports(op.opcode):
                raise fault("FU%d cannot execute %s" % (fu, op.opcode.value))
            if op.stage < 0:
                raise fault("FU%d op has negative pipeline stage %d" % (fu, op.stage))
            group = group_of(op.opcode)
            if group is OpGroup.LDMEM:
                kind = "load"
                if len(op.srcs) < 2:
                    raise fault("%s needs base and offset sources" % op.opcode.value)
            elif group is OpGroup.STMEM:
                kind = "store"
                if len(op.srcs) < 3:
                    raise fault("%s needs base, offset and value sources" % op.opcode.value)
            elif group in DATAFLOW_GROUPS:
                kind = "dataflow"
                arity = operand_count(op.opcode)
                if arity == 2 and len(op.srcs) != 2:
                    raise fault("%s expects 2 sources" % op.opcode.value)
                if arity == 1 and len(op.srcs) not in (1, 2):
                    raise fault("%s expects 1 source" % op.opcode.value)
            else:
                raise fault(
                    "opcode %s (%s group) cannot execute on the array"
                    % (op.opcode.value, group.value)
                )
            rec = _CgaChain(oid, ci, pos, fu, op, group, kind, ii)
            self.ops.append(rec)
            self.by_issue.setdefault(ci, []).append(rec)
            if kind != "store":
                self.latch_fus.add(fu)
                self.by_commit.setdefault(rec.q, []).append(rec)
            self._validate_sites(rec)
        for chains in self.by_commit.values():
            chains.sort(key=lambda r: (-r.latency, r.pos))
        self._check_port_pressure()

    def _validate_sites(self, rec: _CgaChain) -> None:
        fault, arch, fu = self.fault, self.arch, rec.fu
        sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
        for sel in sels:
            kind = sel.kind
            if kind is SrcKind.WIRE:
                if not arch.interconnect.connected(sel.value, fu):
                    raise fault(
                        "no wire from FU%d to FU%d in %s" % (sel.value, fu, arch.name)
                    )
                self.latch_fus.add(sel.value)
            elif kind is SrcKind.LRF:
                if arch.fus[fu].local_rf is None:
                    raise fault("FU%d has no local register file" % fu)
                self.lrf_fus.add(fu)
            elif kind in (SrcKind.CDRF, SrcKind.CPRF):
                if not arch.fus[fu].has_cdrf_port:
                    raise fault("FU%d has no central RF port" % fu)
            elif kind is SrcKind.SELF:
                self.latch_fus.add(fu)
        for dst in rec.op.dsts:
            if dst.kind is DstKind.LRF:
                if arch.fus[fu].local_rf is None:
                    raise fault("FU%d has no local register file" % fu)
                self.lrf_fus.add(fu)
            elif not arch.fus[fu].has_cdrf_port:
                raise fault("FU%d has no central RF port" % fu)

    def _drain_entries(self):
        """``(D, chain, j)`` commits that can still be pending after the
        last context, sorted in ring order.  Register ``w<oid>_<j>``
        commits ``j*ii + q + 1`` cycles past the final logical cycle."""
        ii = self.kernel.ii
        entries = []
        for chains in self.by_commit.values():
            for rec in chains:
                for j in range(rec.delta):
                    d = j * ii + rec.q + 1
                    assert d <= MAX_OP_LATENCY, (rec.op.opcode, d)
                    entries.append((d, rec, j))
        entries.sort(key=lambda e: (e[0], -e[1].latency, e[1].pos))
        return entries

    def _check_port_pressure(self) -> None:
        """Static worst case per logical cycle vs. the central-RF ports.

        The reference tier enforces this dynamically (``RegisterFile``
        raises ``PortOverflowError``); the compiled tier skips the
        per-access bookkeeping, which is only sound when no cycle *can*
        overflow.  Squashed operations read fewer ports, so counting
        every site is conservative.  During the drain the reference tier
        never calls ``begin_cycle``, so its port window spans the last
        logical cycle plus the whole drain — modelled the same here.
        """
        ii = self.kernel.ii
        reads_d = [0] * ii
        reads_p = [0] * ii
        writes_d = [0] * ii
        writes_p = [0] * ii
        for rec in self.ops:
            sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
            for sel in sels:
                if sel.kind is SrcKind.CDRF:
                    reads_d[rec.ci] += 1
                elif sel.kind is SrcKind.CPRF:
                    reads_p[rec.ci] += 1
            if rec.kind != "store":
                for dst in rec.op.dsts:
                    if dst.kind is DstKind.CDRF:
                        writes_d[rec.q] += 1
                    elif dst.kind is DstKind.CPRF:
                        writes_p[rec.q] += 1
        drain_d = drain_p = 0
        for _d, rec, _j in self._drain_entries():
            for dst in rec.op.dsts:
                if dst.kind is DstKind.CDRF:
                    drain_d += 1
                elif dst.kind is DstKind.CPRF:
                    drain_p += 1
        worst = [
            (max(reads_d), self.cdrf_ports[0], "CDRF reads"),
            (max(reads_p), self.cprf_ports[0], "CPRF reads"),
            (max(max(writes_d), writes_d[ii - 1] + drain_d), self.cdrf_ports[1], "CDRF writes"),
            (max(max(writes_p), writes_p[ii - 1] + drain_p), self.cprf_ports[1], "CPRF writes"),
        ]
        for used, ports, what in worst:
            if used > ports:
                raise CodegenUnsupported(
                    "kernel %s: worst-case %s (%d) exceed %d ports"
                    % (self.kernel.name, what, used, ports)
                )

    # -- operand emission ----------------------------------------------

    def _base_read(self, lines: List[str], ind: str, sel: SrcSel, fu: int,
                   imm_slot: Optional[int], tally=None) -> str:
        """Statements for a source read's side effects; returns the value
        expression.  Mirrors the reference tier's ``_read_src``.  With
        *tally*, unconditional access counts accumulate statically
        instead of emitting per-read increments."""
        kind = sel.kind
        if kind is SrcKind.SELF:
            return "l_%d" % fu
        if kind is SrcKind.WIRE:
            if tally is None:
                lines.append(ind + "n_itx += 1")
            else:
                tally["n_itx"] += 1
            return "l_%d" % sel.value
        if kind is SrcKind.LRF:
            if tally is None:
                lines.append(ind + "n_lrf_r += 1")
            else:
                tally["n_lrf_r"] += 1
            return "L%d[%d]" % (fu, sel.value)
        if kind is SrcKind.CDRF:
            if tally is None:
                lines.append(ind + "n_cdrf_r += 1")
            else:
                tally["n_cdrf_r"] += 1
            return "CD[%d]" % sel.value
        if kind is SrcKind.CPRF:
            if tally is None:
                lines.append(ind + "n_cprf_r += 1")
            else:
                tally["n_cprf_r"] += 1
            return "CP[%d]" % sel.value
        return "imm_%d" % imm_slot

    def _read_operand(self, lines: List[str], ind: str, rec: _CgaChain,
                      role: str, i: Optional[int], sel: SrcSel,
                      it_var: str, name: str, it0: Optional[bool] = None,
                      tally=None) -> str:
        """Emit one operand read (phi-aware); returns a value expression.

        A phi (``sel.init is not None``) reads the initial immediate on
        iteration 0 without touching the base location (and without its
        stats), exactly like the reference reader.  *it0* resolves the
        phi statically (trip-specialized emission): ``True`` means this
        slot is the op's iteration 0, ``None`` keeps the runtime test on
        *it_var*."""
        imm_slot, init_slot = self.pool_index[(rec.ci, rec.fu, role, i)]
        if sel.init is not None:
            if it0 is not None:
                if it0:
                    return "imm_%d" % init_slot
                return self._base_read(lines, ind, sel, rec.fu, imm_slot,
                                       tally=tally)
            lines.append(ind + "if %s == 0:" % it_var)
            lines.append(ind + "    %s = imm_%d" % (name, init_slot))
            lines.append(ind + "else:")
            sub: List[str] = []
            expr = self._base_read(sub, ind + "    ", sel, rec.fu, imm_slot)
            lines.extend(sub)
            lines.append(ind + "    %s = %s" % (name, expr))
            return name
        return self._base_read(lines, ind, sel, rec.fu, imm_slot, tally=tally)

    # -- commit emission -----------------------------------------------

    def _emit_dst(self, lines: List[str], ind: str, rec: _CgaChain, dst, val: str,
                  tally=None) -> None:
        if dst.kind is DstKind.LRF:
            mask = (1 << self.arch.fus[rec.fu].local_rf.width) - 1
            if tally is None:
                lines.append(ind + "n_lrf_w += 1")
            else:
                tally["n_lrf_w"] += 1
            lines.append(ind + "L%d[%d] = %s & %d" % (rec.fu, dst.index, val, mask))
        elif dst.kind is DstKind.CDRF:
            if tally is None:
                lines.append(ind + "n_cdrf_w += 1")
            else:
                tally["n_cdrf_w"] += 1
            lines.append(ind + "CD[%d] = %s & %d" % (dst.index, val, self.cdrf_mask))
        else:
            if tally is None:
                lines.append(ind + "n_cprf_w += 1")
            else:
                tally["n_cprf_w"] += 1
            lines.append(ind + "CP[%d] = %s & %d" % (dst.index, val, self.cprf_mask))

    def _emit_commit_writes(self, lines: List[str], ind: str, rec: _CgaChain,
                            val: str, static_j: Optional[int] = None) -> None:
        """Latch write-back plus destination writes for one commit.  In
        the main loop ``last_iteration_only`` is a runtime comparison on
        the committing iteration; in the drain (*static_j* given) the
        committing iteration is ``trip + <static offset>``, making the
        check compile-time."""
        lines.append(ind + "l_%d = %s" % (rec.fu, val))
        dsts = rec.op.dsts
        if static_j is None:
            if any(d.last_iteration_only for d in dsts):
                lines.append(ind + "itc = iter_slot - %d" % (rec.delta + rec.stage))
            for d in dsts:
                sub = ind
                if d.last_iteration_only:
                    lines.append(ind + "if itc == last_iter:")
                    sub = ind + "    "
                self._emit_dst(lines, sub, rec, d, val)
        else:
            # Register j holds the value issued in slot trip+K1-delta+j,
            # i.e. iteration trip + K1 - delta + j - stage; it is the
            # last iteration exactly when j == stage + delta - stages.
            keep = rec.stage + rec.delta - self.kernel.stage_count
            for d in dsts:
                if d.last_iteration_only and static_j != keep:
                    continue
                self._emit_dst(lines, ind, rec, d, val)

    def _emit_commit(self, lines: List[str], ind: str, rec: _CgaChain) -> None:
        oid, n = rec.oid, rec.n
        lines.append(ind + "v = w%d_0" % oid)
        for j in range(n - 1):
            lines.append(ind + "w%d_%d = w%d_%d" % (oid, j, oid, j + 1))
        lines.append(ind + "w%d_%d = _A" % (oid, n - 1))
        lines.append(ind + "if v is not _A:")
        self._emit_commit_writes(lines, ind + "    ", rec, "v")

    # -- issue emission ------------------------------------------------

    def _emit_execute(self, lines: List[str], ind: str, rec: _CgaChain, it_var: str,
                      it0: Optional[bool] = None, tally=None) -> None:
        op = rec.op
        if rec.kind == "dataflow":
            arity = operand_count(op.opcode)
            names = []
            for i, sel in enumerate(op.srcs):
                name = "ab"[i] if i < 2 else "x%d" % i
                names.append(self._read_operand(lines, ind, rec, "src", i, sel,
                                                it_var, name, it0=it0, tally=tally))
            target = "w%d_%d" % (rec.oid, rec.n - 1)
            if rec.group in (OpGroup.SIMD1, OpGroup.SIMD2):
                a = names[0]
                if a != "a":
                    lines.append(ind + "a = %s" % a)
                    a = "a"
                b = None
                if arity == 2:
                    b = names[1]
                    if b != "b":
                        lines.append(ind + "b = %s" % b)
                        b = "b"
                _emit_simd(lines, ind, op.opcode, target, a, b)
            else:
                use = names[:arity] + ["0"] * (2 - min(arity, 2))
                lines.append(ind + "%s = %s" % (target, _SCALAR_EXPR[op.opcode](use[0], use[1])))
            return
        info = memops.mem_info(op.opcode)
        base = self._read_operand(lines, ind, rec, "src", 0, op.srcs[0], it_var, "a",
                                  it0=it0, tally=tally)
        off_sel = op.srcs[1]
        off_slot, _ = self.pool_index[(rec.ci, rec.fu, "src", 1)]
        if off_sel.kind is SrcKind.IMM and off_sel.init is None:
            lines.append(
                "%saddr = (((%s) & 4294967295) + imm_%d) & 4294967295" % (ind, base, off_slot)
            )
        else:
            off = self._read_operand(lines, ind, rec, "src", 1, off_sel, it_var, "b",
                                     it0=it0, tally=tally)
            lines.append(
                "%saddr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                % (ind, base, off)
            )
        if rec.kind == "load":
            _emit_inline_read(lines, ind, "physical", info.size,
                              self.arch.l1.banks, self.arch.l1.bytes,
                              tally=tally)
            lines.append(ind + "stall_offset += extra")
            target = "w%d_%d" % (rec.oid, rec.n - 1)
            if info.size == 8:
                lines.append(ind + "%s = raw" % target)
            elif info.signed:
                hb = 1 << (info.size * 8 - 1)
                lines.append(ind + "%s = ((raw ^ %d) - %d) & 4294967295" % (target, hb, hb))
            else:
                lines.append(ind + "%s = raw & %d" % (target, (1 << (info.size * 8)) - 1))
        else:  # store: no latch, no commit chain
            sv = self._read_operand(lines, ind, rec, "src", 2, op.srcs[2], it_var, "c",
                                    it0=it0, tally=tally)
            mask = (1 << (info.size * 8)) - 1
            lines.append(ind + "v_st = (%s) & %d" % (sv, mask))
            _emit_inline_write(lines, ind, "physical", info.size,
                               self.arch.l1.banks, self.arch.l1.bytes,
                               tally=tally)
            lines.append(ind + "stall_offset += extra")

    def _emit_issue(self, lines: List[str], ind: str, rec: _CgaChain, it_var: str,
                    it0: Optional[bool] = None, tally=None) -> None:
        op = rec.op
        body = ind
        body_tally = tally
        if op.pred is not None:
            # The predicate read itself is unconditional; the op body is
            # data-dependent, so its accounting stays inline.
            pexpr = self._read_operand(lines, ind, rec, "pred", None, op.pred,
                                       it_var, "pv", it0=it0, tally=tally)
            if op.pred_negate:
                lines.append(ind + "if (%s) & 1:" % pexpr)
            else:
                lines.append(ind + "if not ((%s) & 1):" % pexpr)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
            body_tally = None
            lines.append(body + "n_fu%d += %d" % (rec.fu, rec.weight))
            lines.append(body + "n_g_%s += %d" % (rec.group.name, rec.weight))
            lines.append(body + "pred_weight += %d" % rec.weight)
        self._emit_execute(lines, body, rec, it_var, it0=it0, tally=body_tally)

    # -- whole-function assembly ---------------------------------------

    def generate(self) -> str:
        """One function advancing ``n_lanes`` packets' steady-state
        windows back to back through structure-of-arrays arguments, with
        the scratchpad model inlined against per-lane byte views and
        bank clocks.  A lane that faults lands its exception in
        ``faults[lane]`` — its partial state is unusable (deferred
        counters are lost) and the caller must re-run that lane from
        scratch — while the remaining lanes complete normally."""
        lines: List[str] = []
        w = lines.append
        w("def _cga_run(trips, start_cycles, preload_cycles_s, imms_s,"
          " out_latch_s, CD_s, CP_s, local_rfs_s, mem_s, stats_s, ends, faults):")
        if self.has_load:
            w("    _fb = int.from_bytes")
        w("    for _b in range(%d):" % self.n_lanes)
        w("        try:")
        ind = "            "
        w(ind + "trip = trips[_b]")
        w(ind + "start_cycle = start_cycles[_b]")
        w(ind + "preload_cycles = preload_cycles_s[_b]")
        w(ind + "imms = imms_s[_b]")
        w(ind + "out_latch = out_latch_s[_b]")
        w(ind + "CD = CD_s[_b]")
        w(ind + "CP = CP_s[_b]")
        w(ind + "local_rfs = local_rfs_s[_b]")
        w(ind + "stats = stats_s[_b]")
        if self.has_mem:
            w(ind + "_sp = mem_s[_b]")
            w(ind + "M = _sp._mem")
            w(ind + "BNF = _sp._bank_next_free")
        self._emit_lane(lines, ind)
        w("        except _ME as exc:")
        w("            faults[_b] = exc")
        return "\n".join(lines) + "\n"

    # -- trip-specialized emission ---------------------------------------
    #
    # When the batch driver groups lanes it already keys on the resolved
    # trip count, so the generated function may legally bake the trip
    # into the source.  With a concrete trip the entire modulo schedule is
    # compile-time: which stages are active, whether a latch chain holds
    # a value, whether an operand is in its phi iteration and whether a
    # ``last_iteration_only`` write fires all become functions of the
    # slot index alone.  The iteration space then splits into unrolled
    # prologue/epilogue slots (each emitted with its static schedule
    # state) around a guard-free steady-state loop, and every
    # statically-known access count is hoisted out of the loop into one
    # closed-form adjustment (``tally``).

    _TALLY_KEYS = ("n_cdrf_r", "n_cdrf_w", "n_cprf_r", "n_cprf_w",
                   "n_lrf_r", "n_lrf_w", "n_itx", "n_l1r", "n_l1w")

    def _spec_plan(self) -> Optional[Tuple[int, int, int]]:
        """``(T, lo, hi)``: total slots and the inclusive steady-state
        window where every op issues, every chain commits a present
        value, no phi initializes and no last-iteration write fires.
        ``None`` when specialization isn't worthwhile."""
        if not self.ops:
            return None
        trip = self.trip
        T = trip + self.kernel.stage_count - 1
        lo, hi = 0, T - 1
        for rec in self.ops:
            sels = ([] if rec.op.pred is None else [rec.op.pred]) + list(rec.op.srcs)
            has_phi = any(sel.init is not None for sel in sels)
            lo = max(lo, rec.stage + (1 if has_phi else 0))
            hi = min(hi, rec.stage + trip - 1)
            if rec.kind != "store":
                lo = max(lo, rec.stage + rec.delta)
                if any(d.last_iteration_only for d in rec.op.dsts):
                    hi = min(hi, trip - 2 + rec.delta + rec.stage)
        if lo > hi:
            lo, hi = T, T - 1  # no steady window: everything unrolls
        if lo + (T - 1 - hi) > 192:
            return None  # bound generated-code size for degenerate shapes
        return (T, lo, hi)

    def _issue_active(self, rec: _CgaChain, I: int) -> bool:
        return rec.stage <= I <= rec.stage + self.trip - 1

    def _chain_occupied(self, rec: _CgaChain, I: int) -> bool:
        """Could any shift register hold a value during slot *I*'s commit
        phase?  (The issue of slot I has already run when the chain's
        commit context follows its issue context.)"""
        last_t = I if rec.q > rec.ci else I - 1
        lower = max(rec.stage, I - rec.delta)
        upper = min(rec.stage + self.trip - 1, last_t)
        return upper >= lower

    def _emit_commit_writes_spec(self, lines: List[str], ind: str,
                                 rec: _CgaChain, val: str,
                                 lastonly_now: bool, tally) -> None:
        lines.append(ind + "l_%d = %s" % (rec.fu, val))
        for d in rec.op.dsts:
            if d.last_iteration_only and not lastonly_now:
                continue
            self._emit_dst(lines, ind, rec, d, val, tally=tally)

    def _emit_commit_spec(self, lines: List[str], ind: str, rec: _CgaChain,
                          I: Optional[int], tally) -> None:
        """Commit phase of one chain at a static slot (*I*) or in the
        steady state (``I is None``): presence, shift liveness and the
        last-iteration check are all compile-time; predicated chains
        keep the runtime ``_A`` test (a squash leaves the latch empty)."""
        oid, n = rec.oid, rec.n
        trip = self.trip
        steady = I is None
        present = steady or (rec.stage + rec.delta <= I
                             <= rec.stage + rec.delta + trip - 1)
        lastonly_now = (not steady) and I == trip - 1 + rec.delta + rec.stage
        # The tail register need not be cleared when the next write to it
        # (this slot's issue, or next slot's when the issue context
        # precedes the commit context) deterministically lands first.
        if rec.q > rec.ci:
            ov_slot = (0 if steady else I) + 1
            overwrite = rec.op.pred is None and (
                (steady and self._spec_hi + 1 <= rec.stage + trip - 1)
                or (not steady and self._issue_active(rec, ov_slot)))
        else:
            overwrite = rec.op.pred is None and (
                steady or self._issue_active(rec, I))
        w = lines.append
        if rec.op.pred is None:
            if present:
                self._emit_commit_writes_spec(lines, ind, rec, "w%d_0" % oid,
                                              lastonly_now, tally)
            for j in range(n - 1):
                w(ind + "w%d_%d = w%d_%d" % (oid, j, oid, j + 1))
            if not overwrite:
                w(ind + "w%d_%d = _A" % (oid, n - 1))
        else:
            if present:
                w(ind + "v = w%d_0" % oid)
            for j in range(n - 1):
                w(ind + "w%d_%d = w%d_%d" % (oid, j, oid, j + 1))
            w(ind + "w%d_%d = _A" % (oid, n - 1))
            if present:
                w(ind + "if v is not _A:")
                self._emit_commit_writes_spec(lines, ind + "    ", rec, "v",
                                              lastonly_now, None)

    def _emit_slot_spec(self, lines: List[str], ind: str, I: Optional[int],
                        tally) -> None:
        ii = self.kernel.ii
        steady = I is None
        w = lines.append
        for p in range(ii):
            commits = self.by_commit.get(p, [])
            issues = self.by_issue.get(p, [])
            live = [r for r in commits if steady or self._chain_occupied(r, I)]
            active = [r for r in issues if steady or self._issue_active(r, I)]
            if not live and not active:
                continue
            for rec in live:
                self._emit_commit_spec(lines, ind, rec, I, tally)
            if any(r.kind != "dataflow" for r in active):
                if steady:
                    w(ind + "physical = start_cycle + iter_slot * %d + %d"
                      " + stall_offset" % (ii, p))
                else:
                    w(ind + "physical = start_cycle + %d + stall_offset"
                      % (I * ii + p))
            for rec in active:
                it0 = False if steady else (I == rec.stage)
                self._emit_issue(lines, ind, rec, "iter_slot", it0=it0,
                                 tally=tally)

    def _emit_body_spec(self, lines: List[str], ind: str,
                        plan: Tuple[int, int, int]) -> Dict[str, int]:
        T, lo, hi = plan
        self._spec_hi = hi
        tally = dict.fromkeys(self._TALLY_KEYS, 0)
        w = lines.append
        for I in range(min(lo, T)):
            w(ind + "# slot %d" % I)
            self._emit_slot_spec(lines, ind, I, tally)
        if lo <= hi:
            steady = dict.fromkeys(self._TALLY_KEYS, 0)
            w(ind + "for iter_slot in range(%d, %d):" % (lo, hi + 1))
            mark = len(lines)
            self._emit_slot_spec(lines, ind + "    ", None, steady)
            if len(lines) == mark:
                w(ind + "    pass")
            count = hi - lo + 1
            for key in tally:
                tally[key] += steady[key] * count
        for I in range(max(lo, hi + 1), T):
            w(ind + "# slot %d" % I)
            self._emit_slot_spec(lines, ind, I, tally)
        return tally

    def _emit_body_generic(self, lines: List[str], ind: str) -> None:
        """The runtime-guarded iteration loop (dynamic trip count)."""
        k = self.kernel
        ii = k.ii
        k1 = k.stage_count - 1
        w = lines.append
        w(ind + "for iter_slot in range(trip + %d):" % k1)
        bind = ind + "    "
        loop_mark = len(lines)
        for p in range(ii):
            commits = self.by_commit.get(p, [])
            issues = self.by_issue.get(p, [])
            if not commits and not issues:
                continue
            w(bind + "# context %d" % p)
            for rec in commits:
                self._emit_commit(lines, bind, rec)
            if any(r.kind != "dataflow" for r in issues):
                w(bind + "physical = start_cycle + iter_slot * %d + %d + stall_offset" % (ii, p))
            idx = 0
            while idx < len(issues):
                stage = issues[idx].stage
                run = [issues[idx]]
                idx += 1
                while idx < len(issues) and issues[idx].stage == stage:
                    run.append(issues[idx])
                    idx += 1
                if stage == 0:
                    w(bind + "if iter_slot <= last_iter:")
                    it_var = "iter_slot"
                else:
                    w(bind + "it_s = iter_slot - %d" % stage)
                    w(bind + "if 0 <= it_s <= last_iter:")
                    it_var = "it_s"
                for rec in run:
                    self._emit_issue(lines, bind + "    ", rec, it_var)
        if len(lines) == loop_mark:
            w(bind + "pass")

    # -- lane assembly --------------------------------------------------

    def _emit_lane(self, lines: List[str], ind: str) -> None:
        k = self.kernel
        ii = k.ii
        k1 = k.stage_count - 1
        w = lines.append
        plan = self._spec_plan() if self.trip is not None else None
        n_imms = len(self.pool)
        if n_imms == 1:
            w(ind + "imm_0 = imms[0]")
        elif n_imms > 1:
            w(ind + ", ".join("imm_%d" % i for i in range(n_imms)) + " = imms")
        for fu in sorted(self.lrf_fus):
            w(ind + "L%d = local_rfs[%d]._regs" % (fu, fu))
        # Predicated ops tally issue counters per iteration: keep those
        # in one integer local per FU / op group and flush them with the
        # closed-form (unpredicated) totals in the epilogue.
        pred_fus: List[int] = []
        pred_groups: List[str] = []
        for rec in self.ops:
            if rec.op.pred is None:
                continue
            if rec.fu not in pred_fus:
                pred_fus.append(rec.fu)
            if rec.group.name not in pred_groups:
                pred_groups.append(rec.group.name)
        pred_fus.sort()
        if pred_fus:
            w(ind + " = ".join("n_fu%d" % fu for fu in pred_fus) + " = 0")
        if pred_groups:
            w(ind + " = ".join("n_g_%s" % g for g in pred_groups) + " = 0")
        if plan is not None:
            # The driver passes matching trips; the baked value wins.
            w(ind + "trip = %d" % self.trip)
        else:
            w(ind + "last_iter = trip - 1")
        for fu in sorted(self.latch_fus):
            w(ind + "l_%d = 0" % fu)
        for rec in self.ops:
            if rec.kind == "store":
                continue
            for j in range(rec.n):
                w(ind + "w%d_%d = _A" % (rec.oid, j))
        w(ind + "stall_offset = 0")
        w(ind + "n_cdrf_r = n_cdrf_w = n_cprf_r = n_cprf_w = n_lrf_r = n_lrf_w = n_itx = 0")
        if self.has_mem:
            w(ind + "n_l1r = n_l1w = n_bc = bc_stall = 0")
        w(ind + "squashed = 0")
        w(ind + "pred_weight = 0")
        w(ind + "drain = 0")
        if plan is not None:
            tally = self._emit_body_spec(lines, ind, plan)
            for name in self._TALLY_KEYS:
                if tally[name]:
                    w(ind + "%s += %d" % (name, tally[name]))
        else:
            self._emit_body_generic(lines, ind)
        entries = self._drain_entries()
        if entries:
            w(ind + "# drain: commits still in flight past the last context")
        for d, rec, j in entries:
            w(ind + "v = w%d_%d" % (rec.oid, j))
            w(ind + "if v is not _A:")
            w(ind + "    drain = %d" % d)
            self._emit_commit_writes(lines, ind + "    ", rec, "v", static_j=j)
        # Batched accounting for unpredicated ops (closed form in trip),
        # then the stats flush, once per run.
        easy_fu: Dict[int, int] = {}
        easy_g: Dict[OpGroup, int] = {}
        easy_total = 0
        hard = []
        for rec in self.ops:
            if rec.op.pred is not None:
                continue
            if rec.stage <= k1:
                easy_fu[rec.fu] = easy_fu.get(rec.fu, 0) + rec.weight
                easy_g[rec.group] = easy_g.get(rec.group, 0) + rec.weight
                easy_total += rec.weight
            else:
                hard.append(rec)
        w(ind + "unpred = %d * trip" % easy_total)
        if easy_fu or hard or pred_fus:
            w(ind + "fu_ops = stats.fu_ops")
            w(ind + "op_groups = stats.op_groups")
        for fu in pred_fus:
            w(ind + "fu_ops[%d] += n_fu%d" % (fu, fu))
        for g in pred_groups:
            w(ind + "op_groups[_G_%s] += n_g_%s" % (g, g))
        for fu in sorted(easy_fu):
            w(ind + "fu_ops[%d] += %d * trip" % (fu, easy_fu[fu]))
        for g in sorted(easy_g, key=lambda g: g.name):
            w(ind + "op_groups[_G_%s] += %d * trip" % (g.name, easy_g[g]))
        for rec in hard:
            w(ind + "ne = trip - %d" % (rec.stage - k1))
            w(ind + "if ne > 0:")
            w(ind + "    fu_ops[%d] += %d * ne" % (rec.fu, rec.weight))
            w(ind + "    op_groups[_G_%s] += %d * ne" % (rec.group.name, rec.weight))
            w(ind + "    unpred += %d * ne" % rec.weight)
        w(ind + "total_logical = (trip + %d) * %d" % (k1, ii))
        w(ind + "stats.cdrf_reads += n_cdrf_r")
        w(ind + "stats.cdrf_writes += n_cdrf_w")
        w(ind + "stats.cprf_reads += n_cprf_r")
        w(ind + "stats.cprf_writes += n_cprf_w")
        w(ind + "stats.lrf_reads += n_lrf_r")
        w(ind + "stats.lrf_writes += n_lrf_w")
        w(ind + "stats.interconnect_transfers += n_itx")
        w(ind + "stats.cga_ops += pred_weight + unpred")
        w(ind + "stats.squashed_ops += squashed")
        w(ind + "stats.config_words += %d * total_logical" % k.context_words)
        w(ind + "stats.cga_cycles += preload_cycles + total_logical + drain + stall_offset")
        if self.has_mem:
            w(ind + "stats.l1_reads += n_l1r")
            w(ind + "stats.l1_writes += n_l1w")
            w(ind + "stats.l1_bank_conflicts += n_bc")
            w(ind + "stats.l1_conflict_stall_cycles += bc_stall")
        w(ind + "stats.add_stall(_BC, stall_offset)")
        for fu in sorted(self.latch_fus):
            w(ind + "out_latch[%d] = l_%d" % (fu, fu))
        w(ind + "ends[_b] = start_cycle + total_logical + stall_offset + drain")


def _cga_function(kernel: CgaKernel, arch: CgaArchitecture, fault,
                  cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                  n_lanes: int, trip: Optional[int]) -> Callable:
    """The ``n_lanes``-wide function of *kernel*, shared by both public
    factories so wrapping one never nests the other.  Width 1 ignores
    *trip*: engines and single driver lanes share one guarded loop per
    kernel, since the modem's trip-specialized bodies are 4x the source
    (3.1 vs 0.8 MB), kept ~20 MB more resident per process and ran a
    warm width-1 packet no faster (0.07-0.11 s either way, 2 cores)."""
    n_lanes = int(n_lanes)
    trip = int(trip) if trip is not None and trip >= 1 and n_lanes > 1 else None
    key = ("cga", arch.fingerprint(), n_lanes, trip, cga_signature(kernel))

    def gen() -> str:
        return _CgaGen(kernel, arch, fault, cdrf_ports, cprf_ports,
                       n_lanes, trip=trip).generate()

    source = _cached_source(key, "cga", kernel.name, gen)
    label = "cga %s w%d%s" % (kernel.name, n_lanes, "" if trip is None else " t%d" % trip)
    return _compiled_fn(key, source, "_cga_run", {"_ME": MemoryError_}, label)


def cga_runner(kernel: CgaKernel, arch: CgaArchitecture, fault,
               cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int]):
    """Return ``(fn, imms)`` for *kernel* on *arch*.

    ``fn`` is the width-1 generated function (see
    :func:`cga_batch_runner` for its arguments), compiled for any trip
    count — the lockstep driver's single lanes run the same one — and
    shared across ``patch_constants`` variants through the structural
    cache key; ``imms`` is this kernel's immediate pool to
    pass at call time.  Raises :class:`CodegenUnsupported` when the
    static port-pressure proof fails, and *fault* for malformed kernels.
    """
    fn = _cga_function(kernel, arch, fault, cdrf_ports, cprf_ports, 1, None)
    return fn, cga_imms(kernel)


def cga_batch_runner(kernel: CgaKernel, arch: CgaArchitecture, fault,
                     cdrf_ports: Tuple[int, int], cprf_ports: Tuple[int, int],
                     n_lanes: int, trip: Optional[int] = None):
    """Return the ``n_lanes``-wide generated function for *kernel*.

    Same contracts as :func:`cga_runner`.  The function advances
    ``n_lanes`` packets per call through structure-of-arrays arguments
    (``trips``, per-lane immediate pools, per-lane register backing
    lists, per-lane scratchpads) and the width joins the cache key —
    the L1 geometry it inlines is already covered by
    ``arch.fingerprint()``.  Per-lane pools come from :func:`cga_imms`
    of each ``patch_constants`` variant, so every lane shares this one
    compile.  Lanes must have ``trip >= 1``; the caller filters the
    rest.  Faulted lanes (``faults[lane]`` set) carry unusable partial
    state and must be re-run from scratch.

    With *trip* and ``n_lanes > 1`` (the batch driver groups lanes by
    resolved trip count anyway) the function is additionally specialized
    on the trip: the schedule guards disappear into unrolled
    prologue/epilogue slots around a guard-free steady-state loop.  The
    trip joins the cache key; trips per kernel come from a small fixed
    set (the region programs bake them in), so the key space stays
    bounded.  At width 1 the trip is ignored (see :func:`cga_runner`).
    """
    return _cga_function(kernel, arch, fault, cdrf_ports, cprf_ports, n_lanes, trip)


# ----------------------------------------------------------------------
# VLIW: branch-free segments compiled to straight-line bundle runs
# ----------------------------------------------------------------------


def vliw_segment_end(bundles: List[VliwBundle], start_pc: int) -> int:
    """Exclusive end of the straight-line segment starting at *start_pc*:
    through the first bundle containing a live branch or control
    instruction (inclusive), or the end of the stream."""
    pc = start_pc
    n = len(bundles)
    while pc < n:
        for inst in bundles[pc]:
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            group = group_of(inst.opcode)
            if group is OpGroup.BRANCH or group is OpGroup.CONTROL:
                return pc + 1
        pc += 1
    return n


def _iter_vliw_sites(bundles, start_pc: int, end_pc: int):
    """Yield ``(pc, slot, inst)`` for live instructions in segment order."""
    for pc in range(start_pc, end_pc):
        for slot, inst in enumerate(bundles[pc]):
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            yield pc, slot, inst


def _vliw_imm_value(inst, src_index: int, operand) -> int:
    """Runtime pool value of one VLIW immediate, with a per-role
    transform: branch targets and CGA kernel ids stay raw,
    memory offsets are pre-scaled raw, everything else is encoded into
    64 bits two's-complement."""
    group = group_of(inst.opcode)
    if group in (OpGroup.BRANCH, OpGroup.CONTROL):
        return operand.value
    if src_index == 1 and group in (OpGroup.LDMEM, OpGroup.STMEM):
        return operand.value << memops.mem_info(inst.opcode).imm_scale
    return operand.value & MASK64


def _vliw_pool_map(bundles, start_pc: int, end_pc: int):
    """``(values, site_index)`` with ``site_index[(pc, slot, i)]`` the
    pool slot of that source; one canonical walk shared with codegen."""
    values: List[int] = []
    index: Dict[tuple, int] = {}
    for pc, slot, inst in _iter_vliw_sites(bundles, start_pc, end_pc):
        for i, operand in enumerate(inst.srcs):
            if isinstance(operand, Imm):
                index[(pc, slot, i)] = len(values)
                values.append(_vliw_imm_value(inst, i, operand))
    return values, index


def _operand_sig(operand) -> tuple:
    if isinstance(operand, Reg):
        return ("r", operand.index)
    if isinstance(operand, PredReg):
        return ("p", operand.index)
    if isinstance(operand, Imm):
        return ("i",)  # values live in the pool, not the key
    return ("?", repr(operand))


def vliw_signature(bundles, start_pc: int, end_pc: int) -> tuple:
    """Structural identity of a segment (immediate values excluded, so
    ``patch_constants`` program variants share one compiled artifact)."""
    seg = []
    for pc in range(start_pc, end_pc):
        insts = []
        for slot, inst in enumerate(bundles[pc]):
            if inst is None or inst.opcode is Opcode.NOP:
                continue
            insts.append(
                (
                    slot,
                    inst.opcode.value,
                    None if inst.dst is None else _operand_sig(inst.dst),
                    None if inst.pred is None else (inst.pred.index, inst.pred_negate),
                    tuple(_operand_sig(s) for s in inst.srcs),
                )
            )
        seg.append(tuple(insts))
    return (start_pc, tuple(seg))


class _VliwGen:
    """Emits the straight-line function of one branch-free segment."""

    def __init__(self, bundles, start_pc: int, end_pc: int, slot_fus,
                 cdrf, cprf, fault, l1_geom: Tuple[int, int],
                 icache_geom: Tuple[int, int, int], n_lanes: int) -> None:
        self.bundles = bundles
        self.start_pc = start_pc
        self.end_pc = end_pc
        self.slot_fus = slot_fus
        self.cdrf_mask = (1 << cdrf.width) - 1
        self.ports = (cdrf.read_ports, cdrf.write_ports,
                      cprf.read_ports, cprf.write_ports)
        self.fault = fault
        self.l1_geom = l1_geom  # (n_banks, size_bytes)
        self.icache_geom = icache_geom  # (n_lines, bundles_per_line, miss_penalty)
        self.n_lanes = n_lanes
        self.pool, self.pool_index = _vliw_pool_map(bundles, start_pc, end_pc)
        self.wb_counter = 0
        groups = [group_of(inst.opcode)
                  for _pc, _slot, inst in _iter_vliw_sites(bundles, start_pc, end_pc)]
        self.has_mem = any(g in (OpGroup.LDMEM, OpGroup.STMEM) for g in groups)
        self.has_load = OpGroup.LDMEM in groups

    # -- operand helpers -----------------------------------------------

    def _read(self, lines: List[str], ind: str, pc: int, slot: int,
              i: int, operand) -> str:
        if isinstance(operand, Reg):
            lines.append(ind + "n_cdrf_r += 1")
            return "CD[%d]" % operand.index
        if isinstance(operand, PredReg):
            lines.append(ind + "n_cprf_r += 1")
            return "CP[%d]" % operand.index
        if isinstance(operand, Imm):
            return "imm_%d" % self.pool_index[(pc, slot, i)]
        raise self.fault("bad VLIW operand: %r" % (operand,))

    def _check_ports(self, live) -> None:
        """Static worst case of one bundle against the central-RF ports
        (see :meth:`_CgaGen._check_port_pressure` for the rationale)."""
        r_d = r_p = w_d = w_p = 0
        for _slot, inst in live:
            if inst.pred is not None:
                r_p += 1
            group = group_of(inst.opcode)
            for operand in inst.srcs:
                if isinstance(operand, Reg):
                    r_d += 1
                elif isinstance(operand, PredReg):
                    r_p += 1
            if group is OpGroup.BRANCH:
                if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                    w_d += 1  # link write happens at issue time
            elif group in (OpGroup.LDMEM, *DATAFLOW_GROUPS) and inst.dst is not None:
                if isinstance(inst.dst, PredReg):
                    w_p += 1
                else:
                    w_d += 1
        for used, ports, what in (
            (r_d, self.ports[0], "CDRF reads"),
            (w_d, self.ports[1], "CDRF writes"),
            (r_p, self.ports[2], "CPRF reads"),
            (w_p, self.ports[3], "CPRF writes"),
        ):
            if used > ports:
                raise CodegenUnsupported(
                    "VLIW segment at pc %d: worst-case %s (%d) exceed %d ports"
                    % (self.start_pc, what, used, ports)
                )

    # -- per-instruction issue emission --------------------------------

    def _emit_inst(self, lines: List[str], ind: str, pc: int, slot: int,
                   inst, wb: Optional[dict]) -> None:
        group = group_of(inst.opcode)
        weight = op_weight(inst.opcode)
        fu = self.slot_fus[slot] if slot < len(self.slot_fus) else slot
        body = ind
        if inst.pred is not None:
            lines.append(ind + "n_cprf_r += 1")
            if inst.pred_negate:
                lines.append(ind + "if CP[%d] != 0:" % inst.pred.index)
            else:
                lines.append(ind + "if CP[%d] == 0:" % inst.pred.index)
            lines.append(ind + "    squashed += 1")
            lines.append(ind + "else:")
            body = ind + "    "
        lines.append(body + "n_fu%d += %d" % (fu, weight))
        lines.append(body + "n_g_%s += %d" % (group.name, weight))
        lines.append(body + "vliw_ops += %d" % weight)
        if group in DATAFLOW_GROUPS:
            arity = operand_count(inst.opcode)
            names = []
            for i, operand in enumerate(inst.srcs):
                names.append(self._read(lines, body, pc, slot, i, operand))
            if wb is None:
                return  # no destination: reads already accounted
            target = wb["var"]
            if group in (OpGroup.SIMD1, OpGroup.SIMD2):
                a = names[0]
                if a != "a":
                    lines.append(body + "a = %s" % a)
                    a = "a"
                b = None
                if arity == 2:
                    b = names[1]
                    if b != "b":
                        lines.append(body + "b = %s" % b)
                        b = "b"
                _emit_simd(lines, body, inst.opcode, target, a, b)
            else:
                use = names[:arity] + ["0"] * (2 - min(arity, 2))
                lines.append(
                    body + "%s = %s" % (target, _SCALAR_EXPR[inst.opcode](use[0], use[1]))
                )
        elif group is OpGroup.LDMEM:
            if len(inst.srcs) < 2:
                raise self.fault("%s needs base and offset sources" % inst.opcode.value)
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            off = inst.srcs[1]
            if isinstance(off, Imm):
                lines.append(
                    body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                    % (base, self.pool_index[(pc, slot, 1)])
                )
            else:
                offx = self._read(lines, body, pc, slot, 1, off)
                lines.append(
                    body + "addr = (((%s) & 4294967295) + ((%s) & 4294967295)) & 4294967295"
                    % (base, offx)
                )
            _emit_inline_read(lines, body, "cycle", info.size, *self.l1_geom)
            if wb is None:
                return
            target = wb["var"]
            if info.size == 8:
                lines.append(body + "%s = raw" % target)
            elif info.signed:
                hb = 1 << (info.size * 8 - 1)
                lines.append(body + "%s = ((raw ^ %d) - %d) & 4294967295" % (target, hb, hb))
            else:
                lines.append(body + "%s = raw & %d" % (target, (1 << (info.size * 8)) - 1))
            lines.append(body + "%s = cycle + %d + extra" % (wb["rdy"], latency_of(inst.opcode)))
        elif group is OpGroup.STMEM:
            if len(inst.srcs) != 3:
                raise self.fault("%s needs base, offset and value sources" % inst.opcode.value)
            if not isinstance(inst.srcs[1], Imm):
                raise self.fault("stores use immediate offsets (Table 1)")
            info = memops.mem_info(inst.opcode)
            base = self._read(lines, body, pc, slot, 0, inst.srcs[0])
            lines.append(
                body + "addr = (((%s) & 4294967295) + imm_%d) & 4294967295"
                % (base, self.pool_index[(pc, slot, 1)])
            )
            sv = self._read(lines, body, pc, slot, 2, inst.srcs[2])
            mask = (1 << (info.size * 8)) - 1
            # The write's conflict delay is ignored in VLIW mode (the
            # reference engine discards ``timed_write``'s return too).
            lines.append(body + "v_st = (%s) & %d" % (sv, mask))
            _emit_inline_write(lines, body, "cycle", info.size, *self.l1_geom)
        elif group is OpGroup.BRANCH:
            latency = latency_of(inst.opcode)
            lines.append(body + "taken = True")
            lines.append(body + "bl = %d" % latency)
            target_src = inst.srcs[0]
            if inst.opcode in (Opcode.JMP, Opcode.JMPL):
                if isinstance(target_src, Imm):
                    lines.append(body + "tgt = imm_%d" % self.pool_index[(pc, slot, 0)])
                else:
                    lines.append(body + "n_cdrf_r += 1")
                    lines.append(body + "tgt = CD[%d] & 4294967295" % target_src.index)
            else:  # br / brl: PC-relative in bundle units
                if not isinstance(target_src, Imm):
                    raise self.fault("relative branch needs an immediate offset")
                lines.append(
                    body + "tgt = %d + imm_%d" % (pc + 1, self.pool_index[(pc, slot, 0)])
                )
            if inst.opcode in (Opcode.JMPL, Opcode.BRL):
                link = inst.dst.index if inst.dst is not None else 9
                lines.append(body + "n_cdrf_w += 1")
                lines.append(body + "CD[%d] = %d" % (link, (pc + 1) & self.cdrf_mask))
                lines.append(body + "reg_ready[%d] = cycle + %d" % (link, latency))
        else:  # control
            if inst.opcode is Opcode.CGA:
                if inst.srcs:
                    if not isinstance(inst.srcs[0], Imm):
                        raise CodegenUnsupported("cga kernel id must be an immediate")
                    kid = "imm_%d" % self.pool_index[(pc, slot, 0)]
                else:
                    kid = "0"
                lines.append(
                    body + "stop = _Stop('cga', kernel_id=%s, next_pc=%d)" % (kid, pc + 1)
                )
            elif inst.opcode is Opcode.HALT:
                lines.append(body + "stop = _Stop('halt', next_pc=%d)" % (pc + 1))
            else:
                lines.append(body + "pass")

    # -- whole-function assembly ---------------------------------------

    def generate(self) -> str:
        """One function advancing ``n_lanes`` packets through the segment
        back to back: structure-of-arrays arguments, the scratchpad
        *and* the instruction cache inlined (per-lane tag lists with
        compile-time line index/tag constants), no tracer hooks.
        Per-lane results land in ``stops``/``next_pcs``/``cycles_out``;
        a faulting lane lands its exception in ``faults[lane]`` (partial
        state unusable, re-run from scratch) while the remaining lanes
        complete."""
        lines: List[str] = []
        w = lines.append
        w("def _vliw_run(start_cycles, max_cycle, imms_s, CD_s, CP_s,"
          " reg_ready_s, pred_ready_s, icache_s, mem_s, stats_s,"
          " stops, next_pcs, cycles_out, faults):")
        if self.has_load:
            w("    _fb = int.from_bytes")
        w("    for _b in range(%d):" % self.n_lanes)
        w("        try:")
        ind = "            "
        w(ind + "start_cycle = start_cycles[_b]")
        w(ind + "imms = imms_s[_b]")
        w(ind + "CD = CD_s[_b]")
        w(ind + "CP = CP_s[_b]")
        w(ind + "reg_ready = reg_ready_s[_b]")
        w(ind + "pred_ready = pred_ready_s[_b]")
        w(ind + "IT = icache_s[_b]._tags")
        w(ind + "stats = stats_s[_b]")
        if self.has_mem:
            w(ind + "_sp = mem_s[_b]")
            w(ind + "M = _sp._mem")
            w(ind + "BNF = _sp._bank_next_free")
        self._emit_lane(lines, ind)
        w(ind + "stops[_b] = stop")
        w(ind + "next_pcs[_b] = next_pc")
        w(ind + "cycles_out[_b] = cycle")
        w("        except _BF as exc:")
        w("            faults[_b] = exc")
        return "\n".join(lines) + "\n"

    def _emit_fetch(self, lines: List[str], bind: str, pc: int) -> None:
        """Instruction fetch: the cache probe inlined with compile-time
        index/tag constants (``pc`` is a literal, so both are)."""
        w = lines.append
        n_lines_, bundles_per_line, penalty = self.icache_geom
        line_addr = pc // bundles_per_line
        index = line_addr % n_lines_
        tag = line_addr // n_lines_
        w(bind + "if IT[%d] == %d:" % (index, tag))
        w(bind + "    n_ic_h += 1")
        w(bind + "else:")
        w(bind + "    IT[%d] = %d" % (index, tag))
        w(bind + "    n_ic_m += 1")
        if penalty > 0:
            w(bind + "    add_stall(_IC, %d)" % penalty)
            w(bind + "    vliw_cycles += %d" % penalty)
            w(bind + "    cycle += %d" % penalty)

    def _emit_lane(self, lines: List[str], ind: str) -> None:
        w = lines.append
        n_imms = len(self.pool)
        if n_imms == 1:
            w(ind + "imm_0 = imms[0]")
        elif n_imms > 1:
            w(ind + ", ".join("imm_%d" % i for i in range(n_imms)) + " = imms")
        # Issue counters accumulate in one integer local per FU / op
        # group the segment can touch and flush once in the epilogue: a
        # dict update per issued op is the dominant cost of a warm lane.
        used_fus: List[int] = []
        used_groups: List[str] = []
        for pc in range(self.start_pc, self.end_pc):
            for slot, inst in enumerate(self.bundles[pc]):
                if inst is None or inst.opcode is Opcode.NOP:
                    continue
                fu = self.slot_fus[slot] if slot < len(self.slot_fus) else slot
                if fu not in used_fus:
                    used_fus.append(fu)
                gname = group_of(inst.opcode).name
                if gname not in used_groups:
                    used_groups.append(gname)
        used_fus.sort()
        if used_fus:
            w(ind + " = ".join("n_fu%d" % fu for fu in used_fus) + " = 0")
        if used_groups:
            w(ind + " = ".join("n_g_%s" % g for g in used_groups) + " = 0")
        w(ind + "add_stall = stats.add_stall")
        w(ind + "rrg = reg_ready.get")
        w(ind + "prg = pred_ready.get")
        w(ind + "cycle = start_cycle")
        w(ind + "vliw_cycles = 0")
        w(ind + "vliw_ops = 0")
        w(ind + "squashed = 0")
        w(ind + "n_cdrf_r = n_cdrf_w = n_cprf_r = n_cprf_w = 0")
        if self.has_mem:
            w(ind + "n_l1r = n_l1w = n_bc = bc_stall = 0")
        w(ind + "n_ic_h = n_ic_m = 0")
        w(ind + "stop = None")
        w(ind + "next_pc = %d" % self.end_pc)
        last_pc = self.end_pc - 1
        has_branch = any(
            inst is not None
            and inst.opcode is not Opcode.NOP
            and group_of(inst.opcode) is OpGroup.BRANCH
            for inst in (self.bundles[last_pc] if self.end_pc > self.start_pc else ())
        )
        if has_branch:
            # A predicated terminator branch may squash: pre-clear the
            # taken flag so the epilogue always sees a bound value.
            w(ind + "taken = False")
            w(ind + "bl = 0")
            w(ind + "tgt = 0")
        w(ind + "try:")
        bind = ind + "    "
        for pc in range(self.start_pc, self.end_pc):
            live = [
                (slot, inst)
                for slot, inst in enumerate(self.bundles[pc])
                if inst is not None and inst.opcode is not Opcode.NOP
            ]
            self._check_ports(live)
            w(bind + "# pc %d" % pc)
            w(bind + "if max_cycle is not None and cycle > max_cycle:")
            w(bind + "    raise _VF('exceeded %d cycles in VLIW mode' % max_cycle)")
            self._emit_fetch(lines, bind, pc)
            # Scoreboard interlock over statically-deduped source lists.
            need_regs: List[int] = []
            need_preds: List[int] = []
            for _slot, inst in live:
                for operand in inst.srcs:
                    if isinstance(operand, Reg) and operand.index not in need_regs:
                        need_regs.append(operand.index)
                    elif isinstance(operand, PredReg) and operand.index not in need_preds:
                        need_preds.append(operand.index)
                if inst.pred is not None and inst.pred.index not in need_preds:
                    need_preds.append(inst.pred.index)
            if need_regs or need_preds:
                w(bind + "need = 0")
                for index in need_regs:
                    w(bind + "t = rrg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                for index in need_preds:
                    w(bind + "t = prg(%d, 0)" % index)
                    w(bind + "if t > need:")
                    w(bind + "    need = t")
                w(bind + "if need > cycle:")
                w(bind + "    wait = need - cycle")
                w(bind + "    add_stall(_IL, wait)")
                w(bind + "    vliw_cycles += wait")
                w(bind + "    cycle = need")
            # Issue: pre-clear predicated writeback slots, then the
            # instructions in slot order; two-phase write-back follows.
            wbs = []
            for slot, inst in live:
                group = group_of(inst.opcode)
                wb = None
                if inst.dst is not None and (
                    group is OpGroup.LDMEM or group in DATAFLOW_GROUPS
                ):
                    j = self.wb_counter
                    self.wb_counter += 1
                    wb = {
                        "var": "wb%d" % j,
                        "rdy": "rdy%d" % j,
                        "is_pred": isinstance(inst.dst, PredReg),
                        "index": inst.dst.index,
                        "latency": latency_of(inst.opcode),
                        "is_load": group is OpGroup.LDMEM,
                        "guarded": inst.pred is not None,
                    }
                    wbs.append(wb)
                    if wb["guarded"]:
                        w(bind + "%s = _A" % wb["var"])
                self._emit_inst(lines, bind, pc, slot, inst, wb)
            for wb in wbs:
                sub = bind
                if wb["guarded"]:
                    w(bind + "if %s is not _A:" % wb["var"])
                    sub = bind + "    "
                ready = "%s" % wb["rdy"] if wb["is_load"] else "cycle + %d" % wb["latency"]
                if wb["is_pred"]:
                    w(sub + "n_cprf_w += 1")
                    w(sub + "CP[%d] = %s & 1" % (wb["index"], wb["var"]))
                    w(sub + "pred_ready[%d] = %s" % (wb["index"], ready))
                else:
                    w(sub + "n_cdrf_w += 1")
                    w(sub + "CD[%d] = %s & %d" % (wb["index"], wb["var"], self.cdrf_mask))
                    w(sub + "reg_ready[%d] = %s" % (wb["index"], ready))
            w(bind + "vliw_cycles += 1")
            w(bind + "cycle += 1")
        # Terminator epilogue: the last bundle may have taken a branch
        # (stop wins over a taken branch, exactly like the reference loop).
        if has_branch:
            w(bind + "if stop is None and taken:")
            w(bind + "    dead = bl - 1")
            w(bind + "    add_stall(_BR, dead)")
            w(bind + "    vliw_cycles += dead")
            w(bind + "    cycle += dead")
            w(bind + "    next_pc = tgt")
        w(ind + "finally:")
        if used_fus:
            w(ind + "    fu_ops = stats.fu_ops")
            for fu in used_fus:
                w(ind + "    fu_ops[%d] += n_fu%d" % (fu, fu))
        if used_groups:
            w(ind + "    op_groups = stats.op_groups")
            for g in used_groups:
                w(ind + "    op_groups[_G_%s] += n_g_%s" % (g, g))
        w(ind + "    stats.vliw_cycles += vliw_cycles")
        w(ind + "    stats.vliw_ops += vliw_ops")
        w(ind + "    stats.squashed_ops += squashed")
        w(ind + "    stats.cdrf_reads += n_cdrf_r")
        w(ind + "    stats.cdrf_writes += n_cdrf_w")
        w(ind + "    stats.cprf_reads += n_cprf_r")
        w(ind + "    stats.cprf_writes += n_cprf_w")
        if self.has_mem:
            w(ind + "    stats.l1_reads += n_l1r")
            w(ind + "    stats.l1_writes += n_l1w")
            w(ind + "    stats.l1_bank_conflicts += n_bc")
            w(ind + "    stats.l1_conflict_stall_cycles += bc_stall")
        w(ind + "    stats.icache_hits += n_ic_h")
        w(ind + "    stats.icache_misses += n_ic_m")


def _vliw_function(bundles, start_pc: int, slot_fus, cdrf, cprf,
                   scratchpad, icache, fault, n_lanes: int):
    """``(fn, end_pc)``: the generated ``n_lanes``-wide function of the
    segment at *start_pc* (shared by both public factories, so wrapping
    one never nests the other)."""
    from repro.sim.vliw import StopEvent  # lazy: vliw.py imports this module

    end_pc = vliw_segment_end(bundles, start_pc)
    n_lanes = int(n_lanes)
    l1_geom = (scratchpad.n_banks, scratchpad.size_bytes)
    icache_geom = (icache.n_lines, icache.bundles_per_line, icache.miss_penalty)
    key = (
        "vliw",
        n_lanes,
        tuple(slot_fus),
        (cdrf.width, cdrf.read_ports, cdrf.write_ports),
        (cprf.read_ports, cprf.write_ports),
        l1_geom,
        icache_geom,
        vliw_signature(bundles, start_pc, end_pc),
    )

    def gen() -> str:
        return _VliwGen(bundles, start_pc, end_pc, slot_fus, cdrf, cprf, fault,
                        l1_geom, icache_geom, n_lanes).generate()

    source = _cached_source(key, "vliw", "pc%d" % start_pc, gen)
    fn = _compiled_fn(key, source, "_vliw_run",
                      {"_VF": fault, "_Stop": StopEvent, "_ME": MemoryError_,
                       "_BF": (fault, MemoryError_)},
                      "vliw pc%d w%d" % (start_pc, n_lanes))
    return fn, end_pc


def vliw_runner(bundles, start_pc: int, slot_fus, cdrf, cprf, scratchpad,
                icache, fault):
    """Return ``(fn, imms)`` for the straight-line segment at *start_pc*.

    ``fn`` is the width-1 generated function (see
    :func:`vliw_batch_runner`); ``imms`` is the segment's immediate
    pool.  Raises :class:`CodegenUnsupported` when the static
    port-pressure proof fails (the engine pins a fallback-to-reference
    marker), and *fault* for malformed bundles.
    """
    fn, end_pc = _vliw_function(bundles, start_pc, slot_fus, cdrf, cprf,
                                scratchpad, icache, fault, 1)
    return fn, vliw_imms(bundles, start_pc, end_pc)


def vliw_batch_runner(bundles, start_pc: int, slot_fus, cdrf, cprf,
                      scratchpad, icache, fault, n_lanes: int):
    """Return ``(fn, end_pc)`` — the ``n_lanes``-wide function for the
    straight-line segment at *start_pc* and the segment's exclusive end.

    The width, the L1 geometry and the icache geometry all join the
    cache key because the memory and instruction-cache models are
    inlined into the generated source.  Per-lane immediate pools come
    from the caller via :func:`vliw_imms` over each lane's (possibly
    ``patch_constants``-patched) bundles.
    """
    return _vliw_function(bundles, start_pc, slot_fus, cdrf, cprf,
                          scratchpad, icache, fault, n_lanes)


def vliw_imms(bundles, start_pc: int, end_pc: int) -> Tuple[int, ...]:
    """One lane's immediate pool for the segment, in canonical order."""
    return tuple(_vliw_pool_map(bundles, start_pc, end_pc)[0])
