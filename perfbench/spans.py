"""In-memory spans around the program's public entry points.

Only the traced run (``--trace 1``) installs these wrappers; the
end-to-end run measures the unmodified program.  Each span records its
name, start, end, the index of the span that was open when it started
(its parent), the packet ids it served and the benchmark phase it ran
in (``setup`` for the set-up that was kept, ``setup_early`` for earlier
set-up repetitions, ``timed``, ``check``, ``b1`` for the width-1 probe).
Spans live in one list and are written out once, at exit.

A layer's *self time* is a span's duration minus the durations of its
direct children, so the self times of every span under a root add up to
that root's wall time exactly.

Spans are recorded from the benchmark's thread only.  Forked fabric
workers inherit the wrappers; the workload switches the recorder off in
the child, so worker-side work is neither recorded nor slowed.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List

#: Span-name prefix -> layer, longest prefix first.
LAYERS = (
    ("loadgen.", "loadgen"),
    ("ingest.", "ingest"),
    ("fabric.", "fabric"),
    ("runtime.", "runtime"),
    ("sim.batch", "sim.batch"),
    ("sim.cga", "sim.cga"),
    ("sim.vliw", "sim.vliw"),
    ("sim.codegen", "sim.codegen"),
    ("compiler.", "compiler"),
)

NAME, START, END, PARENT, IDS, PHASE = range(6)


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return name.split(".", 1)[0]


class Recorder:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = True
        self.phase = "setup"
        #: Packet ids the benchmark is currently working on; spans opened
        #: inside take them, so all spans of one packet share its id.
        self.ids: tuple = ()
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, rec.ids, rec.phase]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()

        traced.__wrapped_by_perfbench__ = True
        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call *fn* inside a span named *name* (for calls the benchmark
        makes itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- analysis --------------------------------------------------------

    def selected(self, phase: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s[PHASE] == phase and s[END]]

    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive seconds, self seconds."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0 and s[END]:
                child_s[s[PARENT]] += s[END] - s[START]
        out: Dict[str, Dict[str, float]] = {}
        for i in self.selected(phase):
            s = spans[i]
            row = out.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = s[END] - s[START]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_s[i]
        return out

    def layer_self(self, phase: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, row in self.totals(phase).items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + row["self_s"]
        return out

    def cost_per_span(self, calls: int = 20000) -> float:
        """Seconds one wrapped call adds over a plain call (measured)."""
        def noop():
            return None

        probe = Recorder()
        wrapped = probe.wrap("probe", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            noop()
        plain = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        traced = clock() - t0
        return max(0.0, (traced - plain) / calls)

    def dump(self, path: str) -> None:
        """Write every span as JSON (one list per span)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "ids", "phase"],
                    "spans": [[s[0], s[1], s[2], s[3], list(s[4]), s[5]] for s in self.spans],
                },
                fh,
            )


def instrument(rec: Recorder) -> None:
    """Wrap the program's public entry points with spans (idempotent).

    The patched names are looked up at call time by their callers
    (``codegen.cga_batch_runner`` from ``repro.sim.batch``, methods via
    the class), so wrapping the module attribute or class attribute
    reaches every call.
    """
    from repro.compiler.linker import ProgramLinker
    from repro.compiler.modulo import ModuloScheduler
    from repro.fabric import Fabric
    from repro.ingest import IngestServer
    from repro.runtime import BatchedModemRuntime, ModemRuntime
    from repro.sim import codegen
    from repro.sim.batch import BatchProgramRunner

    def patch(owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        if getattr(fn, "__wrapped_by_perfbench__", False):
            return
        setattr(owner, attr, rec.wrap(name, fn))

    patch(ModuloScheduler, "schedule", "compiler.schedule")
    patch(ProgramLinker, "call_kernel", "compiler.link")
    patch(ProgramLinker, "link", "compiler.link")
    patch(BatchedModemRuntime, "run_batch_results", "runtime.run_batch")
    patch(ModemRuntime, "run_packet", "runtime.run_packet")
    patch(BatchProgramRunner, "run", "sim.batch")
    patch(Fabric, "start", "fabric.start")
    patch(Fabric, "offer_many", "fabric.offer_many")
    patch(Fabric, "poll", "fabric.poll")
    patch(Fabric, "results", "fabric.results")
    patch(Fabric, "report", "fabric.report")
    patch(IngestServer, "start", "ingest.start")
    patch(IngestServer, "poll", "ingest.poll")
    patch(IngestServer, "accounting_problems", "ingest.accounting")

    def runner_factory(attr: str, kind: str, returns_pair: bool) -> None:
        build = getattr(codegen, attr)
        if getattr(build, "__wrapped_by_perfbench__", False):
            return
        timed_build = rec.wrap("sim.codegen", build)

        def make(*args, **kwargs):
            out = timed_build(*args, **kwargs)
            if returns_pair:
                fn, extra = out
                return rec.wrap(kind, fn), extra
            return rec.wrap(kind, out)

        make.__wrapped_by_perfbench__ = True
        setattr(codegen, attr, make)

    runner_factory("cga_runner", "sim.cga", True)
    runner_factory("cga_batch_runner", "sim.cga", False)
    runner_factory("vliw_runner", "sim.vliw", True)
    runner_factory("vliw_batch_runner", "sim.vliw", True)

