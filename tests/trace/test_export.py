"""Exporter tests: Chrome trace mapping, golden FIR shape, Prometheus."""

import json
import os

from repro.trace import Tracer, chrome_trace, chrome_trace_events, prometheus_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "fir_trace_shape.json")


def _sample_tracer():
    tr = Tracer()
    tr.complete("cga:fir", 10, 40, cat="mode", args={"ii": 2})
    tr.instant("stall.icache_miss", 3, cat="stall", args={"pc": 0})
    tr.counter("occupancy", 12, {"fus": 9})
    return tr


def test_chrome_event_mapping():
    events = chrome_trace_events(_sample_tracer())
    meta = [e for e in events if e["ph"] == "M"]
    body = [e for e in events if e["ph"] != "M"]
    # Named tracks: one thread per seen category plus the process name.
    assert {m["args"]["name"] for m in meta} >= {"mode", "stall", "repro simulated core"}
    x, i, c = body
    assert x["ph"] == "X" and x["dur"] == 40 and x["args"] == {"ii": 2}
    assert i["ph"] == "i" and i["s"] == "t" and i["args"] == {"pc": 0}
    assert c["ph"] == "C" and c["args"] == {"fus": 9}
    # Distinct categories land on distinct threads of the one process.
    assert x["tid"] != i["tid"]
    assert all(e["pid"] == 1 for e in body)


def test_chrome_trace_document_shape():
    doc = chrome_trace(_sample_tracer(), meta={"seed": 7})
    # Loadable JSON with the keys the Chrome/Perfetto UIs expect.
    doc = json.loads(json.dumps(doc))
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["seed"] == 7
    assert doc["otherData"]["dropped_events"] == 0


def test_chrome_trace_golden_fir_shape(fir_run):
    """The traced FIR run emits a stable set of (phase, cat, name) shapes.

    Timings are free to move as the simulator evolves; the *kinds* of
    events a kernel run produces are the contract this golden file
    freezes.  Regenerate with tests/trace/regen_golden.py.
    """
    events = chrome_trace_events(fir_run.tracer)
    body = [e for e in events if e["ph"] != "M"]
    # Every event carries the Chrome-required keys and ts is in cycles.
    for event in body:
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        if event["ph"] == "X":
            assert event["dur"] >= 0
    shapes = sorted({(e["ph"], e["cat"], e["name"]) for e in body})
    with open(GOLDEN) as fh:
        golden = [tuple(entry) for entry in json.load(fh)]
    assert shapes == golden


def test_chrome_trace_covers_compiler_and_modes(fir_run):
    names = {e.name for e in fir_run.tracer.events}
    assert "modulo.search" in names  # II-search start
    assert "modulo.scheduled" in names  # placement success
    assert "cga:fir4" in names  # the kernel's mode span
    assert "vliw" in names  # surrounding glue code
    assert "dma.config_load" in names  # context preload on the bus


class _FakeStats:
    def as_dict(self):
        return {
            "counters": {"vliw_cycles": 10, "cga_cycles": 40},
            "fu_ops": {0: 7, 3: 9},
            "op_groups": {"simd1": 12},
            "stall_causes": {"bank_conflict": 4, "interlock": 0},
        }


def test_prometheus_text_format():
    text = prometheus_text(_FakeStats(), labels={"run": "t0"})
    lines = text.strip().splitlines()
    assert "# TYPE repro_sim_vliw_cycles counter" in lines
    assert 'repro_sim_vliw_cycles{run="t0"} 10' in lines
    assert 'repro_sim_fu_ops{fu="3",run="t0"} 9' in lines
    assert 'repro_sim_op_group_ops{group="simd1",run="t0"} 12' in lines
    assert 'repro_sim_stall_cycles_by_cause{cause="bank_conflict",run="t0"} 4' in lines
    assert text.endswith("\n")


def test_prometheus_text_without_labels():
    text = prometheus_text(_FakeStats())
    assert "repro_sim_cga_cycles 40" in text


def test_traced_core_runs_the_reference_engines():
    """Generated code has no tracer hooks, so a traced core asking for
    the compiled tier runs the reference engines instead: the FIR
    program emits exactly the reference tier's events and nothing is
    compiled for it."""
    from repro.arch import paper_core
    from repro.compiler.linker import ProgramLinker
    from repro.sim import Core, codegen
    from tests.conftest import _cold_compile_caches
    from tests.trace.conftest import build_fir_dfg

    arch = paper_core()
    linker = ProgramLinker(arch, name="fir", seed=0)
    linker.call_kernel(build_fir_dfg(), live_ins={"src": 64, "dst": 2048}, trip_count=16)
    program = linker.link()
    tracers = {}
    with _cold_compile_caches():
        for interpreter in ("compiled", "reference"):
            tracer = tracers[interpreter] = Tracer()
            core = Core(arch, program, tracer=tracer, interpreter=interpreter)
            assert not core.cga.use_compiled and not core.vliw.use_compiled
            core.load_configuration()
            core.run()
        assert codegen.codegen_stats()["compilations"] == 0
    assert tracers["compiled"].events
    assert tracers["compiled"].events == tracers["reference"].events
