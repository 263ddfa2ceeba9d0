"""Codegen-cache tests: bounded driver caches, disk persistence, corruption healing.

Mirrors ``tests/compiler/test_schedule_cache.py`` for the compiled-tier
source cache (`src/repro/sim/codegen.py`), plus the regression tests that
keep a long-lived :class:`~repro.sim.batch.BatchProgramRunner` from
pinning every kernel it ever ran.
"""

import glob
import linecache
import os
import pickle
import subprocess
import sys
import textwrap
import traceback

import pytest

import repro
from repro.arch import paper_core, small_test_core
from repro.compiler import KernelBuilder
from repro.compiler.linker import ProgramLinker, configure_schedule_cache
from repro.isa import Imm, Instruction, Opcode, Reg
from repro.sim import (
    BatchProgramRunner, CgaContext, CgaKernel, CgaOp, Core, DstSel, Program, SrcSel,
    VliwBundle,
)
from repro.sim import codegen
from repro.sim.memory import MemoryError_
from repro.sim.program import DstKind, patch_constants

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_SENTINEL = 0xBEEF01


@pytest.fixture(autouse=True)
def _isolated_caches():
    """Protect the process-wide codegen/schedule caches across tests."""
    saved_src = dict(codegen._SOURCE_CACHE)
    saved_fn = dict(codegen._FN_CACHE)
    saved_stats = dict(codegen._STATS)
    codegen.clear_codegen_cache()
    configure_schedule_cache(None)
    try:
        yield
    finally:
        configure_schedule_cache(None)
        codegen.clear_codegen_cache()
        codegen._SOURCE_CACHE.update(saved_src)
        codegen._FN_CACHE.update(saved_fn)
        codegen._STATS.update(saved_stats)


def _template_program():
    op = CgaOp(
        opcode=Opcode.ADD,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(_SENTINEL)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(
        name="lru_probe", ii=1, stage_count=1,
        contexts=[CgaContext(ops={0: op})], trip_count=4,
    )
    bundles = [
        VliwBundle((Instruction(Opcode.CGA, srcs=(Imm(0),)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    return Program(bundles=bundles, kernels={0: kernel})


# ----------------------------------------------------------------------
# A long-lived driver must not pin every kernel it ever ran.
# ----------------------------------------------------------------------


def _run_variants(runner, core, template, values):
    """Re-drive one resident *core* through *runner* once per
    ``patch_constants`` variant (the fabric-worker pattern); returns
    each run's live-out."""
    seen = []
    for value in values:
        variant = patch_constants(template, {_SENTINEL: value})
        core.reset(variant, bytearray(len(core.scratchpad._mem)))
        (lane,) = runner.run([core])
        assert lane.error is None
        seen.append(core.cdrf.peek(10))
        del variant, lane  # allow id() reuse for the next variant
    return seen


def test_runner_kernel_caches_are_bounded():
    """A long-lived runner fed many ``patch_constants`` variants keeps
    one cache entry per structure and lane slot, and compiles once."""
    template = _template_program()
    core = Core(paper_core(), template)
    runner = BatchProgramRunner()
    assert _run_variants(runner, core, template, [1]) == [4]
    compiled = codegen.codegen_stats()["compilations"]
    assert compiled >= 1
    values = range(2, 42)
    assert _run_variants(runner, core, template, values) == [4 * v for v in values]
    # One kernel slot, two segment starts, one lane: nothing grows with
    # the number of variants, and the newest variant is all that is pinned.
    assert len(runner._cga_lane) == 1
    assert len(runner._vliw_lane) == 2
    assert len(runner._cga_fns) == 1 and len(runner._vliw_fns) == 2
    assert len(runner._sig_ids) == 3
    # Structural sharing still holds: N variants, no further compile.
    assert codegen.codegen_stats()["compilations"] == compiled


def test_recycled_kernel_id_is_not_a_stale_hit():
    """`id()` reuse after garbage collection must miss, not alias: the
    runner's per-lane memo is guarded by object identity."""
    template = _template_program()
    core = Core(paper_core(), template)
    runner = BatchProgramRunner()
    assert _run_variants(runner, core, template, (5, 9)) == [20, 36]


# ----------------------------------------------------------------------
# Generated code that profilers and tracebacks can see
# ----------------------------------------------------------------------


def _kernel_fn(name, opcode):
    op = CgaOp(
        opcode=opcode,
        srcs=(SrcSel.self_().with_init(0), SrcSel.imm(3)),
        dsts=(DstSel(DstKind.CDRF, 10, last_iteration_only=True),),
    )
    kernel = CgaKernel(name=name, ii=1, stage_count=1,
                       contexts=[CgaContext(ops={0: op})], trip_count=4)
    program = Program(bundles=_template_program().bundles, kernels={0: kernel})
    runner = BatchProgramRunner()
    runner.run([Core(paper_core(), program)])
    (fn,) = runner._cga_fns.values()
    return fn


def test_generated_functions_have_their_own_file_names():
    """Each generated function compiles under its own file name (kind,
    label, width and, above width 1, trip) with its source in
    ``linecache``, so cProfile rows and tracebacks can tell generated
    functions apart."""
    add = _kernel_fn("adder", Opcode.ADD).__code__
    sub = _kernel_fn("subber", Opcode.SUB).__code__
    assert add.co_filename != sub.co_filename
    assert add.co_filename.startswith("codegen:cga adder w1 ")
    assert sub.co_filename.startswith("codegen:cga subber w1 ")
    first = linecache.getline(add.co_filename, add.co_firstlineno)
    assert first.startswith("def _cga_run(")


def test_traceback_out_of_generated_code_shows_the_source_line():
    """A scratchpad-bounds fault raised inside the width-1 VLIW function
    formats with the generated frame and its source line."""
    bundles = [
        VliwBundle((Instruction(Opcode.LD_I, srcs=(Reg(1), Imm(0)), dst=Reg(2)), None, None)),
        VliwBundle((Instruction(Opcode.HALT), None, None)),
    ]
    core = Core(paper_core(), Program(bundles=bundles))
    core.cdrf.poke(1, 1 << 20)  # far outside the scratchpad
    with pytest.raises(MemoryError_) as info:
        core.run()
    text = "".join(traceback.format_exception(info.type, info.value, info.tb))
    assert 'File "codegen:vliw pc0 w1 ' in text
    assert "raise _ME('scratchpad access" in text


# ----------------------------------------------------------------------
# Tentpole: two-level source cache (memory + shared disk directory)
# ----------------------------------------------------------------------


def _run_compiled(program, arch=None):
    core = Core(arch or paper_core(), program, interpreter="compiled")
    core.run()
    return core


def test_memory_cache_compiles_once():
    program = _template_program()
    _run_compiled(program)
    first = codegen.codegen_stats()
    assert first["compilations"] >= 1
    _run_compiled(program)
    after = codegen.codegen_stats()
    assert after["compilations"] == first["compilations"]
    assert after["memory_hits"] > first["memory_hits"]


def test_disk_cache_round_trip(tmp_path):
    configure_schedule_cache(str(tmp_path))
    _run_compiled(_template_program())
    compiled = codegen.codegen_stats()["compilations"]
    assert compiled >= 1
    files = glob.glob(str(tmp_path / "*.codegen.pkl"))
    assert len(files) == compiled  # every generation was persisted

    # A "fresh process": empty memory cache, warm directory.
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    stats = codegen.codegen_stats()
    assert stats["compilations"] == 0
    assert stats["disk_hits"] == compiled


def test_corrupt_artifact_regenerates_and_heals(tmp_path):
    configure_schedule_cache(str(tmp_path))
    core_a = _run_compiled(_template_program())
    paths = glob.glob(str(tmp_path / "*.codegen.pkl"))
    assert paths

    for garbage in (b"", b"\x80\x05garbage", b"not a pickle at all"):
        for path in paths:
            with open(path, "wb") as fh:
                fh.write(garbage)
        codegen.clear_codegen_cache()
        core_b = _run_compiled(_template_program())  # regenerate, not crash
        assert codegen.codegen_stats()["compilations"] == len(paths)
        assert core_b.cycle == core_a.cycle
        assert core_b.cdrf.peek(10) == core_a.cdrf.peek(10)
        # The regeneration healed the files: a fresh load hits disk.
        codegen.clear_codegen_cache()
        _run_compiled(_template_program())
        assert codegen.codegen_stats()["compilations"] == 0
        assert codegen.codegen_stats()["disk_hits"] == len(paths)


def test_stale_key_in_artifact_is_a_miss(tmp_path):
    """A digest collision / stale payload degrades to a regeneration."""
    configure_schedule_cache(str(tmp_path))
    _run_compiled(_template_program())
    (path, *_) = glob.glob(str(tmp_path / "*.codegen.pkl"))
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["key"] = ("wrong",)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    codegen.clear_codegen_cache()
    _run_compiled(_template_program())
    assert codegen.codegen_stats()["compilations"] >= 1


# ----------------------------------------------------------------------
# ISSUE acceptance: warm dir -> zero scheduling AND zero codegen in a
# fresh process (subprocess-asserted, like the PR 3 disk-warm test).
# ----------------------------------------------------------------------


def _make_dfg(name="codegen_probe"):
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    return kb.finish()


def _link_and_run(arch):
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
    core = Core(arch, linker.link(), interpreter="compiled")
    core.run()
    return core.cdrf.peek(outs["sum"].index)


def test_fresh_process_with_warm_cache_never_schedules_or_compiles(tmp_path):
    configure_schedule_cache(str(tmp_path))
    expected = _link_and_run(small_test_core())
    assert glob.glob(str(tmp_path / "*.sched.pkl"))
    assert glob.glob(str(tmp_path / "*.codegen.pkl"))

    script = textwrap.dedent(
        """
        from repro.compiler import modulo
        from repro.sim import codegen

        def _no_schedule(self, *args, **kwargs):
            raise AssertionError("ModuloScheduler.schedule ran despite warm disk cache")

        def _no_codegen(self, *args, **kwargs):
            raise AssertionError("codegen generated source despite warm disk cache")

        modulo.ModuloScheduler.schedule = _no_schedule
        codegen._CgaGen.generate = _no_codegen
        codegen._VliwGen.generate = _no_codegen

        import test_codegen_cache as t
        from repro.arch import small_test_core

        value = t._link_and_run(small_test_core())
        assert codegen.codegen_stats()["compilations"] == 0
        print("CODEGEN_WARM_OK", value)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + os.path.dirname(os.path.abspath(__file__))
    env["REPRO_SCHEDULE_CACHE"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "CODEGEN_WARM_OK %d" % expected in proc.stdout
