"""Schedule-cache tests: structural keying, disk persistence, corruption."""

import dataclasses
import glob
import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.arch import small_test_core
from repro.arch.topology import mesh_topology
from repro.compiler import KernelBuilder
from repro.compiler.linker import (
    _SCHEDULE_CACHE,
    ProgramLinker,
    clear_schedule_cache,
    configure_schedule_cache,
    schedule_cache_stats,
)
from repro.compiler.modulo import ModuloScheduler, placement_stats
from repro.isa import Opcode

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _make_dfg(name="cache_probe"):
    kb = KernelBuilder(name)
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    return kb.finish()


@pytest.fixture
def counted_schedule(monkeypatch):
    """Count ModuloScheduler.schedule invocations."""
    calls = []
    original = ModuloScheduler.schedule

    def wrapper(self, *args, **kwargs):
        calls.append(self.dfg.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModuloScheduler, "schedule", wrapper)
    return calls


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Protect the process-wide cache from, and for, other tests."""
    saved = dict(_SCHEDULE_CACHE)
    clear_schedule_cache()
    configure_schedule_cache(None)
    try:
        yield
    finally:
        configure_schedule_cache(None)
        clear_schedule_cache()
        _SCHEDULE_CACHE.update(saved)


def test_fingerprint_stable_and_name_independent():
    arch = small_test_core()
    assert arch.fingerprint() == small_test_core().fingerprint()
    renamed = dataclasses.replace(arch, name="something-else")
    assert renamed.fingerprint() == arch.fingerprint()


def test_fingerprint_differs_for_structural_change():
    arch = small_test_core()
    variant = dataclasses.replace(
        arch, interconnect=mesh_topology(arch.rows, arch.cols)
    )
    assert variant.fingerprint() != arch.fingerprint()


def test_same_name_architectures_do_not_alias(counted_schedule):
    """Two same-name archs with different interconnects must each get
    their own schedule (the cache used to key on ``arch.name``)."""
    arch_full = small_test_core()  # full topology
    arch_mesh = dataclasses.replace(
        arch_full, interconnect=mesh_topology(arch_full.rows, arch_full.cols)
    )
    assert arch_full.name == arch_mesh.name
    for arch in (arch_full, arch_mesh):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
        linker.link()
    assert len(counted_schedule) == 2


def test_identical_link_hits_memory_cache(counted_schedule):
    arch = small_test_core()
    for _ in range(2):
        linker = ProgramLinker(arch)
        linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
        linker.link()
    assert len(counted_schedule) == 1
    assert schedule_cache_stats()["memory_hits"] == 1


def _link_once(arch):
    linker = ProgramLinker(arch)
    outs = linker.call_kernel(_make_dfg(), live_ins={"base": 256}, trip_count=8)
    return linker.link(), outs


def test_disk_cache_eliminates_scheduling(tmp_path, counted_schedule):
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    program_a, _ = _link_once(arch)
    assert len(counted_schedule) == 1
    files = glob.glob(str(tmp_path / "*.sched.pkl"))
    assert len(files) == 1

    # A "fresh process": empty memory cache, warm directory.
    clear_schedule_cache()
    program_b, _ = _link_once(arch)
    assert len(counted_schedule) == 1  # no new compile
    assert schedule_cache_stats() == {"memory_hits": 0, "disk_hits": 1, "misses": 0}
    assert repr(program_b.kernels[0]) == repr(program_a.kernels[0])


def test_corrupt_cache_file_recompiles_and_heals(tmp_path, counted_schedule):
    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    _link_once(arch)
    (path,) = glob.glob(str(tmp_path / "*.sched.pkl"))

    for garbage in (b"", b"\x80\x05garbage", b"not a pickle at all"):
        with open(path, "wb") as fh:
            fh.write(garbage)
        clear_schedule_cache()
        _link_once(arch)  # must fall back to a recompile, not crash
        assert schedule_cache_stats()["misses"] == 1
        # The recompile rewrote a valid file: a second fresh load hits disk.
        clear_schedule_cache()
        _link_once(arch)
        assert schedule_cache_stats()["disk_hits"] == 1


def test_stale_key_in_cache_file_is_a_miss(tmp_path, counted_schedule):
    """A digest collision / stale payload degrades to a recompile."""
    import pickle

    arch = small_test_core()
    configure_schedule_cache(str(tmp_path))
    _link_once(arch)
    (path,) = glob.glob(str(tmp_path / "*.sched.pkl"))
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload["key"] = ("wrong",)
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)
    clear_schedule_cache()
    _link_once(arch)
    assert schedule_cache_stats()["misses"] == 1


def test_env_var_provides_default_cache_dir(tmp_path, monkeypatch, counted_schedule):
    monkeypatch.setenv("REPRO_SCHEDULE_CACHE", str(tmp_path))
    _link_once(small_test_core())
    assert glob.glob(str(tmp_path / "*.sched.pkl"))


_DIGEST_PROBE = textwrap.dedent(
    """
    import json
    from repro.arch import small_test_core
    from repro.compiler import KernelBuilder
    from repro.compiler.linker import ProgramLinker, schedule_cache_stats
    from repro.isa import Opcode
    from repro.sim import Core, codegen

    kb = KernelBuilder("digest_probe")
    base = kb.live_in("base")
    i = kb.induction(0, 4)
    x = kb.load(Opcode.LD_I, kb.add(base, i))
    kb.accumulate(Opcode.ADD, x, init=0, live_out="sum")
    arch = small_test_core()
    linker = ProgramLinker(arch)
    linker.call_kernel(kb.finish(), live_ins={"base": 256}, trip_count=8)
    Core(arch, linker.link(), interpreter="compiled").run()
    print(json.dumps({
        "schedule": schedule_cache_stats(),
        "codegen": codegen.codegen_stats(),
    }))
    """
)


def _add_comment(path):
    with open(path, "a") as fh:
        fh.write("# a comment changes no behaviour, but it is a new source\n")


def test_source_edit_invalidates_warm_disk_cache(tmp_path):
    """The disk keys carry a digest of the package's source: after any
    edit, even to a comment, a warm directory misses and recompiles."""
    src = tmp_path / "src"
    shutil.copytree(_SRC_DIR, src, ignore=shutil.ignore_patterns("__pycache__"))
    cache = tmp_path / "cache"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["REPRO_SCHEDULE_CACHE"] = str(cache)

    def probe():
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_PROBE],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    cold = probe()
    assert cold["schedule"]["misses"] == 1
    assert cold["codegen"]["compilations"] > 0
    warm = probe()
    assert warm["schedule"] == {"memory_hits": 0, "disk_hits": 1, "misses": 0}
    assert warm["codegen"]["compilations"] == 0

    # The scheduler itself, then a module neither compile step imports
    # directly but whose fields the generated code reads.
    for edited_file in ("compiler/modulo.py", "sim/regfile.py"):
        _add_comment(src / "repro" / edited_file)
        edited = probe()
        assert edited["schedule"] == {"memory_hits": 0, "disk_hits": 0, "misses": 1}
        assert edited["codegen"]["compilations"] == cold["codegen"]["compilations"]
        assert edited["codegen"]["disk_hits"] == 0


def test_clear_schedule_cache_also_clears_the_placement_memo():
    """A cleared cache must make the next link a cold one: the memo of
    placement searches below ``schedule()`` goes too."""
    arch = small_test_core()
    _link_once(arch)
    assert placement_stats() == {"searches": 1}
    clear_schedule_cache()
    assert placement_stats() == {"searches": 0}
    _link_once(arch)
    assert placement_stats() == {"searches": 1}


def test_twin_kernel_reuses_the_placement_search(counted_schedule):
    """Same structure, other constants and name: a schedule-cache miss,
    but no second placement search."""
    arch = small_test_core()
    linker = ProgramLinker(arch)
    linker.call_kernel(_make_dfg("twin_a"), live_ins={"base": 256}, trip_count=8)
    linker.call_kernel(_make_dfg("twin_b"), live_ins={"base": 512}, trip_count=5)
    linker.link()
    assert len(counted_schedule) == 2
    assert schedule_cache_stats()["misses"] == 2
    assert placement_stats() == {"searches": 1}
