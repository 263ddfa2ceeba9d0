"""Runtime tests: bit-identity, warm-vs-cold throughput and disk cache."""

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.compiler.linker import configure_schedule_cache
from repro.modem.receiver import SimReceiver
from repro.runtime import ModemRuntime, generate_packets

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def cases():
    return generate_packets(8, base_seed=42, cfo_hz=50e3)


def _assert_outputs_identical(a, b):
    """Full bit-identity: decoded payload, estimates, cycles, stats."""
    assert list(a.bits) == list(b.bits)
    assert a.detect_pos == b.detect_pos
    assert a.ltf1_start == b.ltf1_start
    assert a.coarse_cfo_hz == b.coarse_cfo_hz
    assert a.fine_cfo_hz == b.fine_cfo_hz
    regions_a = a.preamble_regions + a.data_regions
    regions_b = b.preamble_regions + b.data_regions
    assert [r.name for r in regions_a] == [r.name for r in regions_b]
    for ra, rb in zip(regions_a, regions_b):
        assert ra.profile.cycles == rb.profile.cycles, ra.name
        assert ra.outputs == rb.outputs, ra.name
    assert a.stats == b.stats
    assert a.image == b.image


def test_batch_bit_identical_to_per_packet_receivers(cases):
    subset = cases[:3]
    runtime = ModemRuntime()
    outputs = [runtime.run_packet(subset[0].rx)]
    programs_after_first = runtime.compiled_programs
    outputs += [runtime.run_packet(case.rx) for case in subset[1:]]
    # The runtime relinked nothing after the first packet: one program set.
    assert runtime.compiled_programs == programs_after_first
    for out, case in zip(outputs, subset):
        assert float(np.mean(out.bits != case.bits)) == 0.0
    for out, case in zip(outputs, subset):
        solo = SimReceiver().run_packet(case.rx)
        _assert_outputs_identical(out, solo)


def test_batch_8_packets_at_least_5x_faster_than_cold_runs(cases, cold_compile_caches):
    """The headline acceptance: 8 packets on one warm runtime beat 8
    cold compiles."""
    with cold_compile_caches():
        t0 = time.perf_counter()
        cold_out = SimReceiver().run_packet(cases[0].rx)
        t_cold = time.perf_counter() - t0
    assert float(np.mean(cold_out.bits != cases[0].bits)) == 0.0

    runtime = ModemRuntime()
    t0 = time.perf_counter()
    outputs = [runtime.run_packet(case.rx) for case in cases]
    t_batch = time.perf_counter() - t0
    assert len(outputs) == len(cases)
    for out, case in zip(outputs, cases):
        assert float(np.mean(out.bits != case.bits)) == 0.0
    # 8 cold per-packet runs would cost ~8 * t_cold; the warm loop must
    # be at least 5x cheaper end-to-end.
    assert len(cases) * t_cold >= 5 * t_batch, (t_cold, t_batch)


def test_batched_runtime_ragged_chunk_is_not_a_fallback(cases):
    """Chunks of 2 and a trailing 1 (N % B != 0) both run on the
    resident cores: every packet is bit-identical to the reference
    tier (the runtime's own ``interpreter="reference"`` path, which
    runs every region on a fresh reference core), and neither chunk
    counts toward ``fallbacks``."""
    subset = [case.rx for case in cases[:3]]
    runtime = ModemRuntime(batch=2)  # chunks of 2 + 1
    outputs = runtime.run_batch(subset)
    reference = ModemRuntime(interpreter="reference")
    for out, rx in zip(outputs, subset):
        _assert_outputs_identical(out, reference.run_packet(rx))
    assert runtime.packets_run == 3
    assert runtime.fallbacks == 0, "a ragged chunk is not a fallback"
    assert reference.packets_run == 3 and reference.fallbacks == 0


def test_batched_name_is_the_one_runtime():
    from repro.runtime import BatchedModemRuntime

    assert BatchedModemRuntime is ModemRuntime
    with pytest.raises(ValueError, match="'compiled' or 'reference'"):
        ModemRuntime(interpreter="decoded")


def test_runtime_tracks_warmed_shapes(cases):
    """warmed_shapes mirrors the linked-program shapes; the fabric uses
    it to seed shape-affinity state for workers forked from a template."""
    runtime = ModemRuntime()
    assert runtime.warmed_shapes == set()
    runtime.warm_up(cases[0].rx)
    shape = (int(cases[0].rx.shape[1]), 2)
    assert runtime.warmed_shapes == {shape}
    runtime.run_packet(cases[1].rx)  # same shape: still one entry
    assert runtime.warmed_shapes == {shape}


def test_fresh_process_with_warm_disk_cache_never_schedules(tmp_path, cases):
    """ISSUE acceptance: a warm on-disk cache eliminates every
    ModuloScheduler.schedule call in a fresh process."""
    configure_schedule_cache(str(tmp_path))
    try:
        # The in-memory cache is warm from the earlier tests; running one
        # packet write-throughs every schedule into the directory.
        ModemRuntime().run_packet(cases[0].rx)
    finally:
        configure_schedule_cache(None)
    assert list(tmp_path.glob("*.sched.pkl"))

    script = textwrap.dedent(
        """
        import numpy as np
        from repro.compiler import modulo

        def _poisoned(self, *args, **kwargs):
            raise AssertionError("ModuloScheduler.schedule ran despite warm disk cache")

        modulo.ModuloScheduler.schedule = _poisoned

        from repro.runtime import ModemRuntime, make_packet

        case = make_packet(42, cfo_hz=50e3)
        out = ModemRuntime().run_packet(case.rx)
        assert float(np.mean(out.bits != case.bits)) == 0.0
        print("DISK_WARM_OK", out.ltf1_start)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR
    env["REPRO_SCHEDULE_CACHE"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "DISK_WARM_OK" in proc.stdout
