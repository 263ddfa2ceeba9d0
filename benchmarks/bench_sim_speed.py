#!/usr/bin/env python
"""Simulator speed: host-side simulated cycles per second, per tier.

Times the full reference-modem packet (the paper's profiled MIMO-OFDM
workload) under the interpreter tiers and reports
``host_cycles_per_sec`` — total simulated cycles divided by host wall
seconds.  This is the per-PR trajectory metric of the simulator itself,
separate from the modelled processor's numbers.

The sweep structure:

* the **cold** run (the primary ``wall_s``/``host_cycles_per_sec``)
  uses the compiled tier and includes the modulo-scheduler compile and
  the code generation of every kernel, exactly what a fresh benchmark
  session pays;
* a **warm** run per tier (``compiled`` always, ``reference`` with
  ``--reference``) repeats the packet with the
  process-wide schedule and codegen caches populated, isolating pure
  simulation speed (best wall of three timed repetitions).  It goes
  through ``run_reference_modem``, so every region builds a fresh core
  whose engines run the generated functions at width 1; per-tier
  numbers land in ``extra.tiers`` and the pairwise ratios in
  ``extra.speedups``;
* a **batched** run per width B in {1, 4, 16}: a resident
  :class:`~repro.runtime.ModemRuntime` (``BatchedModemRuntime`` is the
  same class) processes B copies of the packet per ``run_batch`` call
  on its resident lane cores (tier keys ``batched_b<B>``, throughput
  normalised per packet; ``batched_b1`` is the resident width-1 path
  that ``run_packet`` takes).  ``--min-batched-speedup`` gates the best
  batched tier of width B > 1 against the per-packet compiled tier — the
  CI regression gate for the cross-packet batching work (``batched_b1``
  batches nothing, so it is reported but not gated).

Every warm run's cycle count and decoded bits are checked for equality
against the cold run (the bit-exact contract; the exhaustive diff lives
in ``tests/sim/test_differential.py``).

Writes ``BENCH_sim_speed.json`` through ``reporting.write_bench_report``
and validates it against ``bench_report.schema.json``; exit status 0 on
success.

Run:  PYTHONPATH=src python benchmarks/bench_sim_speed.py [--reference]
"""

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import reporting
from repro.eval import run_reference_modem
from repro.runtime import BatchedModemRuntime, make_packet
from repro.trace import schema_errors

#: Batch widths swept by the batched compiled tier.
BATCH_WIDTHS = (1, 4, 16)


def timed_run(interpreter):
    t0 = time.perf_counter()
    run = run_reference_modem(seed=42, cfo_hz=50e3, snr_db=None, interpreter=interpreter)
    wall = time.perf_counter() - t0
    return run, wall


def timed_batched_run(batch):
    """Warm, resident batched run: B copies of the packet per call.

    The first ``run_batch`` primes the resident structures (lane cores,
    batch functions, linked programs); the timed calls measure the
    steady serving state the fabric's batch-drain mode reaches (best of
    three repetitions, like the per-packet tiers, to ride out scheduler
    noise on shared runners).
    """
    case = make_packet(42, cfo_hz=50e3)
    runtime = BatchedModemRuntime(batch=batch)
    packets = [case.rx] * batch
    runtime.run_batch(packets)
    wall = None
    for _ in range(3):
        t0 = time.perf_counter()
        outputs = runtime.run_batch(packets)
        rep = time.perf_counter() - t0
        wall = rep if wall is None else min(wall, rep)
    return runtime, outputs, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="include the (slow) reference interpreter in the warm sweep",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR", help="report directory (default benchmarks/out)"
    )
    parser.add_argument(
        "--min-batched-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="fail unless the best batched tier of width > 1 is at least X "
        "times the warm per-packet compiled tier (0 disables the gate)",
    )
    args = parser.parse_args(argv)

    run, wall = timed_run("compiled")
    stats = run.output.stats
    cps = stats.total_cycles / wall
    print(
        "compiled (cold, incl. compile): %d cycles in %.2fs -> %.0f cycles/s (ber=%g)"
        % (stats.total_cycles, wall, cps, run.ber)
    )

    tier_names = ["compiled"]
    if args.reference:
        tier_names.append("reference")
    tiers = {}
    for tier in tier_names:
        # The cold run left the process-wide schedule and codegen caches
        # warm, so these runs measure steady-state simulation only; best
        # of three repetitions rides out scheduler noise on shared runners.
        warm, warm_wall = timed_run(tier)
        for _ in range(2):
            warm2, wall2 = timed_run(tier)
            if wall2 < warm_wall:
                warm, warm_wall = warm2, wall2
        warm_cps = warm.output.stats.total_cycles / warm_wall
        print("%s (warm): %.3fs -> %.0f cycles/s" % (tier, warm_wall, warm_cps))
        if warm.output.stats.total_cycles != stats.total_cycles:
            print(
                "FAIL: cycle counts differ (%s tier vs cold compiled)" % tier,
                file=sys.stderr,
            )
            return 1
        if list(warm.output.bits) != list(run.output.bits):
            print(
                "FAIL: decoded bits differ (%s tier vs cold compiled)" % tier,
                file=sys.stderr,
            )
            return 1
        tiers[tier] = {
            "warm_wall_s": round(warm_wall, 6),
            "warm_host_cycles_per_sec": round(warm_cps, 3),
        }

    # Batched compiled tier: one resident runtime per width, the same
    # bit-exact contract as the per-packet tiers for every lane.
    for b in BATCH_WIDTHS:
        runtime, outputs, wall_b = timed_batched_run(b)
        cycles_b = sum(out.stats.total_cycles for out in outputs)
        cps_b = cycles_b / wall_b
        print(
            "batched B=%d (warm): %.3fs (%.3fs/pkt) -> %.0f cycles/s"
            % (b, wall_b, wall_b / b, cps_b)
        )
        for out in outputs:
            if out.stats.total_cycles != stats.total_cycles:
                print(
                    "FAIL: cycle counts differ (batched B=%d vs cold compiled)" % b,
                    file=sys.stderr,
                )
                return 1
            if list(out.bits) != list(run.output.bits):
                print(
                    "FAIL: decoded bits differ (batched B=%d vs cold compiled)" % b,
                    file=sys.stderr,
                )
                return 1
        if runtime.fallbacks:
            print(
                "FAIL: batched B=%d needed %d per-packet fallbacks on a "
                "uniform batch" % (b, runtime.fallbacks),
                file=sys.stderr,
            )
            return 1
        tiers["batched_b%d" % b] = {
            "warm_wall_s": round(wall_b, 6),
            "warm_wall_s_per_packet": round(wall_b / b, 6),
            "warm_host_cycles_per_sec": round(cps_b, 3),
            "batch": b,
        }

    speedups = {}
    for num, den in [("compiled", "reference")] + [("batched_b%d" % b, "compiled") for b in BATCH_WIDTHS]:
        if num in tiers and den in tiers:
            ratio = (
                tiers[num]["warm_host_cycles_per_sec"]
                / tiers[den]["warm_host_cycles_per_sec"]
            )
            speedups["%s_vs_%s" % (num, den)] = round(ratio, 3)
            print("warm %s/%s speedup: %.2fx" % (num, den, ratio))

    if args.min_batched_speedup > 0:
        best = max(
            speedups["batched_b%d_vs_compiled" % b] for b in BATCH_WIDTHS if b > 1
        )
        if best < args.min_batched_speedup:
            print(
                "FAIL: best batched/compiled speedup %.2fx < required %.2fx"
                % (best, args.min_batched_speedup),
                file=sys.stderr,
            )
            return 1
        print(
            "batched gate ok: best batched/compiled speedup %.2fx >= %.2fx"
            % (best, args.min_batched_speedup)
        )

    extra = {
        "interpreter": "compiled",
        "ber": run.ber,
        # Back-compat fields: the compiled tier's warm numbers.
        "warm_wall_s": tiers["compiled"]["warm_wall_s"],
        "warm_host_cycles_per_sec": tiers["compiled"]["warm_host_cycles_per_sec"],
        "tiers": tiers,
        "speedups": speedups,
    }

    path = reporting.write_bench_report(
        "sim_speed", out_dir=args.out, wall_s=wall, stats=stats, extra=extra
    )
    with open(path) as fh:
        report = json.load(fh)
    with open(os.path.join(_HERE, "bench_report.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(report, schema)
    if errors:
        print("FAIL: %s violates bench_report.schema.json:" % path, file=sys.stderr)
        for err in errors:
            print("  " + err, file=sys.stderr)
        return 1
    if report["host_cycles_per_sec"] is None or report["host_cycles_per_sec"] <= 0:
        print("FAIL: missing host_cycles_per_sec", file=sys.stderr)
        return 1
    print("wrote %s (schema ok)" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
