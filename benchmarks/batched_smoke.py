#!/usr/bin/env python
"""Batch-drain serving smoke: a batched fabric on the shared cache dir.

Serves one same-shape packet burst through a 2-worker
:class:`~repro.fabric.Fabric` in batch-drain mode (``batch`` > 1), with
every worker forked from a warm :class:`~repro.runtime.BatchedModemRuntime`
template on the shared schedule/codegen cache directory, and asserts:

* **zero compiles at worker spin-up** — ``spinup_schedule_misses`` and
  ``spinup_codegen_compilations`` are 0 for every worker (the parent
  template paid them once; the fork plus disk cache covers the rest);
* **coalescing actually happened** — at least one worker served more
  batched tasks than dispatches, and the per-worker occupancy gauge is
  present in ``/metrics``-style exposition (``repro_fabric_worker_batch_occupancy``);
* **bit-identity vs serial** — every fabric result (bits, detect
  position, stats, memory image) equals the same packet run alone (a
  chunk of one) through a warm :class:`~repro.runtime.ModemRuntime`.

Run it twice against the same ``--cache`` directory (as CI does) and the
second run also proves the disk-warm start: the parent template links
every region from disk without scheduling or re-emitting code.

Writes ``BENCH_batched_smoke.json`` through ``reporting.write_bench_report``
and validates it against ``bench_report.schema.json``; exit status 0 on
success.

Run:  PYTHONPATH=src python benchmarks/batched_smoke.py \\
          [--packets N] [--batch B] [--cache DIR] [--out DIR]
"""

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

import numpy as np

import reporting
from repro.compiler.linker import schedule_cache_stats
from repro.fabric import Fabric
from repro.obs.prom import lint_exposition
from repro.runtime import BatchedModemRuntime, ModemRuntime, generate_packets
from repro.sim import codegen
from repro.sim.stats import ActivityStats
from repro.trace import schema_errors


def _identical(fabric_out, serial_out) -> bool:
    return (
        list(fabric_out.bits) == list(serial_out.bits)
        and fabric_out.detect_pos == serial_out.detect_pos
        and fabric_out.stats == serial_out.stats
        and fabric_out.image == serial_out.image
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--packets", type=int, default=8, metavar="N", help="burst size (default 8)"
    )
    parser.add_argument(
        "--batch", type=int, default=4, metavar="B",
        help="batch-drain width (default 4)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fabric worker count (default 2)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared schedule/codegen cache directory "
        "(default $REPRO_SCHEDULE_CACHE)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="report directory (default benchmarks/out)",
    )
    parser.add_argument("--seed", type=int, default=42, help="base packet seed")
    args = parser.parse_args(argv)
    if args.packets < 1:
        parser.error("--packets must be >= 1")
    if args.batch < 2:
        parser.error("--batch must be >= 2 (batch-drain mode)")

    cases = generate_packets(args.packets, base_seed=args.seed, cfo_hz=50e3)

    # Serial reference: one packet at a time (width 1) on a warm runtime.
    serial = ModemRuntime(cache_dir=args.cache, interpreter="compiled")
    serial.warm_up(cases[0].rx)
    serial_outputs = [serial.run_packet(case.rx) for case in cases]
    bers = [
        float(np.mean(out.bits != case.bits))
        for out, case in zip(serial_outputs, cases)
    ]
    if any(ber != 0.0 for ber in bers):
        print("FAIL: nonzero serial BER on clean channel: %r" % bers, file=sys.stderr)
        return 1

    # Warm batched template: pays (or loads from disk) every schedule
    # and codegen compile before any worker forks.
    compiles_before = codegen.codegen_stats()["compilations"]
    template = BatchedModemRuntime(batch=args.batch, cache_dir=args.cache)
    t0 = time.perf_counter()
    template.run_batch([case.rx for case in cases[: args.batch]])
    warmup_wall = time.perf_counter() - t0
    warmup_compiles = codegen.codegen_stats()["compilations"] - compiles_before
    print(
        "template warm-up: %.2fs, %d codegen compilations this process "
        "(schedule cache: %s)"
        % (warmup_wall, warmup_compiles, schedule_cache_stats())
    )

    fab = Fabric(
        workers=args.workers,
        batch=args.batch,
        template_runtime=template,
        cache_dir=args.cache,
        queue_depth=max(4, args.packets),
        name="batched-smoke",
    )
    with fab:
        t0 = time.perf_counter()
        outcomes = fab.offer_many([case.rx for case in cases])
        ids = [outcome.task_id for outcome in outcomes]
        if any(task_id is None for task_id in ids):
            print("FAIL: burst was shed under block backpressure", file=sys.stderr)
            return 1
        results = fab.drain(timeout=600)
        wall = time.perf_counter() - t0
        report = fab.report()
        metrics = fab.metrics_text()

    bit_identical = True
    for task_id, serial_out in zip(ids, serial_outputs):
        if not _identical(results[task_id], serial_out):
            bit_identical = False
            print(
                "FAIL: task %d differs from the serial compiled run" % task_id,
                file=sys.stderr,
            )
    if not bit_identical:
        return 1

    misses = sum(w["spinup_schedule_misses"] or 0 for w in report["per_worker"])
    compiles = sum(
        w["spinup_codegen_compilations"] or 0 for w in report["per_worker"]
    )
    if misses or compiles:
        print(
            "FAIL: warm-start workers compiled (schedule misses %d, codegen "
            "compilations %d)" % (misses, compiles),
            file=sys.stderr,
        )
        return 1
    if not all(w["spinup_batched"] for w in report["per_worker"]):
        print("FAIL: a worker spun up without batch support", file=sys.stderr)
        return 1

    batches = sum(w["batches"] or 0 for w in report["per_worker"])
    batched_tasks = sum(w["batched_tasks"] or 0 for w in report["per_worker"])
    if batched_tasks != len(cases):
        print(
            "FAIL: dispatched %d tasks through batch-drain, expected %d"
            % (batched_tasks, len(cases)),
            file=sys.stderr,
        )
        return 1
    if not any(
        (w["batched_tasks"] or 0) > (w["batches"] or 0)
        for w in report["per_worker"]
    ):
        print(
            "FAIL: no worker ever coalesced a dispatch (batches == tasks)",
            file=sys.stderr,
        )
        return 1
    problems = lint_exposition(metrics)
    if problems:
        print("FAIL: /metrics lint: %r" % problems, file=sys.stderr)
        return 1
    if "repro_fabric_worker_batch_occupancy" not in metrics:
        print("FAIL: batch occupancy gauge missing from /metrics", file=sys.stderr)
        return 1

    occupancy = batched_tasks / (batches * args.batch) if batches else 0.0
    pps = len(cases) / wall
    print(
        "batch-drain fabric: %d packets in %.2fs -> %.2f packets/s "
        "(%d dispatches, occupancy %.2f, zero warm-start compiles)"
        % (len(cases), wall, pps, batches, occupancy)
    )

    merged = ActivityStats()
    for out in serial_outputs:
        merged.merge(out.stats)
    extra = {
        "packets": len(cases),
        "batch": args.batch,
        "workers": args.workers,
        "cache_dir": args.cache,
        "bit_identical": bit_identical,
        "packets_per_sec": round(pps, 3),
        "dispatches": batches,
        "batch_occupancy": round(occupancy, 4),
        "spinup_schedule_misses": misses,
        "spinup_codegen_compilations": compiles,
        "template_warmup_s": round(warmup_wall, 6),
        "template_codegen_compilations": warmup_compiles,
    }
    path = reporting.write_bench_report(
        "batched_smoke", out_dir=args.out, wall_s=wall, stats=merged, extra=extra
    )
    with open(path) as fh:
        written = json.load(fh)
    with open(os.path.join(_HERE, "bench_report.schema.json")) as fh:
        schema = json.load(fh)
    errors = schema_errors(written, schema)
    if errors:
        print("FAIL: %s violates bench_report.schema.json:" % path, file=sys.stderr)
        for err in errors:
            print("  " + err, file=sys.stderr)
        return 1
    print("wrote %s (schema ok)" % path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
