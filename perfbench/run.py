#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload batch_uniform --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``batch_uniform``, ``stream_paced`` and
``stream_burst``.  With ``--trace 0`` the program runs unmodified and the
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
holding every end-to-end metric of ``BENCHMARK.json``; with
``--trace 1`` the public entry points are wrapped in spans (``spans.py``)
and the metrics are the per-layer ones.  Lines before the result carry
the host fingerprint, the Table 2 view and, for the served workloads in
a traced run, the per-packet layer budget.  The full record (fingerprint,
metrics, gate reasons) and the spans are written under ``.perfbench/``.

The exit status is 0 only when every packet passed the correctness gate.

Schedules and generated code for ``stream_*`` come from a warm cache
directory keyed on a hash of ``src/`` plus the interpreter version; a
run that finds it missing fills it first, untimed, in a subprocess.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: The seed runs use by default, and one kept back for checking claims
#: made with the default.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

WORKLOAD_NAMES = ("batch_uniform", "stream_paced", "stream_burst")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="smallest run of the workload (self-tests)")
    parser.add_argument("--fill-cache", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fill_cache is None and args.workload is None:
        parser.error("--workload is required")
    return args


def fill_cache(directory: str) -> None:
    """Compile everything the served workloads use into *directory*:
    both packet shapes, every batch width up to the fabric's."""
    from repro.runtime import BatchedModemRuntime

    import workloads

    runtime = BatchedModemRuntime(batch=workloads.BATCH, cache_dir=directory)
    for i, pad in enumerate(workloads.SHAPE_PADS):
        packets = workloads.reference_packets(0, workloads.BATCH, pad, 1 + i, 0)
        widths = range(1, workloads.BATCH + 1) if i == 0 else (1, workloads.BATCH)
        for width in widths:
            runtime.run_batch_results([p.rx for p in packets[:width]])


def ensure_warm_cache(src_sha: str) -> str:
    tag = "%s-py%d%d" % (src_sha[:16], sys.version_info[0], sys.version_info[1])
    final = os.path.join(STATE_DIR, "warm-" + tag)
    if os.path.isdir(final):
        return final
    tmp = "%s.tmp-%d" % (final, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__), "--fill-cache", tmp],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    try:
        os.rename(tmp, final)
    except OSError:  # another run filled it first
        shutil.rmtree(tmp, ignore_errors=True)
    print("filled warm cache %s in %.1f s (untimed)" % (final, time.perf_counter() - t0),
          file=sys.stderr)
    return final


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(STATE_DIR, exist_ok=True)
    if args.fill_cache:
        fill_cache(args.fill_cache)
        return 0
    return run(args)


def run(args, runner_wrap=None) -> int:
    """One benchmark run; *runner_wrap* substitutes the fabric workers'
    runtime (used by the self-tests to prove the gate can fail)."""
    import measure
    import spans
    import workloads

    import_s = time.perf_counter() - T_START
    src_sha = measure.src_digest(SRC)
    stream = args.workload.startswith("stream")
    warm = ensure_warm_cache(src_sha) if stream else None
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.instrument(rec)
    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        short=args.short, state_dir=STATE_DIR, warm_cache=warm, rec=rec,
        runner_wrap=runner_wrap,
    )
    data = workloads.WORKLOADS[args.workload](ctx)
    ctx.phase("check")
    n_failed, reasons, first = measure.check(data, args.short)
    model, rows = measure.modelled(data, first)
    b1 = None
    if rec is not None:
        b1 = _b1_probe(ctx, data)
    for path in data.cleanup:
        shutil.rmtree(path, ignore_errors=True)
    if not stream:
        ensure_warm_cache(src_sha)  # so a later stream run starts warm

    attempted = max(1, data.attempted)
    correct_n = max(0, len(data.deliveries) - n_failed)
    latencies = [d.latency_s for d in data.deliveries if d.output is not None]
    cycles = sum(d.output.stats.total_cycles for d in data.deliveries
                 if d.output is not None)
    rss_kb = max([workloads.self_rss_kb()] + data.worker_rss_kb)
    e2e = {
        "setup_s": (import_s + measure.median(data.setup_reps), "s"),
        "packets_per_s": (correct_n / data.wall_s, "pkt/s"),
        "sim_cycles_per_host_s": (cycles / data.wall_s, "cycles/s"),
        "latency_p50_s": (measure.p(latencies, 50), "s"),
        "latency_p90_s": (measure.p(latencies, 90), "s"),
        "success_frac": (1.0 - n_failed / attempted, "ratio"),
        "bit_accuracy": (1.0 - model.get("ber", 1.0), "ratio"),
        "sim_cycles_per_packet": (model.get("sim_cycles_per_packet", 0.0), "cycles"),
        "preamble_cycles": (model.get("preamble_cycles", 0.0), "cycles"),
        "data_pair_cycles": (model.get("data_pair_cycles", 0.0), "cycles"),
        "energy_uj_per_packet": (model.get("energy_uj_per_packet", 0.0), "uJ"),
        "table2_cycles_rel_err": (model.get("table2_cycles_rel_err", 0.0), "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    host = measure.fingerprint(ROOT, src_sha)
    print("host: %s" % json.dumps(host, sort_keys=True))
    print("workload %s seed %d (default %d, held-out %d): %d attempted, %d delivered, "
          "%d failed, %d latency samples, setup reps %s"
          % (args.workload, args.seed, DEFAULT_SEED, HELDOUT_SEED, data.attempted,
             len(data.deliveries), n_failed, len(latencies),
             ["%.3f" % s for s in data.setup_reps]))
    print("failed_frac %.6f  ber %.6f" % (n_failed / attempted, model.get("ber", 1.0)))
    for reason in reasons[:20]:
        print("gate: %s" % reason)
    if model:
        print(measure.table2_view(model, rows))
    if rec is None:
        metrics = e2e
    else:
        metrics = _per_layer(rec, data, model, b1, e2e)
        if stream:
            print(measure.budget_view({k: v for k, (v, _u) in metrics.items()},
                                      e2e["latency_p50_s"][0]))
        path = os.path.join(STATE_DIR, "spans-%s-s%d.json" % (args.workload, args.seed))
        rec.dump(path)
    result = {
        "correct": n_failed == 0,
        "attempted": int(data.attempted),
        "failed": int(n_failed),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, host=host, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, gate=reasons,
                  layer_raw=data.layer, latencies_s=latencies)
    with open(os.path.join(STATE_DIR, "result-%s-s%d-t%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if n_failed == 0 else 1


def _b1_probe(ctx, data, count: int = 6):
    """Median seconds per packet for the run's first packets on the same
    resident runtime, one at a time (batch width 1)."""
    import measure

    runtime = data.resident
    ctx.phase("b1")
    packets = data.packets[:count]
    runtime.run_batch_results([packets[0].rx])  # links width-1 code if new
    times = []
    for packet in packets:
        t0 = time.perf_counter()
        runtime.run_batch_results([packet.rx])
        times.append(time.perf_counter() - t0)
    ctx.phase("after")
    return measure.median(times)


def _per_layer(rec, data, model, b1, e2e):
    """Per-layer metrics from the traced run's spans and counters."""
    import measure

    totals = rec.totals("timed")
    # Compile work happens in set-up; count it there and in the timed phase.
    overall = {}
    for phase in ("setup", "timed"):
        for name, row in rec.totals(phase).items():
            acc = overall.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    delivered = max(1, len(data.deliveries))
    cycles = sum(d.output.stats.total_cycles for d in data.deliveries
                 if d.output is not None)

    def t(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    def per(x):
        return x / delivered

    layer_self = rec.layer_self("timed")
    layer = data.layer
    run_batch = t("runtime.run_batch")
    sim_batch = t("sim.batch")
    worker_busy = layer.get("fabric.worker_busy_s", 0.0)
    sim_host = sim_batch if sim_batch else worker_busy
    out = {
        "compiler.schedule_calls": (overall.get("compiler.schedule", {}).get("calls", 0), "count"),
        "compiler.schedule_s": (overall.get("compiler.schedule", {}).get("s", 0.0), "s"),
        "compiler.link_s": (overall.get("compiler.link", {}).get("self_s", 0.0), "s"),
        "compiler.disk_hits": (layer["compiler.disk_hits"], "count"),
        "sim.codegen.compilations": (layer["sim.codegen.compilations"], "count"),
        "sim.codegen.disk_hits": (layer["sim.codegen.disk_hits"], "count"),
        "sim.codegen.s": (overall.get("sim.codegen", {}).get("s", 0.0), "s"),
        "sim.batch.s_per_pkt": (per(sim_batch), "s"),
        "sim.cga.s_per_pkt": (per(t("sim.cga")), "s"),
        "sim.vliw.s_per_pkt": (per(t("sim.vliw")), "s"),
        "sim.host_s_per_sim_cycle": (sim_host / max(1, cycles), "s"),
        "runtime.run_batch.s_per_pkt": (per(run_batch), "s"),
        "runtime.glue.s_per_pkt": (per(run_batch - sim_batch) if run_batch else 0.0, "s"),
        "runtime.fallback_ratio": (layer.get("runtime.fallback_ratio", 0.0), "ratio"),
        "runtime.b1.s_per_pkt": (b1 or 0.0, "s"),
    }
    for key in ("core.ipc_cga", "core.ipc_vliw", "core.cga_residency"):
        out[key] = (model.get(key, 0.0), "ratio")
    for key, value in model.items():
        if key.startswith("core.stall.") or key.startswith("modem."):
            out[key] = (value, "cycles")
    pump = t("fabric.offer_many", "self_s") + t("fabric.poll", "self_s") + \
        t("fabric.results", "self_s")
    out.update({
        "fabric.service.s_per_pkt": (layer.get("fabric.service.s_per_pkt", 0.0), "s"),
        "fabric.latency_p50_s": (layer.get("fabric.latency_p50_s", 0.0), "s"),
        "fabric.queue_wait.s_per_pkt": (layer.get("fabric.queue_wait.s_per_pkt", 0.0), "s"),
        "fabric.batch_occupancy": (layer.get("fabric.batch_occupancy", 0.0), "ratio"),
        "fabric.requeued": (layer.get("fabric.requeued", 0), "count"),
        "fabric.task_errors": (layer.get("fabric.task_errors", 0), "count"),
        "fabric.pump.s_per_pkt": (per(pump), "s"),
        "ingest.poll.s_per_pkt": (per(t("ingest.poll")), "s"),
        "ingest.self_s_per_pkt": (per(layer_self.get("ingest", 0.0)), "s"),
        "ingest.datagrams": (layer.get("ingest.datagrams", 0), "count"),
        "ingest.released": (layer.get("ingest.released", 0), "count"),
        "ingest.lost": (layer.get("ingest.lost", 0), "count"),
        "ingest.shed": (layer.get("ingest.shed", 0), "count"),
        "loadgen.lag_p90_s": (measure.p(data.lags, 90), "s"),
        "loadgen.encode.s_per_pkt": (measure.median(data.encode_s), "s"),
        "loadgen.backlog_end": (layer.get("loadgen.backlog_end", 0), "count"),
    })
    for name in ("loadgen", "fabric", "runtime", "sim.batch", "sim.cga", "sim.vliw"):
        out["%s.self_s_per_pkt" % name] = (per(layer_self.get(name, 0.0)), "s")
    n_spans = len(rec.selected("timed"))
    cost = rec.cost_per_span()
    covered = sum(layer_self.values())
    out["trace.spans"] = (n_spans, "count")
    out["trace.overhead_ratio"] = (n_spans * cost / max(data.wall_s, 1e-9), "ratio")
    out["trace.self_coverage"] = (covered / max(data.wall_s, 1e-9), "ratio")
    out["trace.packets_per_s"] = (e2e["packets_per_s"][0], "pkt/s")
    if run_batch:
        # Every timed span of batch_uniform sits under a run_batch span,
        # so the layers' self times must add up to run_batch's wall time.
        print("layer self times (s): %s; sum %.6f s; runtime.run_batch wall %.6f s"
              % ({k: round(v, 6) for k, v in layer_self.items()}, covered, run_batch))
    print("trace overhead: %d spans x %.2f us = %.4f of the timed wall; untraced "
          "packets_per_s is the end-to-end run's figure" % (n_spans, cost * 1e6,
                                                            out["trace.overhead_ratio"][0]))
    return out


if __name__ == "__main__":
    sys.exit(main())
