"""The three workloads, driven through the program's public calls only.

``batch_uniform``
    Closed loop, in-process: one resident ``BatchedModemRuntime(batch=16)``
    runs full batches of same-shape reference-class packets back to back,
    starting from an empty private schedule/codegen cache directory, so
    its set-up is the whole cold toolflow.
``stream_paced``
    Open loop: arrivals on a fixed 4 packets/s grid, sent as UDP
    datagrams to an ``IngestServer`` feeding ``Fabric(workers=2,
    batch=16, policy="shape_affinity")``; two shapes, three impairment
    scenarios at 25 dB.
``stream_burst``
    Closed loop over the same served path: two streams of one shape each,
    every stream keeping two 16-packet bursts outstanding.

Every workload returns a :class:`RunData`; ``run.py`` turns it into
metrics and runs the correctness gate.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import socket
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.compiler.linker import (
    clear_schedule_cache,
    schedule_cache_stats,
)
from repro.fabric import Fabric
from repro.ingest import IngestServer, encode_packet, end_marker, iq_roundtrip
from repro.modem.receiver import ReceiverOutput
from repro.runtime import BatchedModemRuntime, PacketCase, make_packet
from repro.sim.codegen import clear_codegen_cache, codegen_stats

BATCH = 16
WORKERS = 2
SHAPE_PADS = (0, 80)
SCENARIOS = ("awgn", "indoor_multipath", "cfo_stress")
SNR_DB = 25.0
PACED_RATE_HZ = 4.0
BURST = 16
BURSTS_OUTSTANDING = 2
WIRE_DTYPE = "c64"
#: Poll granularity of the load generator's single thread.
POLL_S = 0.005
#: A stream run gives up on packets still missing this long after its
#: last send (they then count as lost).
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Packet:
    """One generated input: *rx* is exactly what the program receives."""

    key: int
    case: PacketCase
    rx: np.ndarray
    stream: int = 0


@dataclass
class Delivery:
    key: int
    output: Optional[ReceiverOutput]
    error: Optional[str]
    latency_s: float


@dataclass
class RunData:
    """Everything one workload run measured, before metrics."""

    packets: List[Packet]
    setup_reps: List[float]
    wall_s: float
    attempted: int
    deliveries: List[Delivery]
    #: Packet-level misses found by the workload itself (lost, shed,
    #: ledger violations); each counts as one failed packet.
    problems: List[str]
    #: Per-layer values the workload measures directly (fabric report,
    #: ingest ledger, load generator, runtime counters).
    layer: Dict[str, float] = field(default_factory=dict)
    #: Timed-phase latencies of the load generator (send lag, encode).
    lags: List[float] = field(default_factory=list)
    encode_s: List[float] = field(default_factory=list)
    worker_rss_kb: List[int] = field(default_factory=list)
    #: The resident runtime left in this process (b1 probe, traced run).
    resident: Optional[BatchedModemRuntime] = None
    #: Directories to delete once the correctness gate has run.
    cleanup: List[str] = field(default_factory=list)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    short: bool
    state_dir: str
    warm_cache: Optional[str]
    rec: object = None  # spans.Recorder in the traced run
    #: Wraps the forked workers' runtime (tests substitute a faulty one).
    runner_wrap: Optional[Callable[[object], object]] = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if self.rec is None:
            return fn(*args, **kwargs)
        return self.rec.span(name, fn, *args, **kwargs)

    def phase(self, name: str) -> None:
        if self.rec is not None:
            self.rec.phase = name


def _reset_compile_caches() -> None:
    """Forget every in-memory schedule and generated function, so a set-up
    repetition reads the disk cache exactly as a fresh process does."""
    clear_schedule_cache()
    clear_codegen_cache()
    gc.collect()


def _wire(case: PacketCase) -> np.ndarray:
    return iq_roundtrip(case.rx, WIRE_DTYPE)


def reference_packets(seed: int, count: int, extra_pad: int, stream: int,
                      first_key: int) -> List[Packet]:
    """Reference-class packets: identity channel, 50 kHz CFO, one payload
    seed per packet."""
    base = 1_000_003 * (seed + 1) + 10_007 * stream
    out = []
    for k in range(count):
        case = make_packet(base + k, cfo_hz=50e3, extra_pad=extra_pad)
        rx = _wire(case) if stream else case.rx
        out.append(Packet(first_key + k, case, rx, stream))
    return out


# ----------------------------------------------------------------------
# batch_uniform
# ----------------------------------------------------------------------


def batch_uniform(ctx: Context) -> RunData:
    pool_size = BATCH if ctx.short else 2 * BATCH
    cold = os.path.join(ctx.state_dir, "cold-%d" % os.getpid())
    shutil.rmtree(cold, ignore_errors=True)
    _reset_compile_caches()
    t_setup = time.perf_counter()
    pool = reference_packets(ctx.seed, pool_size, 0, 0, 0)
    runtime = BatchedModemRuntime(batch=BATCH, cache_dir=cold)
    runtime.run_batch_results([p.rx for p in pool[:BATCH]])
    setup = time.perf_counter() - t_setup

    ctx.phase("timed")
    deliveries: List[Delivery] = []
    fallbacks0, run0 = runtime.fallbacks, runtime.packets_run
    chunks = [pool[i : i + BATCH] for i in range(0, pool_size, BATCH)]
    t0 = time.perf_counter()
    n = 0
    while True:
        chunk = chunks[n % len(chunks)]
        if ctx.rec is not None:
            ctx.rec.ids = tuple(p.key for p in chunk)
        a = time.perf_counter()
        results = runtime.run_batch_results([p.rx for p in chunk])
        b = time.perf_counter()
        for packet, result in zip(chunk, results):
            err = None if result.error is None else repr(result.error)
            deliveries.append(Delivery(packet.key, result.output, err, b - a))
        n += 1
        if b - t0 >= ctx.seconds and n >= len(chunks):
            break
    wall = time.perf_counter() - t0
    if ctx.rec is not None:
        ctx.rec.ids = ()
    ran = max(1, runtime.packets_run - run0)
    data = RunData(
        packets=pool,
        setup_reps=[setup],
        wall_s=wall,
        attempted=len(deliveries),
        deliveries=deliveries,
        problems=[],
        resident=runtime,
    )
    data.layer["runtime.fallback_ratio"] = (runtime.fallbacks - fallbacks0) / ran
    _stats_into(data.layer)
    data.cleanup.append(cold)
    ctx.phase("after")
    return data


def _stats_into(layer: Dict[str, float]) -> None:
    sched = schedule_cache_stats()
    gen = codegen_stats()
    layer["compiler.disk_hits"] = sched["disk_hits"]
    layer["sim.codegen.compilations"] = gen["compilations"]
    layer["sim.codegen.disk_hits"] = gen["disk_hits"]


# ----------------------------------------------------------------------
# Served path (stream_paced, stream_burst)
# ----------------------------------------------------------------------


class Serving:
    """One started ingest server + fabric + the load generator's socket."""

    def __init__(self, ctx: Context, warm_sets: List[List[Packet]],
                 widths: Tuple[int, ...], queue_depth: int, buffer: int) -> None:
        self.ctx = ctx
        template = BatchedModemRuntime(batch=BATCH, cache_dir=ctx.warm_cache)
        for packets in warm_sets:
            for width in widths:
                template.run_batch_results([p.rx for p in packets[:width]])
        rec = ctx.rec
        wrap = ctx.runner_wrap

        def runner_factory():
            # Runs in the forked worker: spans there are out of scope.
            if rec is not None:
                rec.active = False
            return wrap(template) if wrap is not None else template

        self.template = template
        self.fabric = Fabric(
            workers=WORKERS,
            batch=BATCH,
            policy="shape_affinity",
            backpressure="block",
            queue_depth=queue_depth,
            cache_dir=ctx.warm_cache,
            template_runtime=template,
            runner_factory=runner_factory,
            name="perfbench",
        )
        self.fabric.start()
        self.server = IngestServer(
            self.fabric, udp_port=0, window=64, stream_buffer=buffer,
            track_submissions=1 << 16,
        ).start()
        self.addr = self.server.udp_address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sessions: Dict[int, int] = {}
        self.sent: Dict[int, int] = {}
        self.datagrams = 0
        #: (stream, seq) -> (packet key, due time)
        self.inflight: Dict[Tuple[int, int], Tuple[int, float]] = {}
        self.encode_s: List[float] = []

    def send(self, packet: Packet, stream: int, due: float) -> None:
        rec = self.ctx.rec
        if rec is None:
            self._send(packet, stream, due)
            return
        rec.ids = (packet.key,)
        try:
            rec.span("loadgen.send", self._send, packet, stream, due)
        finally:
            rec.ids = ()

    def _send(self, packet: Packet, stream: int, due: float) -> None:
        seq = self.sent.get(stream, 0)
        self.sent[stream] = seq + 1
        session = self.sessions.setdefault(stream, 0x5EED0000 + stream)
        a = time.perf_counter()
        frames = self.ctx.call(
            "loadgen.encode", encode_packet, stream, seq, packet.case.rx,
            n_symbols=2, dtype=WIRE_DTYPE, session=session,
        )
        self.encode_s.append(time.perf_counter() - a)
        for frame in frames:
            self.sock.sendto(frame, self.addr)
        self.datagrams += len(frames)
        self.inflight[(stream, seq)] = (packet.key, due)

    def collect(self, deliveries: List[Delivery]) -> List[Tuple[int, int]]:
        """Record results the fabric has for in-flight packets."""
        if not self.inflight:
            return []
        subs = self.server.submissions()
        results = self.fabric.results()
        done = []
        now = time.perf_counter()
        for wire_id, (key, due) in self.inflight.items():
            task = subs.get(wire_id)
            if task is None or task not in results:
                continue
            value = results[task]
            if isinstance(value, ReceiverOutput):
                deliveries.append(Delivery(key, value, None, now - due))
            else:
                deliveries.append(Delivery(key, None, repr(value), now - due))
            done.append(wire_id)
        for wire_id in done:
            del self.inflight[wire_id]
        return done

    def step(self, deliveries: List[Delivery], idle_s: float = POLL_S) -> List[Tuple[int, int]]:
        """Pump once without blocking, record what came back, and sleep
        *idle_s* when nothing did.  Sleeping here instead of blocking in
        the pump keeps the pump's spans free of idle time."""
        self.server.poll(0.0)
        done = self.collect(deliveries)
        if not done and idle_s > 0:
            time.sleep(idle_s)
        return done

    def wait_all(self, deliveries: List[Delivery], timeout: float) -> None:
        limit = time.perf_counter() + timeout
        while self.inflight and time.perf_counter() < limit:
            self.step(deliveries)

    def close_streams(self) -> List[str]:
        """End markers, then the exactly-once ledger check."""
        for stream, count in self.sent.items():
            marker = self.ctx.call(
                "loadgen.encode", end_marker, stream, count, self.sessions[stream]
            )
            self.sock.sendto(marker, self.addr)
            self.datagrams += 1
        limit = time.perf_counter() + 5.0
        while time.perf_counter() < limit:
            if self.server.ingest_report()["datagrams"] >= self.datagrams:
                break
            self.step([])
        return self.server.accounting_problems(dict(self.sent))

    def worker_rss_kb(self) -> List[int]:
        out = []
        for pid in self.fabric.worker_pids():
            try:
                with open("/proc/%d/status" % pid) as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            out.append(int(line.split()[1]))
            except OSError:
                pass
        return out

    def layer_into(self, layer: Dict[str, float]) -> None:
        report = self.fabric.report()
        workers = report["per_worker"]
        busy = sum(w["busy_s"] for w in workers)
        batches = sum(w["batches"] or 0 for w in workers)
        tasks = sum(w["batched_tasks"] or 0 for w in workers)
        done = max(1, report["counters"]["completed"])
        service = busy / done
        latency = report["latency_s"]
        layer["fabric.service.s_per_pkt"] = service
        layer["fabric.latency_p50_s"] = latency["p50"]
        # Mean against mean: the mean submit-to-result time less the mean
        # service time is the mean time a packet spent queued or in a pipe.
        layer["fabric.queue_wait.s_per_pkt"] = latency["mean"] - service
        layer["fabric.batch_occupancy"] = tasks / (batches * BATCH) if batches else 0.0
        layer["fabric.requeued"] = report["counters"]["requeued"]
        layer["fabric.task_errors"] = report["counters"]["task_errors"]
        layer["fabric.worker_busy_s"] = busy
        ingest = report["ingest"]
        streams = ingest["streams"].values()
        layer["ingest.datagrams"] = ingest["datagrams"]
        layer["ingest.released"] = sum(s["released"] for s in streams)
        layer["ingest.lost"] = sum(s["gaps"] + s["incomplete"] + s["corrupt"] for s in streams)
        layer["ingest.shed"] = sum(
            s["shed_overflow"] + s["shed_dropped"] + s["shed_rejected"] for s in streams
        )

    def stop(self) -> None:
        self.server.stop()
        self.fabric.shutdown(drain=True, timeout=30)
        self.sock.close()


def _serve_with_setup(ctx: Context, warm_sets, widths, queue_depth, buffer,
                      probe: List[List[Packet]]) -> Tuple[Serving, List[float]]:
    """Set the served path up several times (the median is ``setup_s``);
    the last instance stays up for the timed phase.

    Each repetition starts from empty in-memory caches and the warm disk
    cache, i.e. what a restarted server pays, and ends with one probe
    packet per stream through the whole path.
    """
    reps = 1 if ctx.short else 3
    times = []
    serving = None
    for rep in range(reps):
        if serving is not None:
            serving.stop()
            serving = None
        ctx.phase("setup" if rep == reps - 1 else "setup_early")
        _reset_compile_caches()
        t = time.perf_counter()
        serving = Serving(ctx, warm_sets, widths, queue_depth, buffer)
        scratch: List[Delivery] = []
        for stream, packets in enumerate(probe, start=101):
            serving.send(packets[0], stream, time.perf_counter())
        serving.wait_all(scratch, DRAIN_TIMEOUT_S)
        if serving.inflight or any(d.error for d in scratch):
            raise RuntimeError("set-up probe packets did not come back: %r"
                               % [d.error for d in scratch])
        times.append(time.perf_counter() - t)
    serving.encode_s.clear()
    return serving, times


def _finish_stream(ctx: Context, serving: Serving, data: RunData) -> None:
    ctx.phase("after")
    data.problems.extend(serving.close_streams())
    for (stream, seq), (key, _due) in serving.inflight.items():
        data.problems.append("stream %d seq %d (packet %d) never came back"
                             % (stream, seq, key))
    serving.layer_into(data.layer)
    _stats_into(data.layer)
    data.layer["loadgen.backlog_end"] = len(serving.inflight)
    data.encode_s = list(serving.encode_s)
    data.worker_rss_kb = serving.worker_rss_kb()
    data.resident = serving.template
    serving.stop()


def stream_paced(ctx: Context) -> RunData:
    # Arrivals on a fixed grid at PACED_RATE_HZ, shapes alternating so
    # each worker sees one packet per two grid slots, scenarios in equal
    # shares in seeded order.  Poisson arrivals were tried first: with the
    # 40 arrivals a run holds, the chance clusters they form pushed the
    # median latency 35% and the 90th percentile further from seed to seed
    # on a 2-vCPU host, which would hide any change to the layers measured.
    rng = np.random.default_rng(ctx.seed)
    count = max(2, int(round(PACED_RATE_HZ * ctx.seconds)))
    scenarios = rng.permutation([SCENARIOS[k % len(SCENARIOS)] for k in range(count)])
    cells = [(str(scenarios[k]), SHAPE_PADS[k % 2]) for k in range(count)]
    times = (np.arange(count) + 0.5) * (ctx.seconds / count)
    t_gen = time.perf_counter()
    packets = []
    for key, (scenario, pad) in enumerate(cells):
        case = make_packet(
            2_000_003 * (ctx.seed + 1) + key, snr_db=SNR_DB, extra_pad=pad,
            scenario=scenario,
        )
        packets.append(Packet(key, case, _wire(case), 1 + SHAPE_PADS.index(pad)))
    gen_s = time.perf_counter() - t_gen
    # Warm the batch widths that occur at this load; a width first seen
    # in a worker would load its generated code inside the timed phase.
    widths = (1, 2)
    warm = [reference_packets(ctx.seed, max(widths), pad, 101 + i, 10_000 * (i + 1))
            for i, pad in enumerate(SHAPE_PADS)]
    serving, reps = _serve_with_setup(ctx, warm, widths, 64, 256, warm)

    ctx.phase("timed")
    deliveries: List[Delivery] = []
    lags: List[float] = []
    t0 = time.perf_counter()
    i = 0
    last_send = t0
    while i < count or serving.inflight:
        now = time.perf_counter()
        if i < count and now >= t0 + times[i]:
            due = t0 + times[i]
            lags.append(now - due)
            packet = packets[i]
            serving.send(packet, packet.stream, due)
            last_send = time.perf_counter()
            i += 1
            continue
        if i >= count and now - last_send > DRAIN_TIMEOUT_S:
            break
        wait = POLL_S if i >= count else min(POLL_S, max(0.0, t0 + times[i] - now))
        serving.step(deliveries, wait)
    wall = time.perf_counter() - t0
    data = RunData(
        packets=packets,
        setup_reps=[gen_s + r for r in reps],
        wall_s=wall,
        attempted=count,
        deliveries=deliveries,
        problems=[],
        lags=lags,
    )
    _finish_stream(ctx, serving, data)
    return data


def stream_burst(ctx: Context) -> RunData:
    per_stream = BURST * BURSTS_OUTSTANDING
    pools = [reference_packets(ctx.seed, per_stream, pad, 1 + i, per_stream * i)
             for i, pad in enumerate(SHAPE_PADS)]
    # From idle, batch-drain dispatches one packet, then the other 15 of
    # the first burst, then full bursts: warm all three widths.
    widths = (1, BURST - 1, BURST)
    serving, reps = _serve_with_setup(
        ctx, pools, widths, queue_depth=2 * per_stream, buffer=4 * per_stream,
        probe=pools,
    )
    ctx.phase("timed")
    deliveries: List[Delivery] = []
    bursts_sent = [0] * len(pools)
    #: stream -> list of open bursts, each the set of its wire ids
    open_bursts: Dict[int, List[set]] = {i + 1: [] for i in range(len(pools))}
    t0 = time.perf_counter()

    def send_burst(index: int) -> None:
        stream = index + 1
        burst = bursts_sent[index]
        bursts_sent[index] += 1
        start = (burst % BURSTS_OUTSTANDING) * BURST
        due = time.perf_counter()
        ids = set()
        for packet in pools[index][start : start + BURST]:
            ids.add((stream, serving.sent.get(stream, 0)))
            serving.send(packet, stream, due)
        open_bursts[stream].append(ids)

    for index in range(len(pools)):
        for _ in range(BURSTS_OUTSTANDING):
            send_burst(index)
    sending = True
    while serving.inflight:
        done = serving.step(deliveries)
        if not done:
            if time.perf_counter() - t0 > ctx.seconds + DRAIN_TIMEOUT_S:
                break
            continue
        sending = sending and time.perf_counter() - t0 < ctx.seconds
        for wire_id in done:
            bursts = open_bursts[wire_id[0]]
            for ids in bursts:
                ids.discard(wire_id)
        for stream, bursts in open_bursts.items():
            finished = [ids for ids in bursts if not ids]
            open_bursts[stream] = [ids for ids in bursts if ids]
            for _ in finished:
                if sending:
                    send_burst(stream - 1)
    wall = time.perf_counter() - t0
    data = RunData(
        packets=[p for pool in pools for p in pool],
        setup_reps=reps,
        wall_s=wall,
        attempted=sum(bursts_sent) * BURST,
        deliveries=deliveries,
        problems=[],
    )
    _finish_stream(ctx, serving, data)
    return data


WORKLOADS = {
    "batch_uniform": batch_uniform,
    "stream_paced": stream_paced,
    "stream_burst": stream_burst,
}


def self_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
