"""Correctness gate, modelled metrics, metric assembly and printed views."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.eval.tables import ReferenceRun, calibrated_power_model
from repro.modem.profile import PAPER_DATA_CYCLES, PAPER_PREAMBLE_CYCLES, table2_rows
from repro.obs.window import percentile
from repro.runtime import ModemRuntime
from repro.sim.stats import StatsError
from repro.trace.events import StallCause

from workloads import RunData

#: Real-time bound per data-symbol pair at 400 MHz (8 us).
REALTIME_PAIR_CYCLES = 3200


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def row_names(output) -> List[Tuple[str, object]]:
    """``modem.<phase>.<row>.cycles`` per Table 2 region, repeated rows
    numbered, in pipeline order, with the region they name."""
    names = []
    for phase, regions in (("preamble", output.preamble_regions),
                           ("data", output.data_regions)):
        counts: Dict[str, int] = {}
        for region in regions:
            counts[region.name] = counts.get(region.name, 0) + 1
        seen: Dict[str, int] = {}
        for region in regions:
            seen[region.name] = seen.get(region.name, 0) + 1
            slug = _slug(region.name)
            if counts[region.name] > 1:
                slug += "_%d" % seen[region.name]
            names.append(("modem.%s.%s.cycles" % (phase, slug), region))
    return names


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------


def _same(a, b) -> bool:
    return (
        np.array_equal(a.bits, b.bits)
        and a.stats.total_cycles == b.stats.total_cycles
        and [r.profile.cycles for r in a.preamble_regions + a.data_regions]
        == [r.profile.cycles for r in b.preamble_regions + b.data_regions]
    )


def sample_keys(data: RunData, short: bool) -> List[int]:
    """Evenly spaced packets of the deterministic set, per stream."""
    per = 1 if short else 3
    by_stream: Dict[int, List[int]] = {}
    for packet in data.packets:
        by_stream.setdefault(packet.stream, []).append(packet.key)
    keys = []
    for stream_keys in by_stream.values():
        step = max(1, len(stream_keys) // per)
        keys.extend(stream_keys[::step][:per])
    return keys


def check(data: RunData, short: bool) -> Tuple[int, List[str], Dict[int, object]]:
    """Run the gate; returns (failed packets, reasons, first output per key).

    A delivery fails when it errored, its activity counters do not
    validate, it differs from an earlier delivery of the same packet, or
    its packet is in the sample and differs (bits or per-region cycles)
    from a same-commit ``ModemRuntime(interpreter="compiled")`` re-run.
    Lost, shed and unaccounted packets arrive as ``data.problems``.
    """
    reasons: List[str] = list(data.problems)
    failed: Set[int] = set()
    first: Dict[int, object] = {}
    for i, d in enumerate(data.deliveries):
        if d.error is not None or d.output is None:
            failed.add(i)
            reasons.append("packet %d: %s" % (d.key, d.error))
            continue
        try:
            d.output.stats.validate()
        except StatsError as exc:
            failed.add(i)
            reasons.append("packet %d: stats invalid: %s" % (d.key, exc))
            continue
        ref = first.setdefault(d.key, d.output)
        if ref is not d.output and not _same(ref, d.output):
            failed.add(i)
            reasons.append("packet %d: differs from its earlier delivery" % d.key)
    by_key = {p.key: p for p in data.packets}
    checker = ModemRuntime(interpreter="compiled")
    for key in sample_keys(data, short):
        if key not in first:
            continue
        expect = checker.run_packet(by_key[key].rx)
        if not _same(expect, first[key]):
            bad = [i for i, d in enumerate(data.deliveries) if d.key == key]
            failed.update(bad)
            reasons.append(
                "packet %d: bits/cycles differ from the compiled reference "
                "(%d deliveries)" % (key, len(bad))
            )
    n_failed = len(failed) + len(data.problems)
    return n_failed, reasons, first


# ----------------------------------------------------------------------
# Modelled metrics (deterministic per seed)
# ----------------------------------------------------------------------


def modelled(data: RunData, first: Dict[int, object]) -> Tuple[Dict[str, float], list]:
    """Per-packet means over the run's deterministic packet set, and the
    Table 2 rows ``(phase, row, mean simulated cycles, paper cycles)``."""
    keys = [p.key for p in data.packets if p.key in first]
    if not keys:
        return {}, []
    truth = {p.key: p.case.bits for p in data.packets}
    outs = [first[k] for k in keys]
    n = len(outs)
    errors = sum(int(np.sum(first[k].bits != truth[k])) for k in keys)
    bits = sum(truth[k].size for k in keys)
    anchor = outs[0]
    model = calibrated_power_model(
        ReferenceRun(output=anchor, bits_tx=truth[keys[0]],
                     ber=0.0, cfo_true_hz=data.packets[0].case.cfo_hz)
    )
    energy = 0.0
    for out in outs:
        for region in out.preamble_regions + out.data_regions:
            energy += sum(model.region_energy(region.profile.stats).values())
    m: Dict[str, float] = {
        "sim_cycles_per_packet": sum(o.stats.total_cycles for o in outs) / n,
        "preamble_cycles": sum(o.preamble_cycles for o in outs) / n,
        "data_pair_cycles": sum(o.data_cycles for o in outs) / n,
        "energy_uj_per_packet": 1e6 * energy / n,
        "ber": errors / bits,
    }
    cga_ops = sum(o.stats.cga_ops for o in outs)
    cga_cycles = sum(o.stats.cga_cycles for o in outs)
    vliw_ops = sum(o.stats.vliw_ops for o in outs)
    vliw_cycles = sum(o.stats.vliw_cycles for o in outs)
    total = sum(o.stats.total_cycles for o in outs)
    m["core.ipc_cga"] = cga_ops / max(1, cga_cycles)
    m["core.ipc_vliw"] = vliw_ops / max(1, vliw_cycles)
    m["core.cga_residency"] = cga_cycles / max(1, total)
    for cause in StallCause:
        m["core.stall.%s" % cause.value] = (
            sum(o.stats.stall_breakdown()[cause.value] for o in outs) / n
        )
    # Per Table 2 row: mean cycles, and the paper comparison.
    sums: Dict[str, float] = {}
    for out in outs:
        for name, region in row_names(out):
            sums[name] = sums.get(name, 0.0) + region.profile.cycles
    rows = []
    for (name, _region), row in zip(
        row_names(anchor), [r for r in table2_rows(anchor) if r.kernel != "total"]
    ):
        mean = sums[name] / n
        m[name] = mean
        rows.append((row.phase, row.kernel, mean, row.paper_cycles))
    paired = [(sim, paper) for _p, _k, sim, paper in rows if paper]
    m["table2_cycles_rel_err"] = (
        sum(abs(sim - paper) for sim, paper in paired) / sum(p for _s, p in paired)
    )
    return m, rows


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------


def table2_view(m: Dict[str, float], rows: list) -> str:
    lines = ["Table 2 (mean simulated cycles per packet vs the paper)",
             "%-9s %-26s %9s %7s %8s" % ("phase", "row", "sim", "paper", "rel_err")]
    for phase, kernel, sim, paper in rows:
        err = "%+.2f" % ((sim - paper) / paper) if paper else ""
        lines.append("%-9s %-26s %9.1f %7s %8s" % (phase, kernel, sim, paper or "", err))
    for phase, sim, paper in (("preamble", m["preamble_cycles"], PAPER_PREAMBLE_CYCLES),
                              ("data", m["data_pair_cycles"], PAPER_DATA_CYCLES)):
        lines.append("%-9s %-26s %9.1f %7d %+8.2f" % (
            phase, "total", sim, paper, (sim - paper) / paper))
    lines.append("real-time bound: %d cycles per data-symbol pair" % REALTIME_PAIR_CYCLES)
    lines.append("table2_cycles_rel_err = %.4f (sum |sim - paper| / sum paper over "
                 "rows with a paper number)" % m["table2_cycles_rel_err"])
    return "\n".join(lines)


def budget_view(layer: Dict[str, float], latency_p50: float) -> str:
    """Per-packet layer budget of the served path (traced run)."""
    pump = layer["ingest.self_s_per_pkt"] + layer["fabric.pump.s_per_pkt"]
    rest = latency_p50 - layer["fabric.latency_p50_s"]
    rows = [
        ("ingest poll + fabric pump (parent CPU)", pump),
        ("queue wait and pipes (fabric mean - service)", layer["fabric.queue_wait.s_per_pkt"]),
        ("worker service (busy_s / completed)", layer["fabric.service.s_per_pkt"]),
        ("wire, staging and result return (e2e p50 - fabric p50)", rest),
        ("end-to-end latency p50", latency_p50),
    ]
    lines = ["Layer budget per packet (s)"]
    lines.extend("  %-58s %10.6f" % row for row in rows)
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------


def src_digest(src: str) -> str:
    """SHA-256 over every file under *src* (path and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def calibration_score(loops: int = 200_000) -> float:
    """Million iterations per second of a fixed pure-Python loop (best
    of five), so numbers from different hosts can be put side by side."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc * 31 + i) & 0xFFFF
        best = min(best, time.perf_counter() - t0)
    return loops / best / 1e6


def fingerprint(root: str, src_sha: str) -> Dict[str, object]:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit: Optional[str] = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "commit": commit,
        "src_sha256": src_sha,
        "calibration_mips": round(calibration_score(), 3),
    }


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def p(values, q) -> float:
    return float(percentile(list(values), q)) if values else 0.0
