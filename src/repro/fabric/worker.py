"""The worker process side of the fabric.

Each worker is a forked process running :func:`worker_main`: it builds
(or inherits) a resident runtime, announces readiness, then serves
``(task_id, rx, n_symbols, detect_hint)`` requests from its task pipe
until it receives the ``None`` stop sentinel or the pipe closes.

Fork inheritance is the warm-up mechanism: the fabric constructs and
warms one **template** :class:`~repro.runtime.ModemRuntime` in the
parent (hitting the persistent schedule cache), and every worker —
including respawns after a crash — forks a copy of the fully *linked*
template, so spin-up performs zero ``ModuloScheduler.schedule`` calls
and zero region links for the warmed shapes.  The readiness message
carries the child-side schedule-cache miss delta so the fabric report
can prove it.

Heartbeats: with ``heartbeat_s > 0`` the worker runs a small daemon
thread that periodically sends ``(MSG_HEARTBEAT, index, payload)`` up
the result pipe — the payload is
:func:`repro.obs.heartbeat.heartbeat_payload`: ``task_seq`` (tasks
completed), ``host_cycles`` (cumulative simulated cycles), ``rss_bytes``
and the sender's ``monotonic_ts``, plus the runtime's cumulative
per-cause stall attribution.  Liveness therefore rides the *existing*
result-pipe multiplexing (no extra descriptors), and because the beat
comes from a separate thread, a worker that is busy simulating a long
packet still beats — only a genuinely stuck process (deadlock,
SIGSTOP) goes silent.  A ``threading.Lock`` serialises heartbeat and
result sends so interleaved writes cannot corrupt the pipe.

Crash isolation: every worker gets its own result pipe, and the first
thing a child does is close its inherited copies of every *other*
worker's pipe ends.  A SIGKILLed worker therefore drops the last write
end of its result pipe, the parent reads a clean EOF (even mid-message)
instead of deadlocking on a shared queue lock, and the surviving
workers are untouched.

Framing: messages travel the result pipe as frames of their own, an
8-byte big-endian length followed by the pickle (:func:`send_message`).
The parent reassembles frames in a :class:`FrameReader` and bounds its
wait for the rest of a frame, so a worker stopped halfway through a
large result (SIGSTOP) leaves a partial frame in the parent's buffer
instead of a parent blocked inside ``Connection.recv`` — the watchdog,
which runs in the parent's pump loop, can then still kill it.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from typing import Callable, List, Sequence

from repro.obs.heartbeat import heartbeat_payload

# Result-pipe message tags (tag, payload...) — see worker_main.
MSG_READY = "ready"
MSG_RESULT = "result"
MSG_ERROR = "error"
MSG_BYE = "bye"
MSG_HEARTBEAT = "heartbeat"

_FRAME_HEADER = struct.Struct("!Q")


def send_message(conn, msg: object) -> None:
    """Write *msg* to the pipe *conn* as one length-prefixed frame."""
    data = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
    fd = conn.fileno()
    view = memoryview(_FRAME_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


class FrameReader:
    """Reassembles :func:`send_message` frames from raw pipe reads."""

    def __init__(self) -> None:
        self._buf = bytearray()

    @property
    def partial(self) -> bool:
        """True while part of a frame has arrived but not all of it."""
        return bool(self._buf)

    def feed(self, chunk: bytes) -> List[object]:
        """Add *chunk*; return every message it completes, in order."""
        buf = self._buf
        buf += chunk
        messages = []
        start = 0
        header = _FRAME_HEADER.size
        while len(buf) - start >= header:
            (size,) = _FRAME_HEADER.unpack_from(buf, start)
            end = start + header + size
            if len(buf) < end:
                break
            messages.append(pickle.loads(buf[start + header:end]))
            start = end
        del buf[:start]
        return messages


def _schedule_misses() -> int:
    from repro.compiler.linker import schedule_cache_stats

    return int(schedule_cache_stats().get("misses", 0))


def _codegen_compilations() -> int:
    from repro.sim.codegen import codegen_stats

    return int(codegen_stats().get("compilations", 0))


def _heartbeat_loop(
    stop: threading.Event,
    send_lock: threading.Lock,
    result_conn,
    index: int,
    interval_s: float,
    runner: object,
    progress: dict,
) -> None:
    """Beat every *interval_s* until stopped or the pipe goes away.

    Runs as a daemon thread next to the serve loop; *progress* is the
    loop's mutable ``{"task_seq": n}`` view (GIL-atomic int reads).  The
    runner's telemetry is duck-typed (``host_cycles``/``stall_causes``)
    so stub runners in tests beat too, just with zeroed cycle fields.
    Any pipe error ends the thread quietly — heartbeat loss must never
    crash a worker that could still serve.
    """
    while not stop.wait(interval_s):
        try:
            payload = heartbeat_payload(
                task_seq=progress["task_seq"],
                host_cycles=int(getattr(runner, "host_cycles", 0) or 0),
                stall_causes=dict(getattr(runner, "stall_causes", None) or {}),
            )
            with send_lock:
                send_message(result_conn, (MSG_HEARTBEAT, index, payload))
        except (OSError, BrokenPipeError, ValueError):
            return  # parent gone or pipe closed: nothing left to tell


def _serve_batch(
    runner, send_lock, result_conn, task_ids, rxs, n_symbols, detect_hint
) -> None:
    """Run one coalesced dispatch through ``runner.run_batch_results``.

    Every task still gets its own result message (the parent's
    exactly-once accounting is per task id); the wall time of the whole
    batch is split evenly across its tasks so per-slot ``busy_s`` keeps
    summing to real busy time.  A batch-level failure — the runner
    itself raising, not a per-packet error — is reported against every
    task in the dispatch.
    """
    t0 = time.perf_counter()
    try:
        batch_results = runner.run_batch_results(
            rxs, n_symbols=n_symbols, detect_hint=detect_hint
        )
    except Exception as exc:
        dt = (time.perf_counter() - t0) / len(task_ids)
        for task_id in task_ids:
            with send_lock:
                send_message(
                    result_conn,
                    (MSG_ERROR, task_id, dt, "%s: %s" % (type(exc).__name__, exc))
                )
        return
    dt = (time.perf_counter() - t0) / len(task_ids)
    for task_id, result in zip(task_ids, batch_results):
        if result.error is not None:
            err = result.error
            with send_lock:
                send_message(
                    result_conn,
                    (MSG_ERROR, task_id, dt, "%s: %s" % (type(err).__name__, err))
                )
        else:
            with send_lock:
                send_message(result_conn, (MSG_RESULT, task_id, dt, result.output))


def worker_main(
    index: int,
    task_conn,
    result_conn,
    close_conns: Sequence[object],
    runner_factory: Callable[[], object],
    heartbeat_s: float = 0.0,
) -> None:
    """Body of one worker process (the ``Process`` target)."""
    for conn in close_conns:
        try:
            conn.close()
        except OSError:
            pass
    misses_before = _schedule_misses()
    codegen_before = _codegen_compilations()
    t0 = time.perf_counter()
    runner = runner_factory()
    send_message(
        result_conn,
        (
            MSG_READY,
            index,
            {
                "spinup_s": time.perf_counter() - t0,
                "schedule_misses": _schedule_misses() - misses_before,
                "codegen_compilations": _codegen_compilations() - codegen_before,
                "batched": hasattr(runner, "run_batch_results"),
            },
        )
    )
    send_lock = threading.Lock()
    progress = {"task_seq": 0}
    stop_beating = threading.Event()
    if heartbeat_s and heartbeat_s > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(stop_beating, send_lock, result_conn, index, float(heartbeat_s),
                  runner, progress),
            name="heartbeat-%d" % index,
            daemon=True,
        ).start()
    while True:
        try:
            msg = task_conn.recv()
        except (EOFError, OSError):
            break  # parent went away: exit quietly
        if msg is None:
            try:
                with send_lock:
                    send_message(result_conn, (MSG_BYE, index, None))
            except (OSError, BrokenPipeError):
                pass
            break
        # Batch-drain dispatches arrive as (task_id_tuple, rx_list, ...);
        # single-task messages keep the original (task_id, rx, ...) form.
        if isinstance(msg[0], tuple):
            task_ids, rxs, n_symbols, detect_hint = msg
        else:
            task_ids, rxs, n_symbols, detect_hint = (msg[0],), [msg[1]], msg[2], msg[3]
        if len(task_ids) > 1 and hasattr(runner, "run_batch_results"):
            _serve_batch(
                runner, send_lock, result_conn, task_ids, rxs, n_symbols, detect_hint
            )
            progress["task_seq"] += len(task_ids)
            continue
        for task_id, rx in zip(task_ids, rxs):
            t0 = time.perf_counter()
            try:
                out = runner.run_packet(
                    rx, n_symbols=n_symbols, detect_hint=detect_hint
                )
            except Exception as exc:  # task-level fault: report, keep serving
                dt = time.perf_counter() - t0
                with send_lock:
                    send_message(
                        result_conn,
                        (MSG_ERROR, task_id, dt, "%s: %s" % (type(exc).__name__, exc))
                    )
            else:
                dt = time.perf_counter() - t0
                with send_lock:
                    send_message(result_conn, (MSG_RESULT, task_id, dt, out))
            progress["task_seq"] += 1
    stop_beating.set()
    try:
        result_conn.close()
        task_conn.close()
    except OSError:
        pass
