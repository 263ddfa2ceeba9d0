"""Self-tests of the benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs in its short mode (about half a minute for
``batch_uniform``, whose set-up is a cold compile; seconds for the
others).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: End-to-end metrics that are modelled (simulated) quantities: a fixed
#: seed must reproduce them exactly.
MODELLED = (
    "bit_accuracy",
    "sim_cycles_per_packet",
    "preamble_cycles",
    "data_pair_cycles",
    "energy_uj_per_packet",
    "table2_cycles_rel_err",
)

_RUNS = {}


def short_run(workload, trace, seed=1, tag=""):
    """The parsed result line of one short run (cached per key)."""
    key = (workload, trace, seed, tag)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--short"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        _RUNS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_prints_exactly_the_declared_metrics(workload, trace):
    result = short_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], float)
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] != 0, metric["name"]


@pytest.mark.parametrize("workload", ["stream_paced", "stream_burst"])
def test_modelled_metrics_repeat_exactly_for_one_seed(workload):
    first = short_run(workload, 0, seed=5)
    second = short_run(workload, 0, seed=5, tag="repeat")
    for name in MODELLED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_batch_uniform_reproduces_the_reference_cycle_counts():
    metrics = short_run("batch_uniform", 0)["metrics"]
    assert metrics["sim_cycles_per_packet"]["value"] == 21334
    assert metrics["preamble_cycles"]["value"] == 16025
    assert metrics["data_pair_cycles"]["value"] == 5309


class _WrongBits:
    """A worker runtime whose decoded bits are all inverted."""

    def __init__(self, runtime):
        self._runtime = runtime

    def __getattr__(self, name):
        return getattr(self._runtime, name)

    def run_batch_results(self, packets, **kwargs):
        results = self._runtime.run_batch_results(packets, **kwargs)
        for result in results:
            if result.output is not None:
                result.output.bits = 1 - result.output.bits
        return results

    def run_packet(self, rx, **kwargs):
        out = self._runtime.run_packet(rx, **kwargs)
        out.bits = 1 - out.bits
        return out


def test_wrong_bits_from_the_workers_fail_the_run(capsys):
    sys.path.insert(0, BENCH)
    import run as bench

    sys.path.insert(0, bench.SRC)
    args = bench._parse(["--workload", "stream_burst", "--seed", "3",
                         "--seconds", "1", "--short"])
    status = bench.run(args, runner_wrap=_WrongBits)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["success_frac"]["value"] < 1.0
