"""Fig 5 — processor area breakdown.

Regenerates the area breakdown from the structural model and checks the
published shares (memories ~50%, CGA FUs 29%, VLIW FUs 8%, global RF 5%,
distributed RF 3%) and the 5.79 mm^2 total.
"""

import pytest

from repro.arch import paper_core
from repro.eval import fig5_report
from repro.power import PAPER_AREA_MM2, estimate_area


def test_fig5_area_breakdown(benchmark, capsys, bench_report):
    report = benchmark(estimate_area, paper_core())
    with capsys.disabled():
        print("\n=== Fig 5: processor area breakdown ===")
        print(fig5_report())
    assert report.total_mm2 == pytest.approx(PAPER_AREA_MM2, rel=0.01)
    f = report.fractions
    assert f["memories"] == pytest.approx(0.50, abs=0.01)
    assert f["CGA FUs"] == pytest.approx(0.29, abs=0.01)
    assert f["VLIW FUs"] == pytest.approx(0.08, abs=0.01)
    assert f["global RF"] == pytest.approx(0.05, abs=0.01)
    assert f["distributed RF"] == pytest.approx(0.03, abs=0.01)
    bench_report(
        "fig5_area",
        extra={"total_mm2": round(report.total_mm2, 3), "fractions": f},
    )


def test_fig5_ablation_array_size(benchmark, capsys):
    """Design-space hook: the same coefficients extrapolate a 3x3 core."""
    import dataclasses

    core = paper_core()
    small = estimate_area(core)

    def bigger_memory():
        return estimate_area(
            dataclasses.replace(
                core, l1=dataclasses.replace(core.l1, words=2 * core.l1.words)
            )
        )

    big = benchmark(bigger_memory)
    with capsys.disabled():
        print("\n--- ablation: doubling L1 capacity ---")
        print("baseline %.2f mm^2 -> doubled-L1 %.2f mm^2" % (small.total_mm2, big.total_mm2))
    assert big.total_mm2 > small.total_mm2
    assert big.fractions["memories"] > small.fractions["memories"]
