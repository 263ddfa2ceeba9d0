"""Golden schedules: a cold link of the reference modem is pinned.

The scheduler's placement search is memoised per kernel structure and
its inner loops are tuned for speed; none of that may move a single
decision.  This test links the reference modem with every compile cache
empty and checks the exact ``ScheduleResult`` of every kernel against a
digest recorded before those optimisations, plus how many placement
searches the link needed.
"""

import hashlib

import numpy as np

from repro.compiler.modulo import ModuloScheduler, placement_stats
from repro.runtime import ModemRuntime, make_packet

#: sha256 over ``repr`` of the 65 ``ScheduleResult``s, in call order.
GOLDEN_DIGEST = "93548e43af01554f0244ca4929bcaf098f51593bb8a03353665696daa5675813"

#: The reference modem schedules 65 kernels of 15 distinct structures.
SCHEDULE_CALLS = 65
PLACEMENT_SEARCHES = 15


def test_reference_modem_schedules_match_golden(monkeypatch, cold_compile_caches):
    results = []
    original = ModuloScheduler.schedule

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(ModuloScheduler, "schedule", recording)
    with cold_compile_caches():
        case = make_packet(42, cfo_hz=50e3)
        out = ModemRuntime().warm_up(case.rx)
        stats = placement_stats()

    assert np.array_equal(out.bits, case.bits)
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_DIGEST
    assert len(results) == SCHEDULE_CALLS
    assert stats == {"searches": PLACEMENT_SEARCHES}
