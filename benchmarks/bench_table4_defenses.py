"""Table 4: testing the baseline and the four defenses with AMuLeT-Opt.

Paper shape: the baseline, InvisiSpec, CleanupSpec and SpecLFB are flagged
within seconds of testing; STT takes orders of magnitude longer (hours in
the paper) because its only leak (KV3) needs a rare two-instruction gadget
on the mispredicted path and a multi-page sandbox.  The scaled-down STT
campaign here is therefore expected to stay clean within its budget; the KV3
capability is demonstrated by the directed litmus (``bench_case_studies.py``).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_rows
from repro.backends import InlineBackend
from repro.core import Campaign, FuzzerConfig
from repro.core.filtering import unique_violations

#: (defense, programs in the scaled-down campaign, campaign seed, expect detection?)
CAMPAIGNS = (
    ("baseline", 20, 3, True),
    ("invisispec", 30, 3, True),
    ("cleanupspec", 40, 7, True),
    ("speclfb", 30, 5, True),
    ("stt", 4, 1, False),
)


def _run_campaign(defense: str, programs: int, seed: int) -> dict:
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=programs,
        inputs_per_program=14,
        seed=seed,
        stop_on_violation=True,
    )
    result = Campaign(config, instances=1, backend=InlineBackend()).run()
    detection = result.average_detection_seconds()
    return {
        "defense": defense,
        "contract": result.contract,
        "detected": result.detected,
        "detection_seconds": None if detection is None else round(detection, 2),
        "unique_violations": len(unique_violations(result.violations)),
        "test_cases": result.total_test_cases,
        "test_cases_generated": result.total_test_cases_generated,
        "skipped": result.tally().counts_under("skipped"),
        "throughput_per_s": round(result.throughput(), 1),
        "effective_throughput_per_s": round(result.effective_throughput(), 1),
        "campaign_seconds": round(result.wall_clock_seconds, 2),
    }


@pytest.mark.benchmark(group="table4")
def test_table4_defense_campaigns(benchmark):
    def run_all():
        return [
            _run_campaign(defense, programs, seed)
            for defense, programs, seed, _ in CAMPAIGNS
        ]

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    attach_rows(benchmark, "Table 4 (defense campaigns, scaled down)", rows, artifact="table4")

    by_defense = {row["defense"]: row for row in rows}
    for defense, _, _, expect_detection in CAMPAIGNS:
        if expect_detection:
            assert by_defense[defense]["detected"], f"{defense} should be flagged"
    # STT is tested against ARCH-SEQ, everything else against CT-SEQ.
    assert by_defense["stt"]["contract"] == "ARCH-SEQ"
    assert by_defense["invisispec"]["contract"] == "CT-SEQ"
    # The defenses that start from a clean cache state (CleanupSpec, SpecLFB)
    # have higher throughput than InvisiSpec, which needs full-set priming.
    assert by_defense["cleanupspec"]["throughput_per_s"] >= by_defense["invisispec"]["throughput_per_s"]
