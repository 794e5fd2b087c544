"""Feedback-guided vs random generation (``BENCH_feedback.json``).

For every defense this benchmark runs two single-instance campaigns with an
*equal executed-test-case budget* (same programs x inputs, no early stop, no
execution filtering):

* **random** — the seed behavior: every program generated from scratch;
* **hybrid** — the feedback subsystem: the corpus is seeded from the
  defense's directed litmus gadgets, and each round either mutates an
  energy-selected corpus entry (witness input pair included) or generates
  fresh, guided by the coverage bitmap.

The compared metric is **distinct violation signatures** (deduplicated root
causes, the paper's "unique violations" notion) found within the budget —
the quantity campaign detection counts hinge on, rather than raw violation
counts which double-count the same leak.

The run also verifies the corpus subsystem's persistence contract: the
hybrid campaign's merged corpus is saved, reloaded, and must reproduce
identical entry IDs; and an inline vs process-pool re-run of the baseline
hybrid campaign must produce identical corpus contents and coverage
counters.

Run it with::

    PYTHONPATH=src python benchmarks/bench_feedback.py [--smoke] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.backends import InlineBackend, ProcessPoolBackend
from repro.core import Campaign, FuzzerConfig
from repro.core.io import atomic_write_json
from repro.core.filtering import unique_violations
from repro.feedback import Corpus, GenerationStrategy

HERE = os.path.dirname(os.path.abspath(__file__))
ARTIFACT_PATH = os.path.join(HERE, "artifacts", "BENCH_feedback.json")

#: Per-defense budgets (programs, inputs, campaign seed).  STT's only leak
#: needs a rare gadget and a 128-page sandbox; its scaled-down budget is
#: small, and the expectation is that the *hybrid* strategy at least matches
#: random (both may stay clean within budget, as in Table 4).
FULL_BUDGET: Dict[str, Dict[str, int]] = {
    "baseline": {"programs": 12, "inputs": 14, "seed": 3},
    "invisispec": {"programs": 12, "inputs": 14, "seed": 3},
    "cleanupspec": {"programs": 12, "inputs": 14, "seed": 7},
    "speclfb": {"programs": 12, "inputs": 14, "seed": 5},
    "stt": {"programs": 3, "inputs": 10, "seed": 1},
}
SMOKE_BUDGET: Dict[str, Dict[str, int]] = {
    "baseline": {"programs": 4, "inputs": 7, "seed": 3},
    "invisispec": {"programs": 4, "inputs": 7, "seed": 3},
}


def run_campaign(
    defense: str,
    strategy: GenerationStrategy,
    budget: Dict[str, int],
    backend=None,
    corpus_path: Optional[str] = None,
) -> Dict[str, object]:
    """One single-instance campaign; returns the comparison row."""
    config = FuzzerConfig(
        defense=defense,
        programs_per_instance=budget["programs"],
        inputs_per_program=budget["inputs"],
        seed=budget["seed"],
        strategy=strategy,
        corpus_litmus=strategy is not GenerationStrategy.RANDOM,
        corpus_path=corpus_path,
    )
    campaign = Campaign(config, instances=1, backend=backend or InlineBackend())
    started = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - started
    signatures = sorted(
        str(signature) for signature in unique_violations(result.violations)
    )
    feedback = result.feedback_summary()
    return {
        "defense": defense,
        "strategy": strategy.value,
        "test_cases_executed": result.total_test_cases,
        "test_cases_generated": result.total_test_cases_generated,
        "violations": result.violation_count(),
        "distinct_signatures": len(signatures),
        "signatures": signatures,
        "programs_mutated": feedback["programs_mutated"],
        "coverage_bits_set": (feedback["coverage"] or {}).get("bits_set", 0),
        "corpus_entries": feedback["corpus"]["entries"],
        "corpus_origins": feedback["corpus"]["origins"],
        "seconds": round(elapsed, 3),
        "_result": result,
    }


def verify_corpus_roundtrip(budget: Dict[str, int]) -> Dict[str, object]:
    """Save -> reload -> identical IDs; inline == process contents/counters."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.json")
        row = run_campaign(
            "baseline", GenerationStrategy.HYBRID, budget, corpus_path=corpus_path
        )
        saved = row["_result"].merged_corpus()
        # The campaign saved its merged corpus to corpus_path; a second load
        # must reproduce the exact entry IDs.
        reloaded = Corpus.load(corpus_path)
        roundtrip_ok = set(saved.entry_ids()) == set(reloaded.entry_ids())

    inline_row = run_campaign("baseline", GenerationStrategy.HYBRID, budget)
    process_row = run_campaign(
        "baseline",
        GenerationStrategy.HYBRID,
        budget,
        backend=ProcessPoolBackend(workers=2),
    )
    inline_result, process_result = inline_row["_result"], process_row["_result"]
    inline_corpus = inline_result.merged_corpus()
    process_corpus = process_result.merged_corpus()
    backends_identical = (
        sorted(inline_corpus.entry_ids()) == sorted(process_corpus.entry_ids())
        and {e.entry_id: round(e.energy, 4) for e in inline_corpus.entries()}
        == {e.entry_id: round(e.energy, 4) for e in process_corpus.entries()}
        and inline_result.merged_coverage() == process_result.merged_coverage()
    )
    return {
        "save_reload_identical_ids": roundtrip_ok,
        "inline_process_identical": backends_identical,
        "corpus_entries": len(inline_corpus),
        "coverage_bits_set": inline_result.merged_coverage().bits_set(),
    }


def compare(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Per-defense random-vs-hybrid verdicts at equal executed budget."""
    by_key = {(row["defense"], row["strategy"]): row for row in rows}
    defenses = sorted({row["defense"] for row in rows})
    verdicts = {}
    hybrid_at_least = True
    strictly_better = 0
    for defense in defenses:
        random_row = by_key[(defense, "random")]
        hybrid_row = by_key[(defense, "hybrid")]
        verdicts[defense] = {
            "random_signatures": random_row["distinct_signatures"],
            "hybrid_signatures": hybrid_row["distinct_signatures"],
            "equal_executed_budget": (
                random_row["test_cases_executed"] == hybrid_row["test_cases_executed"]
            ),
            "hybrid_at_least_as_many": (
                hybrid_row["distinct_signatures"] >= random_row["distinct_signatures"]
            ),
        }
        hybrid_at_least &= verdicts[defense]["hybrid_at_least_as_many"]
        if hybrid_row["distinct_signatures"] > random_row["distinct_signatures"]:
            strictly_better += 1
    return {
        "per_defense": verdicts,
        "hybrid_at_least_as_many_everywhere": hybrid_at_least,
        "defenses_strictly_better": strictly_better,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true", help="tiny budget (CI)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) unless hybrid finds >= as many distinct signatures "
        "as random on every defense (and strictly more on >= 2), and the "
        "corpus round-trip / backend-identity checks hold",
    )
    args = parser.parse_args(argv)

    budgets = SMOKE_BUDGET if args.smoke else FULL_BUDGET
    label = "smoke" if args.smoke else "full"
    print(f"== feedback benchmark ({label} budget) ==")

    rows: List[Dict[str, object]] = []
    for defense, budget in budgets.items():
        for strategy in (GenerationStrategy.RANDOM, GenerationStrategy.HYBRID):
            row = run_campaign(defense, strategy, budget)
            rows.append(row)
            print(
                f"  {defense:12s} {strategy.value:8s} "
                f"{row['distinct_signatures']} signatures "
                f"({row['violations']} violations, "
                f"{row['test_cases_executed']} executed, {row['seconds']}s)"
            )

    comparison = compare(rows)
    roundtrip = verify_corpus_roundtrip(
        budgets.get("baseline", next(iter(budgets.values())))
    )
    print(f"  comparison: {json.dumps(comparison['per_defense'], indent=2)}")
    print(
        f"  hybrid >= random everywhere: {comparison['hybrid_at_least_as_many_everywhere']}, "
        f"strictly better on {comparison['defenses_strictly_better']} defenses"
    )
    print(f"  corpus round-trip: {roundtrip}")

    artifact = {
        "label": "Feedback-guided vs random generation (distinct violation signatures)",
        "budget_label": label,
        "budgets": budgets,
        "rows": [
            {key: value for key, value in row.items() if key != "_result"}
            for row in rows
        ],
        "comparison": comparison,
        "corpus_roundtrip": roundtrip,
    }
    destination = (
        ARTIFACT_PATH
        if not args.smoke
        else ARTIFACT_PATH.replace(".json", "_smoke.json")
    )
    atomic_write_json(destination, artifact)
    print(f"[artifact] {os.path.relpath(destination)}")

    if args.check:
        failures = []
        if not comparison["hybrid_at_least_as_many_everywhere"]:
            failures.append("hybrid found fewer signatures than random somewhere")
        if not args.smoke and comparison["defenses_strictly_better"] < 2:
            failures.append("hybrid strictly better on fewer than 2 defenses")
        if not roundtrip["save_reload_identical_ids"]:
            failures.append("corpus save/reload changed entry IDs")
        if not roundtrip["inline_process_identical"]:
            failures.append("inline and process backends disagree on corpus/coverage")
        for failure in failures:
            print(f"[check] FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("[check] ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
