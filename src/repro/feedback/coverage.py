"""Revizor-style coverage map over signals the pipeline already emits.

AMuLeT has no instruction-level coverage instrumentation (the simulated
defenses are the code under test, not the programs), so "coverage" here is
*behavior* coverage: every round is reduced to a set of feature tuples
describing what the round's test case actually did, the features are hashed
into a fixed-size bitmap, and a round counts as **new behavior** when it
sets at least one previously unset bit.  Three signal families feed the map,
all produced for free by the existing round pipeline:

* **contract-class diversity** — the shape of the contract-equivalence
  partition the :class:`~repro.core.scheduler.ExecutionScheduler` computes
  anyway (class count, class-size histogram);
* **speculation-profile features** — per-entry
  :class:`~repro.model.emulator.SpeculationProfile` counters from the
  contract pass (conditional-branch count, tainted-address access count);
* **micro-architectural events** — per-executed-entry
  :class:`~repro.uarch.stats.CoreStatistics` counters (squashed-window
  depth, speculative loads/stores, mispredictions) and the per-defense
  event dictionary (``defense/...`` counters), bucketed logarithmically so
  the map saturates on behavior kinds, not raw magnitudes.

Hashing must be deterministic across processes (the process-pool backend
merges per-instance bitmaps), so features are hashed with BLAKE2b over
their canonical ``repr`` — never Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.scheduler import ExecutionPlan
from repro.core.testcase import TestCase

#: Default bitmap size in bits (64 Kbit = 8 KiB per instance, Revizor-like).
DEFAULT_MAP_BITS = 1 << 16

Feature = Tuple[object, ...]


def _log2_bucket(value: int) -> int:
    """Logarithmic bucket of a non-negative counter (0, 1, 2, 4, 8, ... style)."""
    if value <= 0:
        return 0
    return value.bit_length()


def feature_index(feature: Feature, size_bits: int) -> int:
    """Deterministic bitmap slot of one feature (stable across processes)."""
    digest = hashlib.blake2b(repr(feature).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % size_bits


def round_features(test_case: TestCase, plan: Optional[ExecutionPlan] = None) -> List[Feature]:
    """Extract the feature tuples of one completed round.

    ``plan`` supplies the contract-class partition when the scheduler already
    computed it; otherwise the partition is derived here.
    """
    features: List[Feature] = []
    classes = plan.classes if plan is not None else test_case.contract_classes()

    # Contract-class diversity: partition shape.
    sizes = sorted(len(entries) for entries in classes.values())
    features.append(("classes", _log2_bucket(len(classes)), _log2_bucket(sizes[-1] if sizes else 0)))
    size_histogram: Dict[int, int] = {}
    for size in sizes:
        bucket = _log2_bucket(size)
        size_histogram[bucket] = size_histogram.get(bucket, 0) + 1
    for bucket, count in size_histogram.items():
        features.append(("class_size", bucket, _log2_bucket(count)))

    for entry in test_case.entries:
        # Speculation-profile features from the contract pass.
        profile = entry.speculation
        if profile is not None:
            features.append(
                (
                    "spec",
                    _log2_bucket(profile.cond_branches),
                    _log2_bucket(profile.tainted_accesses),
                )
            )
        # Micro-architectural events from the O3 run (executed entries only).
        record = entry.record
        if record is None:
            continue
        stats = record.result.stats
        features.append(
            (
                "uarch",
                _log2_bucket(stats.instructions_squashed),
                _log2_bucket(stats.branch_mispredictions),
                _log2_bucket(stats.speculative_loads),
                _log2_bucket(stats.speculative_stores),
            )
        )
        if stats.memory_order_violations:
            features.append(("uarch.mov", _log2_bucket(stats.memory_order_violations)))
        if stats.mshr_stalls:
            features.append(("uarch.mshr", _log2_bucket(stats.mshr_stalls)))
        for event, count in stats.defense_events.items():
            features.append(("defense", event, _log2_bucket(count)))
    return features


@dataclass
class RoundCoverage:
    """What one round contributed to the coverage map."""

    total_features: int = 0
    new_features: int = 0


@dataclass
class CoverageTracker:
    """A bitmap of observed behavior features with novelty accounting.

    The tracker is cheap enough to run on every round regardless of the
    generation strategy; the mutational strategies additionally use
    :attr:`RoundCoverage.new_features` as the corpus energy signal.
    """

    size_bits: int = DEFAULT_MAP_BITS
    bitmap: bytearray = field(default_factory=bytearray)
    #: Total features hashed into the map (including already-seen ones).
    features_observed: int = 0
    #: Features that set a previously unset bit.
    new_features: int = 0
    #: Rounds observed / rounds that contributed at least one new bit.
    rounds_observed: int = 0
    rounds_with_new_coverage: int = 0

    def __post_init__(self) -> None:
        if self.size_bits <= 0 or self.size_bits % 8:
            raise ValueError("size_bits must be a positive multiple of 8")
        if not self.bitmap:
            self.bitmap = bytearray(self.size_bits // 8)
        elif len(self.bitmap) != self.size_bits // 8:
            raise ValueError("bitmap length does not match size_bits")

    # -- observation ----------------------------------------------------------
    def observe_features(self, features: Iterable[Feature]) -> RoundCoverage:
        """Hash ``features`` into the map; count the previously unseen ones."""
        coverage = RoundCoverage()
        bitmap = self.bitmap
        for feature in features:
            index = feature_index(feature, self.size_bits)
            byte, bit = index >> 3, 1 << (index & 7)
            coverage.total_features += 1
            if not bitmap[byte] & bit:
                bitmap[byte] |= bit
                coverage.new_features += 1
        self.features_observed += coverage.total_features
        self.new_features += coverage.new_features
        self.rounds_observed += 1
        if coverage.new_features:
            self.rounds_with_new_coverage += 1
        return coverage

    def observe_round(
        self, test_case: TestCase, plan: Optional[ExecutionPlan] = None
    ) -> RoundCoverage:
        """Extract one round's features and fold them into the map."""
        return self.observe_features(round_features(test_case, plan))

    # -- queries --------------------------------------------------------------
    def bits_set(self) -> int:
        # One big-int popcount instead of a per-byte generator pass; this is
        # queried once per round, on a multi-KiB bitmap.
        return int.from_bytes(self.bitmap, "little").bit_count()

    def coverage_fraction(self) -> float:
        return self.bits_set() / self.size_bits

    def counters(self) -> Dict[str, int]:
        """Novelty counters reported alongside the scheduler's skip counters."""
        return {
            "features_observed": self.features_observed,
            "new_features": self.new_features,
            "rounds_observed": self.rounds_observed,
            "rounds_with_new_coverage": self.rounds_with_new_coverage,
        }

    # -- merging (campaign aggregation across instances / backends) -----------
    def merge(self, other: "CoverageTracker") -> None:
        """OR another instance's map into this one and add its counters.

        Instances never see each other's maps mid-run, so the merge is
        independent of instance order and of the backend that ran them.
        """
        if other.size_bits != self.size_bits:
            raise ValueError("cannot merge coverage maps of different sizes")
        merged = int.from_bytes(self.bitmap, "little") | int.from_bytes(
            other.bitmap, "little"
        )
        self.bitmap = bytearray(merged.to_bytes(len(self.bitmap), "little"))
        for name, value in other.counters().items():
            setattr(self, name, getattr(self, name) + value)
