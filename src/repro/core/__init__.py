"""AMuLeT's core: model-based relational testing of simulated defenses.

This package is the paper's primary contribution: it wires the test
generator, the leakage model and the simulator executor into a fuzzing loop
that searches for *contract violations* — pairs of inputs with identical
contract traces but different micro-architectural traces (Definition 2.1) —
and provides the supporting machinery the paper describes: violation
validation (re-running with a matched micro-architectural context), root
cause analysis helpers, signature-based filtering of duplicate violations,
leakage amplification configurations, and campaign orchestration with the
throughput/detection-time metrics reported in Tables 3-6.
"""

from repro.core.config import FuzzerConfig, resolve_contract_name
from repro.core.scheduler import ExecutionPlan, ExecutionScheduler, FilterLevel
from repro.core.seeding import derive_instance_seed, splitmix64
from repro.core.testcase import TestCase
from repro.core.violation import Violation
from repro.core.detector import ViolationDetector, group_by_contract_trace
from repro.core.fuzzer import AmuletFuzzer, FuzzerReport, RoundResult
from repro.core.campaign import Campaign, CampaignResult
from repro.core.analysis import ViolationAnalysis, analyze_violation
from repro.core.filtering import ViolationFilter, unique_violations
from repro.core.amplification import AmplificationLevel, amplification_ladder
from repro.core.minimize import (
    MinimizationBudget,
    MinimizationResult,
    minimize_violation,
)

__all__ = [
    "FuzzerConfig",
    "resolve_contract_name",
    "ExecutionPlan",
    "ExecutionScheduler",
    "FilterLevel",
    "derive_instance_seed",
    "splitmix64",
    "TestCase",
    "Violation",
    "ViolationDetector",
    "group_by_contract_trace",
    "AmuletFuzzer",
    "FuzzerReport",
    "RoundResult",
    "Campaign",
    "CampaignResult",
    "ViolationAnalysis",
    "analyze_violation",
    "ViolationFilter",
    "unique_violations",
    "AmplificationLevel",
    "amplification_ladder",
    "MinimizationBudget",
    "MinimizationResult",
    "minimize_violation",
]
