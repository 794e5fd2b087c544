"""Modeled gem5 time accounting (the substitution behind Tables 2 and 3).

The original AMuLeT measures wall-clock seconds of a real gem5 process, whose
profile is dominated by a multi-second start-up cost.  This repository's
simulator is a Python object whose construction is cheap, so the absolute
numbers cannot be compared; what can be reproduced is the *shape* of the
result: Naive mode pays the start-up cost once per test case and is
start-up-dominated, Opt mode pays it once per test program and becomes
simulation-dominated, yielding an order-of-magnitude throughput improvement.

``TimeModel`` charges calibrated per-event costs (per simulator start, per
simulated instruction, per trace extraction, ...) so the benchmark harness
can print a Table-2-style breakdown.  Real wall-clock time of this
implementation is always reported alongside the modeled time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class TimeModel:
    """Calibrated per-event costs, in (modeled) seconds.

    Defaults are calibrated against the paper's Table 2 so that a Naive
    campaign is ~96% start-up time while an Opt campaign is ~90% simulation
    time, with a roughly 13x difference in total per-program cost.
    """

    simulator_startup_seconds: float = 1.1
    simulate_per_instruction_seconds: float = 0.00015
    trace_extraction_seconds: float = 0.004
    test_generation_seconds: float = 0.3
    contract_trace_per_input_seconds: float = 0.0007
    other_per_program_seconds: float = 0.3


#: Component labels matching the rows of Table 2.
STARTUP = "gem5 startup"
SIMULATE = "gem5 simulate"
TRACE_EXTRACTION = "uTrace extraction"
TEST_GENERATION = "Test generation"
CONTRACT_TRACES = "CTrace extraction"
OTHERS = "Others"

TABLE2_COMPONENTS = (
    STARTUP,
    SIMULATE,
    TRACE_EXTRACTION,
    TEST_GENERATION,
    CONTRACT_TRACES,
    OTHERS,
)


@dataclass
class ModeledTime:
    """Accumulates modeled seconds per component, plus real wall-clock time.

    Also tracks test cases the execution scheduler *skipped* per filter
    reason: a skipped test case pays generation and contract-trace costs but
    neither simulation nor trace extraction, and campaign artifacts report
    raw (generated) next to effective (executed) throughput.
    """

    model: TimeModel = field(default_factory=TimeModel)
    modeled_seconds: Dict[str, float] = field(default_factory=dict)
    wall_clock_seconds: Dict[str, float] = field(default_factory=dict)
    #: Test cases skipped by the execution scheduler, per filter reason
    #: ("singleton", "speculation").
    skipped_test_cases: Dict[str, int] = field(default_factory=dict)

    # -- modeled charges -----------------------------------------------------
    def charge(self, component: str, seconds: float) -> None:
        self.modeled_seconds[component] = self.modeled_seconds.get(component, 0.0) + seconds

    def charge_startup(self, count: int = 1) -> None:
        self.charge(STARTUP, count * self.model.simulator_startup_seconds)

    def charge_simulation(self, instructions: int) -> None:
        self.charge(SIMULATE, instructions * self.model.simulate_per_instruction_seconds)

    def charge_trace_extraction(self, count: int = 1) -> None:
        self.charge(TRACE_EXTRACTION, count * self.model.trace_extraction_seconds)

    def charge_test_generation(self, count: int = 1) -> None:
        self.charge(TEST_GENERATION, count * self.model.test_generation_seconds)

    def charge_contract_traces(self, count: int = 1) -> None:
        self.charge(CONTRACT_TRACES, count * self.model.contract_trace_per_input_seconds)

    def charge_other(self, programs: int = 1) -> None:
        self.charge(OTHERS, programs * self.model.other_per_program_seconds)

    # -- scheduler skips ------------------------------------------------------
    def record_skips(self, counts: Dict[str, int]) -> None:
        for reason, count in counts.items():
            self.skipped_test_cases[reason] = (
                self.skipped_test_cases.get(reason, 0) + count
            )

    def total_skipped(self) -> int:
        return sum(self.skipped_test_cases.values())

    # -- wall clock ---------------------------------------------------------------
    def add_wall_clock(self, component: str, seconds: float) -> None:
        self.wall_clock_seconds[component] = (
            self.wall_clock_seconds.get(component, 0.0) + seconds
        )

    # -- reporting ------------------------------------------------------------------
    def total_modeled(self) -> float:
        return sum(self.modeled_seconds.values())

    def total_wall_clock(self) -> float:
        return sum(self.wall_clock_seconds.values())

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-component modeled seconds and percentage of the total."""
        total = self.total_modeled() or 1.0
        return {
            component: {
                "seconds": self.modeled_seconds.get(component, 0.0),
                "percent": 100.0 * self.modeled_seconds.get(component, 0.0) / total,
            }
            for component in TABLE2_COMPONENTS
        }

    def merge(self, other: "ModeledTime") -> None:
        for component, seconds in other.modeled_seconds.items():
            self.charge(component, seconds)
        for component, seconds in other.wall_clock_seconds.items():
            self.add_wall_clock(component, seconds)
        self.record_skips(other.skipped_test_cases)
