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
can print a Table-2-style breakdown.  :class:`Tally` keeps those modeled
charges next to the instance's event counts and measured wall-clock phases.
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
class Tally:
    """One instance's accounting ledger, mergeable across instances.

    * ``counts`` — events: ``simulator_starts``, ``simulations`` (every O3
      run, validation re-runs included), ``skipped.<reason>`` (test cases
      the execution scheduler did not simulate), the per-program build
      counters, ``fault.<reason>`` (supervised-execution faults) and
      ``boost.trace_mismatch`` (candidate violations dropped because a
      boosted witness did not emulate to the contract trace it inherited
      from its base).  Zero counts are never stored.  The build counters are
      ``steps.cache_misses``, the step tables built (one per program, on
      its first emulation), and ``steps.cache_hits``, every further
      emulator or O3 core that found a program's steps built.
    * ``seconds`` — wall-clock seconds per round phase.  Only
      :meth:`AmuletFuzzer.run_round <repro.core.fuzzer.AmuletFuzzer.run_round>`
      reads the clock, and its phases never overlap, so they sum to at most
      the instance's wall clock.  ``compile`` holds the step-table builds,
      carved out of the ``emulate`` phase they happen in.
    * ``modeled`` — modeled gem5-equivalent seconds per Table 2 component,
      charged through :class:`TimeModel`.
    """

    model: TimeModel = field(default_factory=TimeModel)
    counts: Dict[str, int] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    modeled: Dict[str, float] = field(default_factory=dict)

    def count(self, name: str, value: int = 1) -> None:
        if value:
            self.counts[name] = self.counts.get(name, 0) + value

    def counts_under(self, prefix: str) -> Dict[str, int]:
        """The ``<prefix>.<key>`` counts, keyed by ``<key>``."""
        head = prefix + "."
        return {
            name[len(head):]: value
            for name, value in self.counts.items()
            if name.startswith(head)
        }

    def add_seconds(self, phase: str, seconds: float) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds

    # -- modeled charges -----------------------------------------------------
    def charge(self, component: str, seconds: float) -> None:
        self.modeled[component] = self.modeled.get(component, 0.0) + seconds

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

    # -- reporting ------------------------------------------------------------------
    def total_modeled(self) -> float:
        return sum(self.modeled.values())

    def breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-component modeled seconds and percentage of the total."""
        total = self.total_modeled() or 1.0
        return {
            component: {
                "seconds": self.modeled.get(component, 0.0),
                "percent": 100.0 * self.modeled.get(component, 0.0) / total,
            }
            for component in TABLE2_COMPONENTS
        }

    def merge(self, other: "Tally") -> None:
        for name, value in other.counts.items():
            self.count(name, value)
        for phase, seconds in other.seconds.items():
            self.add_seconds(phase, seconds)
        for component, seconds in other.modeled.items():
            self.charge(component, seconds)
