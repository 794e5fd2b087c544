"""Runner for litmus cases: the relational check for one directed pair.

The runner performs exactly the paper's validated comparison: it verifies
that the two inputs are contract-equivalent on the leakage model, then runs
both on the simulator *from the same initial micro-architectural context*
and compares their traces.  A difference is a (validated) contract violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.defenses.base import Defense
from repro.defenses.registry import create_defense
from repro.executor.executor import SimulatorExecutor
from repro.executor.traces import UarchTrace
from repro.litmus.cases import LitmusCase
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator


@dataclass
class LitmusOutcome:
    """Result of running one litmus case."""

    case: LitmusCase
    patched: bool
    contract_traces_equal: bool
    violation: bool
    trace_a: Optional[UarchTrace] = None
    trace_b: Optional[UarchTrace] = None
    differing_components: Tuple[str, ...] = ()
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def matches_expectation(self) -> bool:
        expected = (
            self.case.expect_violation_patched
            if self.patched
            else self.case.expect_violation
        )
        if expected is None:
            return True
        return self.violation == expected

    def summary(self) -> str:
        status = "VIOLATION" if self.violation else "no violation"
        variant = "patched" if self.patched else "original"
        ok = "as expected" if self.matches_expectation else "UNEXPECTED"
        return (
            f"{self.case.name} [{self.case.vulnerability}] on {self.case.defense} "
            f"({variant}): {status} ({ok})"
        )


def run_case(
    case: LitmusCase,
    patched: bool = False,
    bugs=None,
    defense: Optional[str] = None,
    defense_factory: Optional[Callable[[], Defense]] = None,
) -> LitmusOutcome:
    """Run a litmus case against its defense (original or patched variant).

    ``defense`` overrides the case's own defense name: conformance harnesses
    use it to replay a borrowed case against a different (e.g. plugin)
    defense.  Expectations recorded on the case apply to the case's own
    defense; callers overriding it must supply their own (see
    :class:`~repro.defenses.spec.LitmusTag`).  ``defense_factory`` replaces
    the registry lookup altogether (``patched``, ``bugs`` and ``defense``
    are then ignored).
    """
    defense_name = defense or case.defense
    if defense_factory is None:
        def defense_factory() -> Defense:
            return create_defense(defense_name, patched=patched, bugs=bugs)
    sandbox = case.sandbox()
    program, input_a, input_b = case.build()

    # 1. The pair must be contract-equivalent, otherwise a trace difference
    #    would not constitute a violation (Definition 2.1).
    contract = get_contract(case.contract)
    emulator = Emulator(program, sandbox)
    contract_a = emulator.contract_trace(input_a, contract)
    contract_b = emulator.contract_trace(input_b, contract)
    contract_equal = contract_a == contract_b

    # 2. Run both inputs on the simulator from the same starting context.
    executor = SimulatorExecutor(
        defense_factory=defense_factory,
        uarch_config=case.uarch_config,
        sandbox=sandbox,
        trace_config=case.trace_config,
        prime_strategy=case.prime_strategy,
    )
    executor.load_program(program)
    record_a = executor.run_input(input_a)
    record_b = executor.run_input(input_b, uarch_context=record_a.uarch_context)

    violation = contract_equal and record_a.trace != record_b.trace
    return LitmusOutcome(
        case=case,
        patched=patched,
        contract_traces_equal=contract_equal,
        violation=violation,
        trace_a=record_a.trace,
        trace_b=record_b.trace,
        differing_components=record_a.trace.differing_components(record_b.trace),
        stats={
            "input_a": record_a.result.stats.as_dict(),
            "input_b": record_b.result.stats.as_dict(),
        },
    )
