"""Contract-class-aware execution scheduling.

Definition 2.1 only flags a violation when two entries *share* a contract
trace but differ micro-architecturally, yet the naive round pipeline pays
the dominant cost — the O3 simulation — for every entry, including ones
that can never witness a violation.  The scheduler partitions a test case
into contract-equivalence classes *before* anything is simulated and plans
which entries are worth executing:

``none``
    Execute everything (the seed behavior; the default).

``singleton``
    Skip entries whose contract-equivalence class has a single member: the
    detector discards those classes unexamined (``len(executed) < 2``), so
    their simulation can never contribute a violation.  On boosted
    workloads singletons only appear when taint tracking under-approximates
    (a boosted variant's trace diverges from its base); on unboosted /
    wide-exploration workloads almost every entry is a singleton and the
    filter removes the bulk of the simulator work.

``speculation``
    Additionally skip whole classes whose functional runs show no leak
    potential: no conditional branch executed (direct jumps never
    mispredict in this model, so there is no wrong-path fetch) and no
    memory access — load or store — with a tainted (input-dependent)
    address (every entry of the class then touches the same cache lines).
    The profile comes for free from the contract-trace collection pass
    (:class:`~repro.model.emulator.SpeculationProfile`).

Fidelity caveat: in Opt mode the executor deliberately carries predictor
state across the inputs of a program, so skipping an entry removes the
predictor training its run would have performed and entries executed
*after* it can, in principle, observe a different starting context.  In
Naive mode every input gets a fresh simulator and filtering is exactly
trace-preserving.  Detection results are robust either way because
violations are re-validated from shared contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Union

from repro.core.testcase import TestCase, TestCaseEntry
from repro.model.emulator import ContractTrace

#: Skip-counter keys (also used as ``TestCaseEntry.skip_reason`` values).
SKIP_SINGLETON = "singleton"
SKIP_SPECULATION = "speculation"


class FilterLevel(str, Enum):
    """How aggressively the scheduler prunes non-witnessable entries."""

    NONE = "none"
    SINGLETON = "singleton"
    SPECULATION = "speculation"


@dataclass
class ExecutionPlan:
    """Which entries of a test case the executor should actually simulate.

    ``executable`` preserves the original input order, so in Opt mode the
    executed entries see the same relative predictor-state evolution as an
    unfiltered run (modulo the skipped entries' training, see the module
    docstring).
    """

    test_case: TestCase
    level: FilterLevel
    #: Entries to simulate, in original input order.
    executable: List[TestCaseEntry] = field(default_factory=list)
    #: Entries not worth simulating, with the reason recorded on each.
    skipped: List[TestCaseEntry] = field(default_factory=list)
    #: The contract-equivalence partition the plan was derived from.
    classes: Dict[ContractTrace, List[TestCaseEntry]] = field(default_factory=dict)

    @property
    def generated(self) -> int:
        return len(self.test_case.entries)

    @property
    def executed(self) -> int:
        return len(self.executable)

    def skip_counts(self) -> Dict[str, int]:
        """Skipped entries per reason (empty dict when nothing was skipped)."""
        counts: Dict[str, int] = {}
        for entry in self.skipped:
            counts[entry.skip_reason] = counts.get(entry.skip_reason, 0) + 1
        return counts


class ExecutionScheduler:
    """Plans which test-case entries can witness a violation and are worth
    paying an O3 simulation for."""

    def __init__(self, level: Union[FilterLevel, str] = FilterLevel.NONE) -> None:
        self.level = FilterLevel(level)

    def plan(self, test_case: TestCase) -> ExecutionPlan:
        """Partition ``test_case`` into contract classes and plan execution."""
        classes = test_case.contract_classes()
        plan = ExecutionPlan(test_case=test_case, level=self.level, classes=classes)
        if self.level is FilterLevel.NONE:
            plan.executable = list(test_case.entries)
            return plan

        skip_reasons: Dict[int, str] = {}
        for entries in classes.values():
            if self.level is FilterLevel.SPECULATION and self._class_is_inert(entries):
                for entry in entries:
                    skip_reasons[entry.index] = SKIP_SPECULATION
            elif len(entries) < 2:
                skip_reasons[entries[0].index] = SKIP_SINGLETON

        for entry in test_case.entries:
            reason = skip_reasons.get(entry.index)
            if reason is None:
                plan.executable.append(entry)
            else:
                entry.skip_reason = reason
                plan.skipped.append(entry)
        return plan

    @staticmethod
    def _class_is_inert(entries: List[TestCaseEntry]) -> bool:
        """True when no entry of the class can leak input-dependent state.

        Requires a :class:`~repro.model.emulator.SpeculationProfile` on every
        entry; entries without one (e.g. hand-built test cases) are treated
        as witnessable, so the filter degrades to ``singleton`` behavior.
        """
        return all(
            entry.speculation is not None and not entry.speculation.witnessable
            for entry in entries
        )


def plan_summary(plan: ExecutionPlan) -> Dict[str, object]:
    """Small JSON-friendly description of a plan (benchmarks, debugging)."""
    class_sizes: Dict[int, int] = {}
    for entries in plan.classes.values():
        class_sizes[len(entries)] = class_sizes.get(len(entries), 0) + 1
    return {
        "filter": plan.level.value,
        "generated": plan.generated,
        "executed": plan.executed,
        "skipped": plan.skip_counts(),
        "classes": len(plan.classes),
        "class_sizes": dict(sorted(class_sizes.items())),
    }
