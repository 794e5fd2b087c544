"""Relational violation detection (Definition 2.1).

Entries of a test case are partitioned into contract-equivalence classes
(identical contract traces).  Inside each class every pair of entries should
have identical micro-architectural traces; if the class contains more than
one distinct trace, the CPU leaks information the contract does not allow,
and a :class:`~repro.core.violation.Violation` is reported for the class.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.testcase import TestCase, TestCaseEntry, group_by_contract_trace
from repro.core.violation import Violation
from repro.executor.traces import UarchTrace
from repro.model.emulator import ContractTrace

__all__ = ["ViolationDetector", "group_by_contract_trace"]


class ViolationDetector:
    """Compares contract and micro-architectural traces to find violations."""

    def __init__(self, defense: str, contract: str) -> None:
        self.defense = defense
        self.contract = contract

    def detect(
        self,
        test_case: TestCase,
        classes: Optional[Dict[ContractTrace, List[TestCaseEntry]]] = None,
    ) -> List[Violation]:
        """Return one violation per contract-equivalence class that leaks.

        ``classes`` optionally reuses a partition computed earlier (the
        execution scheduler partitions the same entries before simulating),
        saving a second hash-and-group pass over every contract trace.
        """
        if classes is None:
            classes = group_by_contract_trace(test_case.entries)
        violations: List[Violation] = []
        for contract_trace, entries in classes.items():
            executed = [entry for entry in entries if entry.uarch_trace is not None]
            if len(executed) < 2:
                continue
            by_trace: Dict[UarchTrace, List[TestCaseEntry]] = {}
            for entry in executed:
                by_trace.setdefault(entry.uarch_trace, []).append(entry)
            if len(by_trace) < 2:
                continue
            # Pick representatives from the two largest trace groups so the
            # reported pair is the most reproducible witness of the leak.
            groups = sorted(by_trace.values(), key=len, reverse=True)
            witness_a, witness_b = groups[0][0], groups[1][0]
            violation = Violation(
                program=test_case.program,
                defense=self.defense,
                contract=self.contract,
                input_a=witness_a.test_input,
                input_b=witness_b.test_input,
                trace_a=witness_a.uarch_trace,
                trace_b=witness_b.uarch_trace,
                contract_trace=contract_trace,
                # Only entries outside the largest (majority, agreeing) trace
                # group disagree; counting the majority too would report every
                # executed input of the class as "violating".
                violating_input_count=sum(len(group) for group in groups[1:]),
                differing_components=witness_a.uarch_trace.differing_components(
                    witness_b.uarch_trace
                ),
                # The predictor states the witnesses started from, which
                # validation re-runs them from.
                uarch_context=(
                    witness_a.record.uarch_context
                    if witness_a.record is not None
                    else None
                ),
                uarch_context_b=(
                    witness_b.record.uarch_context
                    if witness_b.record is not None
                    else None
                ),
            )
            violations.append(violation)
        return violations
