"""Violation analysis: trace diffs, leak attribution and signatures.

This is the tooling behind the paper's Section 3.3: once a violation is
detected, AMuLeT re-runs the two violating inputs while recording the ordered
list of memory accesses (the equivalent of parsing gem5's debug logs),
produces a side-by-side comparison, identifies the first point of divergence
(usually the mis-speculated transmitter), and derives a *signature* that is
used to filter out further violations with the same root cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.violation import Violation
from repro.executor.executor import SimulatorExecutor
from repro.executor.traces import MEMORY_ACCESS_ORDER_TRACE
from repro.generator.sandbox import Sandbox


@dataclass
class ViolationAnalysis:
    """Side-by-side comparison of the two violating executions."""

    violation: Violation
    accesses_a: Tuple[Tuple[int, int, str], ...] = ()
    accesses_b: Tuple[Tuple[int, int, str], ...] = ()
    #: Index of the first position where the two access sequences diverge.
    first_divergence_index: Optional[int] = None
    #: PC of the instruction responsible for the first divergence.
    leaking_pc: Optional[int] = None
    #: Kind ("load", "store", "spec_load", ...) of the diverging access.
    leaking_kind: Optional[str] = None
    side_by_side: List[Tuple[Optional[Tuple], Optional[Tuple]]] = field(
        default_factory=list
    )

    def summary(self) -> str:
        if self.leaking_pc is None:
            return "no divergence found in the memory access order"
        return (
            f"first divergence at access #{self.first_divergence_index}: "
            f"pc={self.leaking_pc:#x} kind={self.leaking_kind}"
        )


def analyze_violation(
    violation: Violation,
    executor: Optional[SimulatorExecutor] = None,
    sandbox: Optional[Sandbox] = None,
) -> ViolationAnalysis:
    """Re-run the violating pair (:meth:`Violation.rerun`) and locate the
    first diverging memory access.

    ``executor`` may be supplied to reuse an existing executor configuration
    (defense, micro-architecture); otherwise one is rebuilt from the
    violation's recorded provenance — defense *with* its ``patched`` flag,
    the (possibly amplified) :class:`~repro.uarch.config.UarchConfig`, the
    sandbox size and the priming strategy — with the access-order trace
    swapped in.  Rebuilding from the bare defense name is not fidelity-safe:
    it silently reverts patches and amplification, and the re-run can then
    fail to reproduce the violation.
    """
    if executor is None:
        executor = violation.build_executor(
            trace_config=MEMORY_ACCESS_ORDER_TRACE, sandbox=sandbox
        )
    rerun = violation.rerun(executor)
    accesses_a = rerun.trace_a.component("memory_access_order")
    accesses_b = rerun.trace_b.component("memory_access_order")

    analysis = ViolationAnalysis(
        violation=violation, accesses_a=accesses_a, accesses_b=accesses_b
    )
    length = max(len(accesses_a), len(accesses_b))
    for index in range(length):
        left = accesses_a[index] if index < len(accesses_a) else None
        right = accesses_b[index] if index < len(accesses_b) else None
        analysis.side_by_side.append((left, right))
        if left != right and analysis.first_divergence_index is None:
            analysis.first_divergence_index = index
            source = left if left is not None else right
            if source is not None:
                analysis.leaking_pc = source[0]
                analysis.leaking_kind = source[2]
    return analysis


def compute_signature(violation: Violation) -> Tuple:
    """A cheap, stable identifier for "the same kind of leak".

    Two violations with the same signature almost always share a root cause:
    they differ in the same trace components and involve the same leaking
    program locations (relative to the program's code base, so signatures are
    comparable across programs of the same shape).  This mirrors the paper's
    use of debug-log signatures to identify unique violations.
    """
    diff = violation.trace_diff()
    component_fingerprint = []
    for component, payload in sorted(diff.items()):
        only_a = payload["only_in_first"]
        only_b = payload["only_in_second"]
        component_fingerprint.append(
            (component, min(len(only_a), 4), min(len(only_b), 4))
        )
    return (violation.defense, violation.contract, tuple(component_fingerprint))


def render_side_by_side(analysis: ViolationAnalysis, limit: int = 40) -> str:
    """Human-readable side-by-side access comparison (root-cause aid)."""
    lines = [f"{'input A':<36} | {'input B':<36}"]
    lines.append("-" * 75)
    for index, (left, right) in enumerate(analysis.side_by_side[:limit]):
        marker = "  " if left == right else ">>"

        def fmt(access):
            if access is None:
                return "-"
            pc, line_address, kind = access
            return f"{kind:<10} pc={pc:#x} line={line_address:#x}"

        lines.append(f"{marker} {fmt(left):<34} | {fmt(right):<34}")
    return "\n".join(lines)
