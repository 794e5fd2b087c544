"""Test-case minimization: shrink a violating witness for root-cause analysis.

The paper's root-cause workflow is manual; in practice (and in Revizor) the
first step is always to shrink the witness.  :func:`minimize_violation` runs
two budgeted passes:

* a **program pass** that repeatedly removes instructions and keeps the
  removal if the violation (same input pair, same contract) still reproduces,
  yielding a minimal gadget like the snippets in Figures 4, 6, 8 and 9; and
* an **input-pair pass** that copies input A's value into input B one
  differing location (register / 8-byte sandbox granule) at a time, keeping
  the copy whenever the shrunk pair still witnesses the leak — the locations
  that cannot be equalised are the ones actually carrying the secret.

Both passes charge a shared :class:`MinimizationBudget` (candidate count and
optional wall-clock timeout), so triaging a large campaign stays bounded.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from itertools import compress, repeat
from operator import ne
from typing import Callable, List, Optional, Tuple

from repro.core.violation import Violation
from repro.executor.executor import SimulatorExecutor
from repro.generator.inputs import MEMORY_GRANULE, Input
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import PAGE_SHIFT, PAGE_SIZE
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator


@dataclass(frozen=True)
class MinimizationBudget:
    """Bounds on the greedy search.

    ``max_candidates`` is the deterministic knob (the same candidate sequence
    is explored regardless of machine speed); ``max_seconds`` is a hard
    wall-clock stop for interactive use.  Leave ``max_seconds`` at ``None``
    when minimized output must be reproducible across backends/machines.
    """

    max_passes: int = 3
    max_candidates: Optional[int] = 512
    max_seconds: Optional[float] = None


@dataclass
class MinimizationResult:
    """Outcome of :func:`minimize_violation`."""

    program: Program
    input_a: Input
    input_b: Input
    original_instruction_count: int
    removed_instructions: int
    #: Differing input locations (registers / memory granules) equalised by
    #: the input-pair pass.
    shrunk_locations: int
    #: Differing input locations remaining after the pass.
    remaining_locations: int
    candidates_tried: int
    seconds: float
    budget_exhausted: bool


class _BudgetTracker:
    """Shared candidate/time accounting across the minimization passes."""

    def __init__(self, budget: MinimizationBudget) -> None:
        self.budget = budget
        self.started = time.perf_counter()
        self.candidates_tried = 0
        self.exhausted = False

    def charge(self) -> bool:
        """Account for one candidate check; False once the budget is spent."""
        if self.exhausted:
            return False
        if (
            self.budget.max_candidates is not None
            and self.candidates_tried >= self.budget.max_candidates
        ):
            self.exhausted = True
            return False
        if (
            self.budget.max_seconds is not None
            and time.perf_counter() - self.started >= self.budget.max_seconds
        ):
            self.exhausted = True
            return False
        self.candidates_tried += 1
        return True

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self.started


def _rebuild_without(program: Program, skip_uid: int) -> Optional[Program]:
    """Build a copy of ``program`` with one instruction removed."""
    new_blocks: List[BasicBlock] = []
    removed = False
    for block in program.blocks:
        kept = []
        for instruction in block.instructions:
            if instruction.uid == skip_uid:
                removed = True
                continue
            kept.append(copy.copy(instruction))
        terminator = copy.copy(block.terminator) if block.terminator is not None else None
        new_blocks.append(BasicBlock(block.name, kept, terminator))
    if not removed:
        return None
    try:
        return Program(new_blocks, code_base=program.code_base, name=program.name + "_min")
    except (ValueError, TypeError):
        return None


def differing_locations(input_a: Input, input_b: Input) -> List[Tuple[str, object]]:
    """Input locations (registers / granules) where the two witnesses differ.

    Public: the feedback subsystem's input-pair mutation operator
    (:mod:`repro.feedback.mutate`) walks the same location space.  Memory
    is compared page by page; equal pages are skipped, and pages derived
    only for this walk are not kept on the inputs.
    """
    locations: List[Tuple[str, object]] = []
    registers_a = input_a.register_dict()
    for name, value_b in input_b.registers:
        if registers_a.get(name) != value_b:
            locations.append(("reg", name))
    limit = min(input_a.size, input_b.size)
    for start in range(0, limit, PAGE_SIZE):
        page_a = input_a.page(start >> PAGE_SHIFT, cache=False)
        page_b = input_b.page(start >> PAGE_SHIFT, cache=False)
        if page_a == page_b:
            continue
        # Granules compared as 8-byte words, offsets picked where they differ.
        words = -(-min(PAGE_SIZE, limit - start) // MEMORY_GRANULE)
        differs = map(
            ne, memoryview(page_a).cast("Q")[:words], memoryview(page_b).cast("Q")[:words]
        )
        offsets = range(start, start + PAGE_SIZE, MEMORY_GRANULE)
        locations.extend(zip(repeat("mem"), compress(offsets, differs)))
    return locations


def copy_location(input_a: Input, input_b: Input, location: Tuple[str, object]) -> Input:
    """Input B with input A's value at ``location``."""
    kind, key = location
    if kind == "reg":
        registers = input_b.register_dict()
        registers[key] = input_a.register_dict()[key]
        return input_b.with_registers(registers)
    return input_b.with_overrides({key: input_a.read(key, MEMORY_GRANULE)})


def minimize_violation(
    violation: Violation,
    executor_factory: Optional[Callable[[], SimulatorExecutor]] = None,
    budget: Optional[MinimizationBudget] = None,
    shrink_inputs: bool = True,
) -> MinimizationResult:
    """Shrink the witness program, then the witness input pair.

    ``executor_factory`` defaults to rebuilding from the violation's recorded
    provenance (defense + ``patched`` flag + uarch config + sandbox +
    priming), so the candidate re-runs happen under exactly the
    configuration the violation was found under.
    """
    if executor_factory is None:
        executor_factory = violation.build_executor
    budget = budget or MinimizationBudget()
    tracker = _BudgetTracker(budget)
    executor = executor_factory()
    contract = get_contract(violation.contract)
    input_a, input_b = violation.input_a, violation.input_b

    def reproduces(program: Program, candidate_b: Input) -> bool:
        """Definition 2.1 on a candidate: equal contract traces, and the
        witness re-run (see :meth:`Violation.rerun`) still diverges."""
        emulator = Emulator(program, executor.sandbox)
        if emulator.contract_trace(input_a, contract) != emulator.contract_trace(
            candidate_b, contract
        ):
            return False
        return violation.rerun(executor, program, input_a, candidate_b).diverges

    # -- program pass: greedy instruction removal -----------------------------
    current = violation.program
    original_count = len(current)
    for _ in range(budget.max_passes):
        removed_any = False
        for instruction in list(current.linear_instructions()):
            if instruction.is_branch or instruction.is_exit:
                continue
            candidate = _rebuild_without(current, instruction.uid)
            if candidate is None:
                continue
            if not tracker.charge():
                break
            if reproduces(candidate, input_b):
                current = candidate
                removed_any = True
        if not removed_any or tracker.exhausted:
            break

    # -- input-pair pass: equalise differing locations one at a time ----------
    shrunk = 0
    if shrink_inputs:
        for location in differing_locations(input_a, input_b):
            if not tracker.charge():
                break
            candidate_b = copy_location(input_a, input_b, location)
            if reproduces(current, candidate_b):
                input_b = candidate_b
                shrunk += 1

    return MinimizationResult(
        program=current,
        input_a=input_a,
        input_b=input_b,
        original_instruction_count=original_count,
        removed_instructions=original_count - len(current),
        shrunk_locations=shrunk,
        remaining_locations=len(differing_locations(input_a, input_b)),
        candidates_tried=tracker.candidates_tried,
        seconds=tracker.seconds,
        budget_exhausted=tracker.exhausted,
    )

