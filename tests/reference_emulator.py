"""The effect-based contract emulator, kept as the reference for the fused steps.

:class:`ReferenceEmulator` executes every instruction through generic
:func:`reference_semantics.evaluate`, applies the returned
:class:`~reference_semantics.ExecutionEffect` to an
:class:`~repro.isa.registers.ArchState`, derives the taint with a generic
walk over the instruction's source, destination and flag sets
(:meth:`ReferenceEmulator._propagate_taint`), and rolls speculative paths
back with an effect undo log.  It shares nothing with
:mod:`repro.model.steps` but the decoded structure and the semantics module,
so a step that drops a taint source or computes a flag differently makes
the two disagree.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.generator.inputs import Input
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedInstruction, decode_program
from repro.isa.instructions import Instruction, Opcode, exit_instruction, jump
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import ArchState
from repro.model.contracts import Contract
from repro.model.emulator import (
    DEFAULT_INSTRUCTION_LIMIT,
    ContractTrace,
    EmulationError,
    ModelResult,
    SpeculationProfile,
)
from repro.model.taint import TaintState

from reference_semantics import ExecutionEffect, compute_effective_address, evaluate


class _UndoLog:
    """Undo log used to roll back speculative contract execution."""

    def __init__(self, state: ArchState) -> None:
        self.state = state
        self.register_old: List[Tuple[str, int]] = []
        self.flags_old = state.flags.as_tuple()
        self.memory_old: List[Tuple[int, int, int]] = []

    def record_effect(self, effect: ExecutionEffect) -> None:
        for name in effect.register_writes:
            self.register_old.append((name, self.state.registers.read(name)))
        if effect.memory_write is not None:
            address, size, _ = effect.memory_write
            self.memory_old.append((address, size, self.state.read_memory(address, size)))

    def rollback(self) -> None:
        for address, size, value in reversed(self.memory_old):
            self.state.write_memory(address, size, value)
        for name, value in reversed(self.register_old):
            self.state.registers.write(name, value)
        self.state.flags.load_tuple(self.flags_old)


class ReferenceEmulator:
    """The contract emulator as one generic ``evaluate``-apply-taint loop."""

    def __init__(
        self,
        program: Program,
        sandbox: Optional[Sandbox] = None,
        instruction_limit: int = DEFAULT_INSTRUCTION_LIMIT,
    ) -> None:
        self.program = program
        self.decoded = decode_program(program)
        self.sandbox = sandbox or Sandbox()
        self.instruction_limit = instruction_limit

    def run(self, test_input: Input, contract: Contract) -> ModelResult:
        state = ArchState(
            sandbox_base=self.sandbox.base, sandbox_size=self.sandbox.size
        )
        state.load_input(test_input.register_dict(), test_input.memory)
        taint = TaintState(self.sandbox)
        observations: List[Tuple] = []
        executed_pcs: List[int] = []
        accesses: List[Tuple[str, int, int]] = []
        counters = {"architectural": 0, "speculative": 0, "cond_branches": 0,
                    "tainted_accesses": 0}
        pc: Optional[int] = self.decoded.entry_pc
        while pc is not None:
            entry = self.decoded.at_pc(pc)
            if entry is None or entry.is_exit:
                break
            if counters["architectural"] >= self.instruction_limit:
                raise EmulationError(f"program {self.program.name} did not terminate")
            if entry.is_cond_branch:
                counters["cond_branches"] += 1
            self._observe(entry, state, taint, contract, observations, counters)
            if entry.is_memory_access:
                address = compute_effective_address(
                    entry.memory_operand, state.registers.read
                )
                if entry.is_load:
                    accesses.append(("load", pc, address))
                if entry.is_store:
                    accesses.append(("store", pc, address))
            if entry.is_cond_branch and contract.speculate_branches and contract.max_nesting > 0:
                self._explore(entry, state, taint, contract, observations, counters, 1)
            effect = self._execute(entry, state)
            self._propagate_taint(entry, effect, taint)
            executed_pcs.append(pc)
            counters["architectural"] += 1
            pc = effect.next_pc
        return ModelResult(
            trace=ContractTrace(tuple(observations)),
            relevant_labels=taint.relevant_labels(),
            instruction_count=counters["architectural"],
            executed_pcs=tuple(executed_pcs),
            final_registers=state.registers.as_dict(),
            speculative_instruction_count=counters["speculative"],
            architectural_accesses=tuple(accesses),
            speculation=SpeculationProfile(
                cond_branches=counters["cond_branches"],
                tainted_accesses=counters["tainted_accesses"],
            ),
        )

    def _explore(self, entry, state, taint, contract, observations, counters, nesting):
        """Run the mispredicted direction of ``entry``, then roll it back."""
        taken = entry.cond_predicate(
            state.flags.zf, state.flags.sf, state.flags.cf, state.flags.of, state.flags.pf
        )
        undo = _UndoLog(state)
        mark = taint.snapshot()
        pc = entry.fallthrough_pc if taken else entry.target_pc
        executed = 0
        while pc is not None and executed < contract.speculation_window:
            current = self.decoded.at_pc(pc)
            if current is None or current.is_exit or current.is_fence:
                break
            self._observe(current, state, taint, contract, observations, counters)
            if (
                current.is_cond_branch
                and contract.speculate_branches
                and nesting < contract.max_nesting
            ):
                self._explore(
                    current, state, taint, contract, observations, counters, nesting + 1
                )
            effect = evaluate(
                current.instruction, state.registers.read, state.flags, state.read_memory
            )
            undo.record_effect(effect)
            self._apply(effect, state)
            self._propagate_taint(current, effect, taint)
            counters["speculative"] += 1
            executed += 1
            pc = effect.next_pc
        undo.rollback()
        taint.restore(mark)

    def _execute(self, entry: DecodedInstruction, state: ArchState) -> ExecutionEffect:
        effect = evaluate(
            entry.instruction, state.registers.read, state.flags, state.read_memory
        )
        self._apply(effect, state)
        return effect

    @staticmethod
    def _apply(effect: ExecutionEffect, state: ArchState) -> None:
        for name, value in effect.register_writes.items():
            state.registers.write(name, value)
        if effect.flag_writes:
            state.flags.update(effect.flag_writes)
        if effect.memory_write is not None:
            address, size, value = effect.memory_write
            state.write_memory(address, size, value)

    @staticmethod
    def _observe(entry, state, taint, contract, observations, counters) -> None:
        if contract.expose_pc:
            observations.append(("pc", entry.pc))
            if entry.is_cond_branch:
                taint.mark_relevant(taint.flag_taint)
        if entry.is_memory_access:
            address = compute_effective_address(entry.memory_operand, state.registers.read)
            address_taint = taint.registers(entry.address_registers)
            if address_taint:
                counters["tainted_accesses"] += 1
            if contract.expose_memory_address:
                if entry.is_load:
                    observations.append(("load", address))
                if entry.is_store:
                    observations.append(("store", address))
                taint.mark_relevant(address_taint)
            if entry.is_load and contract.expose_load_values:
                observations.append(("val", state.read_memory(address, entry.mem_size)))
                taint.mark_relevant(taint.memory(address, entry.mem_size))
                taint.mark_relevant(address_taint)

    @staticmethod
    def _propagate_taint(
        entry: DecodedInstruction, effect: ExecutionEffect, taint: TaintState
    ) -> None:
        value_taint = taint.registers(entry.source_registers)
        if entry.reads_flags:
            value_taint |= taint.flag_taint
        if effect.memory_read is not None:
            address, size = effect.memory_read
            value_taint |= taint.memory(address, size)
            value_taint |= taint.registers(entry.address_registers)
        destination = entry.destination_register
        if destination is not None:
            taint.set_register(destination, value_taint)
        if entry.writes_flags:
            if entry.partial_flag_writer:
                # INC/DEC preserve the carry and zero-count shifts preserve
                # every flag, so the old flag provenance survives the write.
                taint.set_flags(value_taint | taint.flag_taint)
            else:
                taint.set_flags(value_taint)
        if effect.memory_write is not None:
            address, size, _ = effect.memory_write
            taint.set_memory(address, size, value_taint)


def odd_shapes_program() -> Program:
    """Instruction shapes neither the generator nor the litmus cases emit,
    after a carry check that holds whenever ``rax != rbx``."""
    memory = MemoryOperand(index="rbx", displacement=8, size=2)
    body = [
        # INC/DEC keep the carry of the comparison before them.
        Instruction(Opcode.CMP, (Register("rax"), Register("rbx"))),
        Instruction(Opcode.INC, (Register("rcx"),)),
        Instruction(Opcode.SETCC, (Register("rdx"),), condition="b"),
        Instruction(Opcode.CMP, (Register("rbx"), Register("rax"))),
        Instruction(Opcode.DEC, (Register("rsi"),)),
        Instruction(Opcode.SETCC, (Register("rdi"),), condition="b"),
        Instruction(Opcode.LFENCE),
        Instruction(Opcode.NOP),
        Instruction(Opcode.CMP, (memory, Immediate(3))),
        Instruction(Opcode.SETCC, (memory,), condition="b"),
        Instruction(Opcode.MOV, (memory, Immediate(0x1234))),
        Instruction(Opcode.SHL, (memory, Immediate(1))),
        Instruction(Opcode.INC, (memory,)),
        Instruction(Opcode.CMOV, (Register("rax"), Immediate(7)), condition="nb"),
        Instruction(Opcode.MOV, (Register("r14"), Register("rax"))),
    ]
    return Program(
        [BasicBlock("bb_main.0", body, jump("bb_main.exit")),
         BasicBlock("bb_main.exit", [], exit_instruction())],
        name="odd_shapes",
    )


__all__ = ["ReferenceEmulator", "odd_shapes_program"]
