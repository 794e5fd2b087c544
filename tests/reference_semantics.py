"""Generic reference semantics: the test suite's oracle for the fused steps.

The product executes every instruction through the fused steps of
:mod:`repro.model.steps`, built from the ALU functions and condition
predicates of :mod:`repro.isa.semantics`.  :func:`evaluate` computes the
same architectural effect the slow, generic way, returning an
:class:`ExecutionEffect` (register, flag and memory writes, branch outcome)
that the caller applies; ``tests/reference_emulator.py`` and the step
equivalence tests hold the steps to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import ArchState, MASK64
from repro.isa.semantics import FlagTuple, _width_mask, alu_function, condition_predicate

ReadRegister = Callable[[str], int]
ReadMemory = Callable[[int, int], int]

#: ALU opcodes that leave the carry flag untouched (x86 INC/DEC behaviour).
_PRESERVES_CARRY = (Opcode.INC, Opcode.DEC)


def condition_holds(condition: str, flags: Dict[str, bool]) -> bool:
    """Evaluate an x86-style condition code against a flags dictionary."""
    predicate = condition_predicate(condition)
    return bool(
        predicate(
            flags.get("zf", False),
            flags.get("sf", False),
            flags.get("cf", False),
            flags.get("of", False),
            flags.get("pf", False),
        )
    )


def flag_dict(flags: FlagTuple) -> Dict[str, bool]:
    """A flag tuple as the name -> value mapping effects carry."""
    zf, sf, cf, of, pf = flags
    return {"zf": zf, "sf": sf, "cf": cf, "of": of, "pf": pf}


def alu_compute(
    opcode: Opcode,
    a: int,
    b: int,
    size: int = 8,
    carry_in: bool = False,
) -> Tuple[int, Dict[str, bool]]:
    """Compute the result and flags of an ALU operation.

    ``a`` is the destination/first operand and ``b`` the source/second
    operand; both are masked to the operation width here.  ``carry_in`` is
    the current carry flag, needed only because INC/DEC preserve it.  The
    flags come back as a dict, empty when the operation leaves them
    untouched; :func:`alu_function` is the tuple-returning form.
    """
    mask = _width_mask(size)
    result, flags = alu_function(opcode, size)(a & mask, b & mask, bool(carry_in))
    return result, {} if flags is None else flag_dict(flags)


def compute_effective_address(
    memory_operand: MemoryOperand, read_register: ReadRegister
) -> int:
    """Resolve a memory operand's effective address."""
    address = read_register(memory_operand.base) + memory_operand.displacement
    if memory_operand.index is not None:
        address += read_register(memory_operand.index)
    return address & MASK64


@dataclass
class ExecutionEffect:
    """The architectural effect of executing one instruction.

    Produced by :func:`evaluate`.  The caller decides how to apply it: the
    functional emulator applies it directly to an :class:`ArchState`, while
    the out-of-order core records it in the corresponding ROB entry and
    defers the memory write until commit.
    """

    register_writes: Dict[str, int] = field(default_factory=dict)
    flag_writes: Dict[str, bool] = field(default_factory=dict)
    memory_read: Optional[Tuple[int, int]] = None  # (address, size)
    memory_read_value: Optional[int] = None
    memory_write: Optional[Tuple[int, int, int]] = None  # (address, size, value)
    branch_taken: Optional[bool] = None
    next_pc: Optional[int] = None


def _read_operand(
    operand,
    size: int,
    read_register: ReadRegister,
    read_memory: ReadMemory,
    address: Optional[int],
) -> int:
    mask = _width_mask(size)
    if isinstance(operand, Register):
        return read_register(operand.name) & mask
    if isinstance(operand, Immediate):
        return operand.value & mask
    if isinstance(operand, MemoryOperand):
        assert address is not None
        return read_memory(address, operand.size) & mask
    raise TypeError(f"cannot read operand {operand!r}")


def evaluate(
    instruction: Instruction,
    read_register: ReadRegister,
    flags: Dict[str, bool],
    read_memory: ReadMemory,
) -> ExecutionEffect:
    """Compute the architectural effect of ``instruction``.

    The caller provides the view of registers, flags and memory the
    instruction should execute against; this is what lets the out-of-order
    core route memory reads through its load/store queue (forwarding,
    speculative bypass) while still using the same semantics.  ``flags`` is
    anything with a mapping-style ``get`` — a plain dict or a
    :class:`~repro.isa.registers.FlagsState` (which avoids the per-step
    ``as_dict`` allocation on the hot path).
    """
    effect = ExecutionEffect()
    opcode = instruction.opcode

    if opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
        effect.next_pc = instruction.fallthrough_pc
        return effect

    if opcode is Opcode.JMP:
        effect.branch_taken = True
        effect.next_pc = instruction.target_pc
        return effect

    if opcode is Opcode.JCC:
        taken = condition_holds(instruction.condition, flags)
        effect.branch_taken = taken
        effect.next_pc = instruction.target_pc if taken else instruction.fallthrough_pc
        return effect

    memory_operand = instruction.memory_operand
    address: Optional[int] = None
    if memory_operand is not None:
        address = compute_effective_address(memory_operand, read_register)

    size = memory_operand.size if memory_operand is not None else 8
    mask = _width_mask(size)

    if opcode is Opcode.MOV:
        dest, src = instruction.operands
        value = _read_operand(src, size, read_register, read_memory, address)
        if isinstance(src, MemoryOperand):
            effect.memory_read = (address, size)
            effect.memory_read_value = value
        if isinstance(dest, Register):
            effect.register_writes[dest.name] = value & MASK64
        else:
            effect.memory_write = (address, size, value & mask)

    elif opcode is Opcode.CMOV:
        dest, src = instruction.operands
        value = _read_operand(src, size, read_register, read_memory, address)
        if isinstance(src, MemoryOperand):
            effect.memory_read = (address, size)
            effect.memory_read_value = value
        if condition_holds(instruction.condition, flags):
            effect.register_writes[dest.name] = value & MASK64
        else:
            effect.register_writes[dest.name] = read_register(dest.name)

    elif opcode is Opcode.SETCC:
        dest = instruction.operands[0]
        value = 1 if condition_holds(instruction.condition, flags) else 0
        if isinstance(dest, Register):
            effect.register_writes[dest.name] = value
        else:
            effect.memory_write = (address, size, value)

    elif opcode in (Opcode.CMP, Opcode.TEST):
        first, second = instruction.operands
        a = _read_operand(first, size, read_register, read_memory, address)
        b = _read_operand(second, size, read_register, read_memory, address)
        if isinstance(first, MemoryOperand) or isinstance(second, MemoryOperand):
            effect.memory_read = (address, size)
            effect.memory_read_value = (
                a if isinstance(first, MemoryOperand) else b
            )
        _, new_flags = alu_compute(opcode, a, b, size)
        effect.flag_writes = new_flags

    else:
        # Remaining ALU opcodes, possibly with a memory destination (RMW).
        dest = instruction.operands[0]
        if opcode in (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT):
            a = _read_operand(dest, size, read_register, read_memory, address)
            b = 0
        else:
            src = instruction.operands[1]
            a = _read_operand(dest, size, read_register, read_memory, address)
            b = _read_operand(src, size, read_register, read_memory, address)
            if isinstance(src, MemoryOperand):
                effect.memory_read = (address, size)
                effect.memory_read_value = b
        if isinstance(dest, MemoryOperand):
            effect.memory_read = (address, size)
            effect.memory_read_value = a
        result, new_flags = alu_compute(
            opcode, a, b, size, carry_in=flags.get("cf", False)
        )
        if instruction.writes_flags:
            if opcode in _PRESERVES_CARRY and "cf" in new_flags:
                new_flags["cf"] = flags.get("cf", False)
            effect.flag_writes = new_flags
        if isinstance(dest, Register):
            effect.register_writes[dest.name] = result & MASK64
        else:
            effect.memory_write = (address, size, result & mask)

    effect.next_pc = instruction.fallthrough_pc
    return effect


def execute_on_state(instruction: Instruction, state: ArchState) -> ExecutionEffect:
    """Execute ``instruction`` directly against an :class:`ArchState`.

    Returns the effect after applying it (register writes, flag updates and
    memory writes are performed in place).  The reference for one
    architectural step; both interpreters run the steps of
    :mod:`repro.model.steps` instead.
    """
    effect = evaluate(
        instruction,
        state.registers.read,
        state.flags,
        state.read_memory,
    )
    for name, value in effect.register_writes.items():
        state.registers.write(name, value)
    if effect.flag_writes:
        state.flags.update(effect.flag_writes)
    if effect.memory_write is not None:
        address, size, value = effect.memory_write
        state.write_memory(address, size, value)
    return effect
