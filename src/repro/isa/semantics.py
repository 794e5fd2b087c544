"""Shared execution semantics for the reproduction ISA.

Both the functional emulator (the leakage model) and the out-of-order
simulator (the executor substrate) execute instructions through one fused
step per static instruction (:mod:`repro.model.steps`), built from the ALU
functions and condition predicates of this module.  Keeping the semantics
in exactly one place guarantees that the two sides can never disagree
architecturally; any relational-test difference therefore has to originate
in the micro-architecture, which is the property model-based relational
testing relies on.

Generic :func:`evaluate`, which returns an :class:`ExecutionEffect`, is not
on either hot path: it is the reference the test suite holds the steps to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import ArchState, MASK64

ReadRegister = Callable[[str], int]
ReadMemory = Callable[[int, int], int]

#: ALU opcodes that leave the carry flag untouched (x86 INC/DEC behaviour).
_PRESERVES_CARRY = (Opcode.INC, Opcode.DEC)


def _width_mask(size: int) -> int:
    return (1 << (8 * size)) - 1


#: One predicate per condition code, taking the five flags positionally.
#: :class:`~repro.isa.decoded.DecodedInstruction` binds the predicate once at
#: decode time so the hot path never rebuilds a lookup table per evaluation.
CONDITION_PREDICATES: Dict[str, Callable[[bool, bool, bool, bool, bool], bool]] = {
    "z": lambda zf, sf, cf, of, pf: zf,
    "nz": lambda zf, sf, cf, of, pf: not zf,
    "s": lambda zf, sf, cf, of, pf: sf,
    "ns": lambda zf, sf, cf, of, pf: not sf,
    "o": lambda zf, sf, cf, of, pf: of,
    "no": lambda zf, sf, cf, of, pf: not of,
    "l": lambda zf, sf, cf, of, pf: sf != of,
    "ge": lambda zf, sf, cf, of, pf: sf == of,
    "le": lambda zf, sf, cf, of, pf: zf or (sf != of),
    "g": lambda zf, sf, cf, of, pf: (not zf) and (sf == of),
    "b": lambda zf, sf, cf, of, pf: cf,
    "nb": lambda zf, sf, cf, of, pf: not cf,
    "be": lambda zf, sf, cf, of, pf: cf or zf,
    "a": lambda zf, sf, cf, of, pf: (not cf) and (not zf),
    "p": lambda zf, sf, cf, of, pf: pf,
    "np": lambda zf, sf, cf, of, pf: not pf,
}


def condition_predicate(condition: str) -> Callable[[bool, bool, bool, bool, bool], bool]:
    """Resolve a condition code to its flag predicate once."""
    try:
        return CONDITION_PREDICATES[condition]
    except KeyError:
        raise ValueError(f"unknown condition code: {condition}") from None


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


#: The five flags in :data:`~repro.isa.registers.FLAG_NAMES` order.
FlagTuple = Tuple[bool, bool, bool, bool, bool]

#: ``fn(a, b, carry_in) -> (result, flags)`` for one ALU opcode at one width:
#: ``a``/``b`` already masked to the width, ``flags`` None when the operation
#: leaves every flag untouched (NOT, zero-count shifts).
AluFunction = Callable[[int, int, bool], Tuple[int, Optional[FlagTuple]]]

#: Even parity of every byte value (x86 PF looks at the low byte only).
_PARITY = tuple(value.bit_count() % 2 == 0 for value in range(256))


def _alu_functions(size: int) -> Dict[Opcode, AluFunction]:
    """The per-opcode ALU functions for one operand width."""
    mask = _width_mask(size)
    top = 1 << (8 * size - 1)  # the sign bit
    bits = 8 * size

    def add(a: int, b: int, carry_in: bool):
        raw = a + b
        result = raw & mask
        negative = result >= top
        sign_a = a >= top
        overflow = sign_a == (b >= top) and negative != sign_a
        return result, (result == 0, negative, raw > mask, overflow, _PARITY[result & 0xFF])

    def sub(a: int, b: int, carry_in: bool):
        result = (a - b) & mask
        negative = result >= top
        sign_a = a >= top
        overflow = sign_a != (b >= top) and negative != sign_a
        return result, (result == 0, negative, a < b, overflow, _PARITY[result & 0xFF])

    def logical(operation: Callable[[int, int], int]) -> AluFunction:
        def apply(a: int, b: int, carry_in: bool):
            result = operation(a, b)
            return result, (result == 0, result >= top, False, False, _PARITY[result & 0xFF])
        return apply

    # INC/DEC preserve the carry flag (x86 behaviour).
    def inc(a: int, b: int, carry_in: bool):
        result = (a + 1) & mask
        return result, (result == 0, result >= top, carry_in, result == top, _PARITY[result & 0xFF])

    def dec(a: int, b: int, carry_in: bool):
        result = (a - 1) & mask
        return result, (result == 0, result >= top, carry_in, a == top, _PARITY[result & 0xFF])

    def neg(a: int, b: int, carry_in: bool):
        result = (-a) & mask
        return result, (result == 0, result >= top, a != 0, a == top, _PARITY[result & 0xFF])

    # NOT does not modify flags on x86.
    def not_(a: int, b: int, carry_in: bool):
        return (~a) & mask, None

    # A zero shift count leaves every flag untouched.
    def shl(a: int, b: int, carry_in: bool):
        amount = b & 0x3F
        if amount == 0:
            return a, None
        shifted = a << amount
        result = shifted & mask
        carry = bool((shifted >> bits) & 1)
        return result, (result == 0, result >= top, carry, False, _PARITY[result & 0xFF])

    def shr(a: int, b: int, carry_in: bool):
        amount = b & 0x3F
        if amount == 0:
            return a, None
        carry = bool((a >> (amount - 1)) & 1) if amount <= bits else False
        result = (a >> amount) & mask
        return result, (result == 0, result >= top, carry, False, _PARITY[result & 0xFF])

    bitwise_and = logical(lambda a, b: a & b)
    return {
        Opcode.ADD: add,
        Opcode.SUB: sub,
        Opcode.CMP: sub,
        Opcode.AND: bitwise_and,
        Opcode.TEST: bitwise_and,
        Opcode.OR: logical(lambda a, b: a | b),
        Opcode.XOR: logical(lambda a, b: a ^ b),
        Opcode.INC: inc,
        Opcode.DEC: dec,
        Opcode.NEG: neg,
        Opcode.NOT: not_,
        Opcode.SHL: shl,
        Opcode.SHR: shr,
    }


_ALU_FUNCTIONS: Dict[int, Dict[Opcode, AluFunction]] = {
    size: _alu_functions(size) for size in (1, 2, 4, 8)
}


def alu_function(opcode: Opcode, size: int = 8) -> AluFunction:
    """The ALU function of ``opcode`` at ``size`` bytes (see :data:`AluFunction`).

    These functions are the one definition of ALU results and flags; the
    interpreters bind them once per static instruction.
    """
    try:
        return _ALU_FUNCTIONS[size][opcode]
    except KeyError:
        raise ValueError(f"no ALU function for {opcode} at {size} bytes") from None


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
