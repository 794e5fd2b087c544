"""Per-instruction effect closures for the O3 core: compile evaluate() dispatch away.

:func:`compile_effect` builds, for one
:class:`~repro.isa.decoded.DecodedInstruction`, a closure equivalent to
:func:`repro.isa.semantics.evaluate` with every static question (opcode
dispatch, operand kinds, sizes, masks, the condition predicate) answered at
build time.  The closures are strictly *derived* from
:mod:`repro.isa.semantics`, the single source of architectural truth:
arithmetic and flag semantics are not re-implemented, the closure calls the
pre-bound :func:`semantics.alu_function` and
:data:`semantics.CONDITION_PREDICATES` entries.

A closure returns an :class:`~repro.isa.semantics.ExecutionEffect` instead
of applying it, because the out-of-order core defers an instruction's
effect: it keeps it in the ROB entry and writes memory only at commit.
:func:`attach_effect_closures` fills them in once per decoded program, when
the program first reaches the simulator; they are the only way the core
executes an instruction.  The contract emulator needs no deferral and runs
the fused steps of :mod:`repro.model.steps` instead.  Generic
:func:`~repro.isa.semantics.evaluate` stays as the reference the
equivalence suite compares both against.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

from repro.isa.decoded import DecodedInstruction, DecodedProgram
from repro.isa.instructions import Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import MASK64
from repro.isa.semantics import ExecutionEffect, alu_function, flag_dict

#: Two- and one-operand ALU opcodes, as :func:`compile_effect` and the
#: emulator's steps dispatch them.
ALU_BINARY = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SHL, Opcode.SHR)
ALU_UNARY = (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT)


class SpecializationStats:
    """Process-wide build counters of one per-program table kind.

    ``misses`` counts decoded programs whose table was built, ``hits``
    calls that found it already built, and ``compile_seconds`` the time
    spent building.  :data:`STATS` counts effect closures;
    :data:`repro.model.steps.STATS` counts the emulator's step tables.
    The fuzzer records each round's delta in its ledger.
    """

    __slots__ = ("hits", "misses", "compile_seconds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.compile_seconds = 0.0


STATS = SpecializationStats()


def value_operand(operand, mask: int) -> Tuple[Optional[str], Optional[int]]:
    """``(register name, immediate)`` of one value operand, the immediate
    masked to the operation width; ``(None, None)`` is the memory operand."""
    if isinstance(operand, Register):
        return operand.name, None
    if isinstance(operand, MemoryOperand):
        return None, None
    if isinstance(operand, Immediate):
        return None, operand.value & mask
    raise TypeError(f"cannot read operand {operand!r}")


def compile_effect(decoded: DecodedInstruction) -> Callable:
    """An ``evaluate(instruction, ...)`` equivalent with statics folded.

    Returns ``fn(read_register, flags, read_memory) -> ExecutionEffect``
    producing field-identical effects.  Every opcode is handled; one added
    to :class:`Opcode` without a closure here raises ``NotImplementedError``.

    The static facts are bound as default arguments after the three that
    callers pass: they load as locals, and a closure costs one defaults
    tuple rather than one cell per fact while its program lives.
    """
    opcode = decoded.opcode
    fall = decoded.fallthrough_pc

    if opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
        def fn_simple(rr, flags, rm, fall=fall):
            return ExecutionEffect(next_pc=fall)
        return fn_simple

    if opcode is Opcode.JMP:
        def fn_jmp(rr, flags, rm, target=decoded.target_pc):
            return ExecutionEffect(branch_taken=True, next_pc=target)
        return fn_jmp

    if opcode is Opcode.JCC:
        def fn_jcc(rr, flags, rm, predicate=decoded.cond_predicate,
                   target=decoded.target_pc, fall=fall):
            get = flags.get
            taken = bool(
                predicate(get("zf", False), get("sf", False), get("cf", False),
                          get("of", False), get("pf", False))
            )
            return ExecutionEffect(
                branch_taken=taken, next_pc=target if taken else fall
            )
        return fn_jcc

    operands = decoded.instruction.operands
    size = decoded.mem_size or 8
    mask = (1 << (8 * size)) - 1
    # Every closure below resolves the memory operand, when there is one, as
    #     (rr(base) + displacement + (0 if index is None else rr(index))) & MASK64
    # and reads an operand (register, immediate) as rr(register) & mask, the
    # immediate, or, when both are None, rm(address, size) & mask.
    memory = decoded.memory_operand is not None
    base = decoded.mem_base
    index = decoded.mem_index
    displacement = decoded.mem_displacement

    if opcode is Opcode.MOV or opcode is Opcode.CMOV:
        src, src_imm = value_operand(operands[1], mask)
        dest = decoded.destination_register
        predicate = decoded.cond_predicate if opcode is Opcode.CMOV else None

        def fn_move(rr, flags, rm, src=src, src_imm=src_imm, dest=dest,
                    predicate=predicate, memory=memory, base=base, index=index,
                    displacement=displacement, size=size, mask=mask, fall=fall):
            address = (
                (rr(base) + displacement + (0 if index is None else rr(index))) & MASK64
                if memory else None
            )
            if src is not None:
                value = rr(src) & mask
            elif src_imm is not None:
                value = src_imm
            else:
                value = rm(address, size) & mask
            if dest is None:
                return ExecutionEffect(memory_write=(address, size, value), next_pc=fall)
            written = value
            if predicate is not None:
                get = flags.get
                if not predicate(get("zf", False), get("sf", False), get("cf", False),
                                 get("of", False), get("pf", False)):
                    written = rr(dest)  # CMOVcc not taken: the old value
            effect = ExecutionEffect(register_writes={dest: written}, next_pc=fall)
            if memory:
                effect.memory_read = (address, size)
                effect.memory_read_value = value
            return effect
        return fn_move

    if opcode is Opcode.SETCC:
        def fn_setcc(rr, flags, rm, dest=decoded.destination_register,
                     predicate=decoded.cond_predicate, base=base, index=index,
                     displacement=displacement, size=size, fall=fall):
            get = flags.get
            value = 1 if predicate(get("zf", False), get("sf", False), get("cf", False),
                                   get("of", False), get("pf", False)) else 0
            if dest is not None:
                return ExecutionEffect(register_writes={dest: value}, next_pc=fall)
            address = (rr(base) + displacement + (0 if index is None else rr(index))) & MASK64
            return ExecutionEffect(memory_write=(address, size, value), next_pc=fall)
        return fn_setcc

    if opcode in (Opcode.CMP, Opcode.TEST) or opcode in ALU_UNARY or opcode in ALU_BINARY:
        a_reg, a_imm = value_operand(operands[0], mask)
        b_reg, b_imm = (None, 0) if opcode in ALU_UNARY else value_operand(operands[1], mask)
        # The memory operand is the first one (read-modify-write) or the second.
        memory_first = a_reg is None and a_imm is None
        compare = opcode in (Opcode.CMP, Opcode.TEST)

        def fn_alu(rr, flags, rm, operation=alu_function(opcode, size), a_reg=a_reg,
                   a_imm=a_imm, b_reg=b_reg, b_imm=b_imm, memory=memory,
                   memory_first=memory_first, compare=compare,
                   dest=decoded.destination_register, flag_writer=decoded.writes_flags,
                   base=base, index=index, displacement=displacement, size=size,
                   mask=mask, fall=fall):
            address = (
                (rr(base) + displacement + (0 if index is None else rr(index))) & MASK64
                if memory else None
            )
            if a_reg is not None:
                a = rr(a_reg) & mask
            elif a_imm is not None:
                a = a_imm
            else:
                a = rm(address, size) & mask
            if b_reg is not None:
                b = rr(b_reg) & mask
            elif b_imm is not None:
                b = b_imm
            else:
                b = rm(address, size) & mask
            effect = ExecutionEffect(next_pc=fall)
            if memory:
                effect.memory_read = (address, size)
                effect.memory_read_value = a if memory_first else b
            result, new_flags = operation(a, b, flags.get("cf", False))
            if flag_writer and new_flags is not None:
                effect.flag_writes = flag_dict(new_flags)
            if compare:
                return effect
            if memory_first:
                effect.memory_write = (address, size, result)
            else:
                effect.register_writes = {dest: result}
            return effect
        return fn_alu

    raise NotImplementedError(f"no effect closure for opcode {opcode.name}")


def attach_effect_closures(decoded: DecodedProgram) -> None:
    """Fill ``effect_fn`` on every instruction of ``decoded`` (idempotent).

    The first call per decoded program builds the closures and counts a
    miss in :data:`STATS`; later calls (every further O3 core built for the
    program: one per input in Naive mode) count a hit.
    """
    if decoded.effects_attached:
        STATS.hits += 1
        return
    started = time.perf_counter()
    for entry in decoded.entries:
        entry.effect_fn = compile_effect(entry)
    decoded.effects_attached = True
    STATS.misses += 1
    STATS.compile_seconds += time.perf_counter() - started
