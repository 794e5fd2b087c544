"""Per-instruction specialized execution: compile evaluate() dispatch away.

:func:`compile_effect` builds, for one
:class:`~repro.isa.decoded.DecodedInstruction`, a closure equivalent to
:func:`repro.isa.semantics.evaluate` with every static question (opcode
dispatch, operand kinds, sizes, masks, the condition predicate) answered at
build time.  The closures are strictly *derived* from
:mod:`repro.isa.semantics`, the single source of architectural truth:
arithmetic and flag semantics are not re-implemented, the closure calls
:func:`semantics.alu_compute` and the :data:`semantics.CONDITION_PREDICATES`
entries, pre-bound.

:func:`attach_effect_closures` fills them in once per decoded program.  The
decoded program is shared through the decode cache, so the functional
emulator (architectural and speculative paths) and the O3 core's execute
stage all run on the same closures; they are the only way either
interpreter executes an instruction.  Generic
:func:`~repro.isa.semantics.evaluate` stays as the reference the
equivalence suite compares them against.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

from repro.isa.decoded import DecodedInstruction, DecodedProgram
from repro.isa.instructions import Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import MASK64
from repro.isa.semantics import ExecutionEffect, alu_compute

#: ALU opcodes :func:`compile_effect` specializes.
_ALU_BINARY = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
               Opcode.SHL, Opcode.SHR)
_ALU_UNARY = (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT)


class SpecializationStats:
    """Process-wide closure-building counters (surfaced in fuzzer reports).

    ``misses`` counts decoded programs whose closures were built, ``hits``
    calls that found them already built, and ``compile_seconds`` the time
    spent building.
    """

    __slots__ = ("hits", "misses", "compile_seconds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.compile_seconds = 0.0

    def snapshot(self) -> Dict[str, float]:
        """The counters under their report names."""
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "compile_seconds": self.compile_seconds,
        }


STATS = SpecializationStats()


def stats_snapshot() -> Dict[str, float]:
    """Current process-wide specialization counters."""
    return STATS.snapshot()


def _width_mask(size: int) -> int:
    return (1 << (8 * size)) - 1


def _address_fn(mem: MemoryOperand) -> Callable:
    """Closure computing the effective address, operands pre-bound."""
    base = mem.base
    disp = mem.displacement
    index = mem.index
    if index is None:
        if disp == 0:
            return lambda rr: rr(base) & MASK64
        return lambda rr: (rr(base) + disp) & MASK64
    return lambda rr: (rr(base) + disp + rr(index)) & MASK64


def compile_effect(decoded: DecodedInstruction) -> Callable:
    """An ``evaluate(instruction, ...)`` equivalent with statics folded.

    Returns ``fn(read_register, flags, read_memory) -> ExecutionEffect``
    producing field-identical effects.  Every opcode is handled; one added
    to :class:`Opcode` without a closure here raises ``NotImplementedError``.
    """
    instruction = decoded.instruction
    opcode = decoded.opcode
    fall = instruction.fallthrough_pc

    if opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
        def fn_simple(rr, flags, rm):
            return ExecutionEffect(next_pc=fall)
        return fn_simple

    if opcode is Opcode.JMP:
        target = instruction.target_pc

        def fn_jmp(rr, flags, rm):
            return ExecutionEffect(branch_taken=True, next_pc=target)
        return fn_jmp

    if opcode is Opcode.JCC:
        predicate = decoded.cond_predicate
        target = instruction.target_pc

        def fn_jcc(rr, flags, rm):
            get = flags.get
            taken = bool(
                predicate(get("zf", False), get("sf", False), get("cf", False),
                          get("of", False), get("pf", False))
            )
            return ExecutionEffect(
                branch_taken=taken, next_pc=target if taken else fall
            )
        return fn_jcc

    mem = instruction.memory_operand
    size = mem.size if mem is not None else 8
    mask = _width_mask(size)
    addr_of = _address_fn(mem) if mem is not None else None

    def read_reg(name: str) -> Callable:
        if size == 8:
            return lambda rr, rm, a: rr(name)
        return lambda rr, rm, a: rr(name) & mask

    def read_imm(value: int) -> Callable:
        folded = value & mask
        return lambda rr, rm, a: folded

    def read_mem() -> Callable:
        return lambda rr, rm, a: rm(a, size) & mask

    def reader(operand) -> Callable:
        if isinstance(operand, Register):
            return read_reg(operand.name)
        if isinstance(operand, Immediate):
            return read_imm(operand.value)
        return read_mem()

    if opcode is Opcode.MOV:
        dest, src = instruction.operands
        read_src = reader(src)
        src_is_mem = isinstance(src, MemoryOperand)
        if isinstance(dest, Register):
            dest_name = dest.name

            def fn_mov_reg(rr, flags, rm):
                address = addr_of(rr) if addr_of is not None else None
                value = read_src(rr, rm, address)
                effect = ExecutionEffect(
                    register_writes={dest_name: value}, next_pc=fall
                )
                if src_is_mem:
                    effect.memory_read = (address, size)
                    effect.memory_read_value = value
                return effect
            return fn_mov_reg

        def fn_mov_mem(rr, flags, rm):
            address = addr_of(rr)
            value = read_src(rr, rm, address)
            return ExecutionEffect(
                memory_write=(address, size, value & mask), next_pc=fall
            )
        return fn_mov_mem

    if opcode is Opcode.CMOV:
        dest, src = instruction.operands
        dest_name = dest.name
        read_src = reader(src)
        src_is_mem = isinstance(src, MemoryOperand)
        predicate = decoded.cond_predicate

        def fn_cmov(rr, flags, rm):
            address = addr_of(rr) if addr_of is not None else None
            value = read_src(rr, rm, address)
            get = flags.get
            taken = predicate(get("zf", False), get("sf", False), get("cf", False),
                              get("of", False), get("pf", False))
            effect = ExecutionEffect(
                register_writes={dest_name: value if taken else rr(dest_name)},
                next_pc=fall,
            )
            if src_is_mem:
                effect.memory_read = (address, size)
                effect.memory_read_value = value
            return effect
        return fn_cmov

    if opcode is Opcode.SETCC:
        dest = instruction.operands[0]
        predicate = decoded.cond_predicate
        if isinstance(dest, Register):
            dest_name = dest.name

            def fn_setcc_reg(rr, flags, rm):
                get = flags.get
                taken = predicate(get("zf", False), get("sf", False), get("cf", False),
                                  get("of", False), get("pf", False))
                return ExecutionEffect(
                    register_writes={dest_name: 1 if taken else 0}, next_pc=fall
                )
            return fn_setcc_reg

        def fn_setcc_mem(rr, flags, rm):
            address = addr_of(rr)
            get = flags.get
            taken = predicate(get("zf", False), get("sf", False), get("cf", False),
                              get("of", False), get("pf", False))
            return ExecutionEffect(
                memory_write=(address, size, 1 if taken else 0), next_pc=fall
            )
        return fn_setcc_mem

    if opcode in (Opcode.CMP, Opcode.TEST):
        first, second = instruction.operands
        read_a = reader(first)
        read_b = reader(second)
        first_is_mem = isinstance(first, MemoryOperand)
        second_is_mem = isinstance(second, MemoryOperand)

        def fn_cmp(rr, flags, rm):
            address = addr_of(rr) if addr_of is not None else None
            a = read_a(rr, rm, address)
            b = read_b(rr, rm, address)
            effect = ExecutionEffect(next_pc=fall)
            if first_is_mem or second_is_mem:
                effect.memory_read = (address, size)
                effect.memory_read_value = a if first_is_mem else b
            _, new_flags = alu_compute(opcode, a, b, size)
            effect.flag_writes = new_flags
            return effect
        return fn_cmp

    if opcode in _ALU_UNARY or opcode in _ALU_BINARY:
        dest = instruction.operands[0]
        dest_is_mem = isinstance(dest, MemoryOperand)
        read_a = reader(dest)
        unary = opcode in _ALU_UNARY
        read_b = None if unary else reader(instruction.operands[1])
        src_is_mem = (not unary) and isinstance(instruction.operands[1], MemoryOperand)
        writes_flags = instruction.writes_flags
        preserves_carry = opcode in (Opcode.INC, Opcode.DEC)
        dest_name = None if dest_is_mem else dest.name

        def fn_alu(rr, flags, rm):
            address = addr_of(rr) if addr_of is not None else None
            a = read_a(rr, rm, address)
            b = 0 if read_b is None else read_b(rr, rm, address)
            effect = ExecutionEffect(next_pc=fall)
            if src_is_mem:
                effect.memory_read = (address, size)
                effect.memory_read_value = b
            if dest_is_mem:
                effect.memory_read = (address, size)
                effect.memory_read_value = a
            carry_in = flags.get("cf", False)
            result, new_flags = alu_compute(opcode, a, b, size, carry_in=carry_in)
            if writes_flags:
                if preserves_carry and "cf" in new_flags:
                    new_flags["cf"] = carry_in
                effect.flag_writes = new_flags
            if dest_is_mem:
                effect.memory_write = (address, size, result & mask)
            else:
                effect.register_writes = {dest_name: result & MASK64}
            return effect
        return fn_alu

    raise NotImplementedError(f"no effect closure for opcode {opcode.name}")


def attach_effect_closures(decoded: DecodedProgram) -> None:
    """Fill ``effect_fn`` on every instruction of ``decoded`` (idempotent).

    The first call per decoded program builds the closures and counts a
    miss in :data:`STATS`; later calls (such as the O3 core's, for a program
    the emulator already ran) count a hit.
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
