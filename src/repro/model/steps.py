"""Fused architectural steps: the one way an instruction executes.

:func:`build_steps` gives every instruction of a decoded program one *step*
(``DecodedInstruction.step``), built once per program by the first
interpreter that runs it: the contract emulator on the program's first
emulation, or an O3 core built for a program not yet emulated.
``step(machine, address) -> next_pc`` executes the instruction against a
:class:`Machine` in one call:

* it reads its source operands straight from the register dict (or from
  memory at ``address``, the effective address the caller already resolved
  for a load or store);
* it computes the result and the flags through the per-opcode functions of
  :mod:`repro.isa.semantics` (:func:`~repro.isa.semantics.alu_function`
  and the condition predicates), bound when the step is built;
* it writes the registers, the flags and memory;
* it sets the destination, flag and memory taint.  The sources, the
  destination and the flag behaviour are known at decode time, so the
  value taint is the union of fixed register taints, plus the flag taint
  for flag readers and the memory taint for memory readers.

The emulator's :class:`Machine` is its live architectural and taint state.
The O3 core, which defers every effect to commit, runs the same steps on an
:meth:`Machine.untainted` machine: a scratch dict of the instruction's
renamed source values, the flags it reads, and a memory writer that only
records the write.  Steps build no effect record and do no generic taint
walk; the test suite holds them to the generic ``evaluate`` of
``tests/reference_semantics.py``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.generator.inputs import TaintLabel
from repro.isa.decoded import DecodedInstruction, DecodedProgram
from repro.isa.instructions import Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import GPR_NAMES, MASK64, SANDBOX_BASE_REGISTER, ArchState
from repro.isa.semantics import alu_function
from repro.model.taint import EMPTY, TaintState

#: Two- and one-operand ALU opcodes, as :func:`compile_step` dispatches them.
ALU_BINARY = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
              Opcode.SHL, Opcode.SHR)
ALU_UNARY = (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT)


class SpecializationStats:
    """Process-wide step-table build counters.

    ``misses`` counts decoded programs whose steps were built, ``hits``
    calls that found them already built (another emulator or O3 core of
    the program), and ``compile_seconds`` the time spent building.  The
    fuzzer records each round's delta in its ledger.
    """

    __slots__ = ("hits", "misses", "compile_seconds")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.compile_seconds = 0.0


#: Step-table build counters (``steps.*`` in the fuzzer's ledger).
STATS = SpecializationStats()

Step = Callable[["Machine", Optional[int]], Optional[int]]


class Machine:
    """The state a step reads and writes.

    ``regs`` and ``taints`` are the register and register-taint dicts,
    ``flags`` the five flags as a tuple in ``FLAG_NAMES`` order, and
    ``flag_taint`` their taint.  Memory goes through ``read_memory`` /
    ``write_memory`` (an :class:`ArchState`'s, or a journaling writer while
    the emulator explores a speculative path) and memory taint through the
    :class:`TaintState`'s ``memory`` / ``set_memory``.  The O3 core's
    machine (:meth:`untainted`) holds no state between steps.
    """

    __slots__ = (
        "regs", "flags", "taints", "flag_taint",
        "read_memory", "write_memory", "memory_taint", "set_memory_taint",
    )

    def __init__(self, state: ArchState, taint: TaintState) -> None:
        self.regs: Dict[str, int] = state.registers.values
        self.flags: Tuple[bool, ...] = state.flags.as_tuple()
        self.taints: Dict[str, FrozenSet[TaintLabel]] = taint.register_taints
        self.flag_taint: FrozenSet[TaintLabel] = taint.flag_taint
        self.read_memory = state.read_memory
        self.write_memory = state.write_memory
        self.memory_taint = taint.memory
        self.set_memory_taint = taint.set_memory

    @classmethod
    def untainted(cls) -> "Machine":
        """A machine for a caller that tracks no taint (the O3 core).

        The caller sets ``regs``, ``flags``, ``read_memory`` and
        ``write_memory`` before each step.  Every register and memory taint
        reads :data:`~repro.model.taint.EMPTY` and memory taint writes go
        nowhere, so the steps' taint unions stay empty.
        """
        machine = cls.__new__(cls)
        machine.regs = {}
        machine.flags = (False,) * 5
        machine.taints = dict.fromkeys(GPR_NAMES, EMPTY)
        machine.flag_taint = EMPTY
        machine.read_memory = machine.write_memory = None
        machine.memory_taint = _no_memory_taint
        machine.set_memory_taint = _ignore_memory_taint
        return machine


def _no_memory_taint(address: int, size: int) -> FrozenSet[TaintLabel]:
    return EMPTY


def _ignore_memory_taint(address: int, size: int, taint: FrozenSet[TaintLabel]) -> None:
    return None


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


def compile_step(decoded: DecodedInstruction) -> Step:
    """The fused step of one decoded instruction.

    Every opcode is handled; one added to :class:`Opcode` without a step
    here raises ``NotImplementedError``.

    A step's static facts are bound as default arguments after ``machine``
    and ``address``, which callers never pass: they load as locals, and a
    step costs one defaults tuple rather than one closure cell per fact
    (about 350 instead of 930 bytes per instruction, kept while the program
    lives).
    """
    opcode = decoded.opcode
    fall = decoded.fallthrough_pc

    if opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
        return lambda machine, address, fall=fall: fall
    if opcode is Opcode.JMP:
        return lambda machine, address, target=decoded.target_pc: target
    if opcode is Opcode.JCC:
        def step_jcc(machine, address, predicate=decoded.cond_predicate,
                     target=decoded.target_pc, fall=fall):
            return target if predicate(*machine.flags) else fall
        return step_jcc

    operands = decoded.instruction.operands
    size = decoded.mem_size or 8
    mask = (1 << (8 * size)) - 1
    # Register taint sources, minus the sandbox base, which never carries
    # taint.  Each step starts its value taint as taints[s0] | taints[s1]
    # (s1 None: one source; no source: s0 is the sandbox base) plus
    # ``more``, which only a memory operand with another base register fills.
    sources = tuple(
        name for name in decoded.source_registers if name != SANDBOX_BASE_REGISTER
    )
    s0 = sources[0] if sources else SANDBOX_BASE_REGISTER
    s1 = sources[1] if len(sources) > 1 else None
    more = sources[2:]
    dest = decoded.destination_register
    taint_dest = dest if dest != SANDBOX_BASE_REGISTER else None

    if opcode is Opcode.MOV or opcode is Opcode.CMOV:
        src, src_imm = value_operand(operands[1], mask)
        predicate = decoded.cond_predicate if opcode is Opcode.CMOV else None

        def step_move(machine, address, src=src, src_imm=src_imm, mask=mask, size=size,
                      s0=s0, s1=s1, more=more, predicate=predicate, dest=dest,
                      taint_dest=taint_dest, fall=fall):
            regs = machine.regs
            taints = machine.taints
            taint = taints[s0] if s1 is None else taints[s0] | taints[s1]
            if more:
                taint = taint.union(*[taints[name] for name in more])
            if src is not None:
                value = regs[src] & mask
            elif src_imm is not None:
                value = src_imm
            else:
                value = machine.read_memory(address, size)
                taint = taint | machine.memory_taint(address, size)
            if predicate is not None:
                taint = taint | machine.flag_taint
            if dest is None:
                machine.write_memory(address, size, value)
                machine.set_memory_taint(address, size, taint)
            else:
                if predicate is None or predicate(*machine.flags):
                    regs[dest] = value
                if taint_dest is not None:
                    taints[dest] = taint
            return fall
        return step_move

    if opcode is Opcode.SETCC:
        def step_setcc(machine, address, predicate=decoded.cond_predicate, size=size,
                       s0=s0, s1=s1, more=more, dest=dest, taint_dest=taint_dest,
                       fall=fall):
            value = 1 if predicate(*machine.flags) else 0
            taints = machine.taints
            taint = taints[s0] if s1 is None else taints[s0] | taints[s1]
            if more:
                taint = taint.union(*[taints[name] for name in more])
            taint = taint | machine.flag_taint
            if dest is None:
                machine.write_memory(address, size, value)
                machine.set_memory_taint(address, size, taint)
            else:
                machine.regs[dest] = value
                if taint_dest is not None:
                    taints[dest] = taint
            return fall
        return step_setcc

    if opcode in (Opcode.CMP, Opcode.TEST) or opcode in ALU_UNARY or opcode in ALU_BINARY:
        a_reg, a_imm = value_operand(operands[0], mask)
        b_reg, b_imm = (None, 0) if opcode in ALU_UNARY else value_operand(operands[1], mask)
        memory = (a_reg is None and a_imm is None) or (b_reg is None and b_imm is None)
        # The result goes to a register, to memory (RMW) or nowhere (CMP/TEST).
        writes_memory = dest is None and opcode not in (Opcode.CMP, Opcode.TEST)
        # Every ALU opcode but NOT writes flags; partial writers keep the old
        # flag taint.
        flag_writer = decoded.writes_flags
        partial = decoded.partial_flag_writer

        def step_alu(machine, address, operation=alu_function(opcode, size),
                     a_reg=a_reg, a_imm=a_imm, b_reg=b_reg, b_imm=b_imm, memory=memory,
                     mask=mask, size=size, s0=s0, s1=s1, more=more,
                     writes_memory=writes_memory, dest=dest, taint_dest=taint_dest,
                     flag_writer=flag_writer, partial=partial, fall=fall):
            regs = machine.regs
            if a_reg is not None:
                a = regs[a_reg] & mask
            elif a_imm is not None:
                a = a_imm
            else:
                a = machine.read_memory(address, size)
            if b_reg is not None:
                b = regs[b_reg] & mask
            elif b_imm is not None:
                b = b_imm
            else:
                b = machine.read_memory(address, size)
            result, flags = operation(a, b, machine.flags[2])
            taints = machine.taints
            taint = taints[s0] if s1 is None else taints[s0] | taints[s1]
            if more:
                taint = taint.union(*[taints[name] for name in more])
            if memory:
                taint = taint | machine.memory_taint(address, size)
            if writes_memory:
                machine.write_memory(address, size, result)
                machine.set_memory_taint(address, size, taint)
            elif dest is not None:
                regs[dest] = result
                if taint_dest is not None:
                    taints[dest] = taint
            if flag_writer:
                if flags is not None:
                    machine.flags = flags
                machine.flag_taint = taint | machine.flag_taint if partial else taint
            return fall
        return step_alu

    raise NotImplementedError(f"no step for opcode {opcode.name}")


def _with_own_address(decoded: DecodedInstruction, step: Step) -> Step:
    """``step`` resolving its memory operand itself.

    The emulator resolves addresses only for loads and stores; an
    instruction with a memory operand that is neither (a shift of a memory
    operand) computes it here.
    """
    def step_addressed(machine, address, step=step, base=decoded.mem_base,
                       index=decoded.mem_index, displacement=decoded.mem_displacement):
        regs = machine.regs
        address = regs[base] + displacement
        if index is not None:
            address += regs[index]
        return step(machine, address & MASK64)
    return step_addressed


def build_steps(decoded: DecodedProgram) -> None:
    """Fill ``step`` on every instruction of ``decoded`` (idempotent).

    The first call per decoded program builds the steps and counts a miss
    in :data:`STATS`; later calls (another emulator or O3 core of the same
    program) count a hit.
    """
    if decoded.steps_built:
        STATS.hits += 1
        return
    started = time.perf_counter()
    for entry in decoded.entries:
        step = compile_step(entry)
        if entry.memory_operand is not None and not entry.is_memory_access:
            step = _with_own_address(entry, step)
        entry.step = step
    decoded.steps_built = True
    STATS.misses += 1
    STATS.compile_seconds += time.perf_counter() - started
