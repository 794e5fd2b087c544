"""Decode-once program representation for the interpreter hot paths.

Both interpreters — the functional emulator (the leakage model) and the
out-of-order core — execute each *static* instruction thousands of times per
campaign, but :class:`~repro.isa.instructions.Instruction` derives all of its
structural metadata (``is_load``, ``source_registers()``, the memory operand,
...) from the operand tuple on every query.  A :class:`DecodedProgram`
front-end decodes every instruction exactly once into a flat
:class:`DecodedInstruction` record of plain attributes, plus a dense
pc-indexed table that replaces the per-step dictionary lookup of
``Program.instruction_at``.

The decode step only *caches* answers computed by :mod:`repro.isa.instructions`
and :mod:`repro.isa.semantics`; it never re-derives semantics of its own, so
``isa/semantics.py`` remains the single source of architectural truth and the
two interpreters cannot diverge through this layer.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.isa.instructions import Instruction, InstructionClass, Opcode
from repro.isa.operands import MemoryOperand
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.semantics import ReadRegister, compute_effective_address, condition_predicate

#: Flag predicate bound at decode time: ``predicate(zf, sf, cf, of, pf)``.
CondPredicate = Callable[[bool, bool, bool, bool, bool], bool]


def _always_false(zf: bool, sf: bool, cf: bool, of: bool, pf: bool) -> bool:
    return False


class DecodedInstruction:
    """Per-static-instruction metadata, precomputed once.

    Every attribute mirrors the like-named :class:`Instruction` property or
    method; the constructor is the only place they are evaluated.
    """

    __slots__ = (
        "instruction",
        "pc",
        "opcode",
        "condition",
        "cond_predicate",
        "target_pc",
        "fallthrough_pc",
        "instruction_class",
        "is_branch",
        "is_cond_branch",
        "is_jmp",
        "is_exit",
        "is_fence",
        "is_load",
        "is_store",
        "is_memory_access",
        "writes_flags",
        "reads_flags",
        "needs_flags_order",
        "partial_flag_writer",
        "writes_dest_register",
        "source_registers",
        "destination_register",
        "address_registers",
        "needed_registers",
        "memory_operand",
        "mem_base",
        "mem_index",
        "mem_displacement",
        "mem_size",
        "exec_kind",
        "effect_fn",
    )

    #: ``exec_kind`` values: integer dispatch for the O3 execute stage,
    #: ordered so the most frequent kinds are tested first.
    KIND_SIMPLE = 0  # NOP / LFENCE / EXIT
    KIND_BRANCH = 1  # JMP / JCC
    KIND_MEMORY = 2  # any load/store
    KIND_ALU = 3  # everything else (register ALU, SETCC, CMOV, CMP/TEST)

    def __init__(self, instruction: Instruction) -> None:
        self.instruction = instruction
        self.pc: int = instruction.pc
        self.opcode: Opcode = instruction.opcode
        self.condition: Optional[str] = instruction.condition
        self.cond_predicate: CondPredicate = (
            condition_predicate(instruction.condition)
            if instruction.condition is not None
            else _always_false
        )
        self.target_pc: Optional[int] = instruction.target_pc
        self.fallthrough_pc: Optional[int] = instruction.fallthrough_pc
        self.instruction_class: InstructionClass = instruction.instruction_class
        self.is_branch: bool = instruction.is_branch
        self.is_cond_branch: bool = instruction.is_cond_branch
        self.is_jmp: bool = instruction.opcode is Opcode.JMP
        self.is_exit: bool = instruction.is_exit
        self.is_fence: bool = instruction.opcode is Opcode.LFENCE
        self.is_load: bool = instruction.is_load
        self.is_store: bool = instruction.is_store
        self.is_memory_access: bool = instruction.is_memory_access
        self.writes_flags: bool = instruction.writes_flags
        self.reads_flags: bool = instruction.reads_flags
        # Instructions that must wait on the previous flag producer in the
        # O3 core: explicit flag readers plus partial flag updaters (INC/DEC
        # preserve the carry; shifts leave flags untouched for a zero count).
        self.needs_flags_order: bool = instruction.reads_flags or instruction.opcode in (
            Opcode.INC,
            Opcode.DEC,
            Opcode.SHL,
            Opcode.SHR,
        )
        # Partial flag updaters carry old flag state through: INC/DEC preserve
        # the carry and zero-count shifts leave every flag untouched, so their
        # resulting flags (and flag taint) still depend on the previous flags.
        self.partial_flag_writer: bool = instruction.writes_flags and instruction.opcode in (
            Opcode.INC,
            Opcode.DEC,
            Opcode.SHL,
            Opcode.SHR,
        )
        self.writes_dest_register: bool = instruction.writes_dest_register
        self.source_registers: Tuple[str, ...] = instruction.source_registers()
        self.destination_register: Optional[str] = instruction.destination_register()
        self.address_registers: Tuple[str, ...] = instruction.address_registers()
        self.needed_registers: Tuple[str, ...] = tuple(
            dict.fromkeys(self.source_registers + self.address_registers)
        )
        memory_operand: Optional[MemoryOperand] = instruction.memory_operand
        self.memory_operand = memory_operand
        if memory_operand is not None:
            self.mem_base: Optional[str] = memory_operand.base
            self.mem_index: Optional[str] = memory_operand.index
            self.mem_displacement: int = memory_operand.displacement
            self.mem_size: int = memory_operand.size
        else:
            self.mem_base = None
            self.mem_index = None
            self.mem_displacement = 0
            self.mem_size = 0
        if self.is_branch:
            self.exec_kind: int = DecodedInstruction.KIND_BRANCH
        elif self.is_memory_access:
            self.exec_kind = DecodedInstruction.KIND_MEMORY
        elif self.opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
            self.exec_kind = DecodedInstruction.KIND_SIMPLE
        else:
            self.exec_kind = DecodedInstruction.KIND_ALU
        #: Specialized ``evaluate`` closure, attached lazily by
        #: :func:`repro.isa.specialized.attach_effect_closures` before the
        #: program first runs; both interpreters execute through it.
        self.effect_fn: Optional[Callable] = None

    def effective_address(self, read_register: ReadRegister) -> int:
        """Resolve this instruction's memory address.

        Thin wrapper over :func:`~repro.isa.semantics.compute_effective_address`
        with the operand lookup already done — the addressing arithmetic
        itself stays in semantics, shared by both interpreters.
        """
        return compute_effective_address(self.memory_operand, read_register)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecodedInstruction({self.instruction!s} @ {self.pc:#x})"


class DecodedProgram:
    """A program decoded into :class:`DecodedInstruction` records.

    ``at_pc`` resolves a program counter in O(1) through a dense table
    indexed by ``(pc - code_base) // INSTRUCTION_SIZE`` — the layout is
    contiguous by construction (see ``Program._assign_addresses``).

    Deliberately holds no reference to the ``Program`` itself: the decode
    cache keys weakly on the program, and a value referencing its key would
    pin every decoded program for the process lifetime.
    """

    __slots__ = (
        "entries", "code_base", "entry_pc", "end_pc", "_table",
        "effects_attached", "__weakref__",
    )

    def __init__(self, program: Program) -> None:
        self.code_base: int = program.code_base
        self.entry_pc: int = program.entry_pc
        self.end_pc: int = program.end_pc
        self.entries: Tuple[DecodedInstruction, ...] = tuple(
            DecodedInstruction(instruction)
            for instruction in program.linear_instructions()
        )
        table: List[Optional[DecodedInstruction]] = [None] * (
            (self.end_pc - self.code_base) // INSTRUCTION_SIZE
        )
        for entry in self.entries:
            table[(entry.pc - self.code_base) // INSTRUCTION_SIZE] = entry
        self._table = table
        #: Set by :func:`repro.isa.specialized.attach_effect_closures` once
        #: every entry's ``effect_fn`` has been built.
        self.effects_attached = False

    def at_pc(self, pc: int) -> Optional[DecodedInstruction]:
        """The decoded instruction at ``pc``, or None outside the program."""
        offset = pc - self.code_base
        index, misaligned = divmod(offset, INSTRUCTION_SIZE)
        if misaligned or offset < 0 or index >= len(self._table):
            return None
        return self._table[index]

    def __len__(self) -> int:
        return len(self.entries)


#: One DecodedProgram per Program instance; weak keys so decoded metadata
#: dies with the program instead of pinning every generated test forever.
_DECODED_CACHE: "WeakKeyDictionary[Program, DecodedProgram]" = WeakKeyDictionary()


def decode_program(program: Program) -> DecodedProgram:
    """Return the (cached) decoded form of ``program``."""
    decoded = _DECODED_CACHE.get(program)
    if decoded is None:
        decoded = DecodedProgram(program)
        _DECODED_CACHE[program] = decoded
    return decoded
