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
(one :func:`~repro.isa.instructions.classify` call per instruction) and
:mod:`repro.isa.semantics` (the condition predicates); it never re-derives
semantics of its own, so ``isa/semantics.py`` remains the single source of
architectural truth and the two interpreters cannot diverge through this
layer.  The generic reference the tests hold both to is
``tests/reference_semantics.py``.

Both interpreters execute a decoded instruction through its one fused
``step`` (:mod:`repro.model.steps`), built once per program by whichever
interpreter runs the program first: the contract emulator applies the step
to its live state, the O3 core to a scratch machine whose results it keeps
on the in-flight instruction until commit.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.isa.instructions import Instruction, InstructionClass, Opcode, classify
from repro.isa.operands import MemoryOperand
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.semantics import condition_predicate

#: Flag predicate bound at decode time: ``predicate(zf, sf, cf, of, pf)``.
CondPredicate = Callable[[bool, bool, bool, bool, bool], bool]


#: Flag writers whose result still depends on the previous flags.
_PARTIAL_FLAG_WRITERS = (Opcode.INC, Opcode.DEC, Opcode.SHL, Opcode.SHR)


def _always_false(zf: bool, sf: bool, cf: bool, of: bool, pf: bool) -> bool:
    return False


class DecodedInstruction:
    """Per-static-instruction metadata, precomputed once.

    Every attribute mirrors the like-named :class:`Instruction` property or
    method.  The constructor fills them in one pass from
    :func:`~repro.isa.instructions.classify`, the function those properties
    delegate to.
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
        "step",
        "issue",
        "commit",
        "template",
    )

    #: ``exec_kind`` values: integer dispatch for the O3 execute stage,
    #: ordered so the most frequent kinds are tested first.
    KIND_SIMPLE = 0  # NOP / LFENCE / EXIT
    KIND_BRANCH = 1  # JMP / JCC
    KIND_MEMORY = 2  # any load/store
    KIND_ALU = 3  # everything else (register ALU, SETCC, CMOV, CMP/TEST)

    def __init__(self, instruction: Instruction) -> None:
        shape = classify(instruction.opcode, instruction.operands)
        opcode = instruction.opcode
        self.instruction = instruction
        self.pc: int = instruction.pc
        self.opcode: Opcode = opcode
        self.condition: Optional[str] = instruction.condition
        self.cond_predicate: CondPredicate = (
            condition_predicate(instruction.condition)
            if instruction.condition is not None
            else _always_false
        )
        self.target_pc: Optional[int] = instruction.target_pc
        self.fallthrough_pc: Optional[int] = instruction.fallthrough_pc
        self.instruction_class: InstructionClass = shape.instruction_class
        self.is_branch: bool = shape.is_branch
        self.is_cond_branch: bool = shape.is_cond_branch
        self.is_jmp: bool = opcode is Opcode.JMP
        self.is_exit: bool = shape.is_exit
        self.is_fence: bool = opcode is Opcode.LFENCE
        self.is_load: bool = shape.is_load
        self.is_store: bool = shape.is_store
        self.is_memory_access: bool = shape.is_load or shape.is_store
        self.writes_flags: bool = shape.writes_flags
        self.reads_flags: bool = shape.reads_flags
        partial = opcode in _PARTIAL_FLAG_WRITERS
        # Instructions that must wait on the previous flag producer in the
        # O3 core: explicit flag readers plus partial flag updaters (INC/DEC
        # preserve the carry; shifts leave flags untouched for a zero count).
        self.needs_flags_order: bool = shape.reads_flags or partial
        # Partial flag updaters carry old flag state through: INC/DEC preserve
        # the carry and zero-count shifts leave every flag untouched, so their
        # resulting flags (and flag taint) still depend on the previous flags.
        self.partial_flag_writer: bool = shape.writes_flags and partial
        self.writes_dest_register: bool = shape.writes_dest_register
        self.source_registers: Tuple[str, ...] = shape.source_registers
        self.destination_register: Optional[str] = shape.destination_register
        self.address_registers: Tuple[str, ...] = shape.address_registers
        self.needed_registers: Tuple[str, ...] = tuple(
            dict.fromkeys(shape.source_registers + shape.address_registers)
        )
        memory_operand: Optional[MemoryOperand] = shape.memory_operand
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
        elif opcode in (Opcode.NOP, Opcode.LFENCE, Opcode.EXIT):
            self.exec_kind = DecodedInstruction.KIND_SIMPLE
        else:
            self.exec_kind = DecodedInstruction.KIND_ALU
        #: The fused step both interpreters run, attached by
        #: :func:`repro.model.steps.build_steps` when an emulator or an O3
        #: core first runs the program.
        self.step: Optional[Callable] = None
        #: The O3 core's issue and commit handlers and its in-flight entry
        #: template, attached by :func:`repro.uarch.handlers.build_handlers`
        #: when an O3 core first runs the program.
        self.issue: Optional[Callable] = None
        self.commit: Optional[Callable] = None
        self.template: Optional[tuple] = None

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
        "steps_built", "handlers_built", "__weakref__",
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
        #: Set by :func:`repro.model.steps.build_steps` once every entry's
        #: ``step`` has been built.
        self.steps_built = False
        #: Set by :func:`repro.uarch.handlers.build_handlers`.
        self.handlers_built = False

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


def forget_decoded(program: Program) -> None:
    """Drop ``program``'s decoded form (its steps and core handlers too).

    For programs that are kept but rarely run again, such as a confirmed
    violation's: the next :func:`decode_program` rebuilds it.
    """
    _DECODED_CACHE.pop(program, None)
