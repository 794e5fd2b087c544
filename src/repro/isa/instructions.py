"""Instruction definitions for the reproduction ISA."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, NamedTuple, Optional, Tuple

from repro.isa.operands import (
    Label,
    MemoryOperand,
    Operand,
    Register,
    operand_from_dict,
    operand_to_dict,
)


class Opcode(Enum):
    """Operations supported by the ISA.

    The set is intentionally small but covers everything the paper's test
    programs exercise: data movement, ALU operations that set flags,
    conditional moves (data-dependent loads), conditional and unconditional
    branches, and an explicit ``EXIT`` marker that plays the role of gem5's
    ``m5exit`` pseudo-instruction (end of the test case).
    """

    MOV = auto()
    ADD = auto()
    SUB = auto()
    AND = auto()
    OR = auto()
    XOR = auto()
    CMP = auto()
    TEST = auto()
    INC = auto()
    DEC = auto()
    NEG = auto()
    NOT = auto()
    SHL = auto()
    SHR = auto()
    CMOV = auto()
    SETCC = auto()
    JMP = auto()
    JCC = auto()
    NOP = auto()
    LFENCE = auto()
    EXIT = auto()


class InstructionClass(Enum):
    """Coarse classification used by the generator and the simulator."""

    ALU = auto()
    LOAD = auto()
    STORE = auto()
    RMW = auto()  # read-modify-write on memory (both a load and a store)
    BRANCH = auto()
    FENCE = auto()
    NOP = auto()
    EXIT = auto()


#: Condition codes usable with CMOV / Jcc / SETcc, mirroring x86 mnemonics.
CONDITION_CODES = (
    "z",
    "nz",
    "s",
    "ns",
    "o",
    "no",
    "l",
    "ge",
    "le",
    "g",
    "b",
    "nb",
    "be",
    "a",
    "p",
    "np",
)

#: Opcodes that write their first (destination) operand.
_WRITES_DEST = {
    Opcode.MOV,
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.INC,
    Opcode.DEC,
    Opcode.NEG,
    Opcode.NOT,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.CMOV,
    Opcode.SETCC,
}

#: Opcodes that update the flags register.
_WRITES_FLAGS = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.CMP,
    Opcode.TEST,
    Opcode.INC,
    Opcode.DEC,
    Opcode.NEG,
    Opcode.SHL,
    Opcode.SHR,
}

#: Opcodes that read the flags register.
_READS_FLAGS = {Opcode.CMOV, Opcode.SETCC, Opcode.JCC}

#: ALU opcodes whose memory operand is read (and, as the destination, written).
_MEMORY_ALU = {
    Opcode.ADD,
    Opcode.SUB,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.INC,
    Opcode.DEC,
    Opcode.NEG,
    Opcode.NOT,
}

# Memory-operand rules: when a memory operand makes the instruction a load
# (resp. a store).
_NEVER, _ALWAYS, _AS_SOURCE, _AS_DEST = range(4)


class _OpcodeTraits(NamedTuple):
    is_branch: bool
    is_cond_branch: bool
    is_exit: bool
    writes_dest: bool
    writes_flags: bool
    reads_flags: bool
    #: Register operand 0 is written, not read (MOV and SETCC; CMOV keeps
    #: the old destination on a false condition, so it reads it).
    pure_dest: bool
    load_rule: int
    store_rule: int
    #: Class of the instruction when it has no memory operand.
    plain_class: InstructionClass


def _opcode_traits(opcode: Opcode) -> _OpcodeTraits:
    if opcode in (Opcode.MOV, Opcode.CMOV):
        load_rule = _AS_SOURCE
    elif opcode in (Opcode.CMP, Opcode.TEST) or opcode in _MEMORY_ALU:
        load_rule = _ALWAYS
    else:
        load_rule = _NEVER
    if opcode in (Opcode.MOV, Opcode.SETCC) or opcode in _MEMORY_ALU:
        store_rule = _AS_DEST
    else:
        store_rule = _NEVER
    is_branch = opcode in (Opcode.JMP, Opcode.JCC)
    plain_class = {
        Opcode.EXIT: InstructionClass.EXIT,
        Opcode.NOP: InstructionClass.NOP,
        Opcode.LFENCE: InstructionClass.FENCE,
    }.get(opcode, InstructionClass.BRANCH if is_branch else InstructionClass.ALU)
    return _OpcodeTraits(
        is_branch=is_branch,
        is_cond_branch=opcode is Opcode.JCC,
        is_exit=opcode is Opcode.EXIT,
        writes_dest=opcode in _WRITES_DEST,
        writes_flags=opcode in _WRITES_FLAGS,
        reads_flags=opcode in _READS_FLAGS,
        pure_dest=opcode in (Opcode.MOV, Opcode.SETCC),
        load_rule=load_rule,
        store_rule=store_rule,
        plain_class=plain_class,
    )


#: Per-opcode traits, resolved once so classification hashes each opcode once.
_TRAITS: Dict[Opcode, _OpcodeTraits] = {opcode: _opcode_traits(opcode) for opcode in Opcode}


class InstructionShape(NamedTuple):
    """Every structural fact about one instruction, from :func:`classify`."""

    memory_operand: Optional[MemoryOperand]
    instruction_class: InstructionClass
    is_branch: bool
    is_cond_branch: bool
    is_exit: bool
    is_load: bool
    is_store: bool
    writes_dest_register: bool
    writes_flags: bool
    reads_flags: bool
    #: Registers whose values the instruction reads, address registers included.
    source_registers: Tuple[str, ...]
    destination_register: Optional[str]
    #: Registers that feed the effective-address computation.
    address_registers: Tuple[str, ...]


def classify(
    opcode: Opcode, operands: Tuple[Operand, ...]
) -> InstructionShape:
    """Answer every structural question about an instruction in one pass.

    This is the one source of structural truth: the :class:`Instruction`
    properties and the decoder (:mod:`repro.isa.decoded`) both read it.
    At most one memory operand is supported; the first one counts.
    """
    traits = _TRAITS[opcode]
    memory_operand: Optional[MemoryOperand] = None
    dest_is_memory = source_is_memory = False
    sources = []
    for position, operand in enumerate(operands):
        if isinstance(operand, Register):
            if position or not traits.pure_dest:
                sources.append(operand.name)
        elif isinstance(operand, MemoryOperand):
            if memory_operand is None:
                memory_operand = operand
            if position == 0:
                dest_is_memory = True
            elif position == 1:
                source_is_memory = True
            sources.append(operand.base)
            if operand.index is not None:
                sources.append(operand.index)
    if memory_operand is None:
        is_load = is_store = False
        address_registers: Tuple[str, ...] = ()
    else:
        load_rule = traits.load_rule
        is_load = load_rule == _ALWAYS or (load_rule == _AS_SOURCE and source_is_memory)
        is_store = traits.store_rule == _AS_DEST and dest_is_memory
        address_registers = (
            (memory_operand.base,)
            if memory_operand.index is None or memory_operand.index == memory_operand.base
            else (memory_operand.base, memory_operand.index)
        )
    if is_load:
        instruction_class = InstructionClass.RMW if is_store else InstructionClass.LOAD
    elif is_store:
        instruction_class = InstructionClass.STORE
    else:
        instruction_class = traits.plain_class
    writes_dest_register = (
        traits.writes_dest and bool(operands) and isinstance(operands[0], Register)
    )
    return InstructionShape(
        memory_operand,
        instruction_class,
        traits.is_branch,
        traits.is_cond_branch,
        traits.is_exit,
        is_load,
        is_store,
        writes_dest_register,
        traits.writes_flags,
        traits.reads_flags,
        tuple(dict.fromkeys(sources)),
        operands[0].name if writes_dest_register else None,  # type: ignore[union-attr]
        address_registers,
    )


_SEQUENCE = itertools.count()


@dataclass
class Instruction:
    """A single instruction.

    ``operands`` follows Intel order: destination first.  ``condition`` is
    only meaningful for :data:`Opcode.CMOV`, :data:`Opcode.SETCC` and
    :data:`Opcode.JCC`.  The program assembler fills in ``pc`` (byte address)
    and, for branches, ``target_pc``/``fallthrough_pc``.

    The structural queries below all delegate to :func:`classify` (the
    opcode-only ones to its per-opcode traits).
    """

    opcode: Opcode
    operands: Tuple[Operand, ...] = ()
    condition: Optional[str] = None
    pc: Optional[int] = None
    target_pc: Optional[int] = None
    fallthrough_pc: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_SEQUENCE))

    def __post_init__(self) -> None:
        if self.opcode in (Opcode.CMOV, Opcode.SETCC, Opcode.JCC):
            if self.condition not in CONDITION_CODES:
                raise ValueError(
                    f"{self.opcode.name} requires a condition code, "
                    f"got {self.condition!r}"
                )

    # -- structural queries --------------------------------------------------
    def shape(self) -> InstructionShape:
        """Every structural fact about this instruction (see :func:`classify`)."""
        return classify(self.opcode, self.operands)

    @property
    def memory_operand(self) -> Optional[MemoryOperand]:
        """Return the memory operand, if any (at most one is supported)."""
        return self.shape().memory_operand

    @property
    def is_branch(self) -> bool:
        return _TRAITS[self.opcode].is_branch

    @property
    def is_cond_branch(self) -> bool:
        return _TRAITS[self.opcode].is_cond_branch

    @property
    def is_exit(self) -> bool:
        return _TRAITS[self.opcode].is_exit

    @property
    def is_load(self) -> bool:
        """True if the instruction reads memory."""
        return self.shape().is_load

    @property
    def is_store(self) -> bool:
        """True if the instruction writes memory."""
        return self.shape().is_store

    @property
    def is_memory_access(self) -> bool:
        shape = self.shape()
        return shape.is_load or shape.is_store

    @property
    def instruction_class(self) -> InstructionClass:
        return self.shape().instruction_class

    @property
    def writes_dest_register(self) -> bool:
        return self.shape().writes_dest_register

    @property
    def writes_flags(self) -> bool:
        return _TRAITS[self.opcode].writes_flags

    @property
    def reads_flags(self) -> bool:
        return _TRAITS[self.opcode].reads_flags

    def source_registers(self) -> Tuple[str, ...]:
        """Names of registers whose values the instruction reads."""
        return self.shape().source_registers

    def destination_register(self) -> Optional[str]:
        return self.shape().destination_register

    def address_registers(self) -> Tuple[str, ...]:
        """Registers that feed the effective-address computation."""
        return self.shape().address_registers

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """Canonical JSON form (pc/uid are rebuild artifacts, not serialised)."""
        payload: dict = {
            "opcode": self.opcode.name,
            "operands": [operand_to_dict(operand) for operand in self.operands],
        }
        if self.condition is not None:
            payload["condition"] = self.condition
        return payload

    @staticmethod
    def from_dict(payload: dict) -> "Instruction":
        return Instruction(
            Opcode[payload["opcode"]],
            tuple(operand_from_dict(operand) for operand in payload["operands"]),
            condition=payload.get("condition"),
        )

    # -- formatting ----------------------------------------------------------
    def mnemonic(self) -> str:
        if self.opcode is Opcode.CMOV:
            return f"cmov{self.condition}"
        if self.opcode is Opcode.SETCC:
            return f"set{self.condition}"
        if self.opcode is Opcode.JCC:
            return f"j{self.condition}"
        return self.opcode.name.lower()

    def __str__(self) -> str:
        operand_text = ", ".join(str(op) for op in self.operands)
        text = self.mnemonic().upper()
        if operand_text:
            text = f"{text} {operand_text}"
        return text


# -- convenience constructors ------------------------------------------------

def load(dest: str, index: str | None, displacement: int = 0, size: int = 8) -> Instruction:
    """``MOV dest, [r14 + index + displacement]``"""
    return Instruction(
        Opcode.MOV,
        (Register(dest), MemoryOperand(index=index, displacement=displacement, size=size)),
    )


def store(index: str | None, source: str, displacement: int = 0, size: int = 8) -> Instruction:
    """``MOV [r14 + index + displacement], source``"""
    return Instruction(
        Opcode.MOV,
        (MemoryOperand(index=index, displacement=displacement, size=size), Register(source)),
    )


def cmov(condition: str, dest: str, source: Operand) -> Instruction:
    return Instruction(Opcode.CMOV, (Register(dest), source), condition=condition)


def cond_branch(condition: str, target: str) -> Instruction:
    return Instruction(Opcode.JCC, (Label(target),), condition=condition)


def jump(target: str) -> Instruction:
    return Instruction(Opcode.JMP, (Label(target),))


def nop() -> Instruction:
    return Instruction(Opcode.NOP)


def exit_instruction() -> Instruction:
    return Instruction(Opcode.EXIT)
