"""A compact x86-inspired ISA used by the AMuLeT reproduction.

The original AMuLeT drives real x86-64 test programs through the Unicorn
emulator (leakage model) and gem5 (executor).  Neither is available here, so
this package defines a small but expressive ISA that both the functional
emulator (:mod:`repro.model`) and the out-of-order simulator
(:mod:`repro.uarch`) execute from the *same* semantic definitions
(:mod:`repro.isa.semantics`).  Sharing the semantics module guarantees that
the architectural behaviour of the two sides can never diverge, which is a
precondition for relational testing: any trace difference must come from the
micro-architecture, never from an emulator/simulator semantics mismatch.

The ISA covers everything the paper's example programs (Figures 4, 6, 8, 9)
use: ALU operations, conditional moves, conditional branches, and loads and
stores addressed relative to a sandbox base register (``r14``), with access
sizes of 1-8 bytes so that cache-line-crossing ("split") accesses exist.
"""

from repro.isa.registers import (
    FLAG_NAMES,
    GPR_NAMES,
    INPUT_REGISTERS,
    MASK64,
    SANDBOX_BASE_REGISTER,
    SCRATCH_REGISTERS,
    ArchState,
    RegisterFile,
)
from repro.isa.operands import Immediate, Label, MemoryOperand, Register
from repro.isa.instructions import (
    CONDITION_CODES,
    Instruction,
    InstructionClass,
    Opcode,
    cmov,
    cond_branch,
    exit_instruction,
    jump,
    load,
    nop,
    store,
)
from repro.isa.program import BasicBlock, Program
from repro.isa.decoded import DecodedInstruction, DecodedProgram, decode_program
from repro.isa.semantics import condition_predicate

__all__ = [
    "FLAG_NAMES",
    "GPR_NAMES",
    "INPUT_REGISTERS",
    "MASK64",
    "SANDBOX_BASE_REGISTER",
    "SCRATCH_REGISTERS",
    "ArchState",
    "RegisterFile",
    "Immediate",
    "Label",
    "MemoryOperand",
    "Register",
    "CONDITION_CODES",
    "Instruction",
    "InstructionClass",
    "Opcode",
    "cmov",
    "cond_branch",
    "exit_instruction",
    "jump",
    "load",
    "nop",
    "store",
    "BasicBlock",
    "Program",
    "DecodedInstruction",
    "DecodedProgram",
    "decode_program",
    "condition_predicate",
]
