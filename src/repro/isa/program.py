"""Program representation: basic blocks, address assignment and lookup."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.isa.instructions import Instruction, Opcode, exit_instruction
from repro.isa.operands import Label

#: Every instruction occupies a fixed number of bytes in the code image.
#: This keeps instruction-cache behaviour simple and deterministic.
INSTRUCTION_SIZE = 4

#: Default base address of the code image.
DEFAULT_CODE_BASE = 0x400000


@dataclass
class BasicBlock:
    """A straight-line sequence of instructions ending in a terminator.

    ``instructions`` holds the body; ``terminator`` is either a conditional
    branch (``JCC``), an unconditional jump (``JMP``), ``EXIT``, or ``None``
    (fall through to the next block in program order).
    """

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    terminator: Optional[Instruction] = None

    def all_instructions(self) -> List[Instruction]:
        if self.terminator is None:
            return list(self.instructions)
        return list(self.instructions) + [self.terminator]

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)


class Program:
    """An ordered collection of basic blocks forming a test program.

    The program is laid out linearly in the order the blocks appear, each
    instruction occupying :data:`INSTRUCTION_SIZE` bytes.  After construction
    every instruction carries its ``pc`` and, for branches, the resolved
    ``target_pc`` and ``fallthrough_pc``, which is what both the functional
    emulator and the out-of-order simulator navigate by.
    """

    def __init__(
        self,
        blocks: Iterable[BasicBlock],
        code_base: int = DEFAULT_CODE_BASE,
        name: str = "test",
    ) -> None:
        self.name = name
        self.code_base = code_base
        self.blocks: List[BasicBlock] = list(blocks)
        if not self.blocks:
            raise ValueError("a program needs at least one basic block")
        self._ensure_exit()
        self._by_pc: Dict[int, Instruction] = {}
        self._block_start: Dict[str, int] = {}
        self._content_id: Optional[str] = None
        self._assign_addresses()

    # -- construction helpers -------------------------------------------------
    def _ensure_exit(self) -> None:
        last = self.blocks[-1]
        if last.terminator is None or last.terminator.opcode is not Opcode.EXIT:
            if last.terminator is None:
                last.terminator = exit_instruction()
            else:
                self.blocks.append(BasicBlock("exit", [], exit_instruction()))

    def _assign_addresses(self) -> None:
        pc = self.code_base
        for block in self.blocks:
            self._block_start[block.name] = pc
            for instruction in block.all_instructions():
                instruction.pc = pc
                self._by_pc[pc] = instruction
                pc += INSTRUCTION_SIZE
        self._end_pc = pc
        # Resolve branch targets now that block addresses are known.
        for block in self.blocks:
            for instruction in block.all_instructions():
                if instruction.is_branch:
                    label = instruction.operands[0]
                    if not isinstance(label, Label):
                        raise TypeError("branch operand must be a Label")
                    if label.name not in self._block_start:
                        raise ValueError(f"undefined branch target: {label.name}")
                    instruction.target_pc = self._block_start[label.name]
                if not instruction.is_exit:
                    instruction.fallthrough_pc = instruction.pc + INSTRUCTION_SIZE

    # -- queries ---------------------------------------------------------------
    @property
    def entry_pc(self) -> int:
        return self.code_base

    @property
    def end_pc(self) -> int:
        """First byte address after the last instruction."""
        return self._end_pc

    def instruction_at(self, pc: int) -> Optional[Instruction]:
        return self._by_pc.get(pc)

    def block_address(self, name: str) -> int:
        return self._block_start[name]

    def linear_instructions(self) -> List[Instruction]:
        """All instructions in layout order."""
        result: List[Instruction] = []
        for block in self.blocks:
            result.extend(block.all_instructions())
        return result

    def __len__(self) -> int:
        return len(self._by_pc)

    def memory_instruction_count(self) -> int:
        return sum(1 for inst in self.linear_instructions() if inst.is_memory_access)

    def conditional_branch_count(self) -> int:
        return sum(1 for inst in self.linear_instructions() if inst.is_cond_branch)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON form of the program (the corpus on-disk format).

        Addresses (``pc``/``target_pc``) are not serialised: they are
        reassigned by the constructor, so structurally equal programs always
        produce byte-identical payloads regardless of how they were built.
        """
        return {
            "name": self.name,
            "code_base": self.code_base,
            "blocks": [
                {
                    "name": block.name,
                    "instructions": [
                        instruction.to_dict() for instruction in block.instructions
                    ],
                    "terminator": (
                        block.terminator.to_dict()
                        if block.terminator is not None
                        else None
                    ),
                }
                for block in self.blocks
            ],
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Program":
        """Rebuild a program serialised by :meth:`to_dict` (addresses reassigned)."""
        blocks = [
            BasicBlock(
                block["name"],
                [
                    Instruction.from_dict(instruction)
                    for instruction in block["instructions"]
                ],
                (
                    Instruction.from_dict(block["terminator"])
                    if block["terminator"] is not None
                    else None
                ),
            )
            for block in payload["blocks"]
        ]
        return Program(
            blocks, code_base=payload["code_base"], name=payload["name"]
        )

    def content_id(self) -> str:
        """Stable digest of the program's structure (name excluded).

        Two programs with identical blocks hash identically no matter how
        they were built or what they are called — the corpus on-disk ids
        (:func:`repro.feedback.corpus.program_id`) key on this.  Cached per
        instance; programs are immutable after construction.
        """
        if self._content_id is None:
            payload = {
                key: value for key, value in self.to_dict().items() if key != "name"
            }
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            self._content_id = hashlib.blake2b(
                canonical.encode("utf-8"), digest_size=8
            ).hexdigest()
        return self._content_id

    # -- formatting -------------------------------------------------------------
    def to_asm(self) -> str:
        """Render the program in an assembly-like textual form."""
        lines: List[str] = []
        for block in self.blocks:
            lines.append(f".{block.name}:")
            for instruction in block.all_instructions():
                lines.append(f"    {instruction}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_asm()
