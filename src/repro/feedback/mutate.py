"""Mutation operators on test programs and witness input pairs.

The mutational generation strategies derive new test programs from corpus
entries instead of generating from scratch.  All operators preserve the two
invariants the round pipeline depends on:

* **forward-DAG control flow** — no operator adds or retargets branches, so
  mutated programs terminate exactly like generated ones;
* **sandboxed memory** — inserted memory instructions come from the regular
  generator templates (mask instruction included), the mask-widening
  operator only switches between the sandbox's aligned and unaligned masks,
  and a post-mutation repair pass re-establishes the masked-index invariant
  that individual operators can break (deleting a masking ``AND``,
  retargeting its destination, splicing an access without its mask, or
  inserting an index-clobbering instruction between mask and access) by
  inserting a fresh sandbox mask before any access whose index register is
  not provably confined — including accesses inherited from corpus entries
  recorded under a *different* (larger) sandbox geometry.

Every mutation is driven by a caller-supplied seeded RNG; the
:class:`ProgramMutator` itself keeps no hidden state, so the same (program,
seed) pair yields the same mutant on every backend and interpreter mode.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.minimize import copy_location, differing_locations
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import MEMORY_GRANULE, Input
from repro.generator.program_generator import OPERAND_REGISTERS, ProgramGenerator
from repro.isa.instructions import CONDITION_CODES, Instruction, Opcode
from repro.isa.operands import Immediate, Register
from repro.isa.program import BasicBlock, Program

#: Relative frequencies of the mutation operators.
DEFAULT_OPERATOR_WEIGHTS = {
    "insert": 3.0,
    "delete": 2.0,
    "splice": 2.0,
    "operand_tweak": 3.0,
    "immediate_tweak": 2.0,
    "branch_flip": 2.0,
    "mask_widen": 1.0,
}


def _clone_blocks(program: Program) -> List[BasicBlock]:
    """Deep-enough copy: fresh blocks and instructions, shared frozen operands."""
    return [
        BasicBlock(
            block.name,
            [copy.copy(instruction) for instruction in block.instructions],
            copy.copy(block.terminator) if block.terminator is not None else None,
        )
        for block in program.blocks
    ]


def _body_positions(blocks: List[BasicBlock]) -> List[Tuple[int, int]]:
    """(block index, instruction index) of every non-terminator instruction."""
    return [
        (block_index, instruction_index)
        for block_index, block in enumerate(blocks)
        for instruction_index in range(len(block.instructions))
    ]


@dataclass
class MutationRecord:
    """Which operators produced a mutant (for logs and lineage debugging)."""

    operators: Tuple[str, ...] = ()


class ProgramMutator:
    """Applies randomized structural mutations to a test program."""

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        operator_weights: Optional[dict] = None,
        max_operations: int = 3,
    ) -> None:
        self.config = config or GeneratorConfig()
        self.operator_weights = dict(operator_weights or DEFAULT_OPERATOR_WEIGHTS)
        if max_operations < 1:
            raise ValueError("max_operations must be at least 1")
        self.max_operations = max_operations
        # The insert operator reuses the generator's weighted templates; the
        # generator instance is stateless here (the caller's RNG drives it).
        self._template_source = ProgramGenerator(self.config)

    # -- public API -----------------------------------------------------------
    def mutate(
        self,
        program: Program,
        rng: random.Random,
        donor: Optional[Program] = None,
        name: Optional[str] = None,
    ) -> Tuple[Program, MutationRecord]:
        """Produce one mutant of ``program`` (1..max_operations operators).

        ``donor`` supplies foreign instructions for the splice operator;
        without one, splicing falls back to intra-program copying.
        """
        blocks = _clone_blocks(program)
        operations = rng.randint(1, self.max_operations)
        applied: List[str] = []
        names = list(self.operator_weights)
        weights = [self.operator_weights[key] for key in names]
        for _ in range(operations):
            operator = rng.choices(names, weights)[0]
            if getattr(self, f"_op_{operator}")(blocks, rng, donor):
                applied.append(operator)
        if not applied:
            # Every drawn operator was inapplicable (e.g. a program with no
            # immediates or branches); insertion always applies.
            self._op_insert(blocks, rng, donor)
            applied.append("insert")
        self._repair_sandbox_masks(blocks)
        mutant_name = name if name is not None else program.name + "_mut"
        return (
            Program(blocks, code_base=program.code_base, name=mutant_name),
            MutationRecord(operators=tuple(applied)),
        )

    # -- invariant repair ------------------------------------------------------
    def _is_confining_and(self, instruction: Instruction) -> bool:
        """Does the instruction confine its destination to the sandbox?

        True for ``AND reg, imm`` where the immediate is a submask of the
        sandbox mask — this covers both sandbox masks and the small ALU
        immediates (<= 0xff) the generator emits.
        """
        return (
            instruction.opcode is Opcode.AND
            and len(instruction.operands) == 2
            and isinstance(instruction.operands[0], Register)
            and isinstance(instruction.operands[1], Immediate)
            and instruction.operands[1].value & ~self.config.sandbox.mask == 0
        )

    def _repair_sandbox_masks(self, blocks: List[BasicBlock]) -> None:
        """Insert sandbox masks before accesses whose index is unconfined.

        Conservative linear scan per block: an index register counts as
        confined only when its most recent write *within the block* was a
        confining ``AND`` (block entry state is treated as unconfined, which
        at worst inserts a redundant mask).  Keeps every mutant's memory
        footprint inside the *current* sandbox whatever the operators did —
        and whatever sandbox the parent corpus entry was recorded under.
        """
        aligned_mask = self.config.sandbox.aligned_mask
        for block in blocks:
            confined: set = set()
            index = 0
            while index < len(block.instructions):
                instruction = block.instructions[index]
                shape = instruction.shape()
                memory = shape.memory_operand
                if (
                    memory is not None
                    and memory.index is not None
                    and memory.index not in confined
                ):
                    block.instructions.insert(
                        index,
                        Instruction(
                            Opcode.AND,
                            (Register(memory.index), Immediate(aligned_mask)),
                        ),
                    )
                    confined.add(memory.index)
                    index += 1  # re-visit the access for its own write effect
                    continue
                if self._is_confining_and(instruction):
                    confined.add(instruction.operands[0].name)
                elif shape.destination_register is not None:
                    confined.discard(shape.destination_register)
                index += 1

    # -- operators ------------------------------------------------------------
    # Each operator mutates ``blocks`` in place and returns True when it
    # actually changed something (False lets mutate() re-draw).

    def _op_insert(self, blocks, rng, donor) -> bool:
        """Insert one generator-template instruction sequence."""
        del donor
        sequence = self._template_source.random_instruction_sequence(rng)
        block = blocks[rng.randrange(len(blocks))]
        position = rng.randint(0, len(block.instructions))
        block.instructions[position:position] = sequence
        return True

    def _op_delete(self, blocks, rng, donor) -> bool:
        """Remove one body instruction (terminators stay untouched)."""
        del donor
        positions = _body_positions(blocks)
        if not positions:
            return False
        block_index, instruction_index = positions[rng.randrange(len(positions))]
        del blocks[block_index].instructions[instruction_index]
        return True

    def _op_splice(self, blocks, rng, donor) -> bool:
        """Copy a run of body instructions from the donor (or the program itself).

        Branches are never spliced: block bodies can contain conditional
        branches (the generator's Revizor pattern), and re-homing one into an
        earlier block would create a backward edge — a potential infinite
        loop — or a dangling label in a donor-to-target splice.
        """
        source_blocks = donor.blocks if donor is not None else blocks
        source_positions = [
            (block, index)
            for block in source_blocks
            for index in range(len(block.instructions))
        ]
        if not source_positions:
            return False
        source_block, start = source_positions[rng.randrange(len(source_positions))]
        length = rng.randint(1, min(4, len(source_block.instructions) - start))
        spliced = [
            copy.copy(instruction)
            for instruction in source_block.instructions[start : start + length]
            if not instruction.is_branch
        ]
        if not spliced:
            return False
        target = blocks[rng.randrange(len(blocks))]
        position = rng.randint(0, len(target.instructions))
        target.instructions[position:position] = spliced
        return True

    def _op_operand_tweak(self, blocks, rng, donor) -> bool:
        """Retarget one register operand to a different operand register."""
        del donor
        candidates = []
        for block in blocks:
            for instruction in block.instructions:
                for position, operand in enumerate(instruction.operands):
                    if isinstance(operand, Register) and operand.name in OPERAND_REGISTERS:
                        candidates.append((instruction, position, operand))
        if not candidates:
            return False
        instruction, position, operand = candidates[rng.randrange(len(candidates))]
        replacement = rng.choice(
            [name for name in OPERAND_REGISTERS if name != operand.name]
        )
        operands = list(instruction.operands)
        operands[position] = Register(replacement)
        instruction.operands = tuple(operands)
        return True

    def _op_immediate_tweak(self, blocks, rng, donor) -> bool:
        """Perturb one immediate (skipping sandbox masks, handled by mask_widen)."""
        del donor
        masks = {self.config.sandbox.mask, self.config.sandbox.aligned_mask}
        candidates = []
        for block in blocks:
            for instruction in block.instructions:
                for position, operand in enumerate(instruction.operands):
                    if isinstance(operand, Immediate) and operand.value not in masks:
                        candidates.append((instruction, position, operand))
        if not candidates:
            return False
        instruction, position, operand = candidates[rng.randrange(len(candidates))]
        tweak = rng.choice(("increment", "decrement", "bitflip", "fresh"))
        if tweak == "increment":
            value = (operand.value + 1) & 0xFF
        elif tweak == "decrement":
            value = (operand.value - 1) & 0xFF
        elif tweak == "bitflip":
            value = operand.value ^ (1 << rng.randrange(8))
        else:
            value = rng.randint(0, 255)
        operands = list(instruction.operands)
        operands[position] = Immediate(value)
        instruction.operands = tuple(operands)
        return True

    def _op_branch_flip(self, blocks, rng, donor) -> bool:
        """Flip the condition code of one conditional instruction (JCC/CMOV/SETCC)."""
        del donor
        candidates = []
        for block in blocks:
            for instruction in block.instructions:
                if instruction.condition is not None:
                    candidates.append(instruction)
            if block.terminator is not None and block.terminator.condition is not None:
                candidates.append(block.terminator)
        if not candidates:
            return False
        instruction = candidates[rng.randrange(len(candidates))]
        instruction.condition = rng.choice(
            [code for code in CONDITION_CODES if code != instruction.condition]
        )
        return True

    def _op_mask_widen(self, blocks, rng, donor) -> bool:
        """Toggle one sandbox mask between its aligned and unaligned form.

        Widening an aligned mask lets the access become unaligned (possibly
        line-crossing — the UV4 split-request territory); narrowing re-aligns
        it.  Either way the access stays inside the sandbox.
        """
        del donor
        sandbox = self.config.sandbox
        candidates = []
        for block in blocks:
            for instruction in block.instructions:
                if instruction.opcode is not Opcode.AND or len(instruction.operands) != 2:
                    continue
                destination, source = instruction.operands
                if not isinstance(destination, Register) or not isinstance(source, Immediate):
                    continue
                if source.value in (sandbox.mask, sandbox.aligned_mask):
                    candidates.append((instruction, source))
        if not candidates:
            return False
        instruction, source = candidates[rng.randrange(len(candidates))]
        widened = (
            sandbox.mask if source.value == sandbox.aligned_mask else sandbox.aligned_mask
        )
        instruction.operands = (instruction.operands[0], Immediate(widened))
        return True


# -- input-pair mutation -------------------------------------------------------

def mutate_input_pair(
    input_a: Input,
    input_b: Input,
    rng: random.Random,
    value_bits: int = 16,
    differing: Optional[Sequence[Tuple[str, object]]] = None,
) -> Tuple[Input, Input]:
    """Derive a fresh witness pair from a known one.

    Reuses the minimization machinery's location space
    (:func:`~repro.core.minimize.differing_locations` /
    :func:`~repro.core.minimize.copy_location`): with equal probability the
    mutation either *narrows* the pair (equalising one differing location —
    the minimizer's shrink move, which homes in on the secret-carrying
    location) or *shifts* it (writing the same random value to one location
    of both inputs, moving the pair to a nearby point of the input space
    while preserving their relative difference).  ``differing`` passes the
    pair's differing locations when the caller already has them.
    """
    if differing is None:
        differing = differing_locations(input_a, input_b)
    # Narrow only when more than one location differs: equalising the last
    # differing location would make the pair identical — a pair that can
    # never witness a violation (minimized witnesses are often already down
    # to the single secret-carrying location).
    if len(differing) > 1 and rng.random() < 0.5:
        location = differing[rng.randrange(len(differing))]
        return input_a, copy_location(input_a, input_b, location)

    # Shift: perturb one *agreeing* location identically in both inputs.
    # Locations where the pair differs are off-limits — writing the same
    # value there would erase (part of) the difference the pair encodes.
    differing_regs = {which for kind, which in differing if kind == "reg"}
    # Ascending: differing_locations walks memory in address order.
    differing_offsets = [which for kind, which in differing if kind == "mem"]
    registers_a = input_a.register_dict()
    register_names = sorted(set(registers_a) - differing_regs)
    # Every differing offset is a granule of input_a, so the agreeing
    # granules are counted, not listed.
    agreeing = -(-len(input_a.memory) // MEMORY_GRANULE) - len(differing_offsets)
    if register_names and (not agreeing or rng.random() < 0.5):
        name = register_names[rng.randrange(len(register_names))]
        value = rng.getrandbits(value_bits)
        registers_b = input_b.register_dict()
        registers_a[name] = value
        registers_b[name] = value
        return input_a.with_registers(registers_a), input_b.with_registers(registers_b)
    if not agreeing:
        return input_a, input_b
    # The k-th agreeing granule: step past each differing one at or below it.
    granule = rng.randrange(agreeing)
    for offset in differing_offsets:
        if offset // MEMORY_GRANULE > granule:
            break
        granule += 1
    offset = granule * MEMORY_GRANULE
    word = {offset: rng.getrandbits(value_bits).to_bytes(MEMORY_GRANULE, "little")}
    return input_a.with_overrides(word), input_b.with_overrides(word)
