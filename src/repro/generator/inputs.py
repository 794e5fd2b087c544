"""Test inputs and the seeded input generator.

An input initialises the architectural state a test program starts from: the
six input registers and the contents of the memory sandbox.  Inputs are
generated from a seeded pseudo-random number generator so campaigns are
reproducible, and can be *mutated while preserving the contract trace*:
given the set of input locations (registers / 8-byte sandbox granules) that
the leakage model's taint tracker marked as contract-relevant, a mutation
keeps those locations fixed and randomises everything else.  This "input
boosting" is what makes contract-equivalence classes of size > 1 common
enough for relational testing to find violations.
"""

from __future__ import annotations

import hashlib
import pickle
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.generator.sandbox import Sandbox
from repro.isa.registers import INPUT_REGISTERS, MASK64

#: A taint label identifies one input location: ``("reg", "rax")`` for a
#: register or ``("mem", offset)`` for the 8-byte sandbox granule starting at
#: ``offset`` (offset is always granule-aligned).
TaintLabel = Tuple[str, object]

#: Granularity at which sandbox memory is tracked and mutated.
MEMORY_GRANULE = 8

#: Width of generated register values and granule words.  Small-ish values
#: make flag conditions (and thus branch outcomes) vary between inputs, which
#: is what drives coverage of both branch directions during fuzzing; address
#: randomness is unaffected because generated programs mask addresses anyway.
VALUE_BITS = 16

#: A quarter of generated values are *small* (uniform on [0, 16)), so they
#: collide and flip flags often; the rest are uniform on [0, 2**VALUE_BITS).
SMALL_VALUE_BITS = 4

# Per-selector-byte masks for the two value bytes of a granule word: a
# selector below 64 (probability 1/4) keeps a 4-bit value, any other keeps
# the full 16 bits.
_LOW_BYTE_MASKS = bytes(0x0F if selector < 64 else 0xFF for selector in range(256))
_HIGH_BYTE_MASKS = bytes(0x00 if selector < 64 else 0xFF for selector in range(256))


def memory_taint_label(offset: int) -> TaintLabel:
    """Return the taint label of the granule containing sandbox ``offset``."""
    return ("mem", (offset // MEMORY_GRANULE) * MEMORY_GRANULE)


def register_taint_label(name: str) -> TaintLabel:
    return ("reg", name)


def _random_value(rng: random.Random) -> int:
    """One register value from the small/wide mix."""
    if rng.random() < 0.25:
        return rng.getrandbits(SMALL_VALUE_BITS)
    return rng.getrandbits(VALUE_BITS)


def _random_memory(rng: random.Random, size: int) -> bytearray:
    """Random sandbox memory of ``size`` bytes, drawn from ``rng`` in bulk.

    Every granule holds an independent word from the same small/wide mix as
    :func:`_random_value` in its two low bytes (little-endian); bytes 2..7
    are zero.  All randomness comes from one ``randbytes`` call — two value
    bytes and one selector byte per granule — and the mix is applied with
    ``bytes.translate`` and one big-integer ``&`` per byte lane, so the cost
    is a few passes in C rather than two RNG calls per granule in Python.
    """
    granules = size // MEMORY_GRANULE
    raw = rng.randbytes(3 * granules)
    selectors = raw[2 * granules :]
    memory = bytearray(size)
    for lane, masks in enumerate((_LOW_BYTE_MASKS, _HIGH_BYTE_MASKS)):
        values = int.from_bytes(raw[lane * granules : (lane + 1) * granules], "little")
        values &= int.from_bytes(selectors.translate(masks), "little")
        memory[lane::MEMORY_GRANULE] = values.to_bytes(granules, "little")
    return memory


@dataclass(frozen=True)
class Input:
    """One test input: register values plus sandbox memory contents."""

    registers: Tuple[Tuple[str, int], ...]
    memory: bytes
    seed: int = 0

    @staticmethod
    def create(registers: Dict[str, int], memory: bytes, seed: int = 0) -> "Input":
        ordered = tuple(sorted((name, value & MASK64) for name, value in registers.items()))
        return Input(registers=ordered, memory=bytes(memory), seed=seed)

    def __reduce_ex__(self, protocol):
        if protocol >= 5:
            # The sandbox image dominates an input's size; advertising it as
            # a PickleBuffer lets protocol-5 picklers with a buffer_callback
            # (the simulation-shard transport) carry it out of band instead
            # of copying it through the opcode stream.  Without a callback
            # the buffer is serialized in band — same bytes restored either
            # way, and protocol <= 4 (the default everywhere else) takes the
            # ordinary dataclass path.
            return (
                _input_from_wire,
                (self.registers, pickle.PickleBuffer(self.memory), self.seed),
            )
        return super().__reduce_ex__(protocol)

    def register_dict(self) -> Dict[str, int]:
        return dict(self.registers)

    def memory_word(self, offset: int, size: int = MEMORY_GRANULE) -> int:
        return int.from_bytes(self.memory[offset : offset + size], "little")

    def fingerprint(self) -> int:
        """A stable 64-bit content hash of the input.

        Computed with BLAKE2b, **not** Python's ``hash()``: the built-in
        string/bytes hash is salted per interpreter process, and this
        fingerprint seeds the contract-preserving mutation RNG — a salted
        value would give every fresh interpreter a different boosted-input
        stream for the same campaign seed (run-to-run nondeterminism that
        also breaks cross-process reproducibility of the persistent fuzzing
        corpus).
        """
        digest = hashlib.blake2b(self.memory, digest_size=8)
        for name, value in self.registers:
            digest.update(name.encode())
            digest.update(value.to_bytes(8, "little"))
        return int.from_bytes(digest.digest(), "little")

    def __len__(self) -> int:
        return len(self.memory)


def _input_from_wire(registers, memory, seed) -> Input:
    """Rebuild an :class:`Input` from its protocol-5 wire form.

    ``memory`` arrives as whatever buffer object the unpickler hands back (a
    ``PickleBuffer`` in band, the raw out-of-band buffer otherwise); both
    support the buffer protocol, so one ``bytes()`` restores the invariant.
    """
    return Input(registers=registers, memory=bytes(memory), seed=seed)


class InputGenerator:
    """Generates and mutates test inputs from a seeded PRNG."""

    def __init__(self, sandbox: Sandbox, seed: int = 0) -> None:
        self.sandbox = sandbox
        self.seed = seed
        self._counter = 0

    # -- generation -----------------------------------------------------------
    def reserve_counter(self) -> int:
        """Advance the stream without generating: claim the next counter.

        ``generate_at(reserve_counter())`` equals ``generate_one()`` — the
        split lets a coordinator hand the materialization of an input to a
        worker process while keeping the stream position, which is instance
        state, in one place.
        """
        self._counter += 1
        return self._counter

    def generate_one(self) -> Input:
        """Generate the next input in the seeded stream."""
        return self.generate_at(self.reserve_counter())

    def generate_at(self, counter: int) -> Input:
        """Materialize the stream's input for ``counter`` (a pure function).

        Every input is seeded by ``(seed, counter)`` alone, so any generator
        constructed with the same seed and sandbox produces bit-identical
        inputs for the same counter — in any process, in any order.
        """
        rng = random.Random((self.seed << 20) ^ counter)
        registers = {name: _random_value(rng) for name in INPUT_REGISTERS}
        memory = _random_memory(rng, self.sandbox.size)
        return Input.create(registers, memory, seed=counter)

    def generate(self, count: int) -> List[Input]:
        """Generate ``count`` fresh inputs."""
        return [self.generate_one() for _ in range(count)]

    # -- contract-preserving mutation (input boosting) -------------------------
    def mutate_preserving(
        self,
        base: Input,
        preserve: Set[TaintLabel],
        count: int = 1,
        salt: int = 0,
    ) -> List[Input]:
        """Derive ``count`` inputs from ``base`` that keep ``preserve`` fixed.

        Registers and memory granules *not* named in ``preserve`` are
        re-randomised; everything in ``preserve`` is copied verbatim from
        ``base``, so any observation that depends only on preserved locations
        (in particular the contract trace that produced the taint set) is
        unchanged.
        """
        preserved_offsets = [which for kind, which in preserve if kind == "mem"]
        fingerprint = base.fingerprint() & MASK64
        variants: List[Input] = []
        for index in range(count):
            rng = random.Random(fingerprint ^ (salt << 8) ^ (index + 1))
            registers = base.register_dict()
            for name in INPUT_REGISTERS:
                if register_taint_label(name) not in preserve:
                    registers[name] = _random_value(rng)
            memory = _random_memory(rng, self.sandbox.size)
            # Memory labels are granule-aligned sandbox offsets, so copying
            # the preserved granules back is a loop over the taint set only.
            for offset in preserved_offsets:
                memory[offset : offset + MEMORY_GRANULE] = base.memory[
                    offset : offset + MEMORY_GRANULE
                ]
            variants.append(Input.create(registers, memory, seed=base.seed))
        return variants

    @staticmethod
    def preserved_equal(a: Input, b: Input, preserve: Iterable[TaintLabel]) -> bool:
        """Check that two inputs agree on every preserved location."""
        regs_a, regs_b = a.register_dict(), b.register_dict()
        for label in preserve:
            kind, which = label
            if kind == "reg":
                if regs_a.get(which) != regs_b.get(which):
                    return False
            else:
                offset = int(which)
                if (
                    a.memory[offset : offset + MEMORY_GRANULE]
                    != b.memory[offset : offset + MEMORY_GRANULE]
                ):
                    return False
        return True
