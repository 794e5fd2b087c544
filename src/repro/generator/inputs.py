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

An input describes its memory rather than storing it: a derivation key (or
an explicit image) plus granule overrides.  Each 4 KiB page is derived when
a run first touches it, so a 128-page sandbox costs only the few pages a
program reaches.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.seeding import mix_seed
from repro.generator.sandbox import Sandbox
from repro.isa.registers import INPUT_REGISTERS, MASK64, PAGE_SHIFT, PAGE_SIZE, image_page

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


def _random_page(rng: random.Random) -> bytearray:
    """One random sandbox page, drawn from ``rng`` in bulk.

    Every granule holds an independent word from the same small/wide mix as
    :func:`_random_value` in its two low bytes (little-endian); bytes 2..7
    are zero.  All randomness comes from one ``randbytes`` call — two value
    bytes and one selector byte per granule — and the mix is applied with
    ``bytes.translate`` and one big-integer ``&`` per byte lane, so the cost
    is a few passes in C rather than two RNG calls per granule in Python.
    """
    granules = PAGE_SIZE // MEMORY_GRANULE
    raw = rng.randbytes(3 * granules)
    selectors = raw[2 * granules :]
    memory = bytearray(PAGE_SIZE)
    for lane, masks in enumerate((_LOW_BYTE_MASKS, _HIGH_BYTE_MASKS)):
        values = int.from_bytes(raw[lane * granules : (lane + 1) * granules], "little")
        values &= int.from_bytes(selectors.translate(masks), "little")
        memory[lane::MEMORY_GRANULE] = values.to_bytes(granules, "little")
    return memory


def _draw_registers(rng: random.Random) -> Dict[str, int]:
    """The input registers, drawn in :data:`INPUT_REGISTERS` order."""
    return {name: _random_value(rng) for name in INPUT_REGISTERS}


def _ordered(registers: Mapping[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted((name, value & MASK64) for name, value in registers.items()))


@dataclass(frozen=True)
class Input:
    """One test input: register values plus sandbox memory contents.

    Memory is described, not stored.  Its pages come from one base:

    * ``image`` — an explicit image (:meth:`create`: litmus cases, tests);
      or
    * ``key`` — a derivation key: page ``i`` is drawn from an RNG seeded
      with ``mix_seed(key, i)``.  When ``stream`` is set (inputs of the
      generator's seeded stream), page 0 instead continues the stream's
      ``Random(stream)`` right after the register draws, which is the
      stream's 1-page layout.

    ``overrides`` (granule offset -> 8 bytes) are applied on top of the
    base.  A page is derived on first use (:meth:`page`) and cached on this
    object; the cache is never serialized or compared.  :meth:`to_dict` is
    the one serialized form (JSON files and pickles alike).
    """

    registers: Tuple[Tuple[str, int], ...]
    size: int
    key: Optional[int] = None
    stream: Optional[int] = None
    overrides: Tuple[Tuple[int, bytes], ...] = ()
    image: Optional[bytes] = None
    seed: int = 0
    _pages: Dict[int, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def create(registers: Mapping[str, int], memory, seed: int = 0) -> "Input":
        """An input whose memory is the explicit image ``memory``."""
        image = bytes(memory)
        return Input(registers=_ordered(registers), size=len(image), image=image, seed=seed)

    # -- serialized form ----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """This input's description as a JSON-ready dict.

        Memory is written as its base and overrides (offset, 8 bytes as
        hex), never as derived pages; an explicit image is written without
        its trailing zero bytes.  :meth:`from_dict` restores an equal input
        with the same :meth:`fingerprint`.
        """
        payload: Dict[str, object] = {
            "registers": dict(self.registers),
            "size": self.size,
            "key": self.key,
            "stream": self.stream,
            "overrides": [[offset, word.hex()] for offset, word in self.overrides],
            "seed": self.seed,
        }
        if self.image is not None:
            payload["image"] = self.image.rstrip(b"\0").hex()
        return payload

    @staticmethod
    def from_dict(payload: Mapping[str, object]) -> "Input":
        """The input a :meth:`to_dict` payload describes."""
        size = payload["size"]
        image = payload.get("image")
        return Input(
            registers=_ordered(payload["registers"]),
            size=size,
            key=payload["key"],
            stream=payload["stream"],
            overrides=tuple(
                (offset, bytes.fromhex(word)) for offset, word in payload["overrides"]
            ),
            image=None if image is None else bytes.fromhex(image).ljust(size, b"\0"),
            seed=payload["seed"],
        )

    def __reduce__(self):
        # Pickles (snapshots, pool messages) carry the same description.
        return Input.from_dict, (self.to_dict(),)

    # -- derived inputs -----------------------------------------------------
    def with_registers(self, registers: Mapping[str, int]) -> "Input":
        """This input with its registers replaced (memory unchanged)."""
        return replace(self, registers=_ordered(registers))

    def with_overrides(self, words: Mapping[int, bytes]) -> "Input":
        """This input with the granules in ``words`` (offset -> 8 bytes) set."""
        merged = dict(self.overrides)
        merged.update(words)
        return replace(self, overrides=tuple(sorted(merged.items())))

    # -- memory -------------------------------------------------------------
    @property
    def memory(self) -> "Input":
        """The sandbox's page source: the input itself, whose ``len()`` is
        the sandbox size and whose :meth:`page` serves its pages."""
        return self

    def page(self, index: int, cache: bool = True) -> bytes:
        """Sandbox page ``index`` of this input, derived at most once.

        ``cache=False`` serves whole-sandbox walks: a page derived for one
        is not kept on the input.
        """
        page = self._pages.get(index)
        if page is None:
            page = self._derive_page(index)
            if cache:
                self._pages[index] = page
        return page

    def _derive_page(self, index: int) -> bytes:
        if self.image is not None:
            page = image_page(self.image, index)
        elif index << PAGE_SHIFT >= self.size:
            page = bytes(PAGE_SIZE)  # past the end of the input
        elif index == 0 and self.stream is not None:
            rng = random.Random(self.stream)
            _draw_registers(rng)
            page = _random_page(rng)
        else:
            page = _random_page(random.Random(mix_seed(self.key, index)))
        start = index << PAGE_SHIFT
        words = [
            (offset - start, word)
            for offset, word in self.overrides
            if start <= offset < start + PAGE_SIZE
        ]
        if not words:
            return bytes(page)
        page = bytearray(page)
        for offset, word in words:
            page[offset : offset + MEMORY_GRANULE] = word
        return bytes(page)

    def read(self, offset: int, size: int) -> bytes:
        """``size`` bytes of memory from ``offset`` (clipped at the end)."""
        size = max(0, min(size, self.size - offset))
        if not size:
            return b""
        first = offset >> PAGE_SHIFT
        last = (offset + size - 1) >> PAGE_SHIFT
        start = offset - (first << PAGE_SHIFT)
        if first == last:
            return self.page(first)[start : start + size]
        pages = b"".join(self.page(index) for index in range(first, last + 1))
        return pages[start : start + size]

    def register_dict(self) -> Dict[str, int]:
        return dict(self.registers)

    def memory_word(self, offset: int, size: int = MEMORY_GRANULE) -> int:
        return int.from_bytes(self.read(offset, size), "little")

    def fingerprint(self) -> int:
        """A stable 64-bit hash of the input's description.

        It hashes the registers, the memory base (key, stream, or the
        explicit image) and the overrides — never derived pages — so it
        costs the same at any sandbox size.  Two inputs with equal
        descriptions have equal memory; an explicit image and a derived
        input with the same bytes hash differently.

        Computed with BLAKE2b, **not** Python's ``hash()``: the built-in
        string/bytes hash is salted per interpreter process, and this
        fingerprint seeds the contract-preserving mutation RNG — a salted
        value would give every fresh interpreter a different boosted-input
        stream for the same campaign seed (run-to-run nondeterminism that
        also breaks cross-process reproducibility of the persistent fuzzing
        corpus).
        """
        digest = hashlib.blake2b(digest_size=8)
        for name, value in self.registers:
            digest.update(name.encode())
            digest.update(value.to_bytes(8, "little"))
        digest.update(repr((self.size, self.key, self.stream)).encode())
        for offset, word in self.overrides:
            digest.update(offset.to_bytes(8, "little"))
            digest.update(word)
        if self.image is not None:
            digest.update(self.image)
        return int.from_bytes(digest.digest(), "little")

    def __len__(self) -> int:
        return self.size


class InputGenerator:
    """Generates and mutates test inputs from a seeded PRNG."""

    def __init__(self, sandbox: Sandbox, seed: int = 0) -> None:
        self.sandbox = sandbox
        self.seed = seed
        self._counter = 0

    # -- generation -----------------------------------------------------------
    def generate_one(self) -> Input:
        """Generate the next input in the seeded stream."""
        self._counter += 1
        return self.generate_at(self._counter)

    def generate_at(self, counter: int) -> Input:
        """The stream's input for ``counter`` (a pure function).

        Every input is seeded by ``(seed, counter)`` alone, so any generator
        constructed with the same seed and sandbox produces bit-identical
        inputs for the same counter — in any process, in any order.  Only
        the registers are drawn here; memory pages are derived on first use.
        """
        stream = (self.seed << 20) ^ counter
        return Input(
            registers=_ordered(_draw_registers(random.Random(stream))),
            size=self.sandbox.size,
            key=mix_seed(self.seed, counter),
            stream=stream,
            seed=counter,
        )

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
        unchanged.  Given the base's contract-relevant labels, a variant
        emulates to the base's contract trace and speculation profile, and
        the fuzzer gives it both without emulating it.

        Variant ``index`` gets the key ``mix_seed(mix_seed(fingerprint,
        salt), index + 1)``: it seeds the variant's register draws and, per
        page, its memory.  No page is derived here, and ``count <= 0``
        returns at once, without fingerprinting ``base``.
        """
        if count <= 0:
            return []
        # Preserved granules become overrides copied from the base, so they
        # stay byte-identical whatever the variant's key derives.
        overrides = tuple(
            sorted(
                (which, base.read(which, MEMORY_GRANULE))
                for kind, which in preserve
                if kind == "mem"
            )
        )
        family = mix_seed(base.fingerprint(), salt)
        variants: List[Input] = []
        for index in range(count):
            key = mix_seed(family, index + 1)
            rng = random.Random(key)
            registers = base.register_dict()
            for name in INPUT_REGISTERS:
                if register_taint_label(name) not in preserve:
                    registers[name] = _random_value(rng)
            variants.append(
                Input(
                    registers=_ordered(registers),
                    size=self.sandbox.size,
                    key=key,
                    overrides=overrides,
                    seed=base.seed,
                )
            )
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
            elif a.read(which, MEMORY_GRANULE) != b.read(which, MEMORY_GRANULE):
                return False
        return True
