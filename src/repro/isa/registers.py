"""Register file and architectural state definitions.

The register set mirrors the subset of x86-64 that Revizor-generated test
programs use: six general-purpose registers initialised from the test input
(``rax`` .. ``rdi``), a handful of scratch registers, and ``r14`` which always
holds the base address of the memory sandbox (and is therefore never
randomised or overwritten by generated programs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Set

MASK64 = (1 << 64) - 1

#: All general purpose registers known to the ISA.
GPR_NAMES = (
    "rax",
    "rbx",
    "rcx",
    "rdx",
    "rsi",
    "rdi",
    "r8",
    "r9",
    "r10",
    "r11",
    "r12",
    "r13",
    "r14",
    "r15",
)

#: Registers initialised from the test-case input (the "input registers").
INPUT_REGISTERS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi")

#: Registers the generator may freely use as temporaries.
SCRATCH_REGISTERS = ("r8", "r9", "r10", "r11", "r12", "r13")

#: Register that always holds the sandbox base address.
SANDBOX_BASE_REGISTER = "r14"

#: Status flags modelled by the ISA.
FLAG_NAMES = ("zf", "sf", "cf", "of", "pf")


class RegisterFile:
    """A mutable map of register names to 64-bit unsigned values.

    Values are always stored masked to 64 bits, which keeps the functional
    emulator and the out-of-order simulator bit-identical without every
    caller having to remember to apply :data:`MASK64`.
    """

    __slots__ = ("_values",)

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._values: Dict[str, int] = {name: 0 for name in GPR_NAMES}
        if initial:
            for name, value in initial.items():
                self.write(name, value)

    @property
    def values(self) -> Dict[str, int]:
        """The live name -> value dict; writers must store 64-bit values."""
        return self._values

    def read(self, name: str) -> int:
        """Return the 64-bit value of register ``name``."""
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        """Write ``value`` (masked to 64 bits) into register ``name``."""
        if name not in self._values:
            raise KeyError(f"unknown register: {name}")
        self._values[name] = value & MASK64

    def as_dict(self) -> Dict[str, int]:
        """Return a copy of the register contents."""
        return dict(self._values)

    def copy(self) -> "RegisterFile":
        """Return an independent copy of this register file."""
        clone = RegisterFile()
        clone._values = dict(self._values)
        return clone

    def load_from(self, values: Mapping[str, int]) -> None:
        """Overwrite registers named in ``values``; others are untouched."""
        for name, value in values.items():
            self.write(name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        interesting = {n: v for n, v in self._values.items() if v}
        return f"RegisterFile({interesting})"


@dataclass
class FlagsState:
    """The five status flags used by conditional instructions."""

    zf: bool = False
    sf: bool = False
    cf: bool = False
    of: bool = False
    pf: bool = False

    def as_dict(self) -> Dict[str, bool]:
        return {name: getattr(self, name) for name in FLAG_NAMES}

    def as_tuple(self) -> tuple:
        """The five flags in :data:`FLAG_NAMES` order, allocation-free."""
        return (self.zf, self.sf, self.cf, self.of, self.pf)

    def load_tuple(self, values: tuple) -> None:
        """Restore flags captured by :meth:`as_tuple`."""
        self.zf, self.sf, self.cf, self.of, self.pf = values

    def get(self, name: str, default: bool = False) -> bool:
        """Mapping-style read, so semantics helpers accept a FlagsState
        directly instead of forcing an ``as_dict()`` allocation per step."""
        return getattr(self, name, default)

    def update(self, new_flags: Mapping[str, bool]) -> None:
        for name, value in new_flags.items():
            if name not in FLAG_NAMES:
                raise KeyError(f"unknown flag: {name}")
            setattr(self, name, bool(value))

    def copy(self) -> "FlagsState":
        return FlagsState(**self.as_dict())


class SparseMemory:
    """Byte-addressable memory backed by a dictionary.

    Unwritten bytes read as zero.  The functional emulator uses this for
    everything outside the sandbox; the sandbox itself is a dense
    ``bytearray`` owned by :class:`ArchState` for speed.
    """

    __slots__ = ("_bytes",)

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def read(self, address: int, size: int) -> int:
        value = 0
        for offset in range(size):
            value |= self._bytes.get(address + offset, 0) << (8 * offset)
        return value

    def write(self, address: int, size: int, value: int) -> None:
        for offset in range(size):
            self._bytes[address + offset] = (value >> (8 * offset)) & 0xFF

    def copy(self) -> "SparseMemory":
        clone = SparseMemory()
        clone._bytes = dict(self._bytes)
        return clone


#: Sandbox memory is filled from its input one page at a time.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_ZERO_PAGE = bytes(PAGE_SIZE)


def image_page(image: bytes, index: int) -> bytes:
    """Page ``index`` of an explicit sandbox image, zero-padded past its end."""
    start = index << PAGE_SHIFT
    page = image[start : start + PAGE_SIZE]
    if len(page) < PAGE_SIZE:
        page += bytes(PAGE_SIZE - len(page))
    return page


def _zero_page(index: int) -> bytes:
    return _ZERO_PAGE


@dataclass
class ArchState:
    """Complete architectural state: registers, flags, and memory.

    ``sandbox_base``/``sandbox_size`` delimit a dense region (the test-case
    memory sandbox); accesses inside it use the ``sandbox`` bytearray, while
    accesses outside fall back to a sparse dictionary.  Generated programs
    only ever touch the sandbox, but priming code and hand-written litmus
    tests may touch other addresses.

    The sandbox is filled lazily.  ``resident`` names the pages of
    ``sandbox`` that hold this run's bytes; :meth:`read_memory` and
    :meth:`write_memory` — the only sandbox accessors — fill any other page
    from ``page_source`` on first touch, so a run over a 128-page sandbox
    copies only the few pages its program reaches.  Callers that reuse one
    buffer across runs pass its ``resident`` set along with it:
    :meth:`load_input` marks every page missing again.
    """

    registers: RegisterFile = field(default_factory=RegisterFile)
    flags: FlagsState = field(default_factory=FlagsState)
    sandbox_base: int = 0x100000
    sandbox_size: int = 4096
    sandbox: bytearray = field(default_factory=lambda: bytearray(4096))
    outside: SparseMemory = field(default_factory=SparseMemory)
    resident: Set[int] = field(default_factory=set)
    #: ``page_source(index)`` gives the loaded input's page ``index``.
    page_source: Callable[[int], bytes] = field(default=_zero_page, repr=False)

    def __post_init__(self) -> None:
        if len(self.sandbox) != self.sandbox_size:
            self.sandbox = bytearray(self.sandbox_size)
            self.resident.clear()
        self.registers.write(SANDBOX_BASE_REGISTER, self.sandbox_base)

    # -- memory helpers ----------------------------------------------------
    def read_memory(self, address: int, size: int) -> int:
        offset = address - self.sandbox_base
        if 0 <= offset and offset + size <= self.sandbox_size:
            resident = self.resident
            if (
                offset >> PAGE_SHIFT not in resident
                or (offset + size - 1) >> PAGE_SHIFT not in resident
            ):
                self._fill(offset, size)
            return int.from_bytes(self.sandbox[offset : offset + size], "little")
        return self.outside.read(address, size)

    def write_memory(self, address: int, size: int, value: int) -> None:
        value &= (1 << (8 * size)) - 1
        offset = address - self.sandbox_base
        if 0 <= offset and offset + size <= self.sandbox_size:
            resident = self.resident
            if (
                offset >> PAGE_SHIFT not in resident
                or (offset + size - 1) >> PAGE_SHIFT not in resident
            ):
                self._fill(offset, size)
            self.sandbox[offset : offset + size] = value.to_bytes(size, "little")
        else:
            self.outside.write(address, size, value)

    def _fill(self, offset: int, size: int) -> None:
        """Copy the missing pages under ``[offset, offset + size)`` in."""
        resident = self.resident
        for index in range(offset >> PAGE_SHIFT, ((offset + size - 1) >> PAGE_SHIFT) + 1):
            if index not in resident:
                start = index << PAGE_SHIFT
                end = min(start + PAGE_SIZE, self.sandbox_size)
                self.sandbox[start:end] = self.page_source(index)[: end - start]
                resident.add(index)

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "ArchState":
        clone = ArchState(
            registers=self.registers.copy(),
            flags=self.flags.copy(),
            sandbox_base=self.sandbox_base,
            sandbox_size=self.sandbox_size,
            sandbox=bytearray(self.sandbox),
            resident=set(self.resident),
            page_source=self.page_source,
        )
        clone.outside = self.outside.copy()
        return clone

    def load_input(self, register_values: Mapping[str, int], memory) -> None:
        """Initialise registers and sandbox memory from a test input.

        ``memory`` is an explicit image (bytes-like; bytes past its end read
        as zero) or a page source with ``len()`` and ``page(index)``, such
        as ``Input.memory``.  No byte is copied here: every page becomes
        missing, and the first access to a page fills it.
        """
        self.registers.load_from(register_values)
        self.registers.write(SANDBOX_BASE_REGISTER, self.sandbox_base)
        length = len(memory)
        if length > self.sandbox_size:
            raise ValueError(
                f"input memory ({length} bytes) larger than sandbox "
                f"({self.sandbox_size} bytes)"
            )
        if isinstance(memory, (bytes, bytearray, memoryview)):
            self.page_source = functools.partial(image_page, bytes(memory))
        else:
            self.page_source = memory.page
        self.resident.clear()

    def iter_sandbox_words(self, word_size: int = 8) -> Iterable[int]:
        """Yield the sandbox contents as little-endian words."""
        base = self.sandbox_base
        for offset in range(0, self.sandbox_size, word_size):
            yield self.read_memory(base + offset, word_size)
