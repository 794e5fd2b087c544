"""The test-case memory sandbox.

Every memory access in a generated program is forced into a predefined,
initialised region of memory (the sandbox) by masking the index register
before the access.  The sandbox size is measured in 4 KiB pages; the paper
varies it from 1 page (for defenses that do not protect the TLB) to 128
pages (for STT, where TLB leakage is part of the threat model).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import PAGE_SIZE

#: Default virtual address of the first sandbox byte.
DEFAULT_SANDBOX_BASE = 0x100000


@dataclass(frozen=True)
class Sandbox:
    """Describes the memory sandbox of a test case."""

    pages: int = 1
    base: int = DEFAULT_SANDBOX_BASE

    def __post_init__(self) -> None:
        if self.pages < 1:
            raise ValueError("sandbox needs at least one page")
        if self.pages & (self.pages - 1):
            raise ValueError("sandbox page count must be a power of two")
        if self.base % PAGE_SIZE:
            raise ValueError("sandbox base must be page aligned")

    @property
    def size(self) -> int:
        """Total sandbox size in bytes."""
        return self.pages * PAGE_SIZE

    @property
    def mask(self) -> int:
        """Mask applied to index registers to confine accesses."""
        return self.size - 1

    @property
    def aligned_mask(self) -> int:
        """Mask that additionally aligns the offset to 8 bytes."""
        return self.mask & ~0x7

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.end

    def offset_of(self, address: int) -> int:
        """Sandbox-relative offset of an absolute address."""
        if not self.contains(address):
            raise ValueError(f"address {address:#x} outside the sandbox")
        return address - self.base

    def page_of(self, address: int) -> int:
        """Zero-based page index of an absolute sandbox address."""
        return self.offset_of(address) // PAGE_SIZE
