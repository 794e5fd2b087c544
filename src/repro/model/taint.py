"""Dynamic taint tracking over input locations.

The taint domain is the set of *input locations*: the six input registers
and each 8-byte granule of the memory sandbox.  The emulator propagates, for
every architectural value, the set of input locations it (transitively)
depends on.  Whenever the contract emits an observation, the taints of the
values that determined that observation are added to the *contract-relevant*
set.  Input boosting then randomises exactly the locations that are **not**
contract-relevant, producing new inputs with identical contract traces.

Over-approximating is safe (boosting just mutates less).  Boosted variants
inherit their base's contract trace unemulated, so an under-approximation
would put a variant in the wrong contract class; the fuzzer emulates every
boosted witness of a candidate violation and drops the candidate if the
trace is not the inherited one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.generator.inputs import (
    TaintLabel,
    memory_taint_label,
    register_taint_label,
)
from repro.generator.sandbox import Sandbox
from repro.isa.registers import GPR_NAMES, INPUT_REGISTERS, SANDBOX_BASE_REGISTER

EMPTY: FrozenSet[TaintLabel] = frozenset()

#: Journal sentinel: the granule had no explicit entry before the write.
_ABSENT = object()

#: Register taints at the start of a run: every input register carries its
#: own label; the other registers (the sandbox base included) carry none.
_INITIAL_REGISTER_TAINTS: Dict[str, FrozenSet[TaintLabel]] = {
    name: frozenset({register_taint_label(name)}) if name in INPUT_REGISTERS else EMPTY
    for name in GPR_NAMES
}


class TaintState:
    """Tracks taint sets for registers, flags and sandbox memory granules.

    ``granule_labels`` caches the initial self-taint of each granule
    (``{memory_taint_label(offset)}``) by granule offset; runs that share
    it (the runs of one emulator) build each of those sets once.
    """

    def __init__(
        self,
        sandbox: Sandbox,
        granule_labels: Optional[Dict[int, FrozenSet[TaintLabel]]] = None,
    ) -> None:
        self.sandbox = sandbox
        self._base = sandbox.base
        self._size = sandbox.size
        self.register_taints: Dict[str, FrozenSet[TaintLabel]] = dict(
            _INITIAL_REGISTER_TAINTS
        )
        self.flag_taint: FrozenSet[TaintLabel] = EMPTY
        #: taints of memory granules that have been overwritten; granules not
        #: present still carry their initial self-taint.
        self._memory_taints: Dict[int, FrozenSet[TaintLabel]] = {}
        self._granule_labels = {} if granule_labels is None else granule_labels
        #: input locations that influence the contract trace.
        self.relevant: Set[TaintLabel] = set()
        #: undo journal for speculative exploration; entries are
        #: ``(kind, key, old_value)`` and only recorded while at least one
        #: snapshot is outstanding, so the architectural path pays nothing.
        self._journal: list = []
        self._speculation_depth = 0

    # -- reads ---------------------------------------------------------------
    def register(self, name: str) -> FrozenSet[TaintLabel]:
        return self.register_taints.get(name, EMPTY)

    def registers(self, names: Iterable[str]) -> FrozenSet[TaintLabel]:
        taints = self.register_taints
        result: FrozenSet[TaintLabel] = EMPTY
        for name in names:
            result |= taints.get(name, EMPTY)
        return result

    def _granule(self, offset: int) -> FrozenSet[TaintLabel]:
        """Current taint of the granule at (aligned) sandbox ``offset``."""
        taint = self._memory_taints.get(offset)
        if taint is None:
            taint = self._granule_labels.get(offset)
            if taint is None:
                taint = self._granule_labels[offset] = frozenset(
                    {memory_taint_label(offset)}
                )
        return taint

    def memory(self, address: int, size: int) -> FrozenSet[TaintLabel]:
        """Taint of the memory bytes at ``address`` (sandbox-granule based)."""
        first = address - self._base
        if first < 0 or first >= self._size:
            return EMPTY
        if first >> 3 == (first + size - 1) >> 3:
            # One granule: its taint set as is.
            return self._granule(first & ~7)
        last = min(first + max(size, 1) - 1, self._size - 1)
        result: FrozenSet[TaintLabel] = EMPTY
        offset = first & ~7
        while offset <= last:
            result |= self._granule(offset)
            offset += 8
        return result

    # -- writes ----------------------------------------------------------------
    def set_register(self, name: str, taint: FrozenSet[TaintLabel]) -> None:
        if name == SANDBOX_BASE_REGISTER:
            return
        if self._speculation_depth:
            self._journal.append(("reg", name, self.register_taints.get(name, EMPTY)))
        self.register_taints[name] = taint

    def set_flags(self, taint: FrozenSet[TaintLabel]) -> None:
        if self._speculation_depth:
            self._journal.append(("flags", None, self.flag_taint))
        self.flag_taint = taint

    def set_memory(self, address: int, size: int, taint: FrozenSet[TaintLabel]) -> None:
        first = address - self._base
        if first < 0 or first >= self._size:
            return
        last = min(first + max(size, 1) - 1, self._size - 1)
        offset = first & ~7
        memory = self._memory_taints
        journaling = self._speculation_depth > 0
        while offset <= last:
            if journaling:
                self._journal.append(("mem", offset, memory.get(offset, _ABSENT)))
            if first <= offset and offset + 8 <= first + size:
                memory[offset] = taint
            else:
                # A partial-granule store merges with what is already there.
                memory[offset] = self._granule(offset) | taint
            offset += 8

    # -- relevance ----------------------------------------------------------------
    def mark_relevant(self, taint: Iterable[TaintLabel]) -> None:
        self.relevant.update(taint)

    def relevant_labels(self) -> Set[TaintLabel]:
        return set(self.relevant)

    # -- checkpointing (for speculative contract paths) -----------------------------
    def snapshot(self) -> int:
        """Open a speculative scope; returns a mark for :meth:`restore`.

        Snapshots are journal marks rather than state copies: writes made
        while at least one snapshot is outstanding record their old value,
        and ``restore`` replays the journal back to the mark.  Nested
        speculation simply stacks marks.  ``relevant`` is deliberately not
        rolled back — speculative observations stay contract-relevant.
        """
        self._speculation_depth += 1
        return len(self._journal)

    def restore(self, mark: int) -> None:
        """Undo every write journalled since the matching :meth:`snapshot`."""
        journal = self._journal
        registers = self.register_taints
        memory = self._memory_taints
        while len(journal) > mark:
            kind, key, old = journal.pop()
            if kind == "reg":
                registers[key] = old
            elif kind == "flags":
                self.flag_taint = old
            elif old is _ABSENT:
                memory.pop(key, None)
            else:
                memory[key] = old
        self._speculation_depth -= 1
