"""Set-associative caches and miss-status-handling registers (MSHRs).

Caches here are *footprint and timing* models: they track which line
addresses are present (and their LRU order) but never hold data — data always
comes from the shared ISA semantics.  This is exactly the information a
cache side-channel attacker can recover (which lines are cached), and it is
what AMuLeT's default micro-architectural trace snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.uarch.config import CacheConfig

#: A :attr:`SetAssociativeCache._top_line` that bounds nothing.
_UNBOUNDED = 1 << 64


@dataclass
class AccessResult:
    """Outcome of a cache-hierarchy access (see :class:`MemorySystem`)."""

    latency: int
    l1_hit: bool
    l2_hit: bool
    evicted_line: Optional[int] = None
    installed_line: Optional[int] = None
    used_mshr: bool = False


class SetAssociativeCache:
    """A set-associative cache with true-LRU replacement.

    Lines are identified by their line base address.  The class exposes both
    the normal access path (:meth:`lookup` / :meth:`install`) and white-box
    helpers used by the executor (priming, snapshots, invalidation) — the
    paper stresses that a simulator gives white-box access to this state and
    AMuLeT exploits that to build its micro-architectural traces.
    """

    def __init__(self, name: str, config: CacheConfig) -> None:
        self.name = name
        self.config = config
        self._lines: List[Dict[int, int]] = [dict() for _ in range(config.sets)]
        self._use_counter = 0
        # Dirty-set tracking for snapshot restores: every mutating entry
        # point records the set index it touched, so restoring a snapshot
        # (the per-test-case re-prime) only rebuilds the handful of sets a
        # run actually dirtied instead of copying every set dict.
        # ``_dirty_all`` marks states with no snapshot correspondence
        # (fresh cache, post-flush) that need the full copy.
        self._dirty: set = set()
        self._dirty_all = True
        # Every set outside ``_dirty`` is empty (fresh, or flushed since):
        # a flush then clears only the dirty sets.
        self._empty_outside_dirty = True
        #: No line above this base was installed since the last flush (-1:
        #: none), so none is resident.  Kept by this class's entry points and
        #: by MemorySystem's inlined L1I fills, which read it for the L1I;
        #: its inlined L1D/L2 fills leave it behind.
        self._top_line = -1

    # -- address helpers -----------------------------------------------------
    def line_base(self, address: int) -> int:
        return address - (address % self.config.line_size)

    def set_index(self, address: int) -> int:
        return (address // self.config.line_size) % self.config.sets

    # -- access path -----------------------------------------------------------
    # The line/set arithmetic is inlined in the hot entry points below
    # (lookup/install/probe): the address helpers cost a function call each,
    # and the access path runs several times per simulated cycle.
    def lookup(self, address: int, update_replacement: bool = True) -> bool:
        """Return True on hit; optionally refresh the line's LRU position."""
        config = self.config
        line_size = config.line_size
        base = address - (address % line_size)
        index = (address // line_size) % config.sets
        entry_set = self._lines[index]
        if base in entry_set:
            if update_replacement:
                self._use_counter += 1
                entry_set[base] = self._use_counter
                self._dirty.add(index)
            return True
        return False

    def probe(self, address: int) -> bool:
        """Hit/miss check with no side effect on replacement state."""
        line_size = self.config.line_size
        return (address - (address % line_size)) in self._lines[
            (address // line_size) % self.config.sets
        ]

    def has_free_way(self, address: int) -> bool:
        return len(self._lines[self.set_index(address)]) < self.config.ways

    def victim(self, address: int) -> Optional[int]:
        """The line that would be evicted by installing ``address``."""
        entry_set = self._lines[self.set_index(address)]
        if len(entry_set) < self.config.ways:
            return None
        return min(entry_set, key=entry_set.get)

    def install(self, address: int) -> Optional[int]:
        """Install the line containing ``address``; return any evicted line."""
        config = self.config
        line_size = config.line_size
        base = address - (address % line_size)
        index = (address // line_size) % config.sets
        entry_set = self._lines[index]
        self._dirty.add(index)
        self._use_counter += 1
        if base in entry_set:
            entry_set[base] = self._use_counter
            return None
        if base > self._top_line:
            self._top_line = base
        evicted = None
        if len(entry_set) >= config.ways:
            evicted = min(entry_set, key=entry_set.get)
            del entry_set[evicted]
        entry_set[base] = self._use_counter
        return evicted

    def evict(self, address: int) -> Optional[int]:
        """Force an eviction in the set of ``address`` (LRU victim).

        Used to model InvisiSpec's UV1 bug, where a speculative load miss on
        a full set triggers a replacement even though nothing is installed.
        """
        index = self.set_index(address)
        entry_set = self._lines[index]
        if not entry_set:
            return None
        victim = min(entry_set, key=entry_set.get)
        del entry_set[victim]
        self._dirty.add(index)
        return victim

    def invalidate(self, address: int) -> bool:
        """Remove the line containing ``address``; return True if it was present."""
        base = self.line_base(address)
        index = self.set_index(address)
        entry_set = self._lines[index]
        if base in entry_set:
            del entry_set[base]
            self._dirty.add(index)
            return True
        return False

    # -- white-box helpers -------------------------------------------------------
    def flush(self) -> None:
        """Empty the cache: only the sets dirtied since the last flush, when
        nothing but those can hold lines, else every set."""
        lines = self._lines
        if self._empty_outside_dirty:
            for index in self._dirty:
                lines[index].clear()
        else:
            for entry_set in lines:
                entry_set.clear()
            self._empty_outside_dirty = True
        self._use_counter = 0
        self._dirty.clear()
        self._dirty_all = True
        self._top_line = -1

    def restore_from(self, lines_snapshot, use_counter: int) -> None:
        """Rebuild cache contents from a snapshot taken of *this* lineage.

        Only valid when the current state was derived from ``lines_snapshot``
        by mutations recorded in ``_dirty`` (the caller tracks which snapshot
        the cache was last synchronised with); otherwise ``_dirty_all`` must
        be set first to force the full copy.
        """
        if self._dirty_all:
            self._lines = [dict(entry_set) for entry_set in lines_snapshot]
            self._dirty_all = False
        else:
            lines = self._lines
            for index in self._dirty:
                lines[index] = dict(lines_snapshot[index])
        self._dirty.clear()
        self._empty_outside_dirty = False
        self._use_counter = use_counter
        self._top_line = _UNBOUNDED

    def fill_set(self, set_index: int, addresses: List[int]) -> None:
        """Prime one set with the given line addresses (oldest first)."""
        entry_set = self._lines[set_index]
        self._dirty.add(set_index)
        for address in addresses:
            self._use_counter += 1
            base = self.line_base(address)
            entry_set[base] = self._use_counter
            if base > self._top_line:
                self._top_line = base

    def snapshot(self) -> Tuple[int, ...]:
        """Sorted tuple of all resident line base addresses."""
        lines: List[int] = []
        for entry_set in self._lines:
            lines.extend(entry_set.keys())
        return tuple(sorted(lines))

    def occupancy(self) -> int:
        return sum(len(entry_set) for entry_set in self._lines)

    def contains(self, address: int) -> bool:
        return self.probe(address)

    def resident_lines_in_set(self, set_index: int) -> Tuple[int, ...]:
        return tuple(sorted(self._lines[set_index].keys()))


class MSHRFile:
    """Miss-status-handling registers: a bounded pool of outstanding misses.

    Each outstanding miss occupies one MSHR until its fill completes.  When
    all MSHRs are busy, new misses (and InvisiSpec expose operations) must
    wait — the contention that the paper's UV2 single-core speculative
    interference attack exploits, and the structure the amplification
    technique shrinks to make that contention likely in short tests.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("need at least one MSHR")
        self.count = count
        self._busy: Dict[int, Tuple[int, int]] = {}  # id -> (line, release_cycle)
        self._next_id = 0
        #: Earliest release cycle among busy MSHRs (None when idle); lets the
        #: per-cycle expire sweep return without scanning while fills are
        #: still in flight.
        self._next_release: Optional[int] = None
        self.peak_occupancy = 0

    def expire(self, cycle: int) -> None:
        """Release MSHRs whose fills have completed by ``cycle``."""
        busy = self._busy
        if not busy or cycle < self._next_release:
            return
        finished = [mshr for mshr, (_, release) in busy.items() if release <= cycle]
        for mshr in finished:
            del busy[mshr]
        self._next_release = (
            min(release for _, release in busy.values()) if busy else None
        )

    def available(self) -> bool:
        return len(self._busy) < self.count

    def occupancy(self) -> int:
        return len(self._busy)

    def allocate(self, line_address: int, release_cycle: int) -> Optional[int]:
        """Allocate an MSHR until ``release_cycle``; None if all are busy."""
        if not self.available():
            return None
        mshr_id = self._next_id
        self._next_id += 1
        self._busy[mshr_id] = (line_address, release_cycle)
        if self._next_release is None or release_cycle < self._next_release:
            self._next_release = release_cycle
        self.peak_occupancy = max(self.peak_occupancy, len(self._busy))
        return mshr_id

    def reset(self) -> None:
        self._busy.clear()
        self._next_release = None
        self.peak_occupancy = 0
