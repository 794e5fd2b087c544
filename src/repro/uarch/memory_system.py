"""The memory hierarchy: L1I/L1D/L2 caches, MSHRs and the data TLB.

Defenses drive their cache interactions through this object (install or not,
update replacement state or not, require an MSHR or not), which is how the
same out-of-order core hosts InvisiSpec, CleanupSpec, STT and SpecLFB without
intrusive changes — mirroring the paper's goal of testing defenses without
modifying them or the simulator core.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.uarch.cache import AccessResult, MSHRFile, SetAssociativeCache
from repro.uarch.config import UarchConfig
from repro.uarch.tlb import TLB

#: Post-prime L1D/L2 snapshots keyed by (base, l1d geometry, l2 geometry).
#: Priming from empty caches is a pure function of those inputs, so the
#: snapshots are shared process-wide across MemorySystem instances (one per
#: program executor) instead of being rebuilt by each.
_PRIME_SNAPSHOTS: dict = {}


class MemorySystem:
    """L1I, L1D, a unified L2, MSHRs and a data TLB, plus an access log."""

    def __init__(self, config: UarchConfig) -> None:
        self.config = config
        self.l1d = SetAssociativeCache("l1d", config.l1d)
        self.l1i = SetAssociativeCache("l1i", config.l1i)
        self.l2 = SetAssociativeCache("l2", config.l2)
        self.dtlb = TLB(config.dtlb_entries, config.page_size)
        self.mshrs = MSHRFile(config.num_mshrs)
        #: every data-cache access performed, in order: (pc, line_address, kind)
        self.access_log: List[Tuple[int, int, str]] = []
        self.mshr_stall_events = 0
        #: Prime key the L1D/L2 dirty-set tracking is relative to: restores
        #: may copy only dirty sets when re-priming from the same snapshot
        #: the caches were last synchronised with.
        self._restored_key: Optional[tuple] = None

    def _prime_key(self, address_base: int) -> tuple:
        l1d = self.config.l1d
        l2 = self.config.l2
        return (
            address_base,
            l1d.sets, l1d.ways, l1d.line_size,
            l2.sets, l2.ways, l2.line_size,
        )

    # -- data-side accesses ----------------------------------------------------
    def data_access(
        self,
        line_address: int,
        cycle: int,
        pc: int,
        *,
        install_l1: bool = True,
        install_l2: bool = True,
        update_replacement: bool = True,
        require_mshr_on_miss: bool = True,
        kind: str = "load",
    ) -> Optional[AccessResult]:
        """Access the data hierarchy for one cache line.

        Returns ``None`` if the access misses L1 and needs an MSHR but none
        is available — the caller must retry in a later cycle (this is the
        structural stall that the UV2 interference attack observes).
        """
        config = self.config
        line = self.l1d.line_base(line_address)
        self.access_log.append((pc, line, kind))

        if self.l1d.lookup(line, update_replacement=update_replacement and install_l1):
            return AccessResult(latency=config.l1_hit_latency, l1_hit=True, l2_hit=True)

        l2_hit = self.l2.lookup(line, update_replacement=True)
        fill_latency = config.l2_hit_latency if l2_hit else config.memory_latency

        used_mshr = False
        if require_mshr_on_miss:
            mshr = self.mshrs.allocate(line, cycle + fill_latency)
            if mshr is None:
                self.access_log.pop()
                self.mshr_stall_events += 1
                return None
            used_mshr = True

        # Inlined l1d/l2 installs (see SetAssociativeCache.install): the
        # fill path runs for every L1 miss of every simulated load/store.
        # ``line`` is already a line base address, so only the set index is
        # derived here.
        evicted = None
        installed = None
        if install_l1:
            l1d = self.l1d
            l1d_config = l1d.config
            index = (line // l1d_config.line_size) % l1d_config.sets
            entry_set = l1d._lines[index]
            l1d._dirty.add(index)
            l1d._use_counter += 1
            if line not in entry_set and len(entry_set) >= l1d_config.ways:
                evicted = min(entry_set, key=entry_set.get)
                del entry_set[evicted]
            entry_set[line] = l1d._use_counter
            installed = line
        if install_l2 and not l2_hit:
            l2 = self.l2
            l2_config = l2.config
            l2_base = line - (line % l2_config.line_size)
            index = (l2_base // l2_config.line_size) % l2_config.sets
            entry_set = l2._lines[index]
            l2._dirty.add(index)
            l2._use_counter += 1
            if l2_base not in entry_set and len(entry_set) >= l2_config.ways:
                victim = min(entry_set, key=entry_set.get)
                del entry_set[victim]
            entry_set[l2_base] = l2._use_counter

        return AccessResult(
            latency=config.l1_hit_latency + fill_latency,
            l1_hit=False,
            l2_hit=l2_hit,
            evicted_line=evicted,
            installed_line=installed,
            used_mshr=used_mshr,
        )

    def dtlb_access(self, address: int, install: bool = True) -> int:
        """Access the data TLB; returns the added latency (0 on a hit)."""
        hit = self.dtlb.access(address, install=install)
        return 0 if hit else self.config.tlb_miss_latency

    def instruction_fetch(self, address: int) -> int:
        """Access the L1I for the line containing ``address``; returns latency."""
        # Inlined L1I hit path: fetch runs for every instruction of every
        # simulated cycle's fetch group, and nearly all of them hit.
        l1i = self.l1i
        line_size = l1i.config.line_size
        line = address - (address % line_size)
        entry_set = l1i._lines[(address // line_size) % l1i.config.sets]
        if line in entry_set:
            l1i._use_counter += 1
            entry_set[line] = l1i._use_counter
            return 1
        # Inlined l1i/l2 installs for the miss path (fetch-ahead streams miss
        # on every new line, so this runs dozens of times per test case).
        # The L1I needs no dirty marking: it is never snapshot-restored.
        l1i._use_counter += 1
        if len(entry_set) >= l1i.config.ways:
            victim = min(entry_set, key=entry_set.get)
            del entry_set[victim]
        entry_set[line] = l1i._use_counter
        l2 = self.l2
        l2_config = l2.config
        l2_base = line - (line % l2_config.line_size)
        index = (l2_base // l2_config.line_size) % l2_config.sets
        l2_set = l2._lines[index]
        l2._dirty.add(index)
        l2._use_counter += 1
        if l2_base not in l2_set and len(l2_set) >= l2_config.ways:
            victim = min(l2_set, key=l2_set.get)
            del l2_set[victim]
        l2_set[l2_base] = l2._use_counter
        return self.config.l1i_miss_latency

    # -- split accesses -----------------------------------------------------------
    def lines_of_access(self, address: int, size: int) -> List[int]:
        """Line base addresses touched by an access (two if it crosses a line)."""
        first = self.l1d.line_base(address)
        last = self.l1d.line_base(address + max(size, 1) - 1)
        return [first] if first == last else [first, last]

    # -- white-box state management -------------------------------------------------
    def reset_caches(self) -> None:
        self.l1d.flush()
        self.l1i.flush()
        self.l2.flush()
        self.dtlb.flush()
        self.reset_run_state()

    def reset_run_state(self) -> None:
        """Forget the last run's misses in flight and its access log.

        Cache and TLB contents stay as the last run left them (the
        ``PrimeStrategy.NONE`` reset); MSHR release cycles and the access
        log belong to one run.
        """
        self.mshrs.reset()
        self.access_log.clear()
        self.mshr_stall_events = 0

    def clear_access_log(self) -> None:
        self.access_log.clear()

    def reset_and_prime(self, address_base: int) -> int:
        """Flush the caches and TLB, then fill every L1D set from ``address_base``.

        This is AMuLeT's cache-priming step: starting every test from fully
        occupied sets of *out-of-sandbox* addresses makes leaks visible both
        through speculative installs (new lines present) and through
        replacements (primed lines missing).  Returns the number of lines
        installed.  The primed lines are also installed in L2 so that probes
        of primed lines are L2 hits rather than memory accesses.

        Priming from empty caches is a pure function of the prime base and
        the cache geometry, so the install loop runs once per base and
        process (:meth:`_prime_from_empty`); later calls rebuild the L1D/L2
        straight from its snapshot.  Back-to-back restores from the *same*
        snapshot only rebuild the sets the previous run dirtied.
        """
        self.reset_run_state()
        self.dtlb.flush()
        self.l1i.flush()
        key = self._prime_key(address_base)
        snapshot = _PRIME_SNAPSHOTS.get(key)
        if snapshot is None:
            return self._prime_from_empty(address_base, key)
        installed, l1d_lines, l1d_counter, l2_lines, l2_counter = snapshot
        l1d = self.l1d
        l2 = self.l2
        if self._restored_key != key:
            l1d._dirty_all = True
            l2._dirty_all = True
            self._restored_key = key
        l1d.restore_from(l1d_lines, l1d_counter)
        l2.restore_from(l2_lines, l2_counter)
        return installed

    def _prime_from_empty(self, address_base: int, key: tuple) -> int:
        """Flush the L1D/L2, run the install loop and record its snapshot."""
        l1d = self.l1d
        l2 = self.l2
        l1d.flush()
        l2.flush()
        config = l1d.config
        installed = 0
        for set_index in range(config.sets):
            addresses = []
            for way in range(config.ways):
                address = (
                    address_base
                    + way * config.sets * config.line_size
                    + set_index * config.line_size
                )
                addresses.append(address)
                l2.install(address)
                installed += 1
            l1d.fill_set(set_index, addresses)
        _PRIME_SNAPSHOTS[key] = (
            installed,
            tuple(dict(entry_set) for entry_set in l1d._lines),
            l1d._use_counter,
            tuple(dict(entry_set) for entry_set in l2._lines),
            l2._use_counter,
        )
        # Live state now equals the snapshot by construction, so dirty
        # tracking can start from here.
        l1d._dirty.clear()
        l1d._dirty_all = False
        l2._dirty.clear()
        l2._dirty_all = False
        self._restored_key = key
        return installed

    def cache_state(self) -> Tuple[tuple, ...]:
        """L1I, L1D and L2 contents with replacement state and use counters.

        One ``(per-set {line: last use}, use counter)`` pair per cache, for
        comparing two runs exactly: the trace snapshots are sorted line sets
        and do not show LRU order.
        """
        return tuple(
            (tuple(dict(entry_set) for entry_set in cache._lines), cache._use_counter)
            for cache in (self.l1i, self.l1d, self.l2)
        )

    def snapshot_l1d(self) -> Tuple[int, ...]:
        return self.l1d.snapshot()

    def snapshot_l1i(self) -> Tuple[int, ...]:
        return self.l1i.snapshot()

    def snapshot_dtlb(self) -> Tuple[int, ...]:
        return self.dtlb.snapshot()

    def memory_access_order(self) -> Tuple[Tuple[int, int, str], ...]:
        return tuple(self.access_log)
