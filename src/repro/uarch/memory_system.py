"""The memory hierarchy: L1I/L1D/L2 caches, MSHRs and the data TLB.

Defenses drive their cache interactions through this object (install or not,
update replacement state or not, require an MSHR or not), which is how the
same out-of-order core hosts InvisiSpec, CleanupSpec, STT and SpecLFB without
intrusive changes — mirroring the paper's goal of testing defenses without
modifying them or the simulator core.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Set, Tuple

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
        # The post-EXIT fetch-ahead stream (see start_fetch_ahead): the next
        # pc it fetches (None: no stream), the cycle of its next step, the
        # cycle its steps stop at (None while EXIT is in flight), its limit
        # pc and its step in bytes.
        self.ahead_pc: Optional[int] = None
        self.ahead_cycle = 0
        self.ahead_end: Optional[int] = None
        self.ahead_limit = 0
        self.ahead_step = 0
        # What the walk has applied: the pc it reached and the lines it
        # passed.  Per-set settling (fast streams only): the stream's first
        # line, the lines started, whether the first needs no L2 install,
        # the reserved L2 use counters as (first line, counter - line)
        # blocks, and the lines installed ahead of the walk.
        self._walk_pc = 0
        self._walked = 0
        self._ahead_fast = False
        self._ahead_first = 0
        self._ahead_lines = 0
        self._ahead_skip = 0
        self._ahead_blocks: List[Tuple[int, int]] = []
        self._ahead_installed: Set[int] = set()
        self._ref = weakref.ref(self)

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

        if self.ahead_pc is not None:
            self.settle_fetch_ahead_set(line, cycle)
        # Inlined L2 lookup: the settle above covered this set, so the
        # cache's own check for an ended stream (a full settle) is skipped.
        l2 = self.l2
        l2_config = l2.config
        l2_base = line - (line % l2_config.line_size)
        l2_index = (l2_base // l2_config.line_size) % l2_config.sets
        l2_set = l2._lines[l2_index]
        l2_hit = l2_base in l2_set
        if l2_hit:
            l2._use_counter += 1
            l2_set[l2_base] = l2._use_counter
            l2._dirty.add(l2_index)
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
            l2._dirty.add(l2_index)
            l2._use_counter += 1
            if len(l2_set) >= l2_config.ways:
                del l2_set[min(l2_set, key=l2_set.get)]
            l2_set[l2_base] = l2._use_counter

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
        if self.ahead_pc is not None:
            self.settle_fetch_ahead()
        # Inlined L1I hit path: fetch runs for every instruction of every
        # simulated cycle's fetch group, and nearly all of them hit.
        l1i = self.l1i
        line_size = l1i.config.line_size
        line = address - (address % line_size)
        index = (address // line_size) % l1i.config.sets
        entry_set = l1i._lines[index]
        if line in entry_set:
            l1i._use_counter += 1
            entry_set[line] = l1i._use_counter
            return 1
        # Inlined l1i/l2 installs for the miss path.  The L1I is never
        # snapshot-restored; its dirty marking only bounds flush().
        l1i._dirty.add(index)
        l1i._use_counter += 1
        if len(entry_set) >= l1i.config.ways:
            victim = min(entry_set, key=entry_set.get)
            del entry_set[victim]
        entry_set[line] = l1i._use_counter
        if line > l1i._top_line:
            l1i._top_line = line
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

    # -- post-EXIT fetch-ahead stream ------------------------------------------------
    # While EXIT waits to commit, the front end keeps fetching past the end
    # of the test, one step of ``fetch_width`` instructions per cycle, so the
    # L1I lines it touches depend on how long EXIT takes to commit: that is
    # what makes timing differences (e.g. CleanupSpec's cleanup latency,
    # KV2/unXpec) visible in the instruction cache.  The steps read nothing
    # back, so the core records the stream as data, and its L1I/L2 effects
    # are applied lazily, as of the point where something next reads or
    # changes either cache.  A priming that flushes or overwrites both caches
    # (reset_caches, reset_and_prime) drops an unsettled stream.
    #
    # Settling has two halves.  Advancing (advance_fetch_ahead) moves the
    # stream's accounting to a cycle.  The walk (_walk_fetch_ahead) applies
    # the accounted steps one L1I line at a time, with each missing line's
    # L2 install.  Data accesses, and the defense hooks that change the L2,
    # read one L2 set each, so they settle only that set
    # (settle_fetch_ahead_set) when the stream is *fast*: L1I and L2 lines
    # are one size, a step stays within a line, the stream spans at most one
    # line per L2 set, and no L1I line past its first is resident, so every
    # line it starts past the first misses.  Advancing a fast stream then
    # reserves the L2 use counters of the installs now due as one block and
    # installs just the accessed set's line, if due, with its reserved
    # counter; the walk later skips the lines installed so.  The readers
    # that need the whole stream walk it: instruction_fetch, cache_state,
    # snapshot_l1i, the caches' own entry points once EXIT has committed, a
    # squash that kills EXIT and the next run's start under NONE priming.
    # Any other stream is walked at every settle.
    def start_fetch_ahead(self, pc: int, limit: int, step: int, cycle: int) -> None:
        """Record a stream fetching from ``pc`` (up to ``limit``, ``step``
        bytes a cycle) from ``cycle`` on, until :meth:`end_fetch_ahead`."""
        self.ahead_pc = self._walk_pc = pc
        self.ahead_limit = limit
        self.ahead_step = step
        self.ahead_cycle = cycle
        self.ahead_end = None
        self._walked = 0
        l1i = self.l1i
        l1i_config = l1i.config
        line_size = l1i_config.line_size
        first = pc - (pc % line_size)
        l2_config = self.l2.config
        self._ahead_fast = (
            l2_config.line_size == line_size
            and step <= line_size
            and limit - first <= l2_config.sets * line_size
            and l1i._top_line <= first
        )
        if self._ahead_fast:
            self._ahead_first = first
            self._ahead_lines = 0
            self._ahead_skip = int(
                first in l1i._lines[(first // line_size) % l1i_config.sets]
            )
            self._ahead_blocks = []
            self._ahead_installed = set()

    def end_fetch_ahead(self, cycle: int) -> None:
        """The stream takes no step from ``cycle`` on (EXIT committed, or
        the run ended); any cache entry point now settles it."""
        self.ahead_end = cycle
        self.l1i._pending = self.l2._pending = self._ref

    def settle_fetch_ahead(self, cycle: Optional[int] = None) -> None:
        """Take the stream's steps due before ``cycle``, walking them all.

        Without ``cycle``, the steps of an ended stream, which is then
        dropped; a stream still in flight only has the steps already
        advanced over walked, the core being the only one that knows the
        cycle.
        """
        if self.ahead_pc is None:
            return
        end = self.ahead_end
        if end is not None and (cycle is None or cycle > end):
            cycle = end
        if cycle is not None:
            self.advance_fetch_ahead(cycle)
        self._walk_fetch_ahead()
        if cycle is not None and cycle == end:
            self.drop_fetch_ahead()

    def settle_fetch_ahead_set(self, address: int, cycle: int) -> None:
        """Settle the stream as far as the L2 set of ``address`` is concerned:
        advance it to ``cycle`` and install that set's line, if due."""
        self.advance_fetch_ahead(cycle)
        if not self._ahead_fast:
            return
        l2 = self.l2
        l2_config = l2.config
        line_size = l2_config.line_size
        sets = l2_config.sets
        index = (address // line_size) % sets
        # The stream's lines are consecutive, one per set from its first.
        line = (index - self._ahead_first // line_size) % sets
        if (
            line < self._ahead_lines
            and line >= self._walked
            and line >= self._ahead_skip
            and line not in self._ahead_installed
        ):
            self._ahead_installed.add(line)
            self._install_stream_line(line, index)

    def advance_fetch_ahead(self, cycle: int) -> None:
        """Account for the stream's steps due before ``cycle`` (at most up
        to its end), walking them at once unless the stream is fast."""
        end = self.ahead_end
        if end is not None and cycle > end:
            cycle = end
        steps = cycle - self.ahead_cycle
        if steps <= 0:
            return
        self.ahead_cycle = cycle
        pc = self.ahead_pc
        limit = self.ahead_limit
        if pc >= limit:
            return
        step = self.ahead_step
        # Steps left before the stream reaches its limit.
        remaining = (limit - pc + step - 1) // step
        if steps > remaining:
            steps = remaining
        pc += steps * step
        self.ahead_pc = pc
        if not self._ahead_fast:
            self._walk_fetch_ahead()
            return
        started = self._ahead_lines
        # Lines started: up to the line of the last step taken.
        lines = (pc - step - self._ahead_first) // self.l1i.config.line_size + 1
        # One L2 install per line started, the first only if it is missing.
        first_install = started if started > self._ahead_skip else self._ahead_skip
        if lines > first_install:
            l2 = self.l2
            self._ahead_blocks.append((first_install, l2._use_counter - first_install))
            l2._use_counter += lines - first_install
        self._ahead_lines = lines

    def drop_fetch_ahead(self) -> None:
        """Forget the stream, settled or not."""
        self.ahead_pc = None
        self.ahead_end = None
        self.l1i._pending = self.l2._pending = None

    def _install_stream_line(self, line: int, index: int) -> None:
        """Install the fast stream's ``line``-th line into L2 set ``index``
        with its reserved use counter."""
        for first, offset in reversed(self._ahead_blocks):
            if line >= first:
                break
        l2 = self.l2
        base = self._ahead_first + line * l2.config.line_size
        entry_set = l2._lines[index]
        l2._dirty.add(index)
        if base not in entry_set and len(entry_set) >= l2.config.ways:
            del entry_set[min(entry_set, key=entry_set.get)]
        entry_set[base] = offset + line + 1

    def _walk_fetch_ahead(self) -> None:
        """Apply the advanced steps the walk has not taken yet.

        Served one L1I line at a time, leaving the L1I/L2 exactly as one
        :meth:`instruction_fetch` per step does: the ``k`` steps that land
        in one line are ``k`` hits on a resident line, else one fill (L1I,
        then L2) and ``k - 1`` hits, so the use counter rises by ``k`` and
        the line ends stamped with its final value.  The pc only grows, and
        a line's own hits cannot evict it.  A fast stream's L2 installs take
        their reserved counters, and skip the lines already installed.
        """
        pc = self._walk_pc
        target = self.ahead_pc
        if pc >= target:
            return
        step = self.ahead_step
        remaining = (target - pc) // step
        fast = self._ahead_fast
        l1i = self.l1i
        l1i_config = l1i.config
        line_size = l1i_config.line_size
        sets = l1i_config.sets
        ways = l1i_config.ways
        l1i_lines = l1i._lines
        l1i_dirty = l1i._dirty
        l2 = self.l2
        l2_config = l2.config
        l2_line_size = l2_config.line_size
        counter = l1i._use_counter
        while remaining > 0:
            line = pc - (pc % line_size)
            # Steps that land in this line: those before its end.
            k = (line + line_size - pc + step - 1) // step
            if k > remaining:
                k = remaining
            index = (pc // line_size) % sets
            entry_set = l1i_lines[index]
            if line not in entry_set:
                l1i_dirty.add(index)
                if len(entry_set) >= ways:
                    del entry_set[min(entry_set, key=entry_set.get)]
                l2_index = (line // l2_line_size) % l2_config.sets
                if fast:
                    number = (line - self._ahead_first) // line_size
                    if number not in self._ahead_installed:
                        self._install_stream_line(number, l2_index)
                else:
                    l2_base = line - (line % l2_line_size)
                    l2_set = l2._lines[l2_index]
                    l2._dirty.add(l2_index)
                    l2._use_counter += 1
                    if l2_base not in l2_set and len(l2_set) >= l2_config.ways:
                        del l2_set[min(l2_set, key=l2_set.get)]
                    l2_set[l2_base] = l2._use_counter
            counter += k
            entry_set[line] = counter
            pc += k * step
            remaining -= k
        l1i._use_counter = counter
        if line > l1i._top_line:
            l1i._top_line = line
        self._walk_pc = pc
        if fast:
            self._walked = self._ahead_lines

    # -- split accesses -----------------------------------------------------------
    def lines_of_access(self, address: int, size: int) -> List[int]:
        """Line base addresses touched by an access (two if it crosses a line)."""
        first = self.l1d.line_base(address)
        last = self.l1d.line_base(address + max(size, 1) - 1)
        return [first] if first == last else [first, last]

    # -- white-box state management -------------------------------------------------
    def reset_caches(self) -> None:
        self.drop_fetch_ahead()
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
        self.drop_fetch_ahead()
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
        for cache in (l1d, l2):
            cache._dirty.clear()
            cache._dirty_all = False
            cache._empty_outside_dirty = False
        self._restored_key = key
        return installed

    def cache_state(self) -> Tuple[tuple, ...]:
        """L1I, L1D and L2 contents with replacement state and use counters.

        One ``(per-set {line: last use}, use counter)`` pair per cache, for
        comparing two runs exactly: the trace snapshots are sorted line sets
        and do not show LRU order.
        """
        self.settle_fetch_ahead()
        return tuple(
            (tuple(dict(entry_set) for entry_set in cache._lines), cache._use_counter)
            for cache in (self.l1i, self.l1d, self.l2)
        )

    def snapshot_l1d(self) -> Tuple[int, ...]:
        return self.l1d.snapshot()

    def snapshot_l1i(self) -> Tuple[int, ...]:
        self.settle_fetch_ahead()
        return self.l1i.snapshot()

    def snapshot_dtlb(self) -> Tuple[int, ...]:
        return self.dtlb.snapshot()

    def memory_access_order(self) -> Tuple[Tuple[int, int, str], ...]:
        return tuple(self.access_log)
