"""The out-of-order, speculative core.

The core is cycle-driven and models the parts of an O3 pipeline that matter
for speculative leakage:

* fetch along the predicted path with an L1I footprint; past a fetched EXIT
  the front end keeps fetching ahead while EXIT is in flight, a stream the
  core only reports to the memory system (its start, its squashes and its
  end), which applies its L1I/L2 effects lazily;
* dispatch with register renaming (producer tracking) into a reorder buffer;
* out-of-order execution with a load/store queue: store-to-load forwarding,
  memory-dependence speculation (loads may bypass older stores with unknown
  addresses), and squash + retrain on memory-order violations;
* branch resolution a few cycles after issue, giving a speculative window in
  which younger instructions can touch the memory hierarchy before a
  misprediction squash;
* in-order commit, at which point stores become architecturally visible.

Architectural values always come from the contract emulator's fused steps
(:mod:`repro.model.steps`), run on each in-flight instruction's renamed
operands by its decode-time issue handler (:mod:`repro.uarch.handlers`);
the cache hierarchy, TLB and predictors are footprint/timing
models only, so the core cannot diverge architecturally from the leakage
model.  All data-cache and TLB interactions are delegated to the attached
:class:`repro.defenses.Defense`.

Static instruction metadata comes from a decode-once
:class:`~repro.isa.decoded.DecodedProgram`: the pipeline stages execute the
same dynamic instruction thousands of times per campaign and read its
structural properties as plain attributes instead of re-deriving them from
the operand tuple every cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.defenses.base import Defense
from repro.generator.inputs import Input
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedInstruction, decode_program
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.registers import ArchState
from repro.model.steps import Machine, build_steps
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.config import UarchConfig
from repro.uarch.handlers import (
    ISSUED,
    NO_DEPS,
    NO_LINES,
    NO_WAITERS,
    PARKED,
    REFUSED,
    build_handlers,
)
from repro.uarch.memory_dep import MemoryDependencePredictor
from repro.uarch.memory_system import MemorySystem
from repro.uarch.stats import CoreStatistics

#: How far (in L1I lines) the front end may run ahead of the EXIT instruction
#: while it waits for EXIT to commit.
FETCH_AHEAD_LINES = 256


def _entry_seq(entry: "InFlightInstruction") -> int:
    return entry.seq


class _StepMemory:
    """Memory as a step sees it inside the core.

    A load's step reads the value the load/store queue delivered
    (``loaded``); a step's write is recorded (``written``), not performed,
    because stores reach memory only at commit.  It holds no reference to
    the core, so a dropped core is freed without the cyclic GC.
    """

    __slots__ = ("loaded", "written")

    def __init__(self) -> None:
        self.loaded = 0
        self.written: Optional[Tuple[int, int, int]] = None

    def read(self, address: int, size: int) -> int:
        return self.loaded

    def write(self, address: int, size: int, value: int) -> None:
        self.written = (address, size, value)


class InFlightInstruction:
    """One dynamic instruction in the core's window.

    ``decoded`` carries the static metadata; the frequently consulted flags
    (``is_load``, ``is_store``, ...) are mirrored as plain attributes,
    copied from the instruction's decode-time ``template``, because the
    commit/safety/execute loops test them every cycle.  Fields an issue
    handler replaces before anything reads them start as shared immutable
    empties.
    """

    __slots__ = (
        "seq",
        "decoded",
        "pc",
        "is_load",
        "is_store",
        "is_memory_access",
        "is_cond_branch",
        "sources",
        "flags_source",
        "predicted_taken",
        "predicted_target",
        "actual_taken",
        "resolved",
        "mispredicted",
        "status",
        "result",
        "memory_write",
        "flags_out",
        "mem_address",
        "mem_size",
        "line_addresses",
        "is_split",
        "forwarded_from",
        "wait_for_store_commit",
        "bypassed_stores",
        "speculative",
        "unsafe_deps",
        "safe_notified",
        "squashed",
        "defense_data",
        "waiters",
    )

    def __init__(
        self,
        seq: int,
        decoded: DecodedInstruction,
        sources: Dict[str, Optional[int]],
        flags_source: Optional[int] = None,
        predicted_taken: Optional[bool] = None,
        predicted_target: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.decoded = decoded
        (
            self.pc,
            self.is_load,
            self.is_store,
            self.is_memory_access,
            self.is_cond_branch,
        ) = decoded.template
        # Dispatch-time dependence information: the producer of each
        # register read (None: the architectural value) and of the flags.
        self.sources = sources
        self.flags_source = flags_source
        # Branch prediction.
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        self.actual_taken: Optional[bool] = None
        self.resolved = False
        self.mispredicted = False
        # Execution status.
        self.status = "waiting"  # waiting -> executing -> done -> committed
        # Results of the step, applied at commit: the destination value, the
        # store's (address, size, value) and a flag writer's five flags.
        self.result = 0
        self.memory_write: Optional[Tuple[int, int, int]] = None
        self.flags_out: Optional[Tuple[bool, ...]] = None
        # Memory behaviour.
        self.mem_address: Optional[int] = None
        self.mem_size = 0
        self.line_addresses: Sequence[int] = NO_LINES
        self.is_split = False
        self.forwarded_from: Optional[int] = None
        self.wait_for_store_commit: Optional[int] = None
        self.bypassed_stores: Set[int] = NO_DEPS
        # Speculation status.
        self.speculative = False
        self.unsafe_deps: Set[int] = NO_DEPS
        self.safe_notified = False
        self.squashed = False
        # Per-defense annotations (speculative buffers, cleanup metadata, ...).
        self.defense_data: Dict[str, object] = {}
        # Issue wakeup: entries whose operands are blocked on this one,
        # parked here (off the issue list) until this entry's status
        # advances.
        self.waiters: Sequence["InFlightInstruction"] = NO_WAITERS

    def overlaps(self, other: "InFlightInstruction") -> bool:
        """Do the memory ranges of two executed accesses overlap?"""
        if self.mem_address is None or other.mem_address is None:
            return False
        a_start, a_end = self.mem_address, self.mem_address + self.mem_size
        b_start, b_end = other.mem_address, other.mem_address + other.mem_size
        return a_start < b_end and b_start < a_end


class SimulationResult:
    """Summary of one simulated test-case execution."""

    __slots__ = ("cycles", "instructions_committed", "exit_reached", "stats", "final_registers")

    def __init__(
        self,
        cycles: int,
        instructions_committed: int,
        exit_reached: bool,
        stats: CoreStatistics,
        final_registers: Optional[Dict[str, int]] = None,
    ) -> None:
        self.cycles = cycles
        self.instructions_committed = instructions_committed
        self.exit_reached = exit_reached
        self.stats = stats
        self.final_registers = final_registers if final_registers is not None else {}


class O3Core:
    """The simulated out-of-order CPU hosting a secure-speculation defense."""

    def __init__(
        self,
        program: Program,
        config: Optional[UarchConfig] = None,
        defense: Optional[Defense] = None,
        sandbox: Optional[Sandbox] = None,
    ) -> None:
        from repro.defenses.baseline import BaselineDefense

        self.program = program
        self.decoded = decode_program(program)
        # The issue handlers run the contract emulator's steps, usually
        # already built by the program's emulation; later cores of the
        # program reuse steps and handlers through the decode cache.
        build_steps(self.decoded)
        build_handlers(self.decoded)
        self._machine = Machine.untainted()
        self._step_memory = _StepMemory()
        self._machine.write_memory = self._step_memory.write
        self._read_loaded = self._step_memory.read
        self.config = config or UarchConfig()
        self._alu_latency = self.config.alu_latency
        self.sandbox = sandbox or Sandbox()
        self.memory = MemorySystem(self.config)
        self._line_size = self.config.l1d.line_size
        self.branch_predictor = BranchPredictor(
            entries=self.config.predictor_entries,
            history_bits=self.config.predictor_history_bits,
            btb_entries=self.config.btb_entries,
        )
        self.dependence_predictor = MemoryDependencePredictor(
            entries=self.config.dependence_predictor_entries
        )
        self.defense = defense or BaselineDefense()
        self.defense.attach(self)

        # The sandbox buffer and its resident-page set are reused across
        # runs: load_input() marks every page missing, and each run fills
        # only the pages it touches.
        self._sandbox_buffer = bytearray(self.sandbox.size)
        self._resident_pages: Set[int] = set()
        self.arch_state: Optional[ArchState] = None
        #: The live architectural register dict the handlers read and write.
        self._registers: Optional[Dict[str, int]] = None
        self._init_pipeline()
        # Fetch-ahead bounds are loop-invariant; compute them once.
        self._fetch_ahead_limit = (
            program.end_pc + FETCH_AHEAD_LINES * self.config.l1i.line_size
        )
        self._fetch_ahead_step = self.config.fetch_width * INSTRUCTION_SIZE
        # Defenses that never override tick() pay nothing for the stage.
        self._defense_ticks = type(self.defense).tick is not Defense.tick
        # Same for safety notifications: the stage only matters to defenses
        # that either override on_entry_safe or read entry.safe_notified.
        self._defense_safety = (
            type(self.defense).on_entry_safe is not Defense.on_entry_safe
            or self.defense.tracks_safety
        )

    # ======================================================================
    # public API
    # ======================================================================
    def run(self, test_input: Input) -> SimulationResult:
        """Simulate one test case (the current program with ``test_input``).

        Persistent micro-architectural state (caches, TLB, predictors) is
        deliberately *not* reset here; the executor decides what carries over
        between test cases (AMuLeT-Opt keeps predictor state, re-primes the
        caches).
        """
        self._reset_run_state(test_input)
        config = self.config
        max_cycles = config.max_cycles
        drain_cycles = config.drain_cycles
        mshrs = self.memory.mshrs
        expire = mshrs.expire
        defense = self.defense
        tick = defense.tick if self._defense_ticks else None
        next_tick = defense.next_tick
        buckets = self._finish_buckets

        # Idle-cycle fast-forward.  A cycle is *active* when a stage changed
        # state: a writeback, a safety notification, a commit, an issue, a
        # dispatch, or an issue attempt refused for a reason the core cannot
        # see clear (an MSHR stall or a defense delay).  After an inactive
        # cycle the pipeline is a fixed point: nothing changes until a
        # time-triggered event — a writeback bucket coming due, the fetch or
        # commit stall expiring, or the defense's wake-up cycle
        # (``Defense.next_tick``; None once tick() has nothing left to do).
        # Jumping straight to the earliest such event is exact: every skipped
        # cycle would re-scan the same state and do nothing.  MSHR expiry
        # commutes (it releases by release_cycle <= now, so one batched call
        # at the event cycle frees the same set), and a load refused behind
        # an older store can only proceed once that store executes, commits
        # or is squashed, each of which happens on an active cycle.
        while True:
            self.cycle += 1
            cycle = self.cycle
            if cycle > max_cycles:
                break
            if mshrs._busy:
                expire(cycle)
            if tick is not None:
                tick(cycle)
            active = False
            if buckets:
                if self._writeback(cycle):
                    active = True
            if self._safety_pending:
                # Only non-empty for defenses that consume notifications
                # (dispatch never fills it otherwise).
                if self._update_safety(cycle):
                    active = True
            if self._rob:
                if self._commit(cycle):
                    active = True
            exit_cycle = self._exit_committed_cycle
            if exit_cycle is not None:
                end = exit_cycle + drain_cycles
                if cycle >= end:
                    break
                if not active:
                    target = end
                    if buckets:
                        next_bucket = min(buckets)
                        if next_bucket < target:
                            target = next_bucket
                    if tick is not None:
                        wake = next_tick(cycle)
                        if wake is not None and wake < target:
                            target = wake
                    if target > cycle + 1:
                        self.cycle = target - 1
                continue
            if self._exec_waiting:
                if self._execute(cycle):
                    active = True
            # Past a fetched EXIT the front end only runs the fetch-ahead
            # stream, which the memory system settles lazily.
            if not self._exit_fetched and cycle >= self._fetch_stalled_until:
                if self._fetch(cycle):
                    active = True
            if not active:
                target = max_cycles + 1
                if buckets:
                    next_bucket = min(buckets)
                    if next_bucket < target:
                        target = next_bucket
                if cycle < self._fetch_stalled_until < target:
                    target = self._fetch_stalled_until
                if self._rob and cycle < self._stall_commit_until < target:
                    target = self._stall_commit_until
                if tick is not None:
                    wake = next_tick(cycle)
                    if wake is not None and wake < target:
                        target = wake
                if target > cycle + 1:
                    self.cycle = target - 1

        if self._exit_fetched and self._exit_committed_cycle is None:
            # Out of cycles with EXIT in flight: the stream stops here.
            self.memory.end_fetch_ahead(self.cycle)
        self.stats.cycles = self.cycle
        self.stats.mshr_stalls = self.memory.mshr_stall_events
        return SimulationResult(
            cycles=self.cycle,
            instructions_committed=self.stats.instructions_committed,
            exit_reached=self._exit_committed_cycle is not None,
            stats=self.stats,
            final_registers=self.arch_state.registers.as_dict(),
        )

    def save_uarch_context(self) -> dict:
        """Capture the predictor state that AMuLeT-Opt carries across inputs."""
        return {
            "branch_predictor": self.branch_predictor.save_state(),
            "dependence_predictor": self.dependence_predictor.save_state(),
        }

    def restore_uarch_context(self, context: dict) -> None:
        self.branch_predictor.restore_state(context["branch_predictor"])
        self.dependence_predictor.restore_state(context["dependence_predictor"])

    def is_currently_unsafe(self, entry: InFlightInstruction) -> bool:
        """Live check: can ``entry`` still be squashed by an older instruction?"""
        if entry.squashed:
            return False
        for older in self._rob:
            if older.seq >= entry.seq:
                break
            if older.squashed:
                continue
            if older.is_cond_branch and not older.resolved:
                return True
            if older.is_store and older.mem_address is None:
                return True
        return bool(entry.bypassed_stores and not entry.safe_notified)

    def instruction_window(self) -> Tuple[InFlightInstruction, ...]:
        """The current (non-committed, non-squashed) reorder-buffer contents."""
        return tuple(self._rob)

    def producer_chain(self, entry: InFlightInstruction, registers) -> List[InFlightInstruction]:
        """All in-flight producers transitively feeding ``registers`` of ``entry``.

        Used by STT to find the speculative loads whose data taints an
        address operand.
        """
        result: List[InFlightInstruction] = []
        visited: Set[int] = set()
        frontier = [entry.sources.get(reg) for reg in registers]
        while frontier:
            seq = frontier.pop()
            if seq is None or seq in visited:
                continue
            visited.add(seq)
            producer = self._entries.get(seq)
            if producer is None or producer.squashed:
                continue
            result.append(producer)
            frontier.extend(producer.sources.values())
            if producer.flags_source is not None and producer.decoded.reads_flags:
                frontier.append(producer.flags_source)
        return result

    # ======================================================================
    # per-run setup
    # ======================================================================
    def _reset_run_state(self, test_input: Input) -> None:
        self.arch_state = ArchState(
            sandbox_base=self.sandbox.base,
            sandbox_size=self.sandbox.size,
            sandbox=self._sandbox_buffer,
            resident=self._resident_pages,
        )
        self.arch_state.load_input(test_input.register_dict(), test_input.memory)
        self._registers = self.arch_state.registers.values
        self._init_pipeline()
        self.memory.start_run()
        self.defense.reset_for_run()

    def _init_pipeline(self) -> None:
        """Set the per-run pipeline state to its empty start-of-run values."""
        self.stats = CoreStatistics()
        self.branch_prediction_log: List[Tuple[int, int]] = []
        self._rob: Deque[InFlightInstruction] = deque()
        self._entries: Dict[int, InFlightInstruction] = {}
        self._rename_map: Dict[str, int] = {}
        self._flags_producer: Optional[int] = None
        self._next_seq = 0
        self._fetch_pc = self.program.entry_pc
        self._fetch_stalled_until = 0
        self._exit_fetched = False
        self._exit_committed_cycle: Optional[int] = None
        self._stall_commit_until = 0
        self._loads_in_flight = 0
        self._stores_in_flight = 0
        self.cycle = 0
        # Writeback works off finish-cycle buckets instead of scanning the
        # whole window every cycle; safety notifications work off a pending
        # list of in-flight memory accesses for the same reason.
        self._finish_buckets: Dict[int, List[InFlightInstruction]] = {}
        self._safety_pending: List[InFlightInstruction] = []
        self._exec_waiting: List[InFlightInstruction] = []
        # Seqs of in-flight unresolved conditional branches / stores with
        # unresolved addresses — the two things that make a younger memory
        # access speculative.  Maintained at dispatch/resolve/squash so
        # _capture_speculation_status never scans the window.
        self._unresolved_branches: Set[int] = set()
        self._unresolved_stores: Set[int] = set()
        # Set when waking parked entries back onto the issue list leaves it
        # out of dispatch order (the issue scan re-sorts before iterating).
        self._exec_resort = False
        # Stores dispatched this run, in seq order (committed/squashed ones
        # skipped lazily); load issue scans this instead of the whole ROB.
        self._inflight_stores: List[InFlightInstruction] = []

    # ======================================================================
    # pipeline stages
    # ======================================================================
    def _writeback(self, cycle: int) -> bool:
        # Entries are filed under their finish cycle by _begin, so writeback
        # touches exactly the instructions completing now instead of scanning
        # the whole window.  Age order within a bucket matters: an older
        # branch must resolve (and possibly squash) before a younger one.
        bucket = self._finish_buckets.pop(cycle, None)
        if bucket is None:
            return False
        if len(bucket) > 1:
            bucket.sort(key=_entry_seq)
        for entry in bucket:
            # A bucketed entry may have been squashed since it began
            # executing (by an older branch, this cycle or earlier).
            if entry.status != "executing":
                continue
            entry.status = "done"
            waiters = entry.waiters
            if waiters:
                self._exec_waiting.extend(waiters)
                self._exec_resort = True
                entry.waiters = NO_WAITERS
            if entry.is_cond_branch and not entry.resolved:
                self._resolve_branch(entry, cycle)
        return True

    def _resolve_branch(self, entry: InFlightInstruction, cycle: int) -> None:
        entry.resolved = True
        self._unresolved_branches.discard(entry.seq)
        if entry.actual_taken == entry.predicted_taken:
            return
        entry.mispredicted = True
        self.stats.branch_mispredictions += 1
        correct_pc = (
            entry.decoded.target_pc
            if entry.actual_taken
            else entry.decoded.fallthrough_pc
        )
        self._squash_from(entry.seq + 1, correct_pc, cycle)

    def _update_safety(self, cycle: int) -> bool:
        # Scans a pending list of in-flight memory accesses (filled at
        # dispatch) instead of the whole window.  Entries leave the list when
        # notified, squashed, or committed — a committed entry left the
        # window unnotified in the original full scan, so it is dropped
        # without a callback here too.  Dropping dead entries is not
        # "activity" for the fast-forward: a later pass over the shrunken
        # list reaches the same decisions.
        notified = False
        pending = self._safety_pending
        keep: List[InFlightInstruction] = []
        notify = self.defense.on_entry_safe
        for entry in pending:
            if entry.squashed or entry.safe_notified:
                continue
            status = entry.status
            if status == "committed":
                continue
            if (status == "done" or status == "executing") and self._deps_resolved(entry):
                entry.safe_notified = True
                notify(entry, cycle)
                notified = True
                continue
            keep.append(entry)
        self._safety_pending = keep
        return notified

    def _deps_resolved(self, entry: InFlightInstruction) -> bool:
        for dep_seq in entry.unsafe_deps:
            dep = self._entries.get(dep_seq)
            if dep is None or dep.squashed:
                return False
            if dep.is_cond_branch and not dep.resolved:
                return False
            if dep.is_store and dep.mem_address is None:
                return False
        return True

    def _commit(self, cycle: int) -> bool:
        if cycle < self._stall_commit_until:
            return False
        committed = 0
        rob = self._rob
        while rob and committed < self.config.commit_width:
            head = rob[0]
            if head.status != "done":
                break
            head.decoded.commit(self, head, cycle)
            rob.popleft()
            if head.is_load:
                self._loads_in_flight -= 1
            if head.is_store:
                self._stores_in_flight -= 1
            committed += 1
            if head.decoded.is_exit:
                self._exit_committed_cycle = cycle
                self.memory.end_fetch_ahead(cycle)
                # Anything younger than EXIT is wrong-path work; discard it.
                for leftover in rob:
                    leftover.squashed = True
                    self.defense.on_squash(leftover, cycle)
                    self.stats.instructions_squashed += 1
                rob.clear()
                self._loads_in_flight = 0
                self._stores_in_flight = 0
                break
            if cycle < self._stall_commit_until:
                break
        return committed > 0

    def _execute(self, cycle: int) -> bool:
        # Issue works off a dispatch-ordered list of still-waiting entries
        # instead of rescanning the whole reorder buffer: entries leave the
        # list when they start executing (or turn out squashed/committed —
        # squash and the EXIT drain leave stale references behind, which the
        # status check drops lazily, matching the old full-ROB scan).
        #
        # Each entry's decode-time handler attempts the issue (see
        # repro.uarch.handlers).  Returns True when the stage was active: an
        # entry issued, or a start was REFUSED for a reason invisible to the
        # core (MSHR stall, defense delay) that may clear on any later
        # cycle, so such cycles must not be fast-forwarded.  A load HELD
        # behind an older store waits for a core-visible event and is not
        # activity; a PARKED entry waits on its blocker's waiters list.
        waiting = self._exec_waiting
        if self._exec_resort:
            # Woken entries were appended out of dispatch order; issue
            # priority is by age, so restore seq order before scanning.
            waiting.sort(key=_entry_seq)
            self._exec_resort = False
        active = False
        issued = 0
        issue_width = self.config.issue_width
        keep: List[InFlightInstruction] = []
        for entry in waiting:
            if entry.squashed or entry.status != "waiting":
                continue
            if issued >= issue_width:
                keep.append(entry)
                continue
            outcome = entry.decoded.issue(self, entry, cycle)
            if outcome == ISSUED:
                issued += 1
                active = True
            elif outcome != PARKED:
                keep.append(entry)
                if outcome == REFUSED:
                    active = True
        self._exec_waiting = keep
        return active

    def _check_memory_order(self, store: InFlightInstruction, cycle: int) -> None:
        """A store's address resolved: squash younger loads that bypassed it."""
        violators = [
            load
            for load in self._rob
            if load.seq > store.seq
            and load.is_load
            and not load.squashed
            and load.status in ("executing", "done")
            and load.mem_address is not None
            and load.forwarded_from != store.seq
            and load.overlaps(store)
        ]
        if not violators:
            return
        oldest = min(violators, key=lambda load: load.seq)
        self.stats.memory_order_violations += 1
        self.dependence_predictor.train_violation(oldest.pc)
        self._squash_from(oldest.seq, oldest.pc, cycle)

    # ======================================================================
    # squash
    # ======================================================================
    def _squash_from(self, first_seq: int, redirect_pc: int, cycle: int) -> None:
        """Squash every entry with ``seq >= first_seq`` and redirect fetch.

        The surviving window is rebuilt into a *new* deque so that pipeline
        stages iterating the old one (writeback resolving a branch, execute
        detecting a memory-order violation) are never invalidated mid-loop.
        """
        survivors: Deque[InFlightInstruction] = deque()
        loads = 0
        stores = 0
        for entry in self._rob:
            if entry.seq < first_seq:
                survivors.append(entry)
                if entry.is_load:
                    loads += 1
                if entry.is_store:
                    stores += 1
                continue
            entry.squashed = True
            entry.status = "squashed"
            self.defense.on_squash(entry, cycle)
            self.stats.instructions_squashed += 1
        self._rob = survivors
        self._loads_in_flight = loads
        self._stores_in_flight = stores
        # Everything squashed has seq >= first_seq.
        self._unresolved_branches = {
            seq for seq in self._unresolved_branches if seq < first_seq
        }
        self._unresolved_stores = {
            seq for seq in self._unresolved_stores if seq < first_seq
        }
        self._inflight_stores = [
            store for store in self._inflight_stores if store.seq < first_seq
        ]

        # Rebuild the rename map from the surviving window.
        self._rename_map = {}
        self._flags_producer = None
        exit_survives = False
        for entry in survivors:
            decoded = entry.decoded
            destination = decoded.destination_register
            if destination is not None:
                self._rename_map[destination] = entry.seq
            if decoded.writes_flags:
                self._flags_producer = entry.seq
            if decoded.is_exit:
                exit_survives = True

        self._fetch_pc = redirect_pc
        self._fetch_stalled_until = max(
            self._fetch_stalled_until, cycle + self.config.branch_redirect_penalty
        )
        if self._exit_fetched:
            # A squashed EXIT ends the fetch-ahead stream, and the front end
            # resumes; else the redirect stalls the stream.
            self.memory.squash_fetch_ahead(
                cycle, self._fetch_stalled_until if exit_survives else None
            )
        self._exit_fetched = exit_survives

    def stall_commit(self, until_cycle: int) -> None:
        """Used by defenses whose recovery work (e.g. cleanup) blocks commit."""
        self._stall_commit_until = max(self._stall_commit_until, until_cycle)

    # ======================================================================
    # fetch
    # ======================================================================
    def _fetch(self, cycle: int) -> bool:
        """Fetch one group along the predicted path and dispatch it into the
        window with renamed sources; True when anything was dispatched."""
        config = self.config
        at_pc = self.decoded.at_pc
        # Inlined L1I hit path (see MemorySystem.instruction_fetch): fetch
        # runs for every dispatched instruction and nearly always hits.  No
        # fetch-ahead stream is pending while it runs (fetch stops at EXIT,
        # and MemorySystem.start_run settles the last run's stream).
        memory = self.memory
        l1i = memory.l1i
        l1i_lines = l1i._lines
        l1i_line_size = l1i.config.line_size
        l1i_sets = l1i.config.sets
        rob = self._rob
        entries = self._entries
        rename_map = self._rename_map
        rename_get = rename_map.get
        fetched = 0
        while fetched < config.fetch_width:
            if len(rob) >= config.rob_size:
                break
            pc = self._fetch_pc
            decoded = at_pc(pc)
            if decoded is None:
                break
            is_load = decoded.is_load
            is_store = decoded.is_store
            if is_load and self._loads_in_flight >= config.load_queue_size:
                break
            if is_store and self._stores_in_flight >= config.store_queue_size:
                break

            line = pc - (pc % l1i_line_size)
            entry_set = l1i_lines[(pc // l1i_line_size) % l1i_sets]
            if line in entry_set:
                l1i._use_counter += 1
                entry_set[line] = l1i._use_counter
                fetch_latency = 1
            else:
                fetch_latency = memory.instruction_fetch(pc)
                if fetch_latency > 1:
                    self._fetch_stalled_until = cycle + fetch_latency

            predicted_taken: Optional[bool] = None
            predicted_target: Optional[int] = None
            if decoded.is_cond_branch:
                predicted_taken = self.branch_predictor.predict_direction(pc)
                predicted_target = (
                    decoded.target_pc if predicted_taken else decoded.fallthrough_pc
                )
                self.branch_prediction_log.append((pc, predicted_target))

            # Dispatch: rename the sources, then claim the destination.
            seq = self._next_seq
            self._next_seq = seq + 1
            entry = InFlightInstruction(
                seq,
                decoded,
                {name: rename_get(name) for name in decoded.needed_registers},
                self._flags_producer,
                predicted_taken,
                predicted_target,
            )
            destination = decoded.destination_register
            if destination is not None:
                rename_map[destination] = seq
            if decoded.writes_flags:
                self._flags_producer = seq
            rob.append(entry)
            entries[seq] = entry
            self._exec_waiting.append(entry)
            if is_load:
                self._loads_in_flight += 1
            if is_store:
                self._stores_in_flight += 1
                self._unresolved_stores.add(seq)
                self._inflight_stores.append(entry)
            if self._defense_safety and (is_load or is_store):
                self._safety_pending.append(entry)
            if decoded.is_cond_branch:
                self._unresolved_branches.add(seq)
            fetched += 1

            if decoded.is_exit:
                self._exit_fetched = True
                memory.start_fetch_ahead(
                    pc + INSTRUCTION_SIZE,
                    self._fetch_ahead_limit,
                    self._fetch_ahead_step,
                    max(cycle + 1, self._fetch_stalled_until),
                )
                break
            if decoded.is_jmp:
                self._fetch_pc = decoded.target_pc
            elif decoded.is_cond_branch:
                self._fetch_pc = predicted_target
            else:
                self._fetch_pc = pc + INSTRUCTION_SIZE
            if fetch_latency > 1:
                break
        self.stats.instructions_fetched += fetched
        return fetched > 0
