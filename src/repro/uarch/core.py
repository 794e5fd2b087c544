"""The out-of-order, speculative core.

The core is cycle-driven and models the parts of an O3 pipeline that matter
for speculative leakage:

* fetch along the predicted path (with L1I footprint and fetch-ahead past the
  end of the test while EXIT is still in flight, served one L1I line at a
  time so skipped idle cycles cost one cache update per line, not per step);
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
operands; the cache hierarchy, TLB and predictors are footprint/timing
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
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.defenses.base import Defense
from repro.generator.inputs import Input
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedInstruction, decode_program
from repro.isa.instructions import Instruction
from repro.isa.program import INSTRUCTION_SIZE, Program
from repro.isa.registers import MASK64 as _MASK64, ArchState
from repro.model.steps import Machine, build_steps
from repro.uarch.branch_predictor import BranchPredictor
from repro.uarch.config import UarchConfig
from repro.uarch.memory_dep import MemoryDependencePredictor
from repro.uarch.memory_system import MemorySystem
from repro.uarch.stats import CoreStatistics

#: Extra cycles between a branch issuing and its misprediction being acted
#: on.  This is the speculative window in which younger instructions can
#: reach the memory hierarchy.
BRANCH_RESOLVE_LATENCY = 4

#: How far (in L1I lines) the front end may run ahead of the EXIT instruction
#: while it waits for EXIT to commit.
FETCH_AHEAD_LINES = 256


#: Shared empty dependency set for non-speculative accesses (read-only).
_NO_DEPS: Set[int] = frozenset()


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
    (``is_load``, ``is_store``, ...) are mirrored as plain attributes because
    the commit/safety/execute loops test them every cycle.
    """

    __slots__ = (
        "seq",
        "decoded",
        "instruction",
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
        "execute_cycle",
        "finish_cycle",
        "result_registers",
        "memory_write",
        "flags_out",
        "mem_address",
        "mem_size",
        "line_addresses",
        "is_split",
        "forwarded_from",
        "wait_for_store_commit",
        "bypassed_stores",
        "memory_value",
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
        predicted_taken: Optional[bool] = None,
        predicted_target: Optional[int] = None,
    ) -> None:
        self.seq = seq
        self.decoded = decoded
        self.instruction: Instruction = decoded.instruction
        self.pc: int = decoded.pc
        self.is_load: bool = decoded.is_load
        self.is_store: bool = decoded.is_store
        self.is_memory_access: bool = decoded.is_memory_access
        self.is_cond_branch: bool = decoded.is_cond_branch
        # Dispatch-time dependence information.
        self.sources: Dict[str, Optional[int]] = {}
        self.flags_source: Optional[int] = None
        # Branch prediction.
        self.predicted_taken = predicted_taken
        self.predicted_target = predicted_target
        self.actual_taken: Optional[bool] = None
        self.resolved = False
        self.mispredicted = False
        # Execution status.
        self.status = "waiting"  # waiting -> executing -> done -> committed
        self.execute_cycle: Optional[int] = None
        self.finish_cycle: Optional[int] = None
        # Results of the step, applied at commit: the destination value, the
        # store's (address, size, value) and the five flags after it.
        self.result_registers: Dict[str, int] = {}
        self.memory_write: Optional[Tuple[int, int, int]] = None
        self.flags_out: Optional[Tuple[bool, ...]] = None
        # Memory behaviour.
        self.mem_address: Optional[int] = None
        self.mem_size = 0
        self.line_addresses: List[int] = []
        self.is_split = False
        self.forwarded_from: Optional[int] = None
        self.wait_for_store_commit: Optional[int] = None
        self.bypassed_stores: Set[int] = set()
        self.memory_value: Optional[int] = None
        # Speculation status.
        self.speculative = False
        self.unsafe_deps: Set[int] = set()
        self.safe_notified = False
        self.squashed = False
        # Per-defense annotations (speculative buffers, cleanup metadata, ...).
        self.defense_data: Dict[str, object] = {}
        # Issue wakeup: entries whose operands are blocked on this one,
        # parked here (off the issue list) until this entry's status
        # advances.
        self.waiters: List["InFlightInstruction"] = []

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
        # The execute stage runs the contract emulator's steps, usually
        # already built by the program's emulation; later cores of the
        # program reuse them through the decode cache.
        build_steps(self.decoded)
        self._machine = Machine.untainted()
        self._step_memory = _StepMemory()
        self._machine.write_memory = self._step_memory.write
        self.config = config or UarchConfig()
        self.sandbox = sandbox or Sandbox()
        self.memory = MemorySystem(self.config)
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
            fetch_code = self._fetch(cycle)
            if fetch_code == 1:
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
                    if fetch_code == 2:
                        # The skipped cycles would each have taken one
                        # fetch-ahead step; nothing in the idle window
                        # reads the L1I/L2 back, so they are taken here.
                        self._advance_fetch_ahead(target - 1 - cycle)
                    self.cycle = target - 1

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
        self._init_pipeline()
        self.memory.clear_access_log()
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
        self._fetch_ahead_pc: Optional[int] = None
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
                entry.waiters = []
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
            self._commit_entry(head, cycle)
            rob.popleft()
            if head.is_load:
                self._loads_in_flight -= 1
            if head.is_store:
                self._stores_in_flight -= 1
            committed += 1
            if head.decoded.is_exit:
                self._exit_committed_cycle = cycle
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

    def _commit_entry(self, entry: InFlightInstruction, cycle: int) -> None:
        entry.status = "committed"
        waiters = entry.waiters
        if waiters:
            # Loads blocked on this store's *commit* (partial-overlap
            # forwarding) park here after the done-transition wake.
            self._exec_waiting.extend(waiters)
            self._exec_resort = True
            entry.waiters = []
        state = self.arch_state
        decoded = entry.decoded
        for name, value in entry.result_registers.items():
            state.registers.write(name, value)
        if decoded.writes_flags:
            state.flags.load_tuple(entry.flags_out)
        if entry.memory_write is not None:
            address, size, value = entry.memory_write
            state.write_memory(address, size, value)
        if entry.is_store:
            self.defense.commit_store(entry, cycle)
        if entry.is_cond_branch and entry.actual_taken is not None:
            self.branch_predictor.update_direction(entry.pc, entry.actual_taken)
            if entry.actual_taken and decoded.target_pc is not None:
                self.branch_predictor.update_target(entry.pc, decoded.target_pc)
        if decoded.is_jmp and decoded.target_pc is not None:
            self.branch_predictor.update_target(entry.pc, decoded.target_pc)
        if entry.is_load and entry.bypassed_stores:
            self.dependence_predictor.train_no_violation(entry.pc)
        self.defense.on_commit(entry, cycle)
        self.stats.instructions_committed += 1

    def _execute(self, cycle: int) -> bool:
        # Issue works off a dispatch-ordered list of still-waiting entries
        # instead of rescanning the whole reorder buffer: entries leave the
        # list when they start executing (or turn out squashed/committed —
        # squash and the EXIT drain leave stale references behind, which the
        # status check drops lazily, matching the old full-ROB scan).
        #
        # Returns True when the stage was active: an entry issued, or a start
        # was refused for a reason invisible to the core (MSHR stall, defense
        # delay) that may clear on any later cycle, so such cycles must not
        # be fast-forwarded.  A load refused behind an older store
        # (_start_execution returns None) waits for a core-visible event and
        # is not activity.
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
            blocker = self._blocking_producer(entry)
            if blocker is not None:
                # Park off the issue list until the blocker's status
                # advances (its done/commit transition re-appends us).
                blocker.waiters.append(entry)
                continue
            started = self._start_execution(entry, cycle)
            if started:
                issued += 1
                active = True
            else:
                keep.append(entry)
                if started is not None:
                    active = True
        self._exec_waiting = keep
        return active

    def _blocking_producer(
        self, entry: InFlightInstruction
    ) -> Optional[InFlightInstruction]:
        """The first producer ``entry``'s operands still wait on, or None.

        A producer blocks until its status reaches done/committed.  Only
        instructions that consume flag state must wait for the previous flag
        producer: explicit readers (Jcc/CMOVcc/SETcc) and partial flag
        updaters (INC/DEC preserve the carry, shifts leave flags untouched
        for a zero count).  Full flag writers overwrite all five flags and
        need no ordering — waiting there would serialise the whole window on
        the flags register and artificially shrink speculative windows.
        """
        entries = self._entries
        for producer_seq in entry.sources.values():
            if producer_seq is None:
                continue
            producer = entries[producer_seq]
            status = producer.status
            if status != "done" and status != "committed":
                return producer
        if entry.decoded.needs_flags_order and entry.flags_source is not None:
            producer = entries[entry.flags_source]
            status = producer.status
            if status != "done" and status != "committed":
                return producer
        if entry.wait_for_store_commit is not None:
            store = entries.get(entry.wait_for_store_commit)
            if store is not None and not store.squashed and store.status != "committed":
                return store
            entry.wait_for_store_commit = None
        return None

    # -- value helpers ------------------------------------------------------------
    def _read_register(self, entry: InFlightInstruction, name: str) -> int:
        producer_seq = entry.sources.get(name)
        if producer_seq is None:
            return self.arch_state.registers.read(name)
        producer = self._entries[producer_seq]
        if name in producer.result_registers:
            return producer.result_registers[name]
        # The nominal producer did not actually write the register (should
        # not happen with the current ISA); fall back to architectural state.
        return self.arch_state.registers.read(name)

    def _flags_for(self, entry: InFlightInstruction) -> Tuple[bool, ...]:
        """The flags ``entry`` reads: its producer's, else the architectural."""
        if entry.flags_source is not None:
            flags_out = self._entries[entry.flags_source].flags_out
            if flags_out is not None:
                return flags_out
        return self.arch_state.flags.as_tuple()

    # -- execution of individual instruction kinds -------------------------------------
    def _step(self, entry: InFlightInstruction, read_memory) -> None:
        """Run ``entry``'s step on its renamed operands; keep the results.

        The step writes into a scratch register dict, the machine's flags
        and the write recorder; ``entry`` keeps the destination value, the
        recorded store and the flags after the step until commit.
        """
        machine = self._machine
        read = self._read_register
        machine.regs = regs = {name: read(entry, name) for name in entry.sources}
        machine.flags = self._flags_for(entry)
        machine.read_memory = read_memory
        recorder = self._step_memory
        recorder.written = None
        decoded = entry.decoded
        decoded.step(machine, entry.mem_address)
        dest = decoded.destination_register
        if dest is not None:
            entry.result_registers = {dest: regs[dest]}
        entry.memory_write = recorder.written
        entry.flags_out = machine.flags

    def _start_execution(self, entry: InFlightInstruction, cycle: int) -> Optional[bool]:
        # Integer kind dispatch, most frequent kinds first.
        kind = entry.decoded.exec_kind
        if kind == DecodedInstruction.KIND_ALU:
            self._step(entry, self.arch_state.read_memory)
            self._begin(entry, cycle, self.config.alu_latency)
            return True
        if kind == DecodedInstruction.KIND_MEMORY:
            return self._execute_memory(entry, cycle)
        if kind == DecodedInstruction.KIND_BRANCH:
            return self._execute_branch(entry, cycle)
        # NOP / LFENCE / EXIT: nothing to compute.
        self._begin(entry, cycle, self.config.alu_latency)
        return True

    def _execute_branch(self, entry: InFlightInstruction, cycle: int) -> bool:
        decoded = entry.decoded
        if decoded.is_jmp:
            # Direct jumps never mispredict in this model (targets are static).
            entry.actual_taken = True
            entry.resolved = True
            self._begin(entry, cycle, self.config.alu_latency)
            return True
        # The direction comes from the condition, not from the pc the step
        # would go to next: a Jcc may target its own fall-through block.
        entry.actual_taken = bool(decoded.cond_predicate(*self._flags_for(entry)))
        self._begin(entry, cycle, BRANCH_RESOLVE_LATENCY)
        return True

    def _execute_memory(self, entry: InFlightInstruction, cycle: int) -> Optional[bool]:
        decoded = entry.decoded
        # Effective address, inlined (this is the entry point of every
        # load/store issue attempt; the generic helper costs a closure
        # allocation plus two call hops per attempt).
        read = self._read_register
        address = read(entry, decoded.mem_base) + decoded.mem_displacement
        if decoded.mem_index is not None:
            address += read(entry, decoded.mem_index)
        address &= _MASK64
        entry.mem_address = address
        size = decoded.mem_size
        entry.mem_size = size
        line_size = self.memory.l1d.config.line_size
        first = address - (address % line_size)
        last_byte = address + size - 1 if size > 1 else address
        last = last_byte - (last_byte % line_size)
        if first == last:
            entry.line_addresses = [first]
            entry.is_split = False
        else:
            entry.line_addresses = [first, last]
            entry.is_split = True
        resolved_now = False
        if entry.is_store:
            # This store's address just resolved; it no longer blocks
            # younger accesses (and must not appear in its own deps).
            unresolved = self._unresolved_stores
            if entry.seq in unresolved:
                unresolved.remove(entry.seq)
                resolved_now = True
        self._capture_speculation_status(entry)

        if entry.is_load:
            started = self._execute_load(entry, cycle)
            if started is None and resolved_now:
                # A read-modify-write refused behind an older store still
                # resolved its own store address, which can make younger
                # entries safe next cycle: that attempt was activity.
                return False
            return started
        return self._execute_store(entry, cycle)

    def _capture_speculation_status(self, entry: InFlightInstruction) -> None:
        # The incremental seq sets hold exactly the entries the old window
        # scan would have collected: unresolved conditional branches and
        # stores whose address is still unknown, squashed entries removed.
        branches = self._unresolved_branches
        stores = self._unresolved_stores
        if not branches and not stores:
            entry.unsafe_deps = _NO_DEPS
            entry.speculative = False
            return
        entry_seq = entry.seq
        deps = {seq for seq in branches if seq < entry_seq}
        if stores:
            deps.update(seq for seq in stores if seq < entry_seq)
        entry.unsafe_deps = deps
        entry.speculative = bool(deps)

    def _execute_load(self, entry: InFlightInstruction, cycle: int) -> Optional[bool]:
        # Returns None when an older store holds the load back; only that
        # store executing, committing or being squashed can release it.
        forwarded_value: Optional[int] = None
        # Scan older in-flight stores, youngest first.  Committed stores
        # have drained to architectural memory (their writes land at
        # commit), which is what read_memory sees below — exactly the
        # stores the old whole-ROB scan no longer contained.
        entry_seq = entry.seq
        for older in reversed(self._inflight_stores):
            if older.seq >= entry_seq:
                continue
            if older.squashed or older.status == "committed":
                continue
            if older.mem_address is None:
                if self.dependence_predictor.predicts_alias(entry.pc):
                    # Conservative prediction: wait for the store to resolve.
                    return None
                entry.bypassed_stores.add(older.seq)
                continue
            if not entry.overlaps(older):
                continue
            store_write = older.memory_write
            if store_write is None:
                return None
            store_address, store_size, store_value = store_write
            covers = (
                store_address <= entry.mem_address
                and entry.mem_address + entry.mem_size <= store_address + store_size
            )
            if covers:
                offset = entry.mem_address - store_address
                forwarded_value = (store_value >> (8 * offset)) & (
                    (1 << (8 * entry.mem_size)) - 1
                )
                entry.forwarded_from = older.seq
            else:
                # Partial overlap: wait until the store has drained to memory.
                entry.wait_for_store_commit = older.seq
                return None
            break

        if forwarded_value is not None:
            latency = 2
            entry.memory_value = forwarded_value
        else:
            latency = self.defense.load_execute(entry, cycle)
            if latency is None:
                self.stats.defense_delayed_accesses += 1
                return False
            entry.memory_value = self.arch_state.read_memory(
                entry.mem_address, entry.mem_size
            )

        self._step_memory.loaded = entry.memory_value
        self._step(entry, self._step_memory.read)
        self._begin(entry, cycle, max(1, latency))

        self.stats.loads_executed += 1
        if entry.speculative:
            self.stats.speculative_loads += 1
        if entry.is_store:
            # Read-modify-write: its store address just resolved.
            self._check_memory_order(entry, cycle)
            self.stats.stores_executed += 1
            if entry.speculative:
                self.stats.speculative_stores += 1
        return True

    def _execute_store(self, entry: InFlightInstruction, cycle: int) -> bool:
        latency = self.defense.store_execute(entry, cycle)
        if latency is None:
            self.stats.defense_delayed_accesses += 1
            return False
        self._step(entry, self.arch_state.read_memory)
        self._begin(entry, cycle, max(1, latency))
        self.stats.stores_executed += 1
        if entry.speculative:
            self.stats.speculative_stores += 1
        self._check_memory_order(entry, cycle)
        return True

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

    def _begin(self, entry: InFlightInstruction, cycle: int, latency: int) -> None:
        entry.status = "executing"
        entry.execute_cycle = cycle
        finish = cycle + latency
        entry.finish_cycle = finish
        bucket = self._finish_buckets.get(finish)
        if bucket is None:
            self._finish_buckets[finish] = [entry]
        else:
            bucket.append(entry)

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
        # If the EXIT instruction was squashed, the front end must resume.
        self._exit_fetched = exit_survives
        if not exit_survives:
            self._fetch_ahead_pc = None

    def stall_commit(self, until_cycle: int) -> None:
        """Used by defenses whose recovery work (e.g. cleanup) blocks commit."""
        self._stall_commit_until = max(self._stall_commit_until, until_cycle)

    # ======================================================================
    # fetch
    # ======================================================================
    def _fetch(self, cycle: int) -> int:
        # Returns 0 when the front end did nothing, 1 when it dispatched
        # instructions, 2 when it only advanced the fetch-ahead stream.  The
        # distinction matters for the idle fast-forward: dispatch makes the
        # next cycle non-idle (fresh entries may issue), while fetch-ahead
        # steps are feedback-free and are taken in one batch across a skip.
        if self._exit_committed_cycle is not None:
            return 0
        if cycle < self._fetch_stalled_until:
            return 0
        if self._exit_fetched:
            return 2 if self._advance_fetch_ahead(1) else 0

        config = self.config
        at_pc = self.decoded.at_pc
        # Inlined L1I hit path (see MemorySystem.instruction_fetch): fetch
        # runs for every dispatched instruction and nearly always hits.
        memory = self.memory
        l1i = memory.l1i
        l1i_lines = l1i._lines
        l1i_line_size = l1i.config.line_size
        l1i_sets = l1i.config.sets
        fetched = 0
        while fetched < config.fetch_width:
            if len(self._rob) >= config.rob_size:
                break
            decoded = at_pc(self._fetch_pc)
            if decoded is None:
                break
            if decoded.is_load and self._loads_in_flight >= config.load_queue_size:
                break
            if decoded.is_store and self._stores_in_flight >= config.store_queue_size:
                break

            pc = self._fetch_pc
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
                predicted_taken = self.branch_predictor.predict_direction(decoded.pc)
                predicted_target = (
                    decoded.target_pc if predicted_taken else decoded.fallthrough_pc
                )
                self.branch_prediction_log.append((decoded.pc, predicted_target))

            self._dispatch(decoded, predicted_taken, predicted_target)
            self.stats.instructions_fetched += 1
            fetched += 1

            if decoded.is_exit:
                self._exit_fetched = True
                self._fetch_ahead_pc = decoded.pc + INSTRUCTION_SIZE
                break
            if decoded.is_jmp:
                self._fetch_pc = decoded.target_pc
            elif decoded.is_cond_branch:
                self._fetch_pc = predicted_target
            else:
                self._fetch_pc = decoded.pc + INSTRUCTION_SIZE
            if fetch_latency > 1:
                break
        return 1 if fetched else 0

    def _advance_fetch_ahead(self, steps: int) -> bool:
        """Take up to ``steps`` fetch-ahead steps past a fetched EXIT.

        Speculative fetch past the end of the test while EXIT is in flight,
        one step of ``fetch_width`` instructions per cycle: ``_fetch`` takes
        one per stepped cycle, the idle fast-forward all those of the cycles
        it skips.  The number of extra L1I lines touched depends on how long
        EXIT takes to commit, which is what makes timing differences (e.g.
        CleanupSpec's cleanup latency, KV2/unXpec) visible in the
        instruction cache.

        The stream is served one L1I line at a time, leaving the L1I/L2
        exactly as stepping does: the ``k`` steps that land in one line are
        ``k`` hits on a resident line, else one fill (L1I, then L2) and
        ``k - 1`` hits, so the use counter rises by ``k`` and the line ends
        stamped with its final value.  The pc only grows, and a line's own
        hits cannot evict it.  The fill is inlined as in
        ``MemorySystem.instruction_fetch``'s miss path (no L1I dirty
        marking: the L1I is never snapshot-restored).

        Returns False when there is no stream or it has reached its limit.
        """
        pc = self._fetch_ahead_pc
        limit = self._fetch_ahead_limit
        if pc is None or pc >= limit:
            return False
        step = self._fetch_ahead_step
        # Steps left before the stream reaches its limit.
        remaining = (limit - pc + step - 1) // step
        if steps < remaining:
            remaining = steps
        memory = self.memory
        l1i = memory.l1i
        l1i_config = l1i.config
        line_size = l1i_config.line_size
        sets = l1i_config.sets
        ways = l1i_config.ways
        l1i_lines = l1i._lines
        l2 = memory.l2
        l2_config = l2.config
        l2_line_size = l2_config.line_size
        counter = l1i._use_counter
        while remaining > 0:
            line = pc - (pc % line_size)
            # Steps that land in this line: those before its end.
            k = (line + line_size - pc + step - 1) // step
            if k > remaining:
                k = remaining
            entry_set = l1i_lines[(pc // line_size) % sets]
            if line not in entry_set:
                if len(entry_set) >= ways:
                    del entry_set[min(entry_set, key=entry_set.get)]
                l2_base = line - (line % l2_line_size)
                index = (l2_base // l2_line_size) % l2_config.sets
                l2_set = l2._lines[index]
                l2._dirty.add(index)
                l2._use_counter += 1
                if l2_base not in l2_set and len(l2_set) >= l2_config.ways:
                    del l2_set[min(l2_set, key=l2_set.get)]
                l2_set[l2_base] = l2._use_counter
            counter += k
            entry_set[line] = counter
            pc += k * step
            remaining -= k
        l1i._use_counter = counter
        self._fetch_ahead_pc = pc
        return True

    def _dispatch(
        self,
        decoded: DecodedInstruction,
        predicted_taken: Optional[bool],
        predicted_target: Optional[int],
    ) -> InFlightInstruction:
        seq = self._next_seq
        self._next_seq += 1
        entry = InFlightInstruction(
            seq=seq,
            decoded=decoded,
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
        )
        rename_get = self._rename_map.get
        entry.sources = {name: rename_get(name) for name in decoded.needed_registers}
        entry.flags_source = self._flags_producer

        destination = decoded.destination_register
        if destination is not None:
            self._rename_map[destination] = seq
        if decoded.writes_flags:
            self._flags_producer = seq
        if decoded.is_load:
            self._loads_in_flight += 1
        if decoded.is_store:
            self._stores_in_flight += 1

        self._rob.append(entry)
        self._entries[seq] = entry
        self._exec_waiting.append(entry)
        if entry.is_memory_access and self._defense_safety:
            self._safety_pending.append(entry)
        if decoded.is_cond_branch:
            self._unresolved_branches.add(seq)
        if decoded.is_store:
            self._unresolved_stores.add(seq)
            self._inflight_stores.append(entry)
        return entry
