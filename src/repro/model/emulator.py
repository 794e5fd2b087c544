"""The functional contract emulator (this repository's Unicorn substitute).

The emulator executes a test program architecturally, records the
observations required by a leakage contract's observation clause, explores
the additional paths required by its execution clause (mispredicted
conditional branches for ``CT-COND``-style contracts), and simultaneously
tracks which input locations influence the resulting contract trace.

The hot loops run over a :class:`~repro.isa.decoded.DecodedProgram`: every
structural question (is this a load? which registers feed the address?)
was answered once at decode time, and architectural effects still come
exclusively from :mod:`repro.isa.semantics` through the per-instruction
closures of :mod:`repro.isa.specialized` (the equivalence suite checks them
against generic ``evaluate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.generator.inputs import Input, TaintLabel
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedInstruction, decode_program
from repro.isa.program import Program
from repro.isa.registers import ArchState
from repro.isa.semantics import ExecutionEffect
from repro.isa.specialized import attach_effect_closures
from repro.model.contracts import Contract
from repro.model.taint import TaintState

#: Safety bound on the number of executed instructions (generated programs
#: are forward DAGs and therefore cannot loop, but hand-written litmus tests
#: could; this bound turns an accidental infinite loop into an error).
DEFAULT_INSTRUCTION_LIMIT = 50_000


class EmulationError(RuntimeError):
    """Raised when a program does not terminate within the instruction limit."""


@dataclass(frozen=True)
class ContractTrace:
    """A contract trace: the sequence of ISA-level observations."""

    observations: Tuple[Tuple, ...]

    def __len__(self) -> int:
        return len(self.observations)

    def memory_addresses(self) -> Tuple[int, ...]:
        return tuple(
            entry[1] for entry in self.observations if entry[0] in ("load", "store")
        )

    def pcs(self) -> Tuple[int, ...]:
        return tuple(entry[1] for entry in self.observations if entry[0] == "pc")

    def __str__(self) -> str:
        parts = []
        for entry in self.observations:
            kind, value = entry[0], entry[1]
            if kind == "pc":
                parts.append(f"pc:{value:#x}")
            elif kind in ("load", "store"):
                parts.append(f"{kind}:{value:#x}")
            else:
                parts.append(f"{kind}:{value:#x}")
        return " ".join(parts)


@dataclass(frozen=True)
class SpeculationProfile:
    """What one functional run says about a test case's leak potential.

    Definition 2.1 violations in this model require micro-architectural
    state to diverge between inputs with equal contract traces.  A run that
    executed no conditional branch cannot mispredict (direct jumps resolve
    statically), and a run with no tainted-address load touches the same
    cache lines for every input of its contract class — so a class whose
    entries all have an empty profile cannot witness a violation, and the
    ``speculation`` filter level skips its O3 simulation entirely.
    """

    #: Conditional branches executed on the architectural path.
    cond_branches: int = 0
    #: Memory accesses (loads *and* stores, architectural or speculatively
    #: explored) whose address registers carry input taint.  Stores count
    #: too: a store at an input-dependent address dirties input-dependent
    #: cache lines even under contracts that do not expose addresses.
    tainted_accesses: int = 0

    @property
    def witnessable(self) -> bool:
        """Can a simulated run of this test case leak input-dependent state?"""
        return self.cond_branches > 0 or self.tainted_accesses > 0


@dataclass
class ModelResult:
    """Everything the leakage model produces for one (program, input) pair."""

    trace: ContractTrace
    relevant_labels: Set[TaintLabel]
    instruction_count: int
    executed_pcs: Tuple[int, ...]
    final_registers: Dict[str, int]
    speculative_instruction_count: int = 0
    architectural_accesses: Tuple[Tuple[str, int, int], ...] = field(
        default_factory=tuple
    )
    speculation: SpeculationProfile = field(default_factory=SpeculationProfile)


class _UndoLog:
    """Undo log used to roll back speculative contract execution."""

    __slots__ = ("state", "register_old", "flags_old", "memory_old")

    def __init__(self, state: ArchState) -> None:
        self.state = state
        self.register_old: List[Tuple[str, int]] = []
        self.flags_old = state.flags.as_tuple()
        self.memory_old: List[Tuple[int, int, int]] = []

    def record_effect(self, effect: ExecutionEffect) -> None:
        for name in effect.register_writes:
            self.register_old.append((name, self.state.registers.read(name)))
        if effect.memory_write is not None:
            address, size, _ = effect.memory_write
            self.memory_old.append((address, size, self.state.read_memory(address, size)))

    def rollback(self) -> None:
        for address, size, value in reversed(self.memory_old):
            self.state.write_memory(address, size, value)
        for name, value in reversed(self.register_old):
            self.state.registers.write(name, value)
        self.state.flags.load_tuple(self.flags_old)


class Emulator:
    """Executes a program against a contract, producing contract traces."""

    def __init__(
        self,
        program: Program,
        sandbox: Optional[Sandbox] = None,
        instruction_limit: int = DEFAULT_INSTRUCTION_LIMIT,
    ) -> None:
        self.program = program
        self.decoded = decode_program(program)
        self.sandbox = sandbox or Sandbox()
        self.instruction_limit = instruction_limit
        # Reused across runs with its resident-page set: load_input() marks
        # every page missing, and each run fills only the pages it touches.
        self._sandbox_buffer = bytearray(self.sandbox.size)
        self._resident_pages: Set[int] = set()

    # -- public API ---------------------------------------------------------
    def run(self, test_input: Input, contract: Contract) -> ModelResult:
        """Run ``test_input`` through the program under ``contract``."""
        if not self.decoded.effects_attached:
            # Built on the first run, so the build counts as emulation work;
            # the closures are shared with the O3 core via the decode cache.
            attach_effect_closures(self.decoded)
        state = ArchState(
            sandbox_base=self.sandbox.base,
            sandbox_size=self.sandbox.size,
            sandbox=self._sandbox_buffer,
            resident=self._resident_pages,
        )
        state.load_input(test_input.register_dict(), test_input.memory)
        taint = TaintState(self.sandbox)

        observations: List[Tuple] = []
        executed_pcs: List[int] = []
        accesses: List[Tuple[str, int, int]] = []
        counters = {
            "architectural": 0,
            "speculative": 0,
            "cond_branches": 0,
            "tainted_accesses": 0,
        }

        self._run_architectural(
            state, taint, contract, observations, executed_pcs, accesses, counters
        )

        return ModelResult(
            trace=ContractTrace(tuple(observations)),
            relevant_labels=taint.relevant_labels(),
            instruction_count=counters["architectural"],
            executed_pcs=tuple(executed_pcs),
            final_registers=state.registers.as_dict(),
            speculative_instruction_count=counters["speculative"],
            architectural_accesses=tuple(accesses),
            speculation=SpeculationProfile(
                cond_branches=counters["cond_branches"],
                tainted_accesses=counters["tainted_accesses"],
            ),
        )

    def contract_trace(self, test_input: Input, contract: Contract) -> ContractTrace:
        """Convenience wrapper returning only the contract trace."""
        return self.run(test_input, contract).trace

    def collect_traces_batch(
        self, inputs: List[Input], contract: Contract
    ) -> List[ModelResult]:
        """Run many inputs back-to-back through one decoded program.

        The program is decoded once (in ``__init__``) and its effect
        closures built once (on the first ``run``); every input then reuses
        the same sandbox buffer and closures.  This is the model-side half of batched test-case
        execution: all boosted inputs of a test case share the per-program
        setup cost.
        """
        return [self.run(test_input, contract) for test_input in inputs]

    # -- execution ------------------------------------------------------------
    def _run_architectural(
        self,
        state: ArchState,
        taint: TaintState,
        contract: Contract,
        observations: List[Tuple],
        executed_pcs: List[int],
        accesses: List[Tuple[str, int, int]],
        counters: Dict[str, int],
    ) -> None:
        """Execute the architectural path from the program entry until EXIT.

        This is the emulator's hot loop: every contract facet and bound
        method it uses is hoisted out of the per-instruction body, and the
        observation step is inlined (the speculative path calls
        :meth:`_observe_speculative`, its counterpart).  The order of
        observations, taint updates and counter steps is the same on both
        paths.
        """
        at_pc = self.decoded.at_pc
        limit = self.instruction_limit
        flags = state.flags
        read_register = state.registers.read
        read_memory = state.read_memory
        expose_pc = contract.expose_pc
        expose_address = contract.expose_memory_address
        expose_values = contract.expose_load_values
        explore_branches = contract.speculate_branches and contract.max_nesting > 0
        observe = observations.append
        record_access = accesses.append
        record_pc = executed_pcs.append
        mark_relevant = taint.mark_relevant
        register_taint = taint.registers
        memory_taint = taint.memory
        propagate_taint = self._propagate_taint
        apply_effect = self._apply_effect
        executed = 0
        cond_branches = 0
        tainted_accesses = 0
        pc: Optional[int] = self.decoded.entry_pc
        while pc is not None:
            entry = at_pc(pc)
            if entry is None or entry.is_exit:
                break
            if executed >= limit:
                raise EmulationError(
                    f"program {self.program.name} exceeded the instruction limit "
                    f"({limit})"
                )

            is_cond_branch = entry.is_cond_branch
            if is_cond_branch:
                cond_branches += 1
            if expose_pc:
                observe(("pc", pc))
                if is_cond_branch:
                    # The branch direction (and hence the PC sequence) depends
                    # on the flags, so their input sources are contract-relevant.
                    mark_relevant(taint.flag_taint)
            if entry.is_memory_access:
                address = entry.effective_address(read_register)
                address_taint = register_taint(entry.address_registers)
                if address_taint:
                    tainted_accesses += 1
                if expose_address:
                    if entry.is_load:
                        observe(("load", address))
                    if entry.is_store:
                        observe(("store", address))
                    mark_relevant(address_taint)
                if entry.is_load and expose_values:
                    observe(("val", read_memory(address, entry.mem_size)))
                    mark_relevant(memory_taint(address, entry.mem_size))
                    mark_relevant(address_taint)
                if entry.is_load:
                    record_access(("load", pc, address))
                if entry.is_store:
                    record_access(("store", pc, address))

            # Explore the mispredicted direction of conditional branches.
            if is_cond_branch and explore_branches:
                taken = entry.cond_predicate(
                    flags.zf, flags.sf, flags.cf, flags.of, flags.pf
                )
                wrong_pc = entry.fallthrough_pc if taken else entry.target_pc
                spec_undo = _UndoLog(state)
                spec_taint_mark = taint.snapshot()
                self._run_speculative(
                    state, taint, contract, wrong_pc, observations, counters,
                    1, spec_undo,
                )
                spec_undo.rollback()
                taint.restore(spec_taint_mark)

            effect = entry.effect_fn(read_register, flags, read_memory)
            apply_effect(effect, state)
            propagate_taint(entry, effect, taint)

            record_pc(pc)
            executed += 1
            pc = effect.next_pc
        counters["architectural"] += executed
        counters["cond_branches"] += cond_branches
        counters["tainted_accesses"] += tainted_accesses

    def _run_speculative(
        self,
        state: ArchState,
        taint: TaintState,
        contract: Contract,
        start_pc: Optional[int],
        observations: List[Tuple],
        counters: Dict[str, int],
        nesting: int,
        undo: _UndoLog,
    ) -> None:
        """Run a bounded speculative path, recording undo information."""
        if start_pc is None:
            return
        at_pc = self.decoded.at_pc
        flags = state.flags
        nest_branches = contract.speculate_branches and nesting < contract.max_nesting
        pc: Optional[int] = start_pc
        executed = 0
        while pc is not None and executed < contract.speculation_window:
            entry = at_pc(pc)
            if entry is None or entry.is_exit:
                break
            if entry.is_fence:
                break

            self._observe_speculative(
                entry, state, taint, contract, observations, counters
            )

            if entry.is_cond_branch and nest_branches:
                taken = entry.cond_predicate(
                    flags.zf, flags.sf, flags.cf, flags.of, flags.pf
                )
                wrong_pc = entry.fallthrough_pc if taken else entry.target_pc
                nested_undo = _UndoLog(state)
                nested_mark = taint.snapshot()
                self._run_speculative(
                    state, taint, contract, wrong_pc, observations, counters,
                    nesting + 1, nested_undo,
                )
                nested_undo.rollback()
                taint.restore(nested_mark)

            # Record old values before applying so the caller can roll back.
            effect = entry.effect_fn(state.registers.read, flags, state.read_memory)
            undo.record_effect(effect)
            self._apply_effect(effect, state)
            self._propagate_taint(entry, effect, taint)

            counters["speculative"] += 1
            executed += 1
            pc = effect.next_pc

    @staticmethod
    def _apply_effect(effect: ExecutionEffect, state: ArchState) -> None:
        for name, value in effect.register_writes.items():
            state.registers.write(name, value)
        if effect.flag_writes:
            state.flags.update(effect.flag_writes)
        if effect.memory_write is not None:
            address, size, value = effect.memory_write
            state.write_memory(address, size, value)

    # -- observation and taint --------------------------------------------------
    def _observe_speculative(
        self,
        entry: DecodedInstruction,
        state: ArchState,
        taint: TaintState,
        contract: Contract,
        observations: List[Tuple],
        counters: Dict[str, int],
    ) -> None:
        """The observation step of a speculative instruction.

        Mirrors the architectural loop's inlined step, minus what only the
        architectural path records: the conditional-branch count and the
        access list.
        """
        if contract.expose_pc:
            observations.append(("pc", entry.pc))
            if entry.is_cond_branch:
                # The branch direction (and hence the PC sequence) depends on
                # the flags, so the flags' input sources are contract-relevant.
                taint.mark_relevant(taint.flag_taint)

        if entry.is_memory_access:
            address = entry.effective_address(state.registers.read)
            address_taint = taint.registers(entry.address_registers)
            if address_taint:
                counters["tainted_accesses"] += 1
            if contract.expose_memory_address:
                if entry.is_load:
                    observations.append(("load", address))
                if entry.is_store:
                    observations.append(("store", address))
                taint.mark_relevant(address_taint)
            if entry.is_load and contract.expose_load_values:
                value = state.read_memory(address, entry.mem_size)
                observations.append(("val", value))
                taint.mark_relevant(taint.memory(address, entry.mem_size))
                taint.mark_relevant(address_taint)

    def _propagate_taint(
        self,
        entry: DecodedInstruction,
        effect: ExecutionEffect,
        taint: TaintState,
    ) -> None:
        value_taint = taint.registers(entry.source_registers)
        if entry.reads_flags:
            value_taint |= taint.flag_taint
        if effect.memory_read is not None:
            address, size = effect.memory_read
            value_taint |= taint.memory(address, size)
            value_taint |= taint.registers(entry.address_registers)

        destination = entry.destination_register
        if destination is not None:
            taint.set_register(destination, value_taint)
        if entry.writes_flags:
            if entry.partial_flag_writer:
                # INC/DEC preserve the carry and zero-count shifts preserve
                # every flag, so the old flag provenance survives the write.
                taint.set_flags(value_taint | taint.flag_taint)
            else:
                taint.set_flags(value_taint)
        if effect.memory_write is not None:
            address, size, _ = effect.memory_write
            taint.set_memory(address, size, value_taint)
