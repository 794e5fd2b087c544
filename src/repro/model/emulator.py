"""The functional contract emulator (this repository's Unicorn substitute).

The emulator executes a test program architecturally, records the
observations required by a leakage contract's observation clause, explores
the additional paths required by its execution clause (mispredicted
conditional branches for ``CT-COND``-style contracts), and simultaneously
tracks which input locations influence the resulting contract trace.

The hot loops run over a :class:`~repro.isa.decoded.DecodedProgram`: every
structural question (is this a load? which registers feed the address?)
was answered once at decode time.  Each instruction executes through its
fused step (:mod:`repro.model.steps`), which computes values and flags with
the per-opcode functions of :mod:`repro.isa.semantics` and sets the taint
in the same call.  There is one execution path, shared by the
architectural and the speculative loops; the test suite holds it to a
reference built on the generic ``evaluate`` of
``tests/reference_semantics.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.generator.inputs import Input, TaintLabel
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedInstruction, decode_program
from repro.isa.program import Program
from repro.isa.registers import MASK64, ArchState
from repro.model.contracts import Contract
from repro.model.steps import Machine, build_steps
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


class _MemoryJournal:
    """Undo journal for memory writes on speculative contract paths.

    While the emulator explores a speculative path, :meth:`write` replaces
    the machine's memory writer and records each old value; :meth:`rollback`
    restores them back to a mark, so nested paths stack marks.
    """

    __slots__ = ("read", "write_memory", "entries")

    def __init__(self, state: ArchState) -> None:
        self.read = state.read_memory
        self.write_memory = state.write_memory
        self.entries: List[Tuple[int, int, int]] = []

    def write(self, address: int, size: int, value: int) -> None:
        self.entries.append((address, size, self.read(address, size)))
        self.write_memory(address, size, value)

    def rollback(self, mark: int) -> None:
        entries = self.entries
        while len(entries) > mark:
            address, size, value = entries.pop()
            self.write_memory(address, size, value)


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
        # Initial granule taint sets, shared by this emulator's runs.
        self._granule_labels: Dict[int, frozenset] = {}
        # The instructions that execute, by pc: EXIT, misaligned pcs and pcs
        # outside the program all end a path.
        self._live: Dict[int, DecodedInstruction] = {
            entry.pc: entry for entry in self.decoded.entries if not entry.is_exit
        }
        self._steps_ready = False

    # -- public API ---------------------------------------------------------
    def run(self, test_input: Input, contract: Contract) -> ModelResult:
        """Run ``test_input`` through the program under ``contract``."""
        if not self._steps_ready:
            # Built on the first run, so a program that is never emulated
            # costs no build; the fuzzer charges the build to ``compile``.
            build_steps(self.decoded)
            self._steps_ready = True
        state = ArchState(
            sandbox_base=self.sandbox.base,
            sandbox_size=self.sandbox.size,
            sandbox=self._sandbox_buffer,
            resident=self._resident_pages,
        )
        state.load_input(test_input.register_dict(), test_input.memory)
        taint = TaintState(self.sandbox, self._granule_labels)
        machine = Machine(state, taint)

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
            machine, state, taint, contract, observations, executed_pcs, accesses, counters
        )

        return ModelResult(
            trace=ContractTrace(tuple(observations)),
            relevant_labels=taint.relevant_labels(),
            instruction_count=counters["architectural"],
            executed_pcs=tuple(executed_pcs),
            final_registers=dict(machine.regs),
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

        The program is decoded once (in ``__init__``) and its steps built
        once (on the first ``run``); every input then reuses the same
        steps, sandbox buffer and granule taint sets.  The fuzzer no longer
        emulates boosted variants (they inherit their base's trace), so
        only tests and perfbench's tracer call this.
        """
        return [self.run(test_input, contract) for test_input in inputs]

    # -- execution ------------------------------------------------------------
    def _run_architectural(
        self,
        machine: Machine,
        state: ArchState,
        taint: TaintState,
        contract: Contract,
        observations: List[Tuple],
        executed_pcs: List[int],
        accesses: List[Tuple[str, int, int]],
        counters: Dict[str, int],
    ) -> None:
        """Execute the architectural path from the program entry until EXIT.

        This is the emulator's hot loop: per instruction it records the
        contract's observations, explores the mispredicted direction of a
        conditional branch, and calls the instruction's step.  Every
        contract facet and bound method it uses is hoisted out of the loop.
        :meth:`_run_speculative` is its counterpart; the order of
        observations, taint updates and counter steps is the same on both
        paths.
        """
        live = self._live.get
        limit = self.instruction_limit
        regs = machine.regs
        taints = machine.taints
        read_memory = state.read_memory
        memory_taint = taint.memory
        expose_pc = contract.expose_pc
        expose_address = contract.expose_memory_address
        expose_values = contract.expose_load_values
        explore_branches = contract.speculate_branches and contract.max_nesting > 0
        observe = observations.append
        record_access = accesses.append
        record_pc = executed_pcs.append
        mark_relevant = taint.relevant.update
        journal: Optional[_MemoryJournal] = None
        executed = 0
        cond_branches = 0
        tainted_accesses = 0
        pc: Optional[int] = self.decoded.entry_pc
        while True:
            entry = live(pc)
            if entry is None:
                break
            if executed >= limit:
                raise EmulationError(
                    f"program {self.program.name} exceeded the instruction limit "
                    f"({limit})"
                )
            if expose_pc:
                observe(("pc", pc))
            address = None
            if entry.is_cond_branch:
                cond_branches += 1
                if expose_pc:
                    # The branch direction (and hence the PC sequence) depends
                    # on the flags, so their input sources are contract-relevant.
                    mark_relevant(machine.flag_taint)
                if explore_branches:
                    # Explore the mispredicted direction.
                    taken = entry.cond_predicate(*machine.flags)
                    if journal is None:
                        journal = _MemoryJournal(state)
                    self._explore(
                        machine, taint, contract,
                        entry.fallthrough_pc if taken else entry.target_pc,
                        observations, counters, 1, journal,
                    )
            elif entry.is_memory_access:
                base, index = entry.mem_base, entry.mem_index
                address = regs[base] + entry.mem_displacement
                if index is None:
                    address_taint = taints[base]
                else:
                    address += regs[index]
                    address_taint = taints[base] | taints[index]
                address &= MASK64
                if address_taint:
                    tainted_accesses += 1
                if expose_address:
                    if entry.is_load:
                        observe(("load", address))
                    if entry.is_store:
                        observe(("store", address))
                    mark_relevant(address_taint)
                if entry.is_load:
                    if expose_values:
                        observe(("val", read_memory(address, entry.mem_size)))
                        mark_relevant(memory_taint(address, entry.mem_size))
                        mark_relevant(address_taint)
                    record_access(("load", pc, address))
                if entry.is_store:
                    record_access(("store", pc, address))

            next_pc = entry.step(machine, address)
            record_pc(pc)
            executed += 1
            pc = next_pc
        counters["architectural"] += executed
        counters["cond_branches"] += cond_branches
        counters["tainted_accesses"] += tainted_accesses

    def _explore(
        self,
        machine: Machine,
        taint: TaintState,
        contract: Contract,
        start_pc: Optional[int],
        observations: List[Tuple],
        counters: Dict[str, int],
        nesting: int,
        journal: _MemoryJournal,
    ) -> None:
        """Run a speculative path from ``start_pc``, then roll it back.

        The path runs on copies of the register and register-taint dicts;
        the flags and flag taint are immutable values, so saving them is a
        reference.  Memory writes and memory-taint writes are journaled and
        undone.  Relevance is not rolled back: speculative observations stay
        contract-relevant.
        """
        saved = (
            machine.regs, machine.flags, machine.taints, machine.flag_taint,
            machine.write_memory,
        )
        machine.regs = dict(saved[0])
        machine.taints = dict(saved[2])
        machine.write_memory = journal.write
        memory_mark = len(journal.entries)
        taint_mark = taint.snapshot()
        self._run_speculative(
            machine, taint, contract, start_pc, observations, counters, nesting, journal
        )
        journal.rollback(memory_mark)
        taint.restore(taint_mark)
        (
            machine.regs, machine.flags, machine.taints, machine.flag_taint,
            machine.write_memory,
        ) = saved

    def _run_speculative(
        self,
        machine: Machine,
        taint: TaintState,
        contract: Contract,
        pc: Optional[int],
        observations: List[Tuple],
        counters: Dict[str, int],
        nesting: int,
        journal: _MemoryJournal,
    ) -> None:
        """Run a bounded speculative path (rolled back by :meth:`_explore`).

        Mirrors the architectural loop, minus what only the architectural
        path records: the conditional-branch count and the access list.
        """
        live = self._live.get
        regs = machine.regs
        taints = machine.taints
        read_memory = machine.read_memory
        memory_taint = taint.memory
        expose_pc = contract.expose_pc
        expose_address = contract.expose_memory_address
        expose_values = contract.expose_load_values
        nest_branches = contract.speculate_branches and nesting < contract.max_nesting
        window = contract.speculation_window
        observe = observations.append
        mark_relevant = taint.relevant.update
        executed = 0
        tainted_accesses = 0
        while executed < window:
            entry = live(pc)
            if entry is None or entry.is_fence:
                break
            if expose_pc:
                observe(("pc", pc))
            address = None
            if entry.is_cond_branch:
                if expose_pc:
                    mark_relevant(machine.flag_taint)
                if nest_branches:
                    taken = entry.cond_predicate(*machine.flags)
                    self._explore(
                        machine, taint, contract,
                        entry.fallthrough_pc if taken else entry.target_pc,
                        observations, counters, nesting + 1, journal,
                    )
            elif entry.is_memory_access:
                base, index = entry.mem_base, entry.mem_index
                address = regs[base] + entry.mem_displacement
                if index is None:
                    address_taint = taints[base]
                else:
                    address += regs[index]
                    address_taint = taints[base] | taints[index]
                address &= MASK64
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

            pc = entry.step(machine, address)
            executed += 1
        counters["speculative"] += executed
        counters["tainted_accesses"] += tainted_accesses
