"""Intra-round parallel simulation with compact trace transport.

After the execution scheduler partitions a round into contract-equivalence
classes, detection is *class-local*: a Definition 2.1 violation is witnessed
(or not) entirely inside one class, validation contexts come from inside the
class, and coverage features are per-entry.  That makes the witnessable
classes of a round independent shard units — this module fans them out
across a pool of persistent worker processes:

* each :class:`SimulationTask` is one *chunk*: a contiguous run of classes
  (entries in plan order) merged by :func:`chunk_classes` into a fixed
  per-round shard count; the worker runs a chunk on a **fresh simulator**,
  so a task's result depends only on the task, never on which worker ran it
  or in what order — sharded results are byte-identical to running the same
  tasks inline, whatever the worker count;
* workers keep a :class:`SimulatorExecutor` per :class:`ExecutorSpec`
  (defense, uarch config, mode, trace format, ...) alive across rounds, so
  the executor's primed machinery is reused instead of re-pickled per
  round;
* results travel back in a **compact wire format**: a BLAKE2b digest of
  each micro-architectural trace plus the :class:`CoreStatistics` the
  coverage map needs — the detector only groups traces by equality, so
  digests suffice.  Full :class:`~repro.executor.traces.UarchTrace` payloads
  and materialized predictor contexts are fetched in a targeted second pass
  for the minority-group entries the detector actually promotes to
  violation witnesses (workers hold their task results in memory until the
  round releases them);
* task payloads are pickled with **protocol 5 out-of-band buffers**, so the
  sandbox memory of every :class:`~repro.generator.inputs.Input` is carved
  out of the opcode stream instead of being copied through it;
* the **contract pass** shards through the same workers: each base input's
  leakage-model run plus its contract-preserving boosted variants is one
  :class:`ContractTask` — base inputs are counter-seeded and variant
  derivation is seeded purely by the base input's fingerprint, so a worker
  reproduces exactly the inputs the single-process path would generate.
  For taint-tracking contracts (the STT defense's ARCH-SEQ pass dominates
  its rounds) this is where most of the parallel win comes from.

The pool is a process-wide singleton (persistent workers are the point);
``shutdown_pool()`` tears it down explicitly and an ``atexit`` hook — plus
daemonized workers — guarantees nothing outlives the interpreter.  Inside a
daemonic process (e.g. a :class:`ProcessPoolBackend` campaign worker, which
cannot have children), sharded execution transparently falls back to the
inline runner with identical results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.backends.faults import fault_plan, reset_fault_plan

from repro.executor.executor import (
    ExecutionMode,
    ExecutionRecord,
    PrimeStrategy,
    SimulatorExecutor,
)
from repro.executor.startup import IPC_TRANSPORT
from repro.executor.traces import TraceConfig, UarchTrace, get_trace_config, trace_digest
from repro.generator.inputs import Input, InputGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.program import Program
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator, SpeculationProfile
from repro.uarch.config import UarchConfig
from repro.uarch.core import SimulationResult
from repro.uarch.stats import CoreStatistics

#: Coordinator poll interval while waiting on worker results (liveness guard).
_POLL_SECONDS = 0.25

#: Environment knob for tests: force the inline fallback even when a pool is
#: requested (lets the equivalence suite A/B the exact same code path).
FORCE_INLINE_ENV = "REPRO_SIM_FORCE_INLINE"


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def dumps_oob(obj) -> Tuple[bytes, List[bytes]]:
    """Pickle ``obj`` with protocol 5, extracting buffers out of band.

    ``Input.memory`` (the dominant payload of a simulation task: one sandbox
    image per input) advertises itself as a :class:`pickle.PickleBuffer`, so
    it lands in the returned buffer list untraversed instead of being copied
    through the opcode stream.
    """
    buffers: List[pickle.PickleBuffer] = []
    payload = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
    return payload, [bytes(buffer.raw()) for buffer in buffers]


def loads_oob(payload: bytes, buffers: Sequence[bytes]):
    """Inverse of :func:`dumps_oob`."""
    return pickle.loads(payload, buffers=buffers)


@dataclass(frozen=True)
class ExecutorSpec:
    """Everything needed to (re)build one executor, and the worker cache key.

    All fields are hashable (``TraceConfig`` and ``UarchConfig`` are frozen
    dataclasses), so a worker's executor cache is a plain dict keyed by the
    spec — two fuzzing instances with the same configuration share one
    executor and its primed machinery.
    """

    defense: str
    patched: bool
    mode: str
    prime_strategy: Optional[str]
    trace_config: TraceConfig
    uarch_config: UarchConfig
    sandbox_pages: int
    specialize: bool

    @staticmethod
    def from_fuzzer_config(config, sandbox_pages: int) -> "ExecutorSpec":
        """Spec for the executor an :class:`AmuletFuzzer` would build."""
        prime = config.prime_strategy
        return ExecutorSpec(
            defense=config.defense,
            patched=config.patched,
            mode=ExecutionMode(config.mode).value,
            prime_strategy=PrimeStrategy(prime).value if prime is not None else None,
            trace_config=config.trace_config,
            uarch_config=config.uarch_config,
            sandbox_pages=sandbox_pages,
            specialize=config.specialize,
        )

    def build_executor(self) -> SimulatorExecutor:
        from repro.defenses.registry import create_defense

        defense_name, patched = self.defense, self.patched
        return SimulatorExecutor(
            defense_factory=lambda: create_defense(defense_name, patched=patched),
            uarch_config=self.uarch_config,
            sandbox=Sandbox(pages=self.sandbox_pages),
            trace_config=self.trace_config,
            mode=ExecutionMode(self.mode),
            prime_strategy=(
                PrimeStrategy(self.prime_strategy)
                if self.prime_strategy is not None
                else None
            ),
            specialize=self.specialize,
        )


@dataclass
class SimulationTask:
    """One shard unit: a chunk of contract-equivalence classes of one round.

    ``inputs`` are the chunk's executable entries in plan (original input)
    order (see :func:`chunk_classes`).  The task is self-contained: a worker
    loads ``program`` on a fresh simulator built from ``spec`` and runs the
    inputs back to back.
    """

    task_id: int
    spec: ExecutorSpec
    program: Program
    inputs: Tuple[Input, ...]


@dataclass(frozen=True)
class ContractSpec:
    """Worker-side recipe for one round's contract pass (and its cache key).

    ``mutate_preserving`` seeds its RNG from the base input's fingerprint and
    the base index — never from generator instance state — so any
    ``InputGenerator`` over an identically sized sandbox derives identical
    boosted variants.  That is what makes the contract pass shardable.
    """

    contract: str
    sandbox_pages: int
    specialize: bool
    boost_factor: int
    #: The fuzzing instance's input-generator seed: a worker generator built
    #: from it materializes counter-addressed base inputs bit-identically.
    generator_seed: int = 0


@dataclass
class ContractTask:
    """One contract-pass shard: a single base input of one round.

    The base input travels either as a literal (corpus-seeded inputs, which
    exist only in the coordinator) or as a stream ``base_counter`` — inputs
    are pure functions of (generator seed, counter), so the worker
    materializes them locally and the (large, for big sandboxes) sandbox
    image never crosses the wire inbound.

    ``program_key`` is unique per (instance, round); workers key their cached
    :class:`~repro.model.emulator.Emulator` on it so all base inputs of a
    round share one decoded program and its closures, exactly like the seed
    path.
    """

    task_id: int
    spec: ContractSpec
    program_key: int
    program: Program
    base_index: int
    base_input: Optional[Input] = None
    base_counter: Optional[int] = None


@dataclass
class ContractOutcome:
    """Contract traces, the materialized base input, and boosted variants.

    Contract traces travel whole (the coordinator partitions on them, so
    digests cannot stand in); the heavy payloads — the base input's and each
    variant's sandbox image — ride as protocol-5 out-of-band buffers.
    """

    task_id: int
    base_input: Input
    base_trace: ContractTrace
    base_speculation: SpeculationProfile
    variants: Tuple[Input, ...]
    variant_traces: Tuple[ContractTrace, ...]
    variant_speculations: Tuple[SpeculationProfile, ...]
    #: Wall-clock the worker spent on this task (generation + emulation +
    #: mutation).
    elapsed_seconds: float = 0.0
    pooled: bool = False

    def busy_seconds(self) -> float:
        return self.elapsed_seconds


@dataclass
class CompactRecord:
    """The digest-plus-counters wire form of one executed entry.

    Everything the round pipeline reads for *non-witness* entries: the trace
    digest (detection groups by equality), and the simulation counters the
    coverage map and time accounting consume.  The full trace, the final
    architectural registers, and the predictor context stay worker-side
    until :meth:`SimWorkerPool.fetch` asks for them.
    """

    digest: bytes
    cycles: int
    instructions_committed: int
    exit_reached: bool
    stats: CoreStatistics

    @staticmethod
    def from_record(record: ExecutionRecord) -> "CompactRecord":
        result = record.result
        return CompactRecord(
            digest=trace_digest(record.trace),
            cycles=result.cycles,
            instructions_committed=result.instructions_committed,
            exit_reached=result.exit_reached,
            stats=result.stats,
        )


@dataclass
class FullRecord:
    """The second-pass payload for one witness entry."""

    trace: UarchTrace
    uarch_context: Optional[dict]
    result: SimulationResult


@dataclass
class TaskResult:
    """What a worker reports for one completed task."""

    task_id: int
    compact: List[CompactRecord]
    #: Modeled / wall-clock seconds this task added to the worker's executor.
    modeled_seconds: Dict[str, float] = field(default_factory=dict)
    wall_clock_seconds: Dict[str, float] = field(default_factory=dict)
    simulator_starts: int = 0
    #: Wall-clock measured *around* the task, which exceeds the executor's
    #: own ledger deltas by per-task costs the ledger does not attribute
    #: (core construction, record assembly).  This is what the task really
    #: costs wherever it runs, so scheduling and makespan math use it.
    elapsed_seconds: float = 0.0

    def busy_seconds(self) -> float:
        """Wall-clock the worker spent on this task, end to end."""
        if self.elapsed_seconds > 0.0:
            return self.elapsed_seconds
        return sum(self.wall_clock_seconds.values())


@dataclass(frozen=True, eq=False)
class DigestTrace:
    """Hashable stand-in for a :class:`UarchTrace` on the compact path.

    Equality and hashing go through the content digest, so the detector's
    group-by-trace dictionaries behave exactly as with full traces (BLAKE2b
    collisions at 128 bits are not a practical concern).  Deliberately never
    equal to a real ``UarchTrace``: a round must group either all-digest or
    all-full, and mixing the two is a bug this asymmetry surfaces.
    """

    digest: bytes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DigestTrace) and self.digest == other.digest

    def __hash__(self) -> int:
        return hash(self.digest)

    def differing_components(self, other) -> Tuple[str, ...]:
        raise TypeError(
            "DigestTrace carries no components; materialize the full trace "
            "(SimulationRouter.materialize_entries) before diffing"
        )


class RemoteRecord:
    """Execution record whose heavy payload still lives in a worker.

    Mirrors the :class:`~repro.executor.executor.ExecutionRecord` attribute
    surface the round pipeline touches (``trace``, ``result``,
    ``uarch_context``, ``materialized_context()``); ``apply_full`` swaps in
    the fetched second-pass payload for witness entries.
    """

    __slots__ = ("trace", "result", "uarch_context", "task_id", "input_index")

    def __init__(self, task_id: int, input_index: int, compact: CompactRecord) -> None:
        self.task_id = task_id
        self.input_index = input_index
        self.trace: object = DigestTrace(compact.digest)
        self.result = SimulationResult(
            cycles=compact.cycles,
            instructions_committed=compact.instructions_committed,
            exit_reached=compact.exit_reached,
            stats=compact.stats,
        )
        self.uarch_context: Optional[dict] = None

    @property
    def pending(self) -> bool:
        """True while only the compact payload is present."""
        return isinstance(self.trace, DigestTrace)

    def apply_full(self, full: FullRecord) -> None:
        if trace_digest(full.trace) != self.trace.digest:  # pragma: no cover
            raise RuntimeError("fetched trace does not match its digest")
        self.trace = full.trace
        self.result = full.result
        self.uarch_context = full.uarch_context

    def materialized_context(self) -> Optional[dict]:
        return self.uarch_context


@dataclass
class TaskOutcome:
    """Uniform (inline or pooled) result of one task for the round pipeline."""

    task_id: int
    #: One record per task input: full ``ExecutionRecord`` (inline) or
    #: digest-backed :class:`RemoteRecord` (pooled).
    records: List[object]
    modeled_seconds: Dict[str, float]
    wall_clock_seconds: Dict[str, float]
    simulator_starts: int
    pooled: bool
    #: Result-message bytes on the wire (0 on the inline path).
    compact_bytes: int = 0
    #: End-to-end wall-clock of the task (see ``TaskResult.elapsed_seconds``).
    elapsed_seconds: float = 0.0

    def busy_seconds(self) -> float:
        if self.elapsed_seconds > 0.0:
            return self.elapsed_seconds
        return sum(self.wall_clock_seconds.values())


# ---------------------------------------------------------------------------
# task execution (shared by the inline fallback and the workers)
# ---------------------------------------------------------------------------


def _time_snapshot(executor: SimulatorExecutor) -> Tuple[Dict[str, float], Dict[str, float], int]:
    return (
        dict(executor.time.modeled_seconds),
        dict(executor.time.wall_clock_seconds),
        executor.simulator_starts,
    )


def _time_delta(
    before: Tuple[Dict[str, float], Dict[str, float], int],
    executor: SimulatorExecutor,
) -> Tuple[Dict[str, float], Dict[str, float], int]:
    modeled_before, wall_before, starts_before = before
    modeled = {
        component: seconds - modeled_before.get(component, 0.0)
        for component, seconds in executor.time.modeled_seconds.items()
        if seconds - modeled_before.get(component, 0.0) > 0.0
    }
    wall = {
        component: seconds - wall_before.get(component, 0.0)
        for component, seconds in executor.time.wall_clock_seconds.items()
        if seconds - wall_before.get(component, 0.0) > 0.0
    }
    return modeled, wall, executor.simulator_starts - starts_before


def run_simulation_task(
    task: SimulationTask, executors: Dict[ExecutorSpec, SimulatorExecutor]
) -> Tuple[TaskResult, List[ExecutionRecord]]:
    """Run one task on a cached (or fresh) executor; return compact + full.

    ``load_program`` builds a brand-new core in Opt mode, so every task —
    wherever it runs — starts from the same micro-architectural state and
    its records are a pure function of the task.
    """
    started = time.perf_counter()
    executor = executors.get(task.spec)
    if executor is None:
        executor = task.spec.build_executor()
        executors[task.spec] = executor
    before = _time_snapshot(executor)
    executor.load_program(task.program)
    records = executor.run_batch(list(task.inputs))
    modeled, wall, starts = _time_delta(before, executor)
    result = TaskResult(
        task_id=task.task_id,
        compact=[CompactRecord.from_record(record) for record in records],
        modeled_seconds=modeled,
        wall_clock_seconds=wall,
        simulator_starts=starts,
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, records


def run_tasks_inline(
    tasks: Sequence[SimulationTask],
    executors: Optional[Dict[ExecutorSpec, SimulatorExecutor]] = None,
) -> List[TaskOutcome]:
    """The inline fallback behind ``ExecutionBackend.map_simulations``.

    Runs every task serially on the calling thread with the same per-task
    fresh-simulator semantics as the pooled path, returning full records
    (there is no IPC to compress away).
    """
    if executors is None:
        executors = {}
    outcomes: List[TaskOutcome] = []
    for task in tasks:
        result, records = run_simulation_task(task, executors)
        outcomes.append(
            TaskOutcome(
                task_id=task.task_id,
                records=list(records),
                modeled_seconds=result.modeled_seconds,
                wall_clock_seconds=result.wall_clock_seconds,
                simulator_starts=result.simulator_starts,
                pooled=False,
                elapsed_seconds=result.elapsed_seconds,
            )
        )
    return outcomes


#: Fixed shard granularity of a round's micro-architectural simulation: its
#: witnessable classes are merged, in plan order, into at most this many
#: contiguous chunks (one fresh core each).  A fixed constant — never the
#: worker count — so the chunking, and with it every simulated trace, is
#: byte-identical at any ``sim_workers`` setting.  Six chunks is the
#: measured sweet spot for a 4-worker round: fewer pays too coarse an LPT
#: schedule, more pays too many cold cores.
SIM_CHUNKS_PER_ROUND = 6


def chunk_classes(
    classes: Sequence[Sequence], max_chunks: int = SIM_CHUNKS_PER_ROUND
) -> List[List]:
    """Merge contract-equivalence classes into contiguous, balanced chunks.

    Returns at most ``max_chunks`` lists of entries (plan order preserved,
    classes never split), with chunk boundaries chosen greedily so chunks
    carry roughly equal input counts.  Each chunk simulates on one fresh
    core; predictor state carries across the chunk's inputs exactly as
    AMuLeT-Opt carries it across a round — and since the chunking depends
    only on the plan, results are independent of where chunks execute.
    """
    if not classes:
        return []
    count = min(len(classes), max(1, max_chunks))
    total = sum(len(entries) for entries in classes)
    chunks: List[List] = []
    current: List = []
    consumed = 0
    for entries in classes:
        current.extend(entries)
        consumed += len(entries)
        if (
            len(chunks) < count - 1
            and consumed * count >= total * (len(chunks) + 1)
        ):
            chunks.append(current)
            current = []
    if current:
        chunks.append(current)
    return chunks


class ContractRunner:
    """Per-process cache behind contract-pass shards.

    Caches one :class:`InputGenerator` per spec (sandboxes are per-spec) and
    one :class:`~repro.model.emulator.Emulator` per (spec, program_key), so
    every base input of a round reuses the round's decoded program
    — the same amortization the single-process contract loop gets.
    """

    def __init__(self) -> None:
        self._generators: Dict[ContractSpec, InputGenerator] = {}
        self._emulators: Dict[ContractSpec, Tuple[int, Emulator]] = {}

    def run(self, task: ContractTask) -> ContractOutcome:
        started = time.perf_counter()
        spec = task.spec
        generator = self._generators.get(spec)
        if generator is None:
            generator = InputGenerator(
                Sandbox(pages=spec.sandbox_pages), seed=spec.generator_seed
            )
            self._generators[spec] = generator
        cached = self._emulators.get(spec)
        if cached is None or cached[0] != task.program_key:
            emulator = Emulator(
                task.program, generator.sandbox, specialize=spec.specialize
            )
            self._emulators[spec] = (task.program_key, emulator)
        else:
            emulator = cached[1]
        base_input = task.base_input
        if base_input is None:
            base_input = generator.generate_at(task.base_counter)
        contract = get_contract(spec.contract)
        model_result = emulator.run(base_input, contract)
        variants = generator.mutate_preserving(
            base_input,
            model_result.relevant_labels,
            count=spec.boost_factor,
            salt=task.base_index,
        )
        variant_results = (
            emulator.collect_traces_batch(variants, contract) if variants else []
        )
        return ContractOutcome(
            task_id=task.task_id,
            base_input=base_input,
            base_trace=model_result.trace,
            base_speculation=model_result.speculation,
            variants=tuple(variants),
            variant_traces=tuple(result.trace for result in variant_results),
            variant_speculations=tuple(
                result.speculation for result in variant_results
            ),
            elapsed_seconds=time.perf_counter() - started,
        )


def run_contract_tasks_inline(
    tasks: Sequence[ContractTask], runner: Optional[ContractRunner] = None
) -> List[ContractOutcome]:
    """The inline fallback for contract-pass shards (serial, same results)."""
    if runner is None:
        runner = ContractRunner()
    return [runner.run(task) for task in tasks]


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------


def _sim_worker_main(
    worker_index: int, generation: int, task_queue, result_queue
) -> None:
    """Worker loop: simulate task batches, serve second-pass fetches.

    ``generation`` counts this slot's incarnations: it rides along on every
    result so the supervisor can tell live messages from a replaced
    incarnation's stragglers, and it keys deterministic fault injection
    (a fault matched on ``generation: 0`` dies once and lets the respawn
    replay the task cleanly).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Forked workers inherit the parent's parsed plan; re-read the
    # environment so per-worker match keys see this process's context.
    reset_fault_plan()
    plan = fault_plan()
    executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
    contract_runner = ContractRunner()
    held: Dict[int, List[ExecutionRecord]] = {}
    while True:
        message = task_queue.get()
        kind = message[0]
        try:
            if kind == "sim":
                tasks: List[SimulationTask] = loads_oob(message[1], message[2])
                for task in tasks:
                    context = {
                        "worker": worker_index,
                        "task": task.task_id,
                        "generation": generation,
                    }
                    plan.maybe_delay("sim_worker", **context)
                    plan.maybe_kill("sim_worker", **context)
                    result, records = run_simulation_task(task, executors)
                    held[task.task_id] = records
                    payload = pickle.dumps(result, protocol=5)
                    result_queue.put(("result", worker_index, generation, payload))
            elif kind == "contract":
                contract_tasks: List[ContractTask] = loads_oob(
                    message[1], message[2]
                )
                for contract_task in contract_tasks:
                    context = {
                        "worker": worker_index,
                        "task": contract_task.task_id,
                        "generation": generation,
                    }
                    plan.maybe_delay("sim_contract", **context)
                    plan.maybe_kill("sim_contract", **context)
                    outcome = contract_runner.run(contract_task)
                    payload, buffers = dumps_oob(outcome)
                    result_queue.put(
                        ("cresult", worker_index, generation, payload, buffers)
                    )
            elif kind == "fetch":
                task_id, indices = message[1], message[2]
                records = held[task_id]
                full = {
                    index: FullRecord(
                        trace=records[index].trace,
                        uarch_context=records[index].materialized_context(),
                        result=records[index].result,
                    )
                    for index in indices
                }
                payload = pickle.dumps(full, protocol=5)
                result_queue.put(
                    ("full", worker_index, generation, task_id, payload)
                )
            elif kind == "release":
                for task_id in message[1]:
                    held.pop(task_id, None)
            elif kind == "stop":
                return
        except BaseException:
            result_queue.put(("error", worker_index, traceback.format_exc()))


class _SimWorkerSlot:
    """One supervised worker position: a process plus its incarnation state."""

    __slots__ = (
        "index",
        "process",
        "task_queue",
        "generation",
        "retries",
        "last_activity",
        "disabled",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.task_queue = None
        self.generation = -1
        self.retries = 0
        self.last_activity = 0.0
        self.disabled = False


class SimWorkerPool:
    """A supervised, persistent pool of simulation workers.

    Tasks are assigned with a deterministic longest-processing-time
    heuristic (estimated by input count), one batched message per worker per
    round; results stream back over a shared queue and are re-ordered by
    task id.  The pool remembers which worker incarnation ran which task so
    the second-pass ``fetch`` can be targeted.

    Supervision: the collect loops poll the result queue and, while idle,
    check each busy slot for death (or a ``task_timeout_seconds`` deadline
    overrun, which force-kills the straggler).  A lost slot is respawned
    with exponential backoff — a fresh incarnation with a fresh task queue —
    and its outstanding tasks are re-dispatched; because every task is a
    pure function of its payload, replayed results are byte-identical and
    stale duplicates from the dead incarnation are simply dropped.  Beyond
    ``max_retries`` respawns a slot is disabled; once every slot is
    disabled, remaining tasks run inline on the coordinator (still in the
    compact-record shape, so a round never mixes digest and full traces).
    Full records lost with a dead incarnation are re-simulated inline on
    fetch from the coordinator-retained task payloads.
    """

    def __init__(
        self,
        workers: int,
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a simulation pool needs at least 1 worker")
        self.workers = workers
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.task_timeout_seconds = task_timeout_seconds
        self._context = multiprocessing.get_context()
        self._results = self._context.Queue()
        self._slots = [_SimWorkerSlot(index) for index in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        #: task_id -> (slot index, generation) of the incarnation holding the
        #: task's full records (set when the result is accepted).
        self._task_worker: Dict[int, Tuple[int, int]] = {}
        #: Dispatched task payloads, kept until release so lost records can
        #: be re-simulated inline (retention window: one round).
        self._retained: Dict[int, SimulationTask] = {}
        #: Full records produced on the coordinator (inline degradation or
        #: fetch-time re-simulation), served directly by ``fetch``.
        self._local_records: Dict[int, List[ExecutionRecord]] = {}
        #: Tasks whose worker-held records died with their incarnation.
        self._lost_records: Set[int] = set()
        #: Salvaged messages drained ahead of loss handling, consumed first.
        self._backlog: List[tuple] = []
        self._inline_executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
        self._inline_contract_runner: Optional[ContractRunner] = None
        self._closed = False
        #: Cumulative transport accounting (read by benchmarks/reports).
        self.sent_bytes = 0
        self.result_bytes = 0
        self.fetch_bytes = 0
        self.fetched_entries = 0
        #: Cumulative supervision accounting (mirrored into reports).
        self.fault_counters: Dict[str, int] = {}
        self.force_kills = 0

    @property
    def degraded(self) -> bool:
        """True once any slot has been disabled (retry budget exhausted)."""
        return any(slot.disabled for slot in self._slots)

    def _count_fault(self, reason: str, count: int = 1) -> None:
        self.fault_counters[reason] = self.fault_counters.get(reason, 0) + count

    # -- worker lifecycle -----------------------------------------------------
    def _spawn(self, slot: _SimWorkerSlot) -> None:
        """Start a fresh incarnation in ``slot`` (its own new task queue)."""
        old_queue = slot.task_queue
        slot.generation += 1
        slot.task_queue = self._context.Queue()
        slot.process = self._context.Process(
            target=_sim_worker_main,
            args=(slot.index, slot.generation, slot.task_queue, self._results),
            daemon=True,
        )
        slot.process.start()
        slot.last_activity = time.monotonic()
        if old_queue is not None:
            # The dead incarnation's queue (and whatever undelivered messages
            # it still holds) is abandoned; free its feeder thread.
            try:
                old_queue.close()
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass

    def _enabled_slots(self) -> List[_SimWorkerSlot]:
        return [slot for slot in self._slots if not slot.disabled]

    def _supervise_slot(self, slot: _SimWorkerSlot, reason: str) -> None:
        """A slot's incarnation was lost: account, invalidate, respawn/disable."""
        self._count_fault(reason)
        # Full records held by the dying incarnation are gone; remember the
        # task ids so fetch falls back to inline re-simulation.
        for task_id, (index, generation) in list(self._task_worker.items()):
            if index == slot.index and generation == slot.generation:
                del self._task_worker[task_id]
                self._lost_records.add(task_id)
        slot.retries += 1
        if slot.retries > self.max_retries:
            slot.disabled = True
        else:
            time.sleep(self.retry_backoff_seconds * (2 ** (slot.retries - 1)))
            self._spawn(slot)

    # -- scheduling -----------------------------------------------------------
    def _dispatch(self, kind: str, tasks: Sequence, weight, pending, assignment):
        """LPT-shard ``tasks`` across the enabled slots and send the shards."""
        enabled = self._enabled_slots()
        order = sorted(
            range(len(tasks)), key=lambda i: (-weight(tasks[i]), tasks[i].task_id)
        )
        loads = [0] * len(enabled)
        shards: List[List] = [[] for _ in enabled]
        for index in order:
            target = loads.index(min(loads))
            shards[target].append(tasks[index])
            loads[target] += max(1, weight(tasks[index]))
        for slot, shard in zip(enabled, shards):
            if not shard:
                continue
            payload, buffers = dumps_oob(shard)
            self.sent_bytes += len(payload) + sum(len(buffer) for buffer in buffers)
            slot.task_queue.put((kind, payload, buffers))
            slot.last_activity = time.monotonic()
            for task in shard:
                pending[task.task_id] = task
                assignment[task.task_id] = (slot.index, slot.generation)

    def _outstanding(self, slot: _SimWorkerSlot, pending, assignment) -> List[int]:
        return [
            task_id
            for task_id in pending
            if assignment.get(task_id) == (slot.index, slot.generation)
        ]

    def _next_message(self):
        if self._backlog:
            return self._backlog.pop(0)
        return self._results.get(timeout=_POLL_SECONDS)

    def _drain_into_backlog(self) -> bool:
        drained = False
        while True:
            try:
                self._backlog.append(self._results.get_nowait())
                drained = True
            except queue_module.Empty:
                return drained

    def _check_liveness(self, kind, pending, assignment, complete):
        """Idle tick: detect dead/overdue slots, recover their outstanding work.

        ``complete(task, outcome_or_none)`` finishes one task inline when no
        worker can run it (outcome in the same compact shape as pooled ones).
        """
        now = time.monotonic()
        for slot in self._slots:
            if slot.disabled:
                continue
            outstanding = self._outstanding(slot, pending, assignment)
            if not outstanding:
                continue
            reason = None
            if not slot.process.is_alive():
                reason = "sim_worker_death"
            elif (
                self.task_timeout_seconds is not None
                and now - slot.last_activity > self.task_timeout_seconds
            ):
                slot.process.kill()
                slot.process.join(timeout=5)
                self.force_kills += 1
                reason = "sim_deadline"
            if reason is None:
                continue
            # Salvage results the incarnation sent before dying; process them
            # first (duplicates of replayed tasks are dropped harmlessly, but
            # completed work must not be replayed needlessly).
            if self._drain_into_backlog():
                return
            self._supervise_slot(slot, reason)
            for task_id in outstanding:
                assignment.pop(task_id, None)
            lost_tasks = [pending[task_id] for task_id in outstanding]
            if self._enabled_slots():
                weight = (
                    (lambda task: len(task.inputs))
                    if kind == "sim"
                    else (lambda task: 1 + task.spec.boost_factor)
                )
                self._dispatch(kind, lost_tasks, weight, pending, assignment)
            else:
                self._count_fault("sim_inline_fallback", len(lost_tasks))
                for task in lost_tasks:
                    del pending[task.task_id]
                    complete(task)
            return

    # -- inline degradation ---------------------------------------------------
    def _run_sim_inline(self, task: SimulationTask) -> TaskOutcome:
        """Run one task on the coordinator, in the pooled compact shape.

        The outcome carries :class:`RemoteRecord`\\ s (digest traces), never
        full records — a round must stay all-digest — with the full records
        retained locally so ``fetch`` serves them without a worker.
        """
        result, records = run_simulation_task(task, self._inline_executors)
        self._local_records[task.task_id] = records
        return TaskOutcome(
            task_id=result.task_id,
            records=[
                RemoteRecord(result.task_id, index, compact)
                for index, compact in enumerate(result.compact)
            ],
            modeled_seconds=result.modeled_seconds,
            wall_clock_seconds=result.wall_clock_seconds,
            simulator_starts=result.simulator_starts,
            pooled=False,
            elapsed_seconds=result.elapsed_seconds,
        )

    def _run_contract_inline(self, task: ContractTask) -> ContractOutcome:
        if self._inline_contract_runner is None:
            self._inline_contract_runner = ContractRunner()
        return self._inline_contract_runner.run(task)

    def _fetch_local(self, task_id: int, indices: Sequence[int]) -> Dict[int, FullRecord]:
        records = self._local_records.get(task_id)
        if records is None:
            task = self._retained.get(task_id)
            if task is None:
                raise KeyError(
                    f"simulation task {task_id} is no longer retained"
                )
            self._count_fault("sim_refetch_resimulated")
            _, records = run_simulation_task(task, self._inline_executors)
            self._local_records[task_id] = records
        self.fetched_entries += len(indices)
        return {
            index: FullRecord(
                trace=records[index].trace,
                uarch_context=records[index].materialized_context(),
                result=records[index].result,
            )
            for index in indices
        }

    # -- public API -----------------------------------------------------------
    def map(self, tasks: Sequence[SimulationTask]) -> List[TaskOutcome]:
        """Shard ``tasks`` across the workers; outcomes in task order."""
        if self._closed:
            raise RuntimeError("simulation pool is closed")
        if not tasks:
            return []
        for task in tasks:
            self._retained[task.task_id] = task
        outcomes: Dict[int, TaskOutcome] = {}
        pending: Dict[int, SimulationTask] = {}
        assignment: Dict[int, Tuple[int, int]] = {}
        if self._enabled_slots():
            self._dispatch(
                "sim", list(tasks), lambda task: len(task.inputs), pending, assignment
            )
        else:
            self._count_fault("sim_inline_fallback", len(tasks))
            for task in tasks:
                outcomes[task.task_id] = self._run_sim_inline(task)
        while len(outcomes) < len(tasks):
            try:
                message = self._next_message()
            except queue_module.Empty:
                self._check_liveness(
                    "sim",
                    pending,
                    assignment,
                    lambda task: outcomes.__setitem__(
                        task.task_id, self._run_sim_inline(task)
                    ),
                )
                continue
            if message[0] == "error":
                raise RuntimeError(f"simulation worker failed:\n{message[2]}")
            if message[0] != "result":
                continue  # a replaced incarnation's stale cross-kind straggler
            _, worker_index, generation, payload = message
            slot = self._slots[worker_index]
            if generation == slot.generation:
                slot.last_activity = time.monotonic()
            result: TaskResult = pickle.loads(payload)
            if result.task_id not in pending:
                continue  # duplicate of a re-dispatched task
            del pending[result.task_id]
            self.result_bytes += len(payload)
            self._task_worker[result.task_id] = (worker_index, generation)
            outcomes[result.task_id] = TaskOutcome(
                task_id=result.task_id,
                records=[
                    RemoteRecord(result.task_id, index, compact)
                    for index, compact in enumerate(result.compact)
                ],
                modeled_seconds=result.modeled_seconds,
                wall_clock_seconds=result.wall_clock_seconds,
                simulator_starts=result.simulator_starts,
                pooled=True,
                compact_bytes=len(payload),
                elapsed_seconds=result.elapsed_seconds,
            )
        return [outcomes[task.task_id] for task in tasks]

    def map_contract(self, tasks: Sequence[ContractTask]) -> List[ContractOutcome]:
        """Shard contract-pass tasks across the workers; outcomes in order.

        Contract tasks have no second pass — nothing is held worker-side —
        so task ids are not registered for fetch/release.
        """
        if self._closed:
            raise RuntimeError("simulation pool is closed")
        if not tasks:
            return []
        outcomes: Dict[int, ContractOutcome] = {}
        pending: Dict[int, ContractTask] = {}
        assignment: Dict[int, Tuple[int, int]] = {}
        if self._enabled_slots():
            self._dispatch(
                "contract",
                list(tasks),
                lambda task: 1 + task.spec.boost_factor,
                pending,
                assignment,
            )
        else:
            self._count_fault("sim_inline_fallback", len(tasks))
            for task in tasks:
                outcomes[task.task_id] = self._run_contract_inline(task)
        while len(outcomes) < len(tasks):
            try:
                message = self._next_message()
            except queue_module.Empty:
                self._check_liveness(
                    "contract",
                    pending,
                    assignment,
                    lambda task: outcomes.__setitem__(
                        task.task_id, self._run_contract_inline(task)
                    ),
                )
                continue
            if message[0] == "error":
                raise RuntimeError(f"simulation worker failed:\n{message[2]}")
            if message[0] != "cresult":
                continue
            _, worker_index, generation, payload, buffers = message
            slot = self._slots[worker_index]
            if generation == slot.generation:
                slot.last_activity = time.monotonic()
            outcome: ContractOutcome = loads_oob(payload, buffers)
            if outcome.task_id not in pending:
                continue
            del pending[outcome.task_id]
            self.result_bytes += len(payload) + sum(
                len(buffer) for buffer in buffers
            )
            outcome.pooled = True
            outcomes[outcome.task_id] = outcome
        return [outcomes[task.task_id] for task in tasks]

    def fetch(self, task_id: int, indices: Sequence[int]) -> Dict[int, FullRecord]:
        """Second pass: full records for selected entries of a past task.

        Served by the worker incarnation that ran the task when it is still
        alive; otherwise re-simulated inline from the retained task payload
        (byte-identical records — the task is a pure function).
        """
        if task_id in self._local_records or task_id in self._lost_records:
            return self._fetch_local(task_id, indices)
        worker_index, generation = self._task_worker[task_id]
        slot = self._slots[worker_index]
        if (
            slot.disabled
            or slot.generation != generation
            or not slot.process.is_alive()
        ):
            self._lost_records.add(task_id)
            return self._fetch_local(task_id, indices)
        slot.task_queue.put(("fetch", task_id, list(indices)))
        slot.last_activity = time.monotonic()
        while True:
            try:
                message = self._next_message()
            except queue_module.Empty:
                reason = None
                if not slot.process.is_alive():
                    reason = "sim_worker_death"
                elif (
                    self.task_timeout_seconds is not None
                    and time.monotonic() - slot.last_activity
                    > self.task_timeout_seconds
                ):
                    slot.process.kill()
                    slot.process.join(timeout=5)
                    self.force_kills += 1
                    reason = "sim_deadline"
                if reason is None:
                    continue
                if self._drain_into_backlog():
                    # The reply may be among the salvaged messages; the death
                    # itself is handled on the next idle tick.
                    continue
                self._supervise_slot(slot, reason)
                self._lost_records.add(task_id)
                return self._fetch_local(task_id, indices)
            if message[0] == "error":
                raise RuntimeError(f"simulation worker failed:\n{message[2]}")
            if message[0] != "full" or message[3] != task_id:
                continue  # stale straggler from a replaced incarnation
            payload = message[4]
            self.fetch_bytes += len(payload)
            full: Dict[int, FullRecord] = pickle.loads(payload)
            self.fetched_entries += len(full)
            return full

    def release(self, task_ids: Sequence[int]) -> None:
        """Drop everything retained for finished tasks (worker- and local-side).

        Broadcast to every live slot: after a respawn-and-replay, more than
        one incarnation may hold a task's records, and workers drop unknown
        ids tolerantly.
        """
        ids = list(task_ids)
        if not ids:
            return
        for task_id in ids:
            self._task_worker.pop(task_id, None)
            self._retained.pop(task_id, None)
            self._local_records.pop(task_id, None)
            self._lost_records.discard(task_id)
        for slot in self._enabled_slots():
            slot.task_queue.put(("release", ids))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.disabled:
                continue
            try:
                slot.task_queue.put(("stop",))
            except (ValueError, OSError):  # pragma: no cover - teardown race
                pass
        for slot in self._slots:
            slot.process.join(timeout=10)
        for slot in self._slots:
            if slot.process.is_alive():  # pragma: no cover - last resort
                slot.process.terminate()
                slot.process.join(timeout=5)
                self.force_kills += 1
        for handle in [slot.task_queue for slot in self._slots] + [self._results]:
            handle.close()
            handle.join_thread()


_POOL: Optional[SimWorkerPool] = None


def get_pool(
    workers: int,
    max_retries: int = 2,
    retry_backoff_seconds: float = 0.05,
    task_timeout_seconds: Optional[float] = None,
) -> SimWorkerPool:
    """The process-wide persistent pool.

    Recreated when the size changes, after a close, or when a previous
    campaign exhausted a slot's retry budget (a new campaign deserves a
    healthy pool); supervision knobs just update in place.
    """
    global _POOL
    if _POOL is not None and (
        _POOL.workers != workers or _POOL._closed or _POOL.degraded
    ):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = SimWorkerPool(
            workers,
            max_retries=max_retries,
            retry_backoff_seconds=retry_backoff_seconds,
            task_timeout_seconds=task_timeout_seconds,
        )
    else:
        _POOL.max_retries = max_retries
        _POOL.retry_backoff_seconds = retry_backoff_seconds
        _POOL.task_timeout_seconds = task_timeout_seconds
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests; also runs atexit)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# the per-fuzzer router
# ---------------------------------------------------------------------------


class SimulationRouter:
    """Routes one fuzzer's round shards to the pool or the inline fallback.

    ``sim_workers`` semantics (mirrors ``FuzzerConfig.sim_workers``):

    * ``None`` — routing disabled; the fuzzer keeps the seed execution path
      (one shared simulator per program in Opt mode).
    * ``0`` — class-sharded execution on the calling thread (the inline
      fallback of ``map_simulations``): same per-class fresh-simulator
      semantics as the pool, zero concurrency, zero IPC.
    * ``>= 1`` — class-sharded execution across that many persistent worker
      processes with compact trace transport.

    Results are byte-identical across all sharded settings.  Inside a
    daemonic process (a pooled campaign worker cannot spawn children) the
    router silently downgrades to the inline fallback — same results.
    """

    def __init__(
        self,
        sim_workers: Optional[int],
        max_retries: int = 2,
        retry_backoff_seconds: float = 0.05,
        task_timeout_seconds: Optional[float] = None,
    ) -> None:
        if sim_workers is not None and sim_workers < 0:
            raise ValueError("sim_workers must be >= 0 (or None to disable)")
        self.requested = sim_workers
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self.task_timeout_seconds = task_timeout_seconds
        self.fallback_reason: Optional[str] = None
        if sim_workers:
            if multiprocessing.current_process().daemon:
                self.fallback_reason = "daemonic process cannot spawn sim workers"
            elif os.environ.get(FORCE_INLINE_ENV):
                self.fallback_reason = f"{FORCE_INLINE_ENV} set"
        self._inline_executors: Dict[ExecutorSpec, SimulatorExecutor] = {}
        self._inline_contract_runner: Optional[ContractRunner] = None
        #: The pool this router dispatches through, pinned at first use.  A
        #: router must keep using one pool object for its whole life: the
        #: pool retains task payloads and locally re-simulated records that
        #: the round's second-pass fetch depends on, so swapping pools
        #: mid-round (e.g. ``get_pool`` replacing a degraded pool) would
        #: lose them.
        self._pool_instance: Optional[SimWorkerPool] = None
        # The pool's supervision counters are process-wide and cumulative;
        # baseline them when the pool is acquired so this fuzzer's report
        # only carries faults that happened on its own watch.  ``_carry``
        # accumulates deltas from pools this router used that were since
        # closed and replaced.
        self._fault_baseline: Dict[str, int] = {}
        self._force_kill_baseline = 0
        self._fault_carry: Dict[str, int] = {}
        self._force_kill_carry = 0
        #: Per-task worker wall-clock seconds, in dispatch order (benchmarks
        #: derive multi-core makespan projections from these).
        self.task_seconds: List[float] = []
        #: Per-dispatch task timings: one ``(kind, [seconds, ...])`` entry per
        #: ``map``/``map_contract`` call.  Each dispatch is a barrier (a round
        #: cannot simulate before its contract pass returns), so an honest
        #: multi-worker makespan projection is per-dispatch LPT, not one
        #: global LPT over every task of the campaign.
        self.dispatch_log: List[Tuple[str, List[float]]] = []
        self.tasks_dispatched = 0
        self.pooled_tasks = 0
        self.contract_tasks_dispatched = 0
        self.roundtrip_seconds = 0.0
        self.busy_seconds = 0.0
        self.contract_busy_seconds = 0.0

    @property
    def active(self) -> bool:
        return self.requested is not None

    @property
    def pooled(self) -> bool:
        return bool(self.requested) and self.fallback_reason is None

    def _pool_fault_deltas(self, pool: SimWorkerPool) -> Tuple[Dict[str, int], int]:
        """This router's share of ``pool``'s cumulative supervision counters."""
        deltas = {
            reason: count - self._fault_baseline.get(reason, 0)
            for reason, count in pool.fault_counters.items()
            if count - self._fault_baseline.get(reason, 0) > 0
        }
        return deltas, max(0, pool.force_kills - self._force_kill_baseline)

    def _pool(self) -> SimWorkerPool:
        pool = self._pool_instance
        if pool is not None and not pool._closed:
            return pool
        if pool is not None:
            # The previous pool was closed under us (e.g. replaced after
            # degradation); keep its fault deltas before re-baselining.
            deltas, force_kills = self._pool_fault_deltas(pool)
            for reason, count in deltas.items():
                self._fault_carry[reason] = self._fault_carry.get(reason, 0) + count
            self._force_kill_carry += force_kills
        pool = get_pool(
            self.requested,
            max_retries=self.max_retries,
            retry_backoff_seconds=self.retry_backoff_seconds,
            task_timeout_seconds=self.task_timeout_seconds,
        )
        self._pool_instance = pool
        self._fault_baseline = dict(pool.fault_counters)
        self._force_kill_baseline = pool.force_kills
        return pool

    def map(self, tasks: Sequence[SimulationTask]) -> List[TaskOutcome]:
        started = time.perf_counter()
        if self.pooled:
            outcomes = self._pool().map(tasks)
        else:
            outcomes = run_tasks_inline(tasks, self._inline_executors)
        roundtrip = time.perf_counter() - started
        self.roundtrip_seconds += roundtrip
        self.tasks_dispatched += len(tasks)
        dispatch_seconds: List[float] = []
        for outcome in outcomes:
            busy = outcome.busy_seconds()
            self.busy_seconds += busy
            self.task_seconds.append(busy)
            dispatch_seconds.append(busy)
            if outcome.pooled:
                self.pooled_tasks += 1
        self.dispatch_log.append(("sim", dispatch_seconds))
        return outcomes

    def map_contract(self, tasks: Sequence[ContractTask]) -> List[ContractOutcome]:
        started = time.perf_counter()
        if self.pooled:
            outcomes = self._pool().map_contract(tasks)
        else:
            if self._inline_contract_runner is None:
                self._inline_contract_runner = ContractRunner()
            outcomes = run_contract_tasks_inline(
                tasks, self._inline_contract_runner
            )
        roundtrip = time.perf_counter() - started
        self.roundtrip_seconds += roundtrip
        self.contract_tasks_dispatched += len(tasks)
        dispatch_seconds = [outcome.busy_seconds() for outcome in outcomes]
        self.contract_busy_seconds += sum(dispatch_seconds)
        self.pooled_tasks += sum(1 for outcome in outcomes if outcome.pooled)
        self.dispatch_log.append(("contract", dispatch_seconds))
        return outcomes

    def ipc_seconds(self, outcomes: Sequence[TaskOutcome], roundtrip: float) -> float:
        """Transport overhead of one dispatch: round-trip minus worker busy."""
        busy = sum(outcome.busy_seconds() for outcome in outcomes)
        return max(0.0, roundtrip - busy)

    def materialize_entries(self, entries) -> None:
        """Second pass: swap compact witness records for full ones in place.

        Accepts test-case entries whose ``record`` may be inline
        ``ExecutionRecord``s (no-op) or pending :class:`RemoteRecord`s
        (fetched from the worker that holds them, batched per task).
        """
        by_task: Dict[int, List] = {}
        for entry in entries:
            record = entry.record
            if isinstance(record, RemoteRecord) and record.pending:
                by_task.setdefault(record.task_id, []).append(entry)
        for task_id, task_entries in by_task.items():
            full = self._pool().fetch(
                task_id, [entry.record.input_index for entry in task_entries]
            )
            for entry in task_entries:
                entry.record.apply_full(full[entry.record.input_index])

    def release(self, task_ids: Sequence[int]) -> None:
        if self.pooled and task_ids:
            self._pool().release(task_ids)

    def stats(self) -> Dict[str, object]:
        """Transport/scheduling counters mirrored into ``FuzzerReport``."""
        payload: Dict[str, object] = {
            "requested_workers": self.requested,
            "pooled": self.pooled,
            "tasks": self.tasks_dispatched,
            "pooled_tasks": self.pooled_tasks,
            "contract_tasks": self.contract_tasks_dispatched,
            "roundtrip_seconds": round(self.roundtrip_seconds, 6),
            "busy_seconds": round(self.busy_seconds, 6),
            "contract_busy_seconds": round(self.contract_busy_seconds, 6),
            "task_seconds": [round(seconds, 6) for seconds in self.task_seconds],
            "dispatches": [
                {
                    "kind": kind,
                    "task_seconds": [round(seconds, 6) for seconds in timings],
                }
                for kind, timings in self.dispatch_log
            ],
        }
        if self.fallback_reason:
            payload["fallback_reason"] = self.fallback_reason
        if self.pooled:
            pool = self._pool_instance if self._pool_instance is not None else _POOL
            if pool is not None:
                payload.update(
                    sent_bytes=pool.sent_bytes,
                    result_bytes=pool.result_bytes,
                    fetch_bytes=pool.fetch_bytes,
                    fetched_entries=pool.fetched_entries,
                )
                deltas, force_kills = (
                    self._pool_fault_deltas(pool)
                    if pool is self._pool_instance
                    else ({}, 0)
                )
                faults = dict(self._fault_carry)
                for reason, count in deltas.items():
                    faults[reason] = faults.get(reason, 0) + count
                if faults:
                    payload["faults"] = faults
                force_kills += self._force_kill_carry
                if force_kills > 0:
                    payload["force_kills"] = force_kills
        return payload


__all__ = [
    "SIM_CHUNKS_PER_ROUND",
    "chunk_classes",
    "CompactRecord",
    "ContractOutcome",
    "ContractRunner",
    "ContractSpec",
    "ContractTask",
    "DigestTrace",
    "ExecutorSpec",
    "FullRecord",
    "RemoteRecord",
    "SimWorkerPool",
    "SimulationRouter",
    "SimulationTask",
    "TaskOutcome",
    "TaskResult",
    "dumps_oob",
    "get_pool",
    "loads_oob",
    "run_contract_tasks_inline",
    "run_simulation_task",
    "run_tasks_inline",
    "shutdown_pool",
]
