"""Persistent process-pool backend with streaming rounds and worker supervision.

Unlike the old ``multiprocessing.Pool.map`` over whole instances, this
backend keeps one :class:`~repro.core.fuzzer.AmuletFuzzer` alive per instance
inside a persistent worker process and schedules *rounds* — (instance,
program_index) work units.  Instances are pinned to workers (round-robin),
which preserves each instance's generator and predictor state so
per-instance results are identical to a sequential run; within a worker,
instances are interleaved round by round so every instance makes progress
and the cancellation flag is observed between rounds.

Every completed round is streamed back over the worker's own pipe the
moment it exists.  When ``stop_on_violation`` is set, the worker that confirms a
violation raises a shared event; all workers stop issuing rounds, flush
partial reports for their instances, and exit — no instance runs to
completion just because it was scheduled.

**Supervision.**  Workers additionally stream resume snapshots
(:meth:`AmuletFuzzer.state_dict`) every ``state_interval`` rounds, and one
final snapshot per instance whose report is the instance's result — the
only snapshot the coordinator decodes.  The coordinator
keeps the latest snapshot per instance, tracks per-worker liveness and
activity deadlines, and when a worker dies (or overruns
``task_timeout_seconds`` and is force-killed) it respawns a replacement —
after an exponential backoff, up to ``max_retries`` times per worker slot —
restored from the latest snapshots.  Replayed rounds are deduplicated by
program index (rounds are counter-addressed pure functions, so a replay is
byte-identical), which makes recovery exactly-once from the caller's point
of view.  A worker slot that exhausts its retries degrades gracefully: its
unfinished instances report exactly the rounds they streamed (the ones
after the latest snapshot are replayed in the coordinator), and the abandoned
remainder is recorded on the instance's report (``fault.<reason>`` counts
plus lost-round IDs, see :meth:`FuzzerReport.record_fault`) instead of
killing the campaign.

Each worker writes to a private one-way :func:`multiprocessing.Pipe`
synchronously from its main thread, and the coordinator holds only the read
end.  A worker that dies mid-message therefore surfaces as ``EOFError`` on
its pipe instead of a half-written frame the coordinator would block on,
and the coordinator sleeps in :func:`multiprocessing.connection.wait` on
the pipes plus the process sentinels, waking the moment a message arrives
or a worker exits.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.backends.base import (
    CampaignPlan,
    ExecutionBackend,
    RoundCallback,
    StateCallback,
)
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import AmuletFuzzer, FuzzerReport, report_from_state

#: Longest the coordinator sleeps without re-checking the caller's stop
#: event and the workers' activity deadlines (messages and worker exits wake
#: it immediately).
_POLL_SECONDS = 0.25

#: Pause before a worker slot's first respawn, doubled per further retry.
RETRY_BACKOFF_SECONDS = 0.05


def _worker_main(
    worker_id: int,
    generation: int,
    assignments: Sequence[Tuple[int, FuzzerConfig]],
    initial_states: Sequence[Optional[dict]],
    stop_on_violation: bool,
    stop_event,
    results,
    state_interval: int,
) -> None:
    """Run all rounds of the assigned instances, interleaved round by round.

    ``results`` is the write end of this worker's pipe; every message is
    sent whole before the next line runs, so a later death cannot tear it.
    """
    try:
        # Ctrl-C belongs to the coordinator: it drains the campaign
        # gracefully; a worker that died to SIGINT would look like a crash.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from repro.backends.faults import fault_plan, reset_fault_plan

    # Forked workers inherit the parent's parsed plan (including its fired
    # flags); re-read the environment so this process has its own.
    reset_fault_plan()
    faults = fault_plan()
    try:
        active: List[Tuple[int, AmuletFuzzer]] = []
        for (instance_index, config), state in zip(assignments, initial_states):
            fuzzer = AmuletFuzzer(config)
            if state is not None:
                fuzzer.restore_state(state)
            active.append((instance_index, fuzzer))
        rounds = {
            instance_index: fuzzer.iter_rounds() for instance_index, fuzzer in active
        }
        since_state = {instance_index: 0 for instance_index, _ in active}
        while active:
            still_active = []
            for instance_index, fuzzer in active:
                if stop_event.is_set():
                    results.send(
                        ("final", worker_id, instance_index, fuzzer.state_dict())
                    )
                    continue
                if not fuzzer.finished:
                    context = {
                        "worker": worker_id,
                        "instance": instance_index,
                        "round": fuzzer.report.programs_tested,
                        "generation": generation,
                    }
                    faults.maybe_delay("pool_worker", **context)
                    faults.maybe_kill("pool_worker", **context)
                    result = next(rounds[instance_index], None)
                    if result is not None:
                        results.send(("round", worker_id, instance_index, result))
                        since_state[instance_index] += 1
                        if result.violations and stop_on_violation:
                            stop_event.set()
                if fuzzer.finished:
                    results.send(
                        ("final", worker_id, instance_index, fuzzer.state_dict())
                    )
                else:
                    if since_state[instance_index] >= state_interval:
                        results.send(
                            ("state", worker_id, instance_index, fuzzer.state_dict())
                        )
                        since_state[instance_index] = 0
                    still_active.append((instance_index, fuzzer))
            active = still_active
    except BaseException:
        try:
            results.send(("error", worker_id, None, traceback.format_exc()))
        except OSError:  # pragma: no cover - the coordinator is gone
            pass


class _WorkerSlot:
    """One supervised worker: its process, pinned instances, retry budget."""

    def __init__(self, worker_id: int, instance_indices: List[int]) -> None:
        self.worker_id = worker_id
        self.instances = instance_indices
        self.process = None
        #: Read end of the worker's result pipe (None once it was reaped).
        self.conn = None
        self.generation = 0
        self.retries = 0
        self.last_activity = 0.0


class ProcessPoolBackend(ExecutionBackend):
    """Schedules campaign rounds across a supervised pool of worker processes."""

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.force_kills = 0

    def worker_count(self, instances: int) -> int:
        """Actual number of worker processes used for ``instances`` instances."""
        requested = self.workers if self.workers is not None else (os.cpu_count() or 2)
        return max(1, min(requested, instances))

    def resolve_map_chunksize(self, item_count: int, workers: int) -> int:
        """Chunk size for ``map_items``: about four chunks per worker.

        Small enough that a long item (e.g. a violation with a slow
        minimization) doesn't serialise a whole worker's queue behind it,
        large enough that per-chunk pickling doesn't dominate when items are
        many and cheap.
        The executor's ``map`` preserves input order regardless of chunking.
        """
        return max(1, item_count // (workers * 4))

    def map_items(
        self, fn: Callable[[Any], Any], items: Sequence[Any]
    ) -> List[Any]:
        """Fan independent work items across a process pool, results in order.

        ``fn`` and the items must be picklable.  Chunking is adaptive (see
        :meth:`resolve_map_chunksize`).  A worker that dies raises
        :class:`~concurrent.futures.process.BrokenProcessPool` here at once
        (``multiprocessing.Pool.map`` would wait for its results forever).
        """
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        # Imported here: campaigns that never fan out skip its imports.
        from concurrent.futures import ProcessPoolExecutor

        workers = self.worker_count(len(items))
        chunksize = self.resolve_map_chunksize(len(items), workers)
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context()
        ) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))

    def _streamed_report(
        self, config: FuzzerConfig, state: Optional[dict], rounds: int
    ) -> FuzzerReport:
        """The report of an instance's first ``rounds`` rounds, all streamed.

        The rounds after the latest snapshot are replayed here, in the
        coordinator: they already completed in the lost worker, and a
        round is a pure function of the instance's state, so the replay
        rebuilds the same report.
        """
        if state is None and rounds == 0:
            return self.empty_report(config)
        fuzzer = AmuletFuzzer(config)
        if state is not None:
            fuzzer.restore_state(state)
        return fuzzer.run(rounds)

    def run(
        self,
        plan: CampaignPlan,
        on_round: Optional[RoundCallback] = None,
        on_state: Optional[StateCallback] = None,
        stop_event: Optional[Any] = None,
        state_interval: int = 10,
    ) -> List[FuzzerReport]:
        self.force_kills = 0
        if not plan.configs:
            return []
        # Supervision knobs travel with the plan's (campaign-wide) config.
        config = plan.configs[0]
        max_retries = config.max_retries
        task_timeout = config.task_timeout_seconds
        workers = self.worker_count(plan.instances)
        context = multiprocessing.get_context()
        mp_stop = context.Event()

        # Pin instances to workers round-robin: affinity keeps each fuzzer's
        # state with its instance, round-robin balances instance counts.
        pinned: List[List[int]] = [[] for _ in range(workers)]
        for instance_index in range(plan.instances):
            pinned[instance_index % workers].append(instance_index)
        slots = [
            _WorkerSlot(worker_id, indices)
            for worker_id, indices in enumerate(pinned)
            if indices
        ]
        slot_by_id = {slot.worker_id: slot for slot in slots}

        # Latest resume snapshot and next expected round per instance.  The
        # plan's initial states (campaign resume) seed both: replayed rounds
        # below the expected index are byte-identical duplicates and are
        # dropped, which is what makes respawn recovery exactly-once.
        latest_state: Dict[int, Optional[dict]] = {}
        expected: Dict[int, int] = {}
        for instance_index in range(plan.instances):
            state = plan.initial_state(instance_index)
            latest_state[instance_index] = state
            expected[instance_index] = (
                state["programs_tested"] if state is not None else 0
            )

        reports: Dict[int, FuzzerReport] = {}
        # Per instance: (reason, rounds abandoned) for every fault suffered.
        faults: Dict[int, List[Tuple[str, List[int]]]] = {
            index: [] for index in range(plan.instances)
        }
        failure: Optional[str] = None

        def spawn(slot: _WorkerSlot) -> None:
            assigned = [
                (index, plan.configs[index])
                for index in slot.instances
                if index not in reports
            ]
            states = [latest_state[index] for index, _ in assigned]
            reader, writer = context.Pipe(duplex=False)
            slot.process = context.Process(
                target=_worker_main,
                args=(
                    slot.worker_id,
                    slot.generation,
                    assigned,
                    states,
                    plan.stop_on_violation,
                    mp_stop,
                    writer,
                    state_interval,
                ),
                daemon=True,
            )
            slot.process.start()
            # The worker now holds the only write end, so its exit — however
            # abrupt — leaves the pipe at EOF instead of silently open.
            writer.close()
            slot.conn = reader
            slot.last_activity = time.monotonic()

        def handle_message(kind, worker_id, instance_index, payload) -> None:
            nonlocal failure
            slot = slot_by_id.get(worker_id)
            if slot is not None:
                slot.last_activity = time.monotonic()
            if kind == "round":
                if payload.program_index < expected[instance_index]:
                    return  # replayed after a respawn; already streamed
                expected[instance_index] = payload.program_index + 1
                if on_round is not None:
                    on_round(instance_index, payload)
                if payload.violations and plan.stop_on_violation:
                    mp_stop.set()
            elif kind in ("state", "final"):
                current = latest_state[instance_index]
                if (
                    current is None
                    or payload["programs_tested"] >= current["programs_tested"]
                ):
                    latest_state[instance_index] = payload
                    if on_state is not None:
                        on_state(instance_index, payload)
                if kind == "final":
                    # The only snapshot the coordinator decodes: periodic
                    # ones are kept opaque for respawns and checkpoints.
                    reports[instance_index] = report_from_state(payload)
            else:  # "error": a Python exception inside the round pipeline is
                # a bug, not an infrastructure fault — it stays fatal.
                failure = payload

        def collect(slot: _WorkerSlot) -> bool:
            """Handle every message waiting on the slot's pipe; False at EOF.

            EOF means the worker exited.  A message it was writing when it
            died ends in ``OSError`` ("end of file during message") rather
            than a read that never returns; both count as the pipe closing.
            """
            while True:
                try:
                    if not slot.conn.poll():
                        return True
                    message = slot.conn.recv()
                except (EOFError, OSError):
                    return False
                # Outside the try: an error raised by the caller's callbacks
                # (say, a checkpoint write failing) is not a worker loss.
                handle_message(*message)

        def retire(slot: _WorkerSlot, reason: str) -> None:
            """Reap an exited worker; a loss if it left instances unfinished."""
            slot.process.join(timeout=10)
            if slot.process.is_alive():  # pragma: no cover - never orphan it
                slot.process.kill()
                slot.process.join()
                self.force_kills += 1
            collect(slot)  # whatever it flushed right before exiting
            slot.conn.close()
            slot.conn = None
            handle_worker_loss(slot, reason)

        def unfinished(slot: _WorkerSlot) -> List[int]:
            return [index for index in slot.instances if index not in reports]

        def handle_worker_loss(slot: _WorkerSlot, reason: str) -> None:
            """A worker died or was killed for overrunning its deadline."""
            affected = unfinished(slot)
            if not affected:
                return
            slot.retries += 1
            degrade = mp_stop.is_set() or slot.retries > max_retries
            for index in affected:
                lost: List[int] = []
                if degrade:
                    # The report covers exactly the rounds streamed through
                    # on_round; the rest of the budget is recorded as lost.
                    reports[index] = self._streamed_report(
                        plan.configs[index], latest_state[index], expected[index]
                    )
                    if not mp_stop.is_set():
                        budget = plan.configs[index].programs_per_instance
                        lost = list(range(expected[index], budget))
                faults[index].append((reason, lost))
            if degrade:
                # The replays kept this loop from reading the other pipes:
                # the other workers' deadlines count from their end.
                resumed = time.monotonic()
                for other in slots:
                    if other.conn is not None:
                        other.last_activity = max(other.last_activity, resumed)
                return
            time.sleep(RETRY_BACKOFF_SECONDS * (2 ** (slot.retries - 1)))
            slot.generation += 1
            spawn(slot)

        for slot in slots:
            spawn(slot)

        try:
            while len(reports) < plan.instances and failure is None:
                if stop_event is not None and stop_event.is_set():
                    mp_stop.set()
                running = [slot for slot in slots if slot.conn is not None]
                ready = set(
                    wait(
                        [slot.conn for slot in running]
                        + [slot.process.sentinel for slot in running],
                        timeout=_POLL_SECONDS,
                    )
                )
                for slot in running:
                    if slot.conn in ready or slot.process.sentinel in ready:
                        if not collect(slot) or not slot.process.is_alive():
                            retire(slot, "worker_death")
                if task_timeout is None:
                    continue
                now = time.monotonic()
                for slot in slots:
                    if (
                        slot.conn is not None
                        and unfinished(slot)
                        and now - slot.last_activity > task_timeout
                    ):
                        slot.process.kill()
                        self.force_kills += 1
                        retire(slot, "deadline")
        finally:
            mp_stop.set()
            # Keep reading (and discarding) until every pipe is at EOF: a
            # worker blocked writing a large snapshot to a full pipe could
            # not otherwise see the stop event and exit.
            deadline = time.monotonic() + 10
            draining = [slot for slot in slots if slot.conn is not None]
            while draining and time.monotonic() < deadline:
                ready = wait([slot.conn for slot in draining], timeout=_POLL_SECONDS)
                for slot in draining:
                    if slot.conn not in ready:
                        continue
                    try:
                        while slot.conn.poll():
                            slot.conn.recv()
                    except (EOFError, OSError):
                        slot.conn.close()
                        slot.conn = None
                draining = [slot for slot in draining if slot.conn is not None]
            for slot in slots:
                if slot.conn is not None:
                    slot.conn.close()
                    slot.conn = None
            for slot in slots:
                if slot.process is not None:
                    slot.process.join(timeout=10)
            for slot in slots:
                if slot.process is not None and slot.process.is_alive():
                    # pragma: no cover - last resort
                    slot.process.terminate()
                    slot.process.join(timeout=5)
                    self.force_kills += 1

        if failure is not None:
            raise RuntimeError(f"campaign worker failed: {failure}")

        # Fold the coordinator-side fault accounting into the reports the
        # caller sees (the worker that suffered a fault could not).
        for index, report in reports.items():
            for reason, lost in faults[index]:
                report.record_fault(reason, lost)
        return [reports[index] for index in range(plan.instances)]
