"""Campaign orchestration: many parallel fuzzing instances, one report.

The paper's campaigns run up to 100 parallel AMuLeT instances, each with its
own seed, and report per-campaign metrics: whether a violation was detected,
the average detection time, the number of unique violations, the testing
throughput, and the campaign execution time (Tables 3, 4 and 6).  The
:class:`Campaign` class reproduces that orchestration on top of a pluggable
:class:`~repro.backends.ExecutionBackend`: instances can run sequentially
(deterministic, the default) or round by round across a persistent process
pool, each completed round streamed to the caller as it arrives.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.core.config import FuzzerConfig, resolve_contract_name

if TYPE_CHECKING:  # imported lazily at runtime: backends/triage depend on core
    from repro.backends import CampaignPlan, ExecutionBackend
    from repro.triage.report import TriageReport
from repro.core.filtering import unique_violations
from repro.core.fuzzer import FuzzerReport, RoundResult
from repro.core.metrics import safe_rate
from repro.core.seeding import derive_instance_seed
from repro.core.violation import Violation
from repro.executor.startup import Tally
from repro.feedback.corpus import Corpus, CorpusEntry, program_dict_id
from repro.feedback.coverage import CoverageTracker
from repro.generator.inputs import Input


@dataclass
class CampaignResult:
    """Aggregated metrics across all instances of a campaign.

    Every total is read from the per-instance ``reports``, which the backend
    returns when the campaign ends; callers that want progress while it runs
    watch the streamed rounds (``Campaign.run``'s ``on_round``).
    """

    defense: str
    contract: str
    instances: int
    backend: str = "inline"
    reports: List[FuzzerReport] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    #: Total rounds the backend would have run had nothing stopped early.
    scheduled_programs: int = 0
    #: The campaign was stopped gracefully (SIGINT/SIGTERM drain) before its
    #: budget; the reports cover exactly the rounds that completed.
    interrupted: bool = False
    #: Path of the checkpoint this campaign resumed from (None: fresh run).
    resumed_from: Optional[str] = None
    #: Worker processes the backend had to force-kill (teardown terminate
    #: after an unanswered join, or a supervision deadline).  Zero on a
    #: healthy run — tests assert that.
    force_kills: int = 0
    #: Attached by :class:`~repro.triage.TriagePipeline` when the campaign's
    #: violations have been re-validated, minimized and clustered.
    triage: Optional["TriageReport"] = None
    #: Memoized aggregations (a CLI run requests the merged corpus several
    #: times: corpus save, JSON summary, table footer, post-triage re-save).
    #: Keyed on whether triage results were folded in yet.
    _merged_corpus_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _merged_coverage_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def rounds_completed(self) -> int:
        """Rounds the instances' reports cover, across all instances."""
        return sum(report.programs_tested for report in self.reports)

    @property
    def stopped_early(self) -> bool:
        """True when cancellation ended the campaign before its full budget."""
        return 0 < self.rounds_completed < self.scheduled_programs

    # -- derived metrics --------------------------------------------------------
    @property
    def violations(self) -> List[Violation]:
        result: List[Violation] = []
        for report in self.reports:
            result.extend(report.violations)
        return result

    @property
    def detected(self) -> bool:
        return any(report.detected for report in self.reports)

    @property
    def total_test_cases(self) -> int:
        """Simulated (executed) test cases across all instances."""
        return sum(report.test_cases_executed for report in self.reports)

    @property
    def total_test_cases_generated(self) -> int:
        """Generated (covered) test cases, including scheduler-skipped ones."""
        return sum(report.test_cases_generated for report in self.reports)

    def tally(self) -> Tally:
        """The instances' accounting ledgers, summed."""
        total = Tally()
        for report in self.reports:
            total.merge(report.tally)
        return total

    def specialization_counters(self) -> Dict[str, float]:
        """Step-table build counters summed across instances (a view of :meth:`tally`).

        ``cache_misses`` counts the programs whose steps were built and
        ``cache_hits`` every emulator or O3 core that found them already
        built (``steps.*``); ``compile_seconds`` is the ``compile`` phase,
        which builds them.
        """
        tally = self.tally()
        counters: Dict[str, float] = {"cache_hits": 0, "cache_misses": 0}
        counters.update(tally.counts_under("steps"))
        counters["compile_seconds"] = tally.seconds.get("compile", 0.0)
        return counters

    def violation_count(self) -> int:
        return len(self.violations)

    def unique_violation_count(self) -> int:
        return len(unique_violations(self.violations))

    def average_detection_seconds(self, modeled: bool = False) -> Optional[float]:
        """Average time-to-first-violation across detecting instances."""
        times = []
        for report in self.reports:
            value = (
                report.first_detection_modeled
                if modeled
                else report.first_detection_wall_clock
            )
            if value is not None:
                times.append(value)
        if not times:
            return None
        return sum(times) / len(times)

    def throughput(self) -> float:
        """Simulated test cases per wall-clock second, summed over instances.

        Guarded against zero / near-zero campaign durations (tiny smoke
        campaigns): a rate over an unmeasurably short interval reports 0.0
        rather than ``inf`` rows in tables and JSON artifacts.
        """
        return safe_rate(self.total_test_cases, self.wall_clock_seconds)

    def effective_throughput(self) -> float:
        """Generated (covered) test cases per wall-clock second.

        Exceeds :meth:`throughput` when a scheduler filter level is active:
        skipped test cases are covered without being simulated.
        """
        return safe_rate(self.total_test_cases_generated, self.wall_clock_seconds)

    def modeled_seconds(self) -> float:
        return sum(report.modeled_seconds for report in self.reports)

    def modeled_throughput(self) -> float:
        return safe_rate(self.total_test_cases, self.modeled_seconds())

    # -- feedback aggregation ----------------------------------------------------
    def merged_coverage(self) -> Optional[CoverageTracker]:
        """All instances' coverage maps merged (None without reports)."""
        if self._merged_coverage_cache is not None:
            return self._merged_coverage_cache[0]
        merged: Optional[CoverageTracker] = None
        if self.reports:
            merged = CoverageTracker(size_bits=self.reports[0].coverage.size_bits)
            for report in self.reports:
                merged.merge(report.coverage)
        self._merged_coverage_cache = (merged,)
        return merged

    def merged_corpus(self) -> Corpus:
        """Union of all instances' corpora plus triage-minimized witnesses.

        Entries are content-addressed, so the merge is independent of both
        instance order and execution backend.  Entries are deep-copied
        through their JSON form: merging must never mutate the per-instance
        report objects.  Memoized per triage state (triage attaching later
        adds minimized witnesses, so the cache is keyed on its presence).
        """
        cache_key = self.triage is not None
        if self._merged_corpus_cache is not None and self._merged_corpus_cache[0] == cache_key:
            return self._merged_corpus_cache[1]
        corpus = Corpus()
        for report in self.reports:
            for entry in report.corpus.entries():
                corpus.merge_entry(CorpusEntry.from_json_dict(entry.to_json_dict()))
        if self.triage is not None:
            for triaged in getattr(self.triage, "violations", []):
                if triaged.minimized_program_dict is None:
                    continue
                corpus.merge_entry(
                    CorpusEntry(
                        entry_id=program_dict_id(triaged.minimized_program_dict),
                        program_dict=triaged.minimized_program_dict,
                        origin="minimized",
                        energy=8.0,
                        inputs=tuple(
                            Input.from_dict(item) for item in triaged.minimized_inputs
                        ),
                    )
                )
        self._merged_corpus_cache = (cache_key, corpus)
        return corpus

    def save_corpus(self, path: str) -> Corpus:
        """Merge this campaign's corpus into ``path`` and write it back."""
        corpus = Corpus.load_if_exists(path)
        corpus.merge(self.merged_corpus())
        corpus.save(path)
        return corpus

    def as_table_row(self) -> Dict[str, object]:
        """The Table-4 style summary row for this campaign."""
        detection = self.average_detection_seconds()
        row = {
            "defense": self.defense,
            "contract": self.contract,
            "detected": self.detected,
            "avg_detection_seconds": detection,
            "unique_violations": self.unique_violation_count(),
            "violations": self.violation_count(),
            "test_cases": self.total_test_cases,
            "throughput_per_second": round(self.throughput(), 1),
            "campaign_seconds": round(self.wall_clock_seconds, 2),
        }
        skipped = sum(report.test_cases_skipped for report in self.reports)
        if skipped:
            row["test_cases_generated"] = self.total_test_cases_generated
            row["test_cases_skipped"] = skipped
            row["effective_throughput_per_second"] = round(
                self.effective_throughput(), 1
            )
        return row

    def feedback_summary(self) -> Dict[str, object]:
        """Coverage/corpus state of the campaign (the JSON ``feedback`` block)."""
        coverage = self.merged_coverage()
        corpus = self.merged_corpus()
        strategies = sorted({report.strategy for report in self.reports})
        return {
            "strategy": strategies[0] if len(strategies) == 1 else strategies,
            "programs_random": sum(r.programs_random for r in self.reports),
            "programs_mutated": sum(r.programs_mutated for r in self.reports),
            "coverage": (
                {
                    "size_bits": coverage.size_bits,
                    "bits_set": coverage.bits_set(),
                    "coverage_fraction": round(coverage.coverage_fraction(), 6),
                    "counters": coverage.counters(),
                }
                if coverage is not None
                else None
            ),
            "corpus": {
                "entries": len(corpus),
                "origins": corpus.origin_histogram(),
                "total_energy": round(corpus.total_energy(), 2),
            },
        }

    def to_json_dict(self) -> Dict[str, object]:
        """Machine-readable campaign summary (the CLI's ``--json`` payload)."""
        groups = unique_violations(self.violations)
        tally = self.tally()
        payload = {
            "defense": self.defense,
            "contract": self.contract,
            "backend": self.backend,
            "instances": self.instances,
            "detected": self.detected,
            "scheduled_programs": self.scheduled_programs,
            "rounds_completed": self.rounds_completed,
            "stopped_early": self.stopped_early,
            "interrupted": self.interrupted,
            "resumed_from": self.resumed_from,
            "force_kills": self.force_kills,
            "test_cases": self.total_test_cases,
            "test_cases_generated": self.total_test_cases_generated,
            "violations": self.violation_count(),
            "unique_violations": len(groups),
            "avg_detection_seconds": self.average_detection_seconds(),
            "campaign_seconds": round(self.wall_clock_seconds, 3),
            "throughput_per_second": round(self.throughput(), 2),
            "effective_throughput_per_second": round(self.effective_throughput(), 2),
            "modeled_seconds": round(self.modeled_seconds(), 3),
            "counts": dict(sorted(tally.counts.items())),
            "seconds": {phase: round(value, 6) for phase, value in tally.seconds.items()},
            "modeled": {name: round(value, 6) for name, value in tally.modeled.items()},
            "feedback": self.feedback_summary(),
            "violation_groups": [
                {
                    "signature": str(signature),
                    "count": len(members),
                    "summary": members[0].summary(),
                }
                for signature, members in groups.items()
            ],
            "instance_reports": [
                {
                    "programs_tested": report.programs_tested,
                    "test_cases_executed": report.test_cases_executed,
                    "test_cases_generated": report.test_cases_generated,
                    "counts": dict(sorted(report.tally.counts.items())),
                    "lost_rounds": report.lost_rounds,
                    "violations": len(report.violations),
                    "first_detection_seconds": report.first_detection_wall_clock,
                }
                for report in self.reports
            ],
        }
        if self.triage is not None:
            payload["triage"] = self.triage.to_json_dict()
        return payload


#: Progress callback: ``on_round(instance_index, round_result)``.
ProgressCallback = Callable[[int, RoundResult], None]


class Campaign:
    """Runs ``instances`` independent fuzzing instances with derived seeds."""

    def __init__(
        self,
        config: FuzzerConfig,
        instances: int = 1,
        backend: Optional[Union[str, ExecutionBackend]] = None,
    ) -> None:
        if instances < 1:
            raise ValueError("a campaign needs at least one instance")
        self.config = config
        self.instances = instances
        self.backend = backend

    @property
    def contract_name(self) -> str:
        """Contract the campaign tests against (no fuzzer is instantiated)."""
        return resolve_contract_name(self.config)

    def instance_config(self, index: int) -> FuzzerConfig:
        """Configuration for the ``index``-th instance (distinct seed)."""
        return dataclasses.replace(
            self.config, seed=derive_instance_seed(self.config.seed, index)
        )

    def plan(self) -> "CampaignPlan":
        """The backend-agnostic execution plan for this campaign."""
        from repro.backends import CampaignPlan

        return CampaignPlan(
            configs=tuple(self.instance_config(index) for index in range(self.instances)),
            stop_on_violation=self.config.stop_on_violation,
        )

    def resolve_backend(
        self, backend: Optional[Union[str, ExecutionBackend]] = None
    ) -> "ExecutionBackend":
        """Pick the execution backend: explicit argument > constructor > config."""
        from repro.backends import ExecutionBackend, get_backend

        choice = backend if backend is not None else self.backend
        if isinstance(choice, ExecutionBackend):
            return choice
        return get_backend(
            choice if choice is not None else self.config.backend,
            workers=self.config.workers,
        )

    def run(
        self,
        backend: Optional[Union[str, ExecutionBackend]] = None,
        on_round: Optional[ProgressCallback] = None,
        checkpoint_path: Optional[str] = None,
        resume: bool = False,
        resume_fresh: bool = False,
        checkpoint_every: int = 10,
        stop_event=None,
    ) -> CampaignResult:
        """Execute the campaign and aggregate the instances' reports.

        ``backend`` may be a registry name ("inline", "process") or a
        constructed :class:`ExecutionBackend`.  ``on_round`` is invoked with
        ``(instance_index, RoundResult)`` for every completed round, in
        completion order.

        With ``checkpoint_path``, a resumable campaign checkpoint is written
        atomically every ``checkpoint_every`` completed rounds and at the
        end (see :mod:`repro.core.checkpoint`); ``resume=True`` restores a
        previous run's position from it first, and ``resume_fresh=True``
        downgrades an unusable checkpoint (corrupt file, different campaign)
        to a warning plus a fresh start.  ``stop_event`` (a
        ``threading.Event``) requests a graceful stop: in-flight rounds
        drain, the final checkpoint is written, and the partial result comes
        back with ``interrupted=True``.
        """
        from repro.core.checkpoint import CheckpointManager

        executor = self.resolve_backend(backend)
        manager: Optional[CheckpointManager] = None
        initial_states: Optional[List[Optional[dict]]] = None
        if checkpoint_path:
            manager = CheckpointManager(
                checkpoint_path,
                self.config,
                self.instances,
                interval=checkpoint_every,
            )
            if resume or resume_fresh:
                initial_states = manager.load(resume_fresh=resume_fresh)

        plan = self.plan()
        if initial_states is not None:
            plan = dataclasses.replace(plan, initial_states=tuple(initial_states))

        result = CampaignResult(
            defense=self.config.defense,
            contract=self.contract_name,
            instances=self.instances,
            backend=executor.name,
            scheduled_programs=plan.scheduled_programs,
        )
        if initial_states is not None and any(
            state is not None for state in initial_states
        ):
            result.resumed_from = checkpoint_path

        on_state = manager.record_state if manager is not None else None
        started = time.perf_counter()
        result.reports = list(
            executor.run(
                plan,
                on_round=on_round,
                on_state=on_state,
                stop_event=stop_event,
                state_interval=checkpoint_every,
            )
        )
        result.wall_clock_seconds = time.perf_counter() - started
        result.interrupted = bool(stop_event is not None and stop_event.is_set())
        result.force_kills = getattr(executor, "force_kills", 0)
        if manager is not None:
            manager.save_final(interrupted=result.interrupted)
        if self.config.corpus_path:
            # Persist the merged corpus so the next campaign compounds on
            # this one's discoveries (callers that triage afterwards re-save
            # to also capture minimized witnesses).
            result.save_corpus(self.config.corpus_path)
            from repro.backends.faults import fault_plan

            fault_plan().maybe_corrupt("corpus", self.config.corpus_path)
        return result
