"""The AMuLeT fuzzing loop (one instance).

Each round the fuzzer generates a random program, derives a set of inputs —
base inputs plus contract-preserving boosted variants — collects contract
traces from the leakage model, partitions the entries into
contract-equivalence classes, simulates only the entries that could witness
a Definition 2.1 violation (see :mod:`repro.core.scheduler`), and runs the
detector.  Detected violations are optionally validated (re-run from a
matched micro-architectural context, to rule out differences caused by
AMuLeT-Opt carrying predictor state between inputs) and analysed for a
deduplication signature.
"""

from __future__ import annotations

import base64
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.analysis import compute_signature
from repro.core.config import FuzzerConfig, resolve_contract_name
from repro.core.detector import ViolationDetector
from repro.core.metrics import safe_rate
from repro.core.scheduler import ExecutionScheduler
from repro.core.testcase import TestCase
from repro.core.violation import Violation
from repro.defenses.registry import create_defense, defense_class
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.startup import (
    CONTRACT_TRACES,
    OTHERS,
    TEST_GENERATION,
)
from repro.feedback.corpus import Corpus, CorpusEntry
from repro.feedback.coverage import CoverageTracker
from repro.feedback.mutate import ProgramMutator
from repro.feedback.strategy import FeedbackProgramSource, GenerationStrategy
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import Input, InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.specialized import stats_snapshot
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator


@dataclass
class RoundResult:
    """Outcome of testing one program.

    ``test_cases`` counts *generated* entries (the round's coverage);
    ``test_cases_executed`` counts the entries the scheduler actually paid
    an O3 simulation for.  They are equal unless a filter level is active.
    """

    program_index: int
    test_cases: int
    violations: List[Violation] = field(default_factory=list)
    test_cases_executed: int = 0
    #: Entries skipped by the execution scheduler, per filter reason.
    skipped: Dict[str, int] = field(default_factory=dict)
    #: Coverage-map bits this round set for the first time (behavior novelty).
    new_coverage: int = 0
    #: Was the round's program mutated from a corpus entry (vs freshly generated)?
    mutated: bool = False


@dataclass
class FuzzerReport:
    """Summary of one fuzzing instance."""

    defense: str
    contract: str
    programs_tested: int = 0
    #: Test cases that went through an O3 simulation.
    test_cases_executed: int = 0
    #: Test cases generated (contract traces collected), including ones the
    #: execution scheduler skipped as unable to witness a violation.
    test_cases_generated: int = 0
    #: Skipped test cases per filter reason ("singleton", "speculation").
    skip_counters: Dict[str, int] = field(default_factory=dict)
    #: Generation strategy the instance ran ("random", "mutational", "hybrid").
    strategy: str = GenerationStrategy.RANDOM.value
    #: Coverage-novelty counters (features observed / new, rounds with new
    #: coverage, bits set), reported alongside ``skip_counters``.
    coverage_counters: Dict[str, int] = field(default_factory=dict)
    #: Final per-instance coverage bitmap (campaigns OR these together).
    coverage_bitmap: Optional[bytes] = None
    #: The instance's full corpus at the end of its run (seed entries plus
    #: discoveries); campaigns merge these content-addressed sets.
    corpus_entries: List[CorpusEntry] = field(default_factory=list)
    #: Rounds generated fresh vs mutated from the corpus.
    programs_random: int = 0
    programs_mutated: int = 0
    violations: List[Violation] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    modeled_seconds: float = 0.0
    first_detection_wall_clock: Optional[float] = None
    first_detection_modeled: Optional[float] = None
    #: Per-component seconds (startup / simulate / trace extraction / ...),
    #: mirrored from the executor's ModeledTime so campaign artifacts can
    #: show where the time went, not just totals.
    modeled_breakdown: Dict[str, float] = field(default_factory=dict)
    wall_clock_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds per round-pipeline phase ("generate", "contract",
    #: "simulate", "detect"), measured around the phases themselves — this
    #: is where a speedup (or a regression) is attributable.  "contract"
    #: includes base-input generation and boosting; "simulate" is absent
    #: until a round runs at least one O3 simulation.
    phase_breakdown: Dict[str, float] = field(default_factory=dict)
    #: Effect-closure counters accumulated while this instance ran:
    #: ``cache_misses`` decoded programs whose closures were built,
    #: ``cache_hits`` calls that found them built, ``compile_seconds`` the
    #: build time, ``fallbacks`` instructions left to generic ``evaluate``.
    #: All zero when the instance ran with ``specialize=False``.
    specialization: Dict[str, float] = field(default_factory=dict)
    #: Fault accounting for supervised execution: per-reason counters
    #: ("worker_death", "deadline", "force_kill", ...) plus the program
    #: indices of rounds that were abandoned after ``max_retries``
    #: (``lost_rounds``).  Empty for a fault-free run.
    faults: Dict[str, object] = field(default_factory=dict)

    def record_fault(self, reason: str, lost_round: Optional[int] = None) -> None:
        """Count one supervised-execution fault (and optionally a lost round)."""
        counters = self.faults.setdefault("counters", {})
        counters[reason] = counters.get(reason, 0) + 1
        if lost_round is not None:
            lost = self.faults.setdefault("lost_rounds", [])
            if lost_round not in lost:
                lost.append(lost_round)

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    @property
    def test_cases_skipped(self) -> int:
        return sum(self.skip_counters.values())

    def throughput(self) -> float:
        """Simulated (executed) test cases per wall-clock second.

        Zero / near-zero elapsed time (tiny smoke campaigns, cancelled
        instances) reports 0.0 instead of an infinite rate.
        """
        return safe_rate(self.test_cases_executed, self.wall_clock_seconds)

    def effective_throughput(self) -> float:
        """Generated (covered) test cases per wall-clock second.

        With a filter level active this exceeds :meth:`throughput`: skipped
        test cases are covered — proven unable to witness a violation —
        without paying for their simulation.
        """
        return safe_rate(self.test_cases_generated, self.wall_clock_seconds)

    def modeled_throughput(self) -> float:
        """Test cases per modeled (gem5-equivalent) second."""
        return safe_rate(self.test_cases_executed, self.modeled_seconds)


class AmuletFuzzer:
    """One AMuLeT instance: generator + leakage model + executor + detector."""

    def __init__(self, config: FuzzerConfig) -> None:
        self.config = config
        defense_type = defense_class(config.defense)
        self.contract_name = resolve_contract_name(config)
        self.contract = get_contract(self.contract_name)
        sandbox_pages = (
            config.sandbox_pages
            if config.sandbox_pages is not None
            else defense_type.recommended_sandbox_pages
        )
        self.sandbox = Sandbox(pages=sandbox_pages)

        generator_config = config.generator_config or GeneratorConfig()
        generator_config.sandbox = self.sandbox
        self.program_generator = ProgramGenerator(generator_config, seed=config.seed)
        self.input_generator = InputGenerator(self.sandbox, seed=config.seed)

        # Feedback subsystem: coverage map, per-instance corpus, and the
        # strategy that picks each round's program.  The corpus is seeded from
        # the persistent file (when configured) and optionally from the
        # litmus gadgets relevant to this defense; all instances of a
        # campaign start from the same seed corpus and never exchange entries
        # mid-run, which keeps results backend-independent.
        self.coverage = CoverageTracker()
        corpus = Corpus.load_if_exists(config.corpus_path)
        if config.corpus_litmus:
            corpus.seed_from_litmus(defense=config.defense, sandbox=self.sandbox)
        self.corpus = corpus
        self.program_source = FeedbackProgramSource(
            config.strategy,
            self.program_generator,
            corpus=corpus,
            mutator=ProgramMutator(generator_config),
            seed=config.seed,
            hybrid_mutation_probability=config.hybrid_mutation_probability,
        )

        self.executor = SimulatorExecutor(
            defense_factory=lambda: create_defense(config.defense, patched=config.patched),
            uarch_config=config.uarch_config,
            sandbox=self.sandbox,
            trace_config=config.trace_config,
            mode=config.mode,
            prime_strategy=config.prime_strategy,
            specialize=config.specialize,
        )
        self.detector = ViolationDetector(config.defense, self.contract_name)
        self.scheduler = ExecutionScheduler(config.filter)

        self._start_time: Optional[float] = None
        self._stopped = False
        self._target_programs: Optional[int] = None
        # The specialization counters are process-wide; remember where they
        # stood when this instance started so the report carries only the
        # instance's own deltas (hits from other inline instances excluded).
        self._spec_stats_start = stats_snapshot()
        self.report = FuzzerReport(defense=config.defense, contract=self.contract_name)

    # -- single round -------------------------------------------------------------
    def run_round(self, program_index: int = 0) -> RoundResult:
        """Generate and test one program; return any (validated) violations."""
        if self._start_time is None:
            self._start_time = time.perf_counter()
        config = self.config

        generation_started = time.perf_counter()
        round_program = self.program_source.next_program()
        program = round_program.program
        self.executor.time.charge_test_generation()
        generation_elapsed = time.perf_counter() - generation_started
        self.executor.time.add_wall_clock(TEST_GENERATION, generation_elapsed)
        self._charge_phase("generate", generation_elapsed)

        test_case = self._build_test_case(program, round_program.seed_inputs)
        # Partition into contract-equivalence classes up front and simulate
        # only the entries that could witness a Definition 2.1 violation.  A
        # fully skipped round never starts a simulator (in Opt mode that is
        # the per-program gem5-startup charge).
        plan = self.scheduler.plan(test_case)
        if plan.executable:
            simulate_started = time.perf_counter()
            self.executor.load_program(program)
            records = self.executor.run_batch(
                [entry.test_input for entry in plan.executable]
            )
            for entry, record in zip(plan.executable, records):
                entry.record = record
            self._charge_phase("simulate", time.perf_counter() - simulate_started)
        skip_counts = plan.skip_counts()
        if skip_counts:
            self.executor.record_skips(skip_counts)
        self.executor.time.charge_other()

        detect_started = time.perf_counter()
        violations = self.detector.detect(test_case, classes=plan.classes)
        confirmed: List[Violation] = []
        for violation in violations:
            violation.record_provenance(self.executor, patched=config.patched)
            if config.validate_violations and not self._validate(violation):
                violation.validated = False
                continue
            violation.validated = True if config.validate_violations else None
            self._annotate_detection(violation, program_index, len(test_case))
            if config.analyze_violations:
                violation.signature = compute_signature(violation)
            confirmed.append(violation)
        self._charge_phase("detect", time.perf_counter() - detect_started)

        # Coverage feedback: hash the round's behavior features into the map
        # and feed novelty (and any violation witness) back into the corpus,
        # whatever the generation strategy — a random campaign still grows a
        # corpus that later mutational campaigns can load.
        round_coverage = self.coverage.observe_round(test_case, plan)
        witness: Optional[Tuple[Input, Input]] = None
        if confirmed:
            witness = (confirmed[0].input_a, confirmed[0].input_b)
        self.program_source.record_feedback(
            round_program,
            new_features=round_coverage.new_features,
            violation=bool(confirmed),
            input_pair=witness,
        )

        self.report.programs_tested += 1
        self.report.test_cases_generated += len(test_case)
        self.report.test_cases_executed += plan.executed
        for reason, count in skip_counts.items():
            self.report.skip_counters[reason] = (
                self.report.skip_counters.get(reason, 0) + count
            )
        self.report.violations.extend(confirmed)
        self._refresh_report_times()
        if confirmed and self.report.first_detection_wall_clock is None:
            self.report.first_detection_wall_clock = self.report.wall_clock_seconds
            self.report.first_detection_modeled = self.report.modeled_seconds
        return RoundResult(
            program_index=program_index,
            test_cases=len(test_case),
            violations=confirmed,
            test_cases_executed=plan.executed,
            skipped=skip_counts,
            new_coverage=round_coverage.new_features,
            mutated=round_program.mutated,
        )

    # -- full instance ----------------------------------------------------------------
    def iter_rounds(self, programs: Optional[int] = None) -> Iterator[RoundResult]:
        """Stream round results until ``programs`` have been tested.

        The generator is resumable: it picks up at the next untested program,
        so a scheduler can pull a few rounds, hand the worker slot to another
        instance, and come back later without losing generator or predictor
        state.  Iteration ends early when ``stop_on_violation`` is set and a
        round confirms a violation; ``finished`` reports whether this
        instance has no more work.
        """
        if self._start_time is None:
            self._start_time = time.perf_counter()
        total_programs = programs if programs is not None else self.config.programs_per_instance
        self._target_programs = total_programs
        while self.report.programs_tested < total_programs and not self._stopped:
            result = self.run_round(self.report.programs_tested)
            if result.violations and self.config.stop_on_violation:
                self._stopped = True
            yield result
        self._refresh_report_times()

    @property
    def finished(self) -> bool:
        """True once the instance has tested its budget or stopped early.

        The budget is whatever the most recent ``iter_rounds``/``run`` call
        asked for (the config's ``programs_per_instance`` by default).
        """
        target = (
            self._target_programs
            if self._target_programs is not None
            else self.config.programs_per_instance
        )
        return self._stopped or self.report.programs_tested >= target

    def run(self, programs: Optional[int] = None) -> FuzzerReport:
        """Run the configured number of programs (an entire instance)."""
        self._start_time = time.perf_counter()
        for _ in self.iter_rounds(programs):
            pass
        self._refresh_report_times()
        return self.report

    # -- checkpointing ------------------------------------------------------------------
    #: Schema tag for :meth:`state_dict` payloads; bumped whenever the seeded
    #: input stream changes (v2: bulk sandbox-memory derivation).
    STATE_FORMAT = "amulet-instance-state-v2"

    def state_dict(self) -> Dict[str, object]:
        """Snapshot everything needed to resume this instance exactly.

        All generation randomness is counter-addressed (program and input
        generators are pure functions of ``(seed, counter)``; the strategy's
        per-round RNG is a pure function of ``(seed, round)``), and the
        executor builds a fresh core per program — so the live state reduces
        to integer counters, the feedback state (coverage map + corpus), the
        accumulated report, and the executor's time ledger.  The snapshot is
        JSON-serializable; a fuzzer built from the same config and fed it
        through :meth:`restore_state` continues the round stream
        byte-identically.

        Corpus energies are stored exactly (not display-rounded as in
        :meth:`CorpusEntry.to_json_dict`) and in insertion order: selection
        weights and iteration order are part of the deterministic stream.
        """
        self._refresh_report_times()
        corpus_entries = []
        for entry in self.corpus.entries():
            payload = entry.to_json_dict()
            payload["energy"] = entry.energy
            corpus_entries.append(payload)
        return {
            "format": self.STATE_FORMAT,
            "programs_tested": self.report.programs_tested,
            "program_counter": self.program_generator._counter,
            "input_counter": self.input_generator._counter,
            "source": {
                "round": self.program_source._round,
                "generated_random": self.program_source.generated_random,
                "generated_mutated": self.program_source.generated_mutated,
            },
            "coverage": self.coverage.to_json_dict(),
            "corpus_entries": corpus_entries,
            "report_pickle": base64.b64encode(
                pickle.dumps(self.report, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii"),
            "time": {
                "modeled_seconds": dict(self.executor.time.modeled_seconds),
                "wall_clock_seconds": dict(self.executor.time.wall_clock_seconds),
            },
            "simulator_starts": self.executor.simulator_starts,
            "test_cases_executed": self.executor.test_cases_executed,
            "stopped": self._stopped,
            "target_programs": self._target_programs,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`state_dict` snapshot (same config required)."""
        found = state.get("format")
        if found != self.STATE_FORMAT:
            raise ValueError(
                f"instance state format mismatch "
                f"(found {found!r}, expected {self.STATE_FORMAT!r})"
            )
        self.program_generator._counter = state["program_counter"]
        self.input_generator._counter = state["input_counter"]
        source = state["source"]
        self.program_source._round = source["round"]
        self.program_source.generated_random = source["generated_random"]
        self.program_source.generated_mutated = source["generated_mutated"]

        restored_coverage = CoverageTracker.from_json_dict(state["coverage"])
        self.coverage.size_bits = restored_coverage.size_bits
        self.coverage.bitmap = restored_coverage.bitmap
        self.coverage.features_observed = restored_coverage.features_observed
        self.coverage.new_features = restored_coverage.new_features
        self.coverage.rounds_observed = restored_coverage.rounds_observed
        self.coverage.rounds_with_new_coverage = (
            restored_coverage.rounds_with_new_coverage
        )

        # Rebuild the corpus in place: the fuzzer, the program source and the
        # report all alias this one object, and insertion order is part of
        # the deterministic selection stream.
        self.corpus._entries.clear()
        for payload in state["corpus_entries"]:
            self.corpus.merge_entry(CorpusEntry.from_json_dict(payload))

        self.report = pickle.loads(base64.b64decode(state["report_pickle"]))
        saved_time = state["time"]
        self.executor.time.modeled_seconds = dict(saved_time["modeled_seconds"])
        self.executor.time.wall_clock_seconds = dict(saved_time["wall_clock_seconds"])
        self.executor.simulator_starts = state["simulator_starts"]
        self.executor.test_cases_executed = state["test_cases_executed"]
        self._stopped = state["stopped"]
        self._target_programs = state.get("target_programs")
        # Continue the wall clock where the snapshot left it, and re-baseline
        # the process-wide specialization counters so the report keeps
        # accumulating this instance's own deltas.
        self._start_time = time.perf_counter() - self.report.wall_clock_seconds
        current = stats_snapshot()
        saved = self.report.specialization or {}
        self._spec_stats_start = {
            "hits": current["hits"] - saved.get("cache_hits", 0),
            "misses": current["misses"] - saved.get("cache_misses", 0),
            "compile_seconds": current["compile_seconds"]
            - saved.get("compile_seconds", 0.0),
            "fallbacks": current["fallbacks"] - saved.get("fallbacks", 0),
        }
        self._refresh_report_feedback()

    # -- internals ----------------------------------------------------------------------
    def _charge_phase(self, phase: str, seconds: float) -> None:
        self.report.phase_breakdown[phase] = (
            self.report.phase_breakdown.get(phase, 0.0) + seconds
        )

    def _build_test_case(
        self, program, seed_inputs: Sequence[Input] = ()
    ) -> TestCase:
        """Collect contract traces and boosted inputs for one program.

        ``seed_inputs`` (mutated witness pairs from corpus entries) occupy
        the first base-input slots; the remainder are generated as usual and
        every base input — seeded or fresh — is boosted identically.  Seed
        inputs sized for a different sandbox are ignored.
        """
        config = self.config
        test_case = TestCase(program=program)
        contract_started = time.perf_counter()
        usable_seeds = [
            seed_input
            for seed_input in seed_inputs
            if len(seed_input.memory) == self.sandbox.size
        ]
        base_inputs: List[Input] = []
        for base_index in range(config.base_inputs_per_program):
            if base_index < len(usable_seeds):
                base_inputs.append(usable_seeds[base_index])
            else:
                base_inputs.append(self.input_generator.generate_one())
        emulator = Emulator(program, self.sandbox, specialize=config.specialize)
        for base_index, base_input in enumerate(base_inputs):
            model_result = emulator.run(base_input, self.contract)
            base_entry = test_case.add(
                base_input, model_result.trace, speculation=model_result.speculation
            )
            variants = self.input_generator.mutate_preserving(
                base_input,
                model_result.relevant_labels,
                count=config.boost_factor,
                salt=base_index,
            )
            # All boosted variants of a base input share the emulator's
            # effect closures and sandbox buffer (batched multi-input round).
            for variant, variant_result in zip(
                variants, emulator.collect_traces_batch(variants, self.contract)
            ):
                test_case.add(
                    variant,
                    variant_result.trace,
                    boosted_from=base_entry.index,
                    speculation=variant_result.speculation,
                )
        elapsed = time.perf_counter() - contract_started
        self.executor.time.charge_contract_traces(len(test_case))
        self.executor.time.add_wall_clock(CONTRACT_TRACES, elapsed)
        self._charge_phase("contract", elapsed)
        return test_case

    def _validate(self, violation: Violation) -> bool:
        """Re-run the violating pair from shared micro-architectural contexts.

        AMuLeT-Opt deliberately carries predictor state between inputs, so a
        trace difference can be an artefact of different starting contexts
        rather than of the inputs.  Following the paper, the violating pair
        is re-run from each witness's starting context in turn; the violation
        is kept only if the traces still differ under at least one *shared*
        context.
        """
        contexts = [
            context
            for context in (violation.uarch_context, violation.uarch_context_b)
            if context is not None
        ]
        if not contexts:
            return True
        for context in contexts:
            trace_a, trace_b = self.executor.run_pair_with_shared_context(
                violation.input_a, violation.input_b, context
            )
            if trace_a != trace_b:
                # Keep the freshly collected traces: they were observed under
                # a controlled context and are what analysis should look at.
                violation.trace_a = trace_a
                violation.trace_b = trace_b
                violation.differing_components = trace_a.differing_components(trace_b)
                # Both witnesses were re-run from the same context; leaving
                # ``uarch_context_b`` at its original value would hand
                # downstream minimization/analysis a mismatched context pair.
                violation.uarch_context = context
                violation.uarch_context_b = context
                return True
        return False

    def _annotate_detection(
        self, violation: Violation, program_index: int, test_cases: int
    ) -> None:
        self._refresh_report_times()
        violation.detection_wall_clock_seconds = self.report.wall_clock_seconds
        violation.detection_modeled_seconds = self.report.modeled_seconds
        violation.detected_at_program = program_index
        violation.detected_at_test_case = self.report.test_cases_generated + test_cases

    def _refresh_report_times(self) -> None:
        if self._start_time is not None:
            self.report.wall_clock_seconds = time.perf_counter() - self._start_time
        self.report.modeled_seconds = self.executor.time.total_modeled()
        self.report.modeled_breakdown = dict(self.executor.time.modeled_seconds)
        self.report.wall_clock_breakdown = dict(self.executor.time.wall_clock_seconds)
        current = stats_snapshot()
        start = self._spec_stats_start
        self.report.specialization = {
            "cache_hits": current["hits"] - start["hits"],
            "cache_misses": current["misses"] - start["misses"],
            "compile_seconds": round(
                current["compile_seconds"] - start["compile_seconds"], 6
            ),
            "fallbacks": current["fallbacks"] - start["fallbacks"],
        }
        self._refresh_report_feedback()

    def _refresh_report_feedback(self) -> None:
        """Mirror the live feedback state into the (picklable) report."""
        self.report.strategy = GenerationStrategy(self.config.strategy).value
        self.report.coverage_counters = {
            **self.coverage.counters(),
            "bits_set": self.coverage.bits_set(),
        }
        self.report.coverage_bitmap = bytes(self.coverage.bitmap)
        self.report.corpus_entries = self.corpus.entries()
        self.report.programs_random = self.program_source.generated_random
        self.report.programs_mutated = self.program_source.generated_mutated
