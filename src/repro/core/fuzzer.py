"""The AMuLeT fuzzing loop (one instance).

Each round the fuzzer generates a random program, derives a set of inputs —
base inputs plus contract-preserving boosted variants — collects contract
traces from the leakage model (a variant inherits its base's), partitions
the entries into contract-equivalence classes, simulates only the entries
that could witness a Definition 2.1 violation (see
:mod:`repro.core.scheduler`), and runs the detector.  A detected violation
stands only if its boosted witnesses emulate to the trace they inherited;
it is then validated (re-run from a matched micro-architectural context, to
rule out differences caused by AMuLeT-Opt carrying predictor state between
inputs; see :meth:`Violation.rerun`) and analysed for a deduplication
signature.
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
from repro.executor.executor import SimulatorExecutor
from repro.executor.startup import Tally
from repro.feedback.corpus import Corpus
from repro.feedback.coverage import CoverageTracker
from repro.feedback.mutate import ProgramMutator
from repro.feedback.strategy import FeedbackProgramSource, GenerationStrategy
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import Input, InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import forget_decoded
from repro.model.contracts import get_contract
from repro.model.emulator import Emulator
from repro.model.steps import STATS as STEP_STATS


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
    #: Generation strategy the instance ran ("random", "mutational", "hybrid").
    strategy: str = GenerationStrategy.RANDOM.value
    #: The instance's coverage map and corpus (seed entries plus
    #: discoveries) — the fuzzer's own objects while the instance runs;
    #: campaigns merge them across instances.
    coverage: CoverageTracker = field(default_factory=CoverageTracker)
    corpus: Corpus = field(default_factory=Corpus)
    violations: List[Violation] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    modeled_seconds: float = 0.0
    first_detection_wall_clock: Optional[float] = None
    first_detection_modeled: Optional[float] = None
    #: The instance's accounting ledger (counts, wall-clock phase seconds,
    #: modeled seconds) — the executor's own object while the instance runs.
    tally: Tally = field(default_factory=Tally)
    #: Program indices of rounds a supervised backend abandoned after its
    #: retry budget.  Empty for a fault-free run.
    lost_rounds: List[int] = field(default_factory=list)

    def record_fault(self, reason: str, lost_rounds: Sequence[int] = ()) -> None:
        """Count one supervised-execution fault and the rounds it abandoned."""
        self.tally.count(f"fault.{reason}")
        self.lost_rounds = sorted(set(self.lost_rounds).union(lost_rounds))

    @property
    def detected(self) -> bool:
        return bool(self.violations)

    @property
    def test_cases_skipped(self) -> int:
        return sum(self.tally.counts_under("skipped").values())

    @property
    def programs_random(self) -> int:
        """Rounds whose program was generated fresh."""
        return self.tally.counts.get("programs.random", 0)

    @property
    def programs_mutated(self) -> int:
        """Rounds whose program was mutated from a corpus entry."""
        return self.tally.counts.get("programs.mutated", 0)

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

        generator_config = GeneratorConfig(sandbox=self.sandbox)
        self.program_generator = ProgramGenerator(generator_config, seed=config.seed)
        self.input_generator = InputGenerator(self.sandbox, seed=config.seed)

        # Feedback subsystem: coverage map, per-instance corpus, and the
        # strategy that picks each round's program.  The corpus is seeded from
        # the persistent file (when configured) and optionally from the
        # litmus gadgets relevant to this defense; all instances of a
        # campaign start from the same seed corpus and never exchange entries
        # mid-run, which keeps results backend-independent.
        corpus = Corpus.load_if_exists(config.corpus_path)
        if config.corpus_litmus:
            corpus.seed_from_litmus(defense=config.defense, sandbox=self.sandbox)
        self.program_source = FeedbackProgramSource(
            config.strategy,
            self.program_generator,
            corpus=corpus,
            mutator=ProgramMutator(generator_config),
            seed=config.seed,
        )

        self.executor = SimulatorExecutor(
            defense_factory=lambda: create_defense(config.defense, patched=config.patched),
            uarch_config=config.uarch_config,
            sandbox=self.sandbox,
            trace_config=config.trace_config,
            mode=config.mode,
            prime_strategy=config.prime_strategy,
        )
        self.detector = ViolationDetector(config.defense, self.contract_name)
        self.scheduler = ExecutionScheduler(config.filter)

        self._start_time: Optional[float] = None
        #: The round's emulator, from building its test case until detection.
        self._emulator: Optional[Emulator] = None
        self._stopped = False
        self._target_programs: Optional[int] = None
        # The report owns the instance's live results: the executor charges
        # its ledger, and the coverage map and corpus are the ones the round
        # loop feeds.
        self.report = FuzzerReport(
            defense=config.defense,
            contract=self.contract_name,
            strategy=GenerationStrategy(config.strategy).value,
            corpus=corpus,
            tally=self.executor.tally,
        )

    # -- single round -------------------------------------------------------------
    def run_round(self, program_index: int = 0) -> RoundResult:
        """Generate and test one program; return any (validated) violations."""
        if self._start_time is None:
            self._start_time = time.perf_counter()
        config = self.config
        tally = self.executor.tally
        clock = time.perf_counter
        step_hits, step_misses = STEP_STATS.hits, STEP_STATS.misses

        started = clock()
        round_program = self.program_source.next_program()
        program = round_program.program
        tally.count("programs.mutated" if round_program.mutated else "programs.random")
        tally.charge_test_generation()
        tally.add_seconds("generate", clock() - started)

        test_case = self._build_test_case(program, round_program.seed_inputs)
        # Partition into contract-equivalence classes up front and simulate
        # only the entries that could witness a Definition 2.1 violation.  A
        # fully skipped round never starts a simulator (in Opt mode that is
        # the per-program gem5-startup charge).
        plan = self.scheduler.plan(test_case)
        if plan.executable:
            # The cores reuse the steps the program's emulation built.
            started = clock()
            self.executor.load_program(program)
            for entry in plan.executable:
                entry.record = self.executor.run_input(entry.test_input)
            tally.add_seconds("simulate", clock() - started)
        skip_counts = plan.skip_counts()
        for reason, count in skip_counts.items():
            tally.count(f"skipped.{reason}", count)
        tally.charge_other()

        # Detection includes validation re-runs and signature analysis.  A
        # violation is kept only if its witness pair still diverges when both
        # inputs start from a shared context (re-run on the round's core).
        started = clock()
        violations = self.detector.detect(test_case, classes=plan.classes)
        confirmed: List[Violation] = []
        emulator, self._emulator = self._emulator, None
        for violation in violations:
            # A boosted witness inherited its base's contract trace; the
            # candidate stands only if each one really emulates to it.
            witnesses = (violation.input_a, violation.input_b)
            if any(
                emulator.run(entry.test_input, self.contract).trace
                != violation.contract_trace
                for entry in test_case.entries
                if entry.boosted_from is not None
                and any(entry.test_input is witness for witness in witnesses)
            ):
                violation.validated = False
                tally.count("boost.trace_mismatch")
                continue
            violation.record_provenance(self.executor, patched=config.patched)
            rerun = violation.rerun(self.executor)
            if not rerun.diverges:
                violation.validated = False
                continue
            violation.adopt(rerun)
            self._annotate_detection(violation, program_index, len(test_case))
            violation.signature = compute_signature(violation)
            confirmed.append(violation)
        if confirmed:
            # The violations keep the program; its decoded form and steps
            # are rebuilt only if a later re-run needs them.
            forget_decoded(program)
        tally.add_seconds("detect", clock() - started)

        # Coverage feedback: hash the round's behavior features into the map
        # and feed novelty (and any violation witness) back into the corpus,
        # whatever the generation strategy — a random campaign still grows a
        # corpus that later mutational campaigns can load.
        started = clock()
        round_coverage = self.report.coverage.observe_round(test_case, plan)
        witness: Optional[Tuple[Input, Input]] = None
        if confirmed:
            witness = (confirmed[0].input_a, confirmed[0].input_b)
        self.program_source.record_feedback(
            round_program,
            new_features=round_coverage.new_features,
            violation=bool(confirmed),
            input_pair=witness,
        )
        tally.add_seconds("feedback", clock() - started)

        self.report.programs_tested += 1
        self.report.test_cases_generated += len(test_case)
        self.report.test_cases_executed += plan.executed
        self.report.violations.extend(confirmed)
        # Process-wide counters: the round records its own delta.
        tally.count("steps.cache_hits", STEP_STATS.hits - step_hits)
        tally.count("steps.cache_misses", STEP_STATS.misses - step_misses)
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
        for _ in self.iter_rounds(programs):
            pass
        return self.report

    # -- checkpointing ------------------------------------------------------------------
    #: Schema tag for :meth:`state_dict` payloads; bumped whenever the seeded
    #: input stream or the payload changes (v2: bulk sandbox-memory
    #: derivation; v3: pages derived on first touch, boosted variants keyed
    #: by the new fingerprint; v4: the pickled report carries the accounting
    #: ledger; v5: the report carries the coverage map and corpus, and one
    #: pickle holds it with the generator position; v6: corpus witnesses are
    #: inputs, pickled as their descriptions, not hex images).
    STATE_FORMAT = "amulet-instance-state-v6"

    def state_dict(self) -> Dict[str, object]:
        """Snapshot everything needed to resume this instance exactly.

        All generation randomness is counter-addressed (program and input
        generators are pure functions of ``(seed, counter)``; the strategy's
        per-round RNG is a pure function of ``(seed, round)``), and the
        executor builds a fresh core per program — so the live state reduces
        to the generator position and the report, which carries the
        accounting ledger, the coverage map and the corpus (exact energies,
        insertion order: both are part of the deterministic selection
        stream).  The snapshot is a JSON object: ``format``,
        ``programs_tested`` (readable without decoding) and one base64
        pickle of the position and the report.  A fuzzer built from the same
        config and fed it through :meth:`restore_state` continues the round
        stream byte-identically; :func:`report_from_state` reads the report
        alone.
        """
        self._refresh_report_times()
        position = {
            "program_counter": self.program_generator._counter,
            "input_counter": self.input_generator._counter,
            "round": self.program_source._round,
            "stopped": self._stopped,
            "target_programs": self._target_programs,
        }
        payload = pickle.dumps((position, self.report), protocol=pickle.HIGHEST_PROTOCOL)
        return {
            "format": self.STATE_FORMAT,
            "programs_tested": self.report.programs_tested,
            "pickle": base64.b64encode(payload).decode("ascii"),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Resume from a :meth:`state_dict` snapshot (same config required)."""
        position, self.report = _decode_state(state)
        self.program_generator._counter = position["program_counter"]
        self.input_generator._counter = position["input_counter"]
        self.program_source._round = position["round"]
        self.program_source.corpus = self.report.corpus
        self.executor.tally = self.report.tally
        self._stopped = position["stopped"]
        self._target_programs = position["target_programs"]
        # Continue the wall clock where the snapshot left it.
        self._start_time = time.perf_counter() - self.report.wall_clock_seconds

    # -- internals ----------------------------------------------------------------------
    def _build_test_case(
        self, program, seed_inputs: Sequence[Input] = ()
    ) -> TestCase:
        """Collect contract traces and boosted inputs for one program.

        ``seed_inputs`` (mutated witness pairs from corpus entries) occupy
        the first base-input slots; the remainder are generated as usual and
        every base input — seeded or fresh — is boosted identically.  Seed
        inputs sized for a different sandbox are ignored.

        Only base inputs are emulated.  A boosted variant keeps every
        location its base's contract trace and speculation profile depend
        on (see :meth:`InputGenerator.mutate_preserving`), so it takes both
        from its base entry; before a candidate violation is validated,
        :meth:`run_round` emulates each of its witnesses that is a variant,
        on this emulator, and drops the candidate unless the trace is the
        one it inherited.  The modeled time still charges one contract
        trace per entry, as the paper's tool collects them.
        """
        config = self.config
        test_case = TestCase(program=program)
        clock = time.perf_counter
        compiled = STEP_STATS.compile_seconds
        started = clock()
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
        inputs_seconds = clock() - started
        emulator = Emulator(program, self.sandbox)
        for base_index, base_input in enumerate(base_inputs):
            model_result = emulator.run(base_input, self.contract)
            trace, speculation = model_result.trace, model_result.speculation
            base_entry = test_case.add(base_input, trace, speculation=speculation)
            boosting = clock()
            variants = self.input_generator.mutate_preserving(
                base_input,
                model_result.relevant_labels,
                count=config.boost_factor,
                salt=base_index,
            )
            inputs_seconds += clock() - boosting
            for variant in variants:
                test_case.add(
                    variant, trace, boosted_from=base_entry.index, speculation=speculation
                )
        self._emulator = emulator
        compile_seconds = STEP_STATS.compile_seconds - compiled
        tally = self.executor.tally
        tally.charge_contract_traces(len(test_case))
        tally.add_seconds("inputs", inputs_seconds)
        # The step table is built on the program's first emulation; that
        # build is reported as ``compile``, not inside ``emulate``.
        tally.add_seconds("compile", compile_seconds)
        tally.add_seconds("emulate", clock() - started - inputs_seconds - compile_seconds)
        return test_case

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
        self.report.modeled_seconds = self.executor.tally.total_modeled()


def _decode_state(state: Dict[str, object]) -> Tuple[Dict[str, object], FuzzerReport]:
    """The generator position and report inside a :meth:`AmuletFuzzer.state_dict`."""
    found = state.get("format")
    if found != AmuletFuzzer.STATE_FORMAT:
        raise ValueError(
            f"instance state format mismatch "
            f"(found {found!r}, expected {AmuletFuzzer.STATE_FORMAT!r})"
        )
    return pickle.loads(base64.b64decode(state["pickle"]))


def report_from_state(state: Dict[str, object]) -> FuzzerReport:
    """The instance report inside a resume snapshot."""
    return _decode_state(state)[1]
