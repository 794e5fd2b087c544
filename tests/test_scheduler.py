"""Contract-class-aware execution scheduling (``repro.core.scheduler``).

Covers the scheduler unit behavior (partitioning, skip reasons, ordering),
the seeded A/B equivalence of ``filter=singleton`` against ``filter=none``
on all five defenses, the speculation filter on straight-line programs,
the skipped-entry detector regressions, report accounting, how
``AmuletFuzzer.run_round`` routes a test case through the scheduler, the
per-record predictor context snapshot, and the cached ``UarchTrace`` hash.
"""

import copy
import pickle

import pytest

from repro.core import (
    AmuletFuzzer,
    ExecutionScheduler,
    FilterLevel,
    FuzzerConfig,
    ViolationDetector,
)
from repro.core.scheduler import SKIP_SINGLETON, SKIP_SPECULATION, plan_summary
from repro.core.testcase import TestCase as RelationalTestCase
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.traces import UarchTrace
from repro.feedback.strategy import RoundProgram
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.program import BasicBlock, Program
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator, SpeculationProfile
from repro.uarch.core import O3Core

DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def _contract_trace(value: int) -> ContractTrace:
    return ContractTrace(observations=(("pc", value),))


def _uarch_trace(payload) -> UarchTrace:
    return UarchTrace(components=(("l1d", tuple(payload)),))


class _FakeRecord:
    def __init__(self, trace):
        self.trace = trace
        self.uarch_context = {"branch_predictor": {}, "dependence_predictor": {}}


def _straight_line_program() -> Program:
    """No conditional branch, no load: nothing to misspeculate on."""
    block = BasicBlock(
        "bb_main.0",
        [
            Instruction(Opcode.MOV, (Register("rax"), Immediate(5))),
            Instruction(Opcode.ADD, (Register("rax"), Immediate(3))),
            Instruction(Opcode.MOV, (Register("rbx"), Register("rax"))),
        ],
    )
    exit_block = BasicBlock("bb_main.exit", [], Instruction(Opcode.EXIT))
    return Program([block, exit_block], name="straight_line")


def _tainted_load_program(sandbox_mask: int) -> Program:
    """Still branch-free, but the load address depends on an input register."""
    block = BasicBlock(
        "bb_main.0",
        [
            Instruction(Opcode.AND, (Register("rbx"), Immediate(sandbox_mask))),
            Instruction(
                Opcode.MOV,
                (Register("rax"), MemoryOperand(index="rbx", displacement=0, size=8)),
            ),
        ],
    )
    exit_block = BasicBlock("bb_main.exit", [], Instruction(Opcode.EXIT))
    return Program([block, exit_block], name="tainted_load")


class TestExecutionPlan:
    def test_filter_none_executes_everything(self):
        test_case = RelationalTestCase(program=None)
        for value in (1, 1, 2):
            test_case.add(None, _contract_trace(value))
        plan = ExecutionScheduler(FilterLevel.NONE).plan(test_case)
        assert plan.executable == test_case.entries
        assert plan.skipped == []
        assert plan.skip_counts() == {}
        assert plan.generated == 3 and plan.executed == 3

    def test_singleton_classes_are_skipped(self):
        test_case = RelationalTestCase(program=None)
        for value in (1, 2, 1, 3):
            test_case.add(None, _contract_trace(value))
        plan = ExecutionScheduler("singleton").plan(test_case)
        assert [entry.index for entry in plan.executable] == [0, 2]
        assert [entry.index for entry in plan.skipped] == [1, 3]
        assert all(entry.skip_reason == SKIP_SINGLETON for entry in plan.skipped)
        assert plan.skip_counts() == {SKIP_SINGLETON: 2}

    def test_executable_preserves_input_order(self):
        test_case = RelationalTestCase(program=None)
        for value in (9, 1, 9, 1, 9):
            test_case.add(None, _contract_trace(value))
        plan = ExecutionScheduler(FilterLevel.SINGLETON).plan(test_case)
        assert [entry.index for entry in plan.executable] == [0, 1, 2, 3, 4]

    def test_speculation_skips_inert_multi_entry_classes(self):
        inert = SpeculationProfile(cond_branches=0, tainted_accesses=0)
        lively = SpeculationProfile(cond_branches=1, tainted_accesses=0)
        test_case = RelationalTestCase(program=None)
        test_case.add(None, _contract_trace(1), speculation=inert)
        test_case.add(None, _contract_trace(1), speculation=inert)
        test_case.add(None, _contract_trace(2), speculation=lively)
        test_case.add(None, _contract_trace(2), speculation=lively)
        test_case.add(None, _contract_trace(3), speculation=lively)  # singleton
        plan = ExecutionScheduler(FilterLevel.SPECULATION).plan(test_case)
        assert [entry.index for entry in plan.executable] == [2, 3]
        assert plan.skip_counts() == {SKIP_SPECULATION: 2, SKIP_SINGLETON: 1}

    def test_speculation_without_profiles_degrades_to_singleton(self):
        test_case = RelationalTestCase(program=None)
        test_case.add(None, _contract_trace(1))
        test_case.add(None, _contract_trace(1))
        test_case.add(None, _contract_trace(2))
        plan = ExecutionScheduler(FilterLevel.SPECULATION).plan(test_case)
        assert [entry.index for entry in plan.executable] == [0, 1]
        assert plan.skip_counts() == {SKIP_SINGLETON: 1}

    def test_plan_summary_is_json_friendly(self):
        test_case = RelationalTestCase(program=None)
        for value in (1, 1, 2):
            test_case.add(None, _contract_trace(value))
        summary = plan_summary(ExecutionScheduler("singleton").plan(test_case))
        assert summary["generated"] == 3
        assert summary["executed"] == 2
        assert summary["skipped"] == {SKIP_SINGLETON: 1}
        assert summary["class_sizes"] == {1: 1, 2: 1}


class TestSpeculationProfiles:
    def test_straight_line_program_is_not_witnessable(self):
        sandbox = Sandbox()
        program = _straight_line_program()
        result = Emulator(program, sandbox).run(
            InputGenerator(sandbox, seed=1).generate_one(), get_contract("CT-SEQ")
        )
        assert result.speculation.cond_branches == 0
        assert result.speculation.tainted_accesses == 0
        assert not result.speculation.witnessable

    def test_tainted_load_makes_the_profile_witnessable(self):
        sandbox = Sandbox()
        program = _tainted_load_program(sandbox.aligned_mask)
        result = Emulator(program, sandbox).run(
            InputGenerator(sandbox, seed=1).generate_one(), get_contract("CT-SEQ")
        )
        assert result.speculation.cond_branches == 0
        assert result.speculation.tainted_accesses > 0
        assert result.speculation.witnessable

    def test_generated_programs_with_branches_are_witnessable(self):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=7).generate()
        result = Emulator(program, sandbox).run(
            InputGenerator(sandbox, seed=7).generate_one(), get_contract("CT-SEQ")
        )
        assert result.speculation.cond_branches > 0
        assert result.speculation.witnessable


class TestDetectorWithSkippedEntries:
    def test_skipped_entries_have_no_uarch_trace_and_are_not_counted(self):
        """Regression: a skipped entry must stay out of detection entirely —
        ``uarch_trace is None`` and no contribution to
        ``violating_input_count`` even when its contract trace matches the
        violating class."""
        test_case = RelationalTestCase(program=None)
        shared = _contract_trace(1)
        for _ in range(4):
            test_case.add(None, shared)
        test_case.add(None, _contract_trace(2))  # singleton

        plan = ExecutionScheduler(FilterLevel.SINGLETON).plan(test_case)
        # Simulate only the planned entries; one of the shared-class entries
        # is artificially left unexecuted to model a skip inside the class.
        payloads = iter(([1], [1], [2]))
        for entry in plan.executable[:-1]:
            if entry.contract_trace == shared:
                entry.record = _FakeRecord(_uarch_trace(next(payloads)))

        skipped = [entry for entry in test_case.entries if entry.record is None]
        assert all(entry.uarch_trace is None for entry in skipped)
        assert test_case.entries[4].skip_reason == SKIP_SINGLETON

        violations = ViolationDetector("baseline", "CT-SEQ").detect(test_case)
        assert len(violations) == 1
        # Three executed entries: majority group of two, one dissenter.  The
        # unexecuted entry of the class and the skipped singleton never count.
        assert violations[0].violating_input_count == 1

    def test_all_singletons_yield_no_violations(self):
        test_case = RelationalTestCase(program=None)
        for value in (1, 2, 3):
            test_case.add(None, _contract_trace(value))
        plan = ExecutionScheduler(FilterLevel.SINGLETON).plan(test_case)
        assert plan.executable == []
        assert ViolationDetector("baseline", "CT-SEQ").detect(test_case) == []


class TestFilterEquivalence:
    """Seeded A/B: ``filter=singleton`` finds the exact same violations.

    Naive mode gives every input a fresh simulator, so skipping an entry
    cannot affect any other entry: witnesses, signatures and counts must be
    *identical*.  The unboosted workload makes most classes singletons, so
    the filter actually skips the bulk of the simulations.
    """

    @staticmethod
    def _run(defense: str, level: FilterLevel):
        config = FuzzerConfig(
            defense=defense,
            programs_per_instance=8,
            inputs_per_program=14,
            boost_factor=0,
            seed=3,
            mode=ExecutionMode.NAIVE,
            filter=level,
        )
        return AmuletFuzzer(config).run()

    @staticmethod
    def _witness_keys(report):
        return sorted(
            (
                str(violation.signature),
                violation.violating_input_count,
                violation.input_a.registers,
                violation.input_b.registers,
            )
            for violation in report.violations
        )

    @pytest.mark.parametrize("defense", DEFENSES)
    def test_singleton_filter_detects_identical_violations(self, defense):
        unfiltered = self._run(defense, FilterLevel.NONE)
        filtered = self._run(defense, FilterLevel.SINGLETON)
        assert self._witness_keys(filtered) == self._witness_keys(unfiltered)
        assert len(filtered.violations) == len(unfiltered.violations)
        # The filter did real work: most unboosted entries are singletons.
        assert filtered.test_cases_skipped > filtered.test_cases_executed
        assert (
            filtered.test_cases_generated
            == unfiltered.test_cases_generated
            == unfiltered.test_cases_executed
        )

    def test_boosted_opt_campaign_is_unaffected(self):
        """On the default boosted workload every class has the full boost
        cohort, so the filter skips nothing and results match exactly."""
        reports = {}
        for level in (FilterLevel.NONE, FilterLevel.SINGLETON):
            config = FuzzerConfig(
                defense="baseline",
                programs_per_instance=10,
                inputs_per_program=14,
                seed=3,
                filter=level,
            )
            reports[level] = AmuletFuzzer(config).run()
        filtered = reports[FilterLevel.SINGLETON]
        assert filtered.test_cases_skipped == 0
        assert filtered.test_cases_executed == reports[FilterLevel.NONE].test_cases_executed
        assert self._witness_keys(filtered) == self._witness_keys(
            reports[FilterLevel.NONE]
        )


class TestReportAccounting:
    def test_generated_vs_executed_and_throughputs(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=4,
            inputs_per_program=10,
            boost_factor=0,
            seed=3,
            filter=FilterLevel.SINGLETON,
        )
        fuzzer = AmuletFuzzer(config)
        report = fuzzer.run()
        assert report.test_cases_generated == 4 * 10
        assert (
            report.test_cases_executed + report.test_cases_skipped
            == report.test_cases_generated
        )
        assert report.test_cases_skipped > 0
        skipped = report.tally.counts_under("skipped")
        assert skipped.get(SKIP_SINGLETON, 0) == report.test_cases_skipped
        # throughput() uses *executed* cases; effective_throughput() generated.
        assert report.throughput() == pytest.approx(
            report.test_cases_executed / report.wall_clock_seconds
        )
        assert report.effective_throughput() == pytest.approx(
            report.test_cases_generated / report.wall_clock_seconds
        )
        # The executor and the report keep one set of books (the executor's
        # simulation count also includes violation-validation re-runs, so >=).
        assert fuzzer.executor.tally is report.tally
        assert fuzzer.executor.tally.counts["simulations"] >= report.test_cases_executed
        assert sum(skipped.values()) == report.test_cases_skipped

    def test_round_result_carries_skip_accounting(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=2,
            inputs_per_program=10,
            boost_factor=0,
            seed=3,
            filter=FilterLevel.SINGLETON,
        )
        fuzzer = AmuletFuzzer(config)
        result = fuzzer.run_round(0)
        assert result.test_cases == 10
        assert result.test_cases_executed + sum(result.skipped.values()) == 10

    def test_campaign_json_reports_raw_and_effective_throughput(self):
        from repro.core import Campaign

        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=3,
            inputs_per_program=10,
            boost_factor=0,
            seed=3,
            filter=FilterLevel.SINGLETON,
        )
        result = Campaign(config, instances=1).run()
        payload = result.to_json_dict()
        assert payload["test_cases_generated"] == 30
        assert payload["test_cases"] == result.total_test_cases
        skipped = {
            name: count
            for name, count in payload["counts"].items()
            if name.startswith("skipped.")
        }
        assert sum(skipped.values()) == 30 - payload["test_cases"]
        assert (
            payload["effective_throughput_per_second"]
            >= payload["throughput_per_second"]
        )
        row = result.as_table_row()
        assert row["test_cases_generated"] == 30
        assert row["test_cases_skipped"] == 30 - row["test_cases"]


class TestRoundScheduling:
    """``run_round`` on a fixed program and fixed inputs (boost 0), so the
    contract classes, and with them the plan, are known in advance."""

    @staticmethod
    def _round(filter_level, pick):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=5).generate()
        generator = InputGenerator(sandbox, seed=5)
        base = [generator.generate_one() for _ in range(4)]
        inputs = tuple(base[index] for index in pick)
        fuzzer = AmuletFuzzer(
            FuzzerConfig(
                defense="baseline",
                contract="CT-SEQ",
                programs_per_instance=1,
                inputs_per_program=len(inputs),
                boost_factor=0,
                filter=filter_level,
                seed=5,
            )
        )
        fuzzer.program_source.next_program = lambda: RoundProgram(
            program, seed_inputs=inputs
        )
        result = fuzzer.run_round(0)
        assert result.test_cases == len(inputs)
        return fuzzer.executor.tally, result

    # Duplicates guarantee two two-entry contract classes; inputs 2 and 3
    # stay singletons.
    DUPLICATED = (0, 1, 0, 2, 1, 3)

    def test_unfiltered_round_runs_every_input(self):
        tally, result = self._round(FilterLevel.NONE, self.DUPLICATED)
        assert result.test_cases_executed == 6
        assert tally.counts_under("skipped") == {}
        assert tally.counts["simulations"] == 6

    def test_filtered_round_skips_singletons(self):
        tally, result = self._round(FilterLevel.SINGLETON, self.DUPLICATED)
        assert result.test_cases_executed == 4
        assert tally.counts["simulations"] == 4
        assert tally.counts_under("skipped") == {SKIP_SINGLETON: 2}
        assert result.skipped == {SKIP_SINGLETON: 2}

    def test_fully_skipped_round_starts_no_simulator(self):
        tally, result = self._round(FilterLevel.SINGLETON, (0, 1, 2, 3))
        assert result.test_cases_executed == 0
        assert tally.counts_under("skipped") == {SKIP_SINGLETON: 4}
        assert tally.counts.get("simulator_starts", 0) == 0
        assert tally.counts.get("simulations", 0) == 0


class TestRecordedContext:
    @staticmethod
    def _executor(mode=ExecutionMode.OPT):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=9).generate()
        executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=mode)
        executor.load_program(program)
        return executor, InputGenerator(sandbox, seed=9)

    def test_opt_records_hold_the_context_each_input_started_from(self):
        executor, generator = self._executor()
        records, expected = [], []
        for index in range(5):
            if index:
                expected.append(copy.deepcopy(executor._core.save_uarch_context()))
            records.append(executor.run_input(generator.generate_one()))
        assert [record.uarch_context for record in records[1:]] == expected
        # The carried-over predictor state did change along the way.
        assert records[0].uarch_context != records[-1].uarch_context

    def test_naive_records_start_from_an_untrained_predictor(self):
        executor, generator = self._executor(ExecutionMode.NAIVE)
        untrained = O3Core(executor.program, sandbox=executor.sandbox).save_uarch_context()
        records = [executor.run_input(generator.generate_one()) for _ in range(4)]
        # Each run trains its own core, but the next input gets a new one.
        assert executor._core.save_uarch_context() != untrained
        assert all(record.uarch_context == untrained for record in records)

    def test_restore_does_not_alias_the_recorded_context(self):
        """Re-running from a record's context trains a copy of it, so the
        record can serve any number of validation re-runs."""
        executor, generator = self._executor()
        executor.run_input(generator.generate_one())
        record = executor.run_input(generator.generate_one())
        kept = copy.deepcopy(record.uarch_context)
        for _ in range(3):
            executor.run_input(generator.generate_one(), uarch_context=record.uarch_context)
            assert executor._core.save_uarch_context() != kept
        assert record.uarch_context == kept

    def test_restoring_a_record_context_reproduces_its_run(self):
        executor, generator = self._executor()
        inputs = [generator.generate_one() for _ in range(4)]
        records = [executor.run_input(test_input) for test_input in inputs]
        again = executor.run_input(inputs[1], uarch_context=records[1].uarch_context)
        assert again.uarch_context == records[1].uarch_context
        assert again.trace == records[1].trace
        assert again.result.stats == records[1].result.stats

    def test_a_naive_rerun_from_an_opt_record_reproduces_it(self):
        """A new core given an Opt record's context runs the input exactly as
        the carried-over core did: both modes share one reset path."""
        opt, generator = self._executor()
        inputs = [generator.generate_one() for _ in range(4)]
        records = [opt.run_input(test_input) for test_input in inputs]
        naive, _ = self._executor(ExecutionMode.NAIVE)
        for test_input, record in zip(inputs, records):
            rerun = naive.run_input(test_input, uarch_context=record.uarch_context)
            assert rerun.trace == record.trace
            assert rerun.result.stats == record.result.stats

    def test_detector_stamps_each_witness_with_its_own_context(self):
        test_case = RelationalTestCase(program=None)
        shared = _contract_trace(1)
        contexts = []
        for index, payload in enumerate(([1], [1], [2])):
            record = _FakeRecord(_uarch_trace(payload))
            record.uarch_context = {
                "branch_predictor": {"counters": {index: 3}},
                "dependence_predictor": {"counters": {}},
            }
            contexts.append(record.uarch_context)
            test_case.add(None, shared).record = record
        [violation] = ViolationDetector("baseline", "CT-SEQ").detect(test_case)
        # Witness a heads the majority trace group, witness b the other one.
        assert violation.uarch_context == contexts[0]
        assert violation.uarch_context_b == contexts[2]
        clone = pickle.loads(pickle.dumps(violation))
        assert (clone.uarch_context, clone.uarch_context_b) == (contexts[0], contexts[2])

    def test_record_context_is_a_snapshot(self):
        """A record's starting context is a copy: the predictor training of
        later inputs on the same (Opt-mode) core does not reach it."""
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=9).generate()
        generator = InputGenerator(sandbox, seed=9)
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        executor.load_program(program)
        executor.run_input(generator.generate_one())
        core = executor._core
        before = copy.deepcopy(core.save_uarch_context())
        # Input a starts from what the first input trained (Opt carries it).
        assert before["branch_predictor"]["counters"]
        record_a = executor.run_input(generator.generate_one())
        for _ in range(4):
            executor.run_input(generator.generate_one())
        assert executor._core is core
        assert core.save_uarch_context() != before, "the later inputs must train"
        assert record_a.uarch_context == before


class TestUarchTraceHashCache:
    def test_hash_is_cached_and_consistent(self):
        trace = _uarch_trace([1, 2, 3])
        equal = _uarch_trace([1, 2, 3])
        different = _uarch_trace([4])
        assert "_hash" not in trace.__dict__
        assert hash(trace) == hash(equal)
        assert trace.__dict__["_hash"] == hash(trace)
        assert trace == equal
        assert trace != different
        assert {trace: "a"}[equal] == "a"

    def test_as_dict_is_cached(self):
        trace = _uarch_trace([1])
        assert trace.as_dict() is trace.as_dict()
        assert trace.as_dict() == {"l1d": (1,)}

    def test_pickle_drops_the_cached_hash(self):
        trace = _uarch_trace([1, 2])
        hash(trace)
        trace.as_dict()
        clone = pickle.loads(pickle.dumps(trace))
        assert "_hash" not in clone.__dict__
        assert "_as_dict" not in clone.__dict__
        assert clone == trace
        assert clone.components == trace.components
