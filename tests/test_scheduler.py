"""Contract-class-aware execution scheduling (``repro.core.scheduler``).

Covers the scheduler unit behavior (partitioning, skip reasons, ordering),
the seeded A/B equivalence of ``filter=singleton`` against ``filter=none``
on all five defenses, the speculation filter on straight-line programs,
the skipped-entry detector regressions, report accounting, the
scheduler-routed ``SimulatorExecutor.trace_batch``, the lazy predictor
context snapshots, and the cached ``UarchTrace`` hash.
"""

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
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.program import BasicBlock, Program
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator, SpeculationProfile
from repro.uarch.core import O3Core, materialize_uarch_context

DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def _contract_trace(value: int) -> ContractTrace:
    return ContractTrace(observations=(("pc", value),))


def _uarch_trace(payload) -> UarchTrace:
    return UarchTrace(components=(("l1d", tuple(payload)),))


class _FakeRecord:
    def __init__(self, trace):
        self.trace = trace
        self.uarch_context = {"branch_predictor": {}, "dependence_predictor": {}}

    def materialized_context(self):
        return self.uarch_context


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


class TestTraceBatchScheduling:
    def _workload(self):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=5).generate()
        generator = InputGenerator(sandbox, seed=5)
        inputs = [generator.generate_one() for _ in range(6)]
        # Duplicates guarantee at least one multi-entry contract class.
        inputs = [inputs[0], inputs[1], inputs[0], inputs[2], inputs[1], inputs[3]]
        return sandbox, program, inputs

    def test_unfiltered_batch_runs_every_input(self):
        sandbox, program, inputs = self._workload()
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        records = executor.trace_batch(program, inputs)
        assert len(records) == len(inputs)
        assert all(record is not None for record in records)
        assert executor.tally.counts_under("skipped") == {}

    def test_filtered_batch_skips_singletons(self):
        sandbox, program, inputs = self._workload()
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        records = executor.trace_batch(
            program, inputs, contract=get_contract("CT-SEQ"), filter_level="singleton"
        )
        assert len(records) == len(inputs)
        executed = [record for record in records if record is not None]
        skipped = [record for record in records if record is None]
        # The duplicated inputs form classes of two; the rest are singletons.
        assert len(executed) == 4
        assert len(skipped) == 2
        assert sum(executor.tally.counts_under("skipped").values()) == 2
        assert executor.tally.counts_under("skipped") == {SKIP_SINGLETON: 2}

    def test_filtering_requires_a_contract(self):
        sandbox, program, inputs = self._workload()
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        with pytest.raises(ValueError):
            executor.trace_batch(program, inputs, filter_level="singleton")


class TestLazyUarchContext:
    def _core(self):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=9).generate()
        return O3Core(program, sandbox=sandbox), InputGenerator(sandbox, seed=9)

    def test_lazy_context_matches_eager_snapshot(self):
        core, generator = self._core()
        core.run(generator.generate_one())  # train the predictors a bit
        eager = core.save_uarch_context()
        lazy = core.lazy_uarch_context()
        core.run(generator.generate_one())  # mutate past the mark
        assert lazy.materialize() == eager
        # Materialization is cached and stable.
        assert lazy.materialize() is lazy.materialize()

    def test_marks_survive_many_runs(self):
        core, generator = self._core()
        snapshots = []
        for _ in range(4):
            snapshots.append((core.lazy_uarch_context(), core.save_uarch_context()))
            core.run(generator.generate_one())
        for lazy, eager in snapshots:
            assert lazy.materialize() == eager

    def test_restore_invalidates_unmaterialized_marks(self):
        core, generator = self._core()
        baseline_context = core.save_uarch_context()
        core.run(generator.generate_one())
        stale = core.lazy_uarch_context()
        core.restore_uarch_context(baseline_context)
        with pytest.raises(RuntimeError):
            stale.materialize()

    def test_restoring_a_lazy_context_of_the_same_core_works(self):
        core, generator = self._core()
        lazy = core.lazy_uarch_context()
        core.run(generator.generate_one())
        expected = lazy.materialize()
        core.restore_uarch_context(lazy)
        assert core.save_uarch_context() == expected

    def test_executor_records_materialize_through_the_helper(self):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=9).generate()
        generator = InputGenerator(sandbox, seed=9)
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        executor.load_program(program)
        first = executor.run_input(generator.generate_one())
        second = executor.run_input(generator.generate_one())
        context = first.materialized_context()
        assert set(context) == {"branch_predictor", "dependence_predictor"}
        # The second run started from the state the first run trained.
        assert second.materialized_context()["branch_predictor"]["counters"]
        # Plain dicts pass through the normalization helper unchanged.
        assert materialize_uarch_context(context) is context
        assert materialize_uarch_context(None) is None


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
