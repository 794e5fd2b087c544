"""Additional unit tests for core data structures and supporting modules."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.amplification import AmplificationLevel, amplification_ladder
from repro.core.config import FuzzerConfig
from repro.core.testcase import TestCase as RelationalTestCase
from repro.core.violation import Violation
from repro.defenses import create_defense
from repro.executor.traces import L1D_ONLY_TRACE, UarchTrace, get_trace_config
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.litmus import all_cases, get_case, run_case
from repro.litmus.cases import make_input
from repro.model import CT_SEQ, Emulator
from repro.model.emulator import ContractTrace
from repro.uarch import O3Core, UarchConfig


class TestViolationModel:
    def _violation(self):
        trace_a = UarchTrace(components=(("l1d", (1, 2)),))
        trace_b = UarchTrace(components=(("l1d", (1, 3)),))
        program = get_case("spectre_v1").build()[0]
        return Violation(
            program=program,
            defense="baseline",
            contract="CT-SEQ",
            input_a=None,
            input_b=None,
            trace_a=trace_a,
            trace_b=trace_b,
            contract_trace=ContractTrace(observations=()),
            differing_components=("l1d",),
        )

    def test_summary_mentions_defense_contract_and_status(self):
        violation = self._violation()
        text = violation.summary()
        assert "baseline" in text and "CT-SEQ" in text and "unvalidated" in text
        violation.validated = True
        assert "(validated)" in violation.summary()

    def test_trace_diff_delegates_to_traces(self):
        violation = self._violation()
        assert violation.trace_diff()["l1d"]["only_in_first"] == (2,)


class TestTestCaseModel:
    def test_contract_classes_group_entries(self):
        test_case = RelationalTestCase(program=None)
        trace_one = ContractTrace(observations=(("pc", 1),))
        trace_two = ContractTrace(observations=(("pc", 2),))
        test_case.add(None, trace_one)
        test_case.add(None, trace_one, boosted_from=0)
        test_case.add(None, trace_two)
        classes = test_case.contract_classes()
        assert len(classes) == 2
        assert len(classes[trace_one]) == 2
        assert test_case.entries[1].boosted_from == 0
        assert len(test_case) == 3

    def test_uarch_trace_is_none_before_execution(self):
        test_case = RelationalTestCase(program=None)
        entry = test_case.add(None, ContractTrace(observations=()))
        assert entry.uarch_trace is None


class TestFuzzerConfig:
    def test_base_inputs_never_zero(self):
        config = FuzzerConfig(inputs_per_program=3, boost_factor=10)
        assert config.base_inputs_per_program == 1

    def test_defaults_are_consistent(self):
        config = FuzzerConfig()
        assert config.mode.value == "opt"
        assert config.trace_config.name == "l1d+tlb"
        assert config.contract is None  # resolved from the defense later


class TestAmplification:
    def test_ladder_matches_table6(self):
        ladder = amplification_ladder()
        assert [level.name for level in ladder] == [
            "default",
            "2-way L1D",
            "2-way L1D + 2 MSHRs",
        ]
        assert ladder[2].apply().num_mshrs == 2
        assert ladder[2].apply().l1d.ways == 2
        assert ladder[0].apply() == UarchConfig()

    def test_describe_is_human_readable(self):
        level = AmplificationLevel(name="x", l1d_ways=2, mshrs=4)
        assert level.describe() == "2-way L1D, 4 MSHRs"

    def test_apply_respects_a_custom_base(self):
        base = UarchConfig(num_mshrs=8)
        level = AmplificationLevel(name="ways-only", l1d_ways=4)
        amplified = level.apply(base)
        assert amplified.l1d.ways == 4 and amplified.num_mshrs == 8


class TestLitmusRunnerDetails:
    def test_outcome_records_per_input_statistics(self):
        outcome = run_case(get_case("spectre_v1"))
        assert outcome.stats["input_a"]["branch_mispredictions"] >= 1
        assert outcome.stats["input_b"]["instructions_committed"] > 0

    def test_l1d_only_trace_config_is_registered(self):
        assert get_trace_config("l1d-only") is L1D_ONLY_TRACE
        assert L1D_ONLY_TRACE.components() == ("l1d",)

    def test_every_case_names_its_paper_reference(self):
        for case in all_cases():
            assert case.paper_reference, case.name
            assert case.description

    def test_make_input_rejects_nothing_but_fills_defaults(self):
        sandbox = Sandbox()
        test_input = make_input(sandbox)
        assert set(test_input.register_dict().values()) == {0}
        assert len(test_input.memory) == sandbox.size


class TestOptModeRelationalStability:
    """Re-running the same input from the same context gives the same trace.

    This determinism is what makes the relational comparison meaningful: any
    difference between two class members must come from the inputs, not from
    simulator nondeterminism.
    """

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_identical_inputs_produce_identical_traces(self, seed):
        from repro.executor.executor import SimulatorExecutor

        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
        test_input = InputGenerator(sandbox, seed=seed).generate_one()
        executor = SimulatorExecutor("baseline", sandbox=sandbox)
        executor.load_program(program)
        first = executor.run_input(test_input)
        repeat_a, repeat_b = executor.run_pair_with_shared_context(
            test_input, test_input, first.uarch_context
        )
        assert repeat_a == repeat_b

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=10, deadline=None)
    def test_defense_runs_are_deterministic_too(self, seed):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
        test_input = InputGenerator(sandbox, seed=seed).generate_one()
        snapshots = []
        for _ in range(2):
            core = O3Core(program, defense=create_defense("cleanupspec"), sandbox=sandbox)
            core.run(test_input)
            snapshots.append((core.memory.snapshot_l1d(), core.memory.snapshot_dtlb()))
        assert snapshots[0] == snapshots[1]


class TestEmulatorSimulatorAgreement:
    """Differential checks between the leakage model and the simulator."""

    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=10, deadline=None)
    def test_final_registers_match_on_fresh_seeds(self, seed):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
        test_input = InputGenerator(sandbox, seed=seed).generate_one()

        result = Emulator(program, sandbox).run(test_input, CT_SEQ)

        core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
        core_result = core.run(test_input)
        assert core_result.exit_reached
        assert core_result.final_registers == result.final_registers

    def test_litmus_cases_are_architecturally_consistent(self):
        for case in all_cases():
            sandbox = case.sandbox()
            program, input_a, _ = case.build()
            emulator_registers = Emulator(program, sandbox).run(input_a, CT_SEQ).final_registers
            core = O3Core(
                program,
                config=case.uarch_config,
                defense=create_defense(case.defense),
                sandbox=sandbox,
            )
            core_result = core.run(input_a)
            assert core_result.exit_reached
            assert core_result.final_registers == emulator_registers, case.name
