"""Tests for the AMuLeT core: detector, fuzzer, campaign, analysis, filtering."""

import pytest

from repro.core import (
    AmuletFuzzer,
    Campaign,
    FuzzerConfig,
    ViolationDetector,
    analyze_violation,
    unique_violations,
)
from repro.core.analysis import compute_signature, render_side_by_side
from repro.core.detector import group_by_contract_trace
from repro.core.filtering import ViolationFilter
from repro.core.minimize import MinimizationBudget, minimize_violation
from repro.core.testcase import TestCase as RelationalTestCase
from repro.core.violation import Violation
from repro.defenses.registry import create_defense
from repro.executor.executor import SimulatorExecutor
from repro.executor.traces import MEMORY_ACCESS_ORDER_TRACE, UarchTrace
from repro.litmus import get_case
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator


def _entry_trace(payload):
    return UarchTrace(components=(("l1d", tuple(payload)),))


def _fake_record(trace):
    """A minimal stand-in for an ExecutionRecord in detector unit tests."""

    class _Record:
        def __init__(self, trace):
            self.trace = trace
            self.uarch_context = {"branch_predictor": {}, "dependence_predictor": {}}

    return _Record(trace)


def _litmus_violation(name="spectre_v1") -> Violation:
    """Build a real, validated violation from a litmus case."""
    case = get_case(name)
    sandbox = case.sandbox()
    program, input_a, input_b = case.build()
    executor = SimulatorExecutor(
        defense_factory=lambda: create_defense(case.defense),
        uarch_config=case.uarch_config,
        sandbox=sandbox,
        trace_config=case.trace_config,
        prime_strategy=case.prime_strategy,
    )
    executor.load_program(program)
    record_a = executor.run_input(input_a)
    record_b = executor.run_input(input_b, uarch_context=record_a.uarch_context)
    return Violation(
        program=program,
        defense=case.defense,
        contract=case.contract,
        input_a=input_a,
        input_b=input_b,
        trace_a=record_a.trace,
        trace_b=record_b.trace,
        contract_trace=ContractTrace(observations=()),
        differing_components=record_a.trace.differing_components(record_b.trace),
        uarch_context=record_a.uarch_context,
    )


class TestDetector:
    def test_violation_requires_equal_contract_traces(self):
        from repro.litmus.programs import spectre_v1
        from repro.generator import Sandbox

        program = spectre_v1(Sandbox().aligned_mask)
        test_case = RelationalTestCase(program=program)
        trace_x = ContractTrace(observations=(("pc", 1),))
        trace_y = ContractTrace(observations=(("pc", 2),))
        entry_a = test_case.add(None, trace_x)
        entry_b = test_case.add(None, trace_y)
        entry_a.record = _fake_record(_entry_trace([1]))
        entry_b.record = _fake_record(_entry_trace([2]))
        assert ViolationDetector("baseline", "CT-SEQ").detect(test_case) == []

    def test_violation_detected_within_a_class(self):
        from repro.litmus.programs import spectre_v1
        from repro.generator import Sandbox

        program = spectre_v1(Sandbox().aligned_mask)
        test_case = RelationalTestCase(program=program)
        contract_trace = ContractTrace(observations=(("pc", 1),))
        for payload in ([1], [1], [2]):
            entry = test_case.add(None, contract_trace)
            entry.record = _fake_record(_entry_trace(payload))
        violations = ViolationDetector("baseline", "CT-SEQ").detect(test_case)
        assert len(violations) == 1
        violation = violations[0]
        assert violation.differing_components == ("l1d",)
        # Two entries agree (the majority group); exactly one disagrees.
        assert violation.violating_input_count == 1

    def test_violating_input_count_excludes_the_majority_group(self):
        """Regression: the count used to include every executed entry of the
        class (majority group included), over-reporting disagreeing inputs."""
        from repro.litmus.programs import spectre_v1
        from repro.generator import Sandbox

        program = spectre_v1(Sandbox().aligned_mask)
        test_case = RelationalTestCase(program=program)
        contract_trace = ContractTrace(observations=(("pc", 1),))
        for payload in ([1], [1], [1], [2], [2], [3]):
            entry = test_case.add(None, contract_trace)
            entry.record = _fake_record(_entry_trace(payload))
        violations = ViolationDetector("baseline", "CT-SEQ").detect(test_case)
        assert len(violations) == 1
        # Majority group has 3 agreeing entries; 2 + 1 entries disagree.
        assert violations[0].violating_input_count == 3

    def test_identical_traces_produce_no_violation(self):
        from repro.litmus.programs import spectre_v1
        from repro.generator import Sandbox

        program = spectre_v1(Sandbox().aligned_mask)
        test_case = RelationalTestCase(program=program)
        contract_trace = ContractTrace(observations=(("pc", 1),))
        for _ in range(3):
            entry = test_case.add(None, contract_trace)
            entry.record = _fake_record(_entry_trace([5]))
        assert ViolationDetector("baseline", "CT-SEQ").detect(test_case) == []

    def test_group_by_contract_trace(self):
        entries = []
        test_case = RelationalTestCase(program=None)
        for value in (1, 1, 2):
            entries.append(test_case.add(None, ContractTrace(observations=(("pc", value),))))
        groups = group_by_contract_trace(test_case.entries)
        assert sorted(len(group) for group in groups.values()) == [1, 2]


class TestFuzzerEndToEnd:
    def test_baseline_campaign_finds_spectre_violations(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=20,
            inputs_per_program=14,
            seed=3,
        )
        report = AmuletFuzzer(config).run()
        assert report.test_cases_executed == 20 * 14
        assert report.detected
        assert all(v.validated for v in report.violations)
        assert all("l1d" in v.differing_components for v in report.violations)
        assert report.first_detection_wall_clock is not None
        assert report.throughput() > 0

    def test_violations_keep_no_decoded_program_and_still_rerun(self):
        """A confirmed violation's program leaves the decode cache; a later
        re-run rebuilds its decoded form and still diverges."""
        from repro.isa.decoded import _DECODED_CACHE

        fuzzer = AmuletFuzzer(FuzzerConfig(defense="baseline", programs_per_instance=6, seed=3))
        report = fuzzer.run()
        assert report.violations
        assert all(v.program not in _DECODED_CACHE for v in report.violations)
        violation = report.violations[0]
        assert violation.rerun(violation.build_executor()).diverges
        assert violation.program in _DECODED_CACHE

    def test_patched_invisispec_is_clean_under_default_config(self):
        config = FuzzerConfig(
            defense="invisispec",
            patched=True,
            programs_per_instance=8,
            inputs_per_program=14,
            seed=3,
        )
        report = AmuletFuzzer(config).run()
        assert not report.detected

    def test_buggy_invisispec_is_flagged(self):
        config = FuzzerConfig(
            defense="invisispec",
            programs_per_instance=30,
            inputs_per_program=14,
            seed=3,
            stop_on_violation=True,
        )
        report = AmuletFuzzer(config).run()
        assert report.detected

    def test_speclfb_is_flagged_and_contract_comes_from_the_defense(self):
        config = FuzzerConfig(
            defense="speclfb",
            programs_per_instance=30,
            inputs_per_program=14,
            seed=3,
            stop_on_violation=True,
        )
        fuzzer = AmuletFuzzer(config)
        assert fuzzer.contract_name == "CT-SEQ"
        assert fuzzer.sandbox.pages == 1
        report = fuzzer.run()
        assert report.detected

    def test_stop_on_violation_ends_the_instance_early(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=50,
            inputs_per_program=14,
            seed=3,
            stop_on_violation=True,
        )
        report = AmuletFuzzer(config).run()
        assert report.detected
        assert report.programs_tested < 50

    def test_effective_inputs_respect_boost_factor(self):
        config = FuzzerConfig(inputs_per_program=14, boost_factor=6)
        assert config.base_inputs_per_program == 2
        assert config.effective_inputs_per_program() == 14


class TestCampaign:
    def test_campaign_aggregates_instances(self):
        config = FuzzerConfig(
            defense="baseline", programs_per_instance=6, inputs_per_program=14, seed=11
        )
        result = Campaign(config, instances=2).run()
        assert result.instances == 2
        assert len(result.reports) == 2
        assert result.total_test_cases == 2 * 6 * 14
        row = result.as_table_row()
        assert row["defense"] == "baseline"
        assert row["test_cases"] == result.total_test_cases

    def test_specialization_counters_count_step_builds_and_reuses(self):
        config = FuzzerConfig(
            defense="invisispec",
            patched=True,
            programs_per_instance=4,
            inputs_per_program=14,
            seed=5,
        )
        result = Campaign(config, instances=2).run()
        programs = sum(report.programs_tested for report in result.reports)
        assert programs == 2 * 4
        counts = result.tally().counts
        # One step table per program, built by its first emulation, and
        # (filter none, Opt mode) one O3 core per program that reuses it.
        assert counts["steps.cache_misses"] == programs
        assert counts["steps.cache_hits"] == programs
        counters = result.specialization_counters()
        assert set(counters) == {"cache_hits", "cache_misses", "compile_seconds"}
        assert counters["cache_misses"] == programs
        assert counters["cache_hits"] == programs
        assert counters["compile_seconds"] > 0

    def test_programs_the_scheduler_skips_start_no_core(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=12,
            inputs_per_program=14,
            boost_factor=0,
            filter="speculation",
            seed=3,
        )
        fuzzer = AmuletFuzzer(config)
        rounds = [fuzzer.run_round(index) for index in range(12)]
        counts = fuzzer.report.tally.counts
        simulated = sum(1 for result in rounds if result.test_cases_executed)
        assert counts["steps.cache_misses"] == 12
        assert simulated < 12, "the workload must skip a whole program"
        # Each simulated program's core reuses the steps its emulation built.
        assert counts.get("steps.cache_hits", 0) == simulated

    def test_specialization_counters_are_per_instance_on_a_pool(self):
        # A pool worker runs several instances in one process; each report
        # must count only its own rounds' step builds and reuses.
        from repro.backends import ProcessPoolBackend

        config = FuzzerConfig(
            defense="baseline", programs_per_instance=4, inputs_per_program=14, seed=5
        )
        inline = Campaign(config, instances=4).run()
        pooled = Campaign(
            config,
            instances=4,
            backend=ProcessPoolBackend(workers=2),
        ).run()
        programs = sum(report.programs_tested for report in pooled.reports)
        assert programs == 4 * 4
        for report in pooled.reports:
            assert report.tally.counts["steps.cache_misses"] == report.programs_tested
            assert report.tally.counts["steps.cache_hits"] == report.programs_tested
        pooled_counters = pooled.specialization_counters()
        inline_counters = inline.specialization_counters()
        assert pooled_counters["cache_misses"] == programs
        assert pooled_counters["cache_hits"] == programs
        for name in ("cache_misses", "cache_hits"):
            assert pooled_counters[name] == inline_counters[name]

    def test_instance_configs_get_distinct_seeds(self):
        campaign = Campaign(FuzzerConfig(seed=1), instances=3)
        seeds = {campaign.instance_config(index).seed for index in range(3)}
        assert len(seeds) == 3

    def test_json_dict_surfaces_the_accounting_blocks(self):
        config = FuzzerConfig(
            defense="baseline", programs_per_instance=2, inputs_per_program=7, seed=11
        )
        result = Campaign(config, instances=1).run()
        payload = result.to_json_dict()
        # Three accounting blocks; the five they replaced are gone.
        assert {"counts", "seconds", "modeled"} <= set(payload)
        assert not {
            "faults", "skip_counters", "specialization", "time_breakdown", "phase_breakdown"
        } & set(payload)
        # The Opt executor's modeled split must cover the Table-2 components
        # that dominate a campaign: startup, simulation and trace extraction.
        modeled = payload["modeled"]
        assert {"gem5 startup", "gem5 simulate", "uTrace extraction"} <= set(modeled)
        assert all(seconds >= 0 for seconds in modeled.values())
        shares = [entry["percent"] for entry in result.tally().breakdown().values()]
        assert abs(sum(shares) - 100.0) < 1.0
        assert sum(payload["seconds"].values()) > 0
        # One round-execution path: the round's phases and nothing else (no
        # transport phase, no parallel-simulation block).
        assert set(payload["seconds"]) == {
            "generate",
            "inputs",
            "emulate",
            "compile",
            "simulate",
            "detect",
            "feedback",
        }
        assert "parallel_sim" not in payload

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            Campaign(FuzzerConfig(), instances=0)


class TestAnalysisAndFiltering:
    def test_analyze_violation_finds_the_leaking_pc(self):
        violation = _litmus_violation("spectre_v1")
        executor = SimulatorExecutor(
            "baseline",
            sandbox=get_case("spectre_v1").sandbox(),
            trace_config=MEMORY_ACCESS_ORDER_TRACE,
        )
        analysis = analyze_violation(violation, executor=executor)
        assert analysis.first_divergence_index is not None
        assert analysis.leaking_pc is not None
        assert "pc=" in analysis.summary()
        assert ">>" in render_side_by_side(analysis)

    def test_signature_is_stable_and_groups_duplicates(self):
        first = _litmus_violation("spectre_v1")
        second = _litmus_violation("spectre_v1")
        assert compute_signature(first) == compute_signature(second)
        groups = unique_violations([first, second])
        assert len(groups) == 1

    def test_violation_filter_suppresses_known_signatures(self):
        first = _litmus_violation("spectre_v1")
        second = _litmus_violation("spectre_v1")
        violation_filter = ViolationFilter()
        assert violation_filter.filter([first]) == [first]
        assert violation_filter.filter([second]) == []
        assert violation_filter.suppressed == 1

    def test_different_defenses_have_different_signatures(self):
        baseline = _litmus_violation("spectre_v1")
        stt = _litmus_violation("stt_store_tlb")
        assert compute_signature(baseline) != compute_signature(stt)


class TestMinimization:
    def test_minimized_program_still_reproduces_and_is_smaller(self):
        violation = _litmus_violation("spectre_v1")
        case = get_case("spectre_v1")

        def executor_factory():
            return SimulatorExecutor(
                defense_factory=lambda: create_defense(case.defense),
                sandbox=case.sandbox(),
                trace_config=case.trace_config,
                prime_strategy=case.prime_strategy,
            )

        def violates_definition_2_1(program):
            # Equal contract traces, and micro-architectural traces that differ.
            contract = get_contract(violation.contract)
            emulator = Emulator(program, case.sandbox())
            return (
                emulator.contract_trace(violation.input_a, contract)
                == emulator.contract_trace(violation.input_b, contract)
                and violation.rerun(executor_factory(), program).diverges
            )

        assert violates_definition_2_1(violation.program)
        minimized = minimize_violation(
            violation,
            executor_factory,
            budget=MinimizationBudget(max_passes=1, max_candidates=None),
            shrink_inputs=False,
        ).program
        assert len(minimized) <= len(violation.program)
        assert violates_definition_2_1(minimized)
