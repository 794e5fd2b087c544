"""Tests for the triage pipeline and the re-run fidelity fixes it exposed."""

import pytest

from repro.core import Campaign, FuzzerConfig
from repro.core.amplification import DEFAULT_LADDER
from repro.core.analysis import analyze_violation
from repro.core.minimize import MinimizationBudget, minimize_violation
from repro.core.violation import Rerun, Violation
from repro.defenses.registry import create_defense
from repro.executor.executor import ExecutionMode, PrimeStrategy, SimulatorExecutor
from repro.executor.traces import L1D_ONLY_TRACE
from repro.litmus import all_cases, get_case, run_case
from repro.isa.registers import INPUT_REGISTERS, SCRATCH_REGISTERS
from repro.model.contracts import get_contract
from repro.model.emulator import ContractTrace, Emulator
from repro.triage import TriageConfig, TriagePipeline, triage_one
from repro.triage.pipeline import _revalidate
from repro.uarch.config import UarchConfig


@pytest.fixture(scope="module")
def baseline_campaign():
    """A small campaign that finds one confirmed violation (seed-pinned)."""
    config = FuzzerConfig(
        defense="baseline",
        programs_per_instance=20,
        inputs_per_program=14,
        seed=3,
        stop_on_violation=True,
    )
    result = Campaign(config, instances=1).run()
    assert result.detected
    return result


def _scrub(payload):
    """Drop wall-clock and backend-identity fields for cross-backend compares."""
    if isinstance(payload, dict):
        return {
            key: _scrub(value)
            for key, value in payload.items()
            if not key.endswith("_seconds")
            and not key.endswith("_per_second")
            and key != "backend"
        }
    if isinstance(payload, list):
        return [_scrub(value) for value in payload]
    return payload


class TestProvenance:
    def test_fuzzer_records_provenance_on_violations(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        assert violation.patched is False
        assert violation.uarch_config is not None
        assert violation.sandbox_pages is not None
        assert violation.prime_strategy == "fill"
        assert violation.mode == "opt"
        assert violation.trace_config_name == "l1d+tlb"

    def test_build_executor_honours_patched_and_amplified_config(self):
        """Regression: ``analyze_violation`` used to rebuild the executor from
        the bare defense name, silently dropping the ``patched`` flag and the
        amplified :class:`UarchConfig` the violation was found under."""
        amplified = UarchConfig().with_amplification(l1d_ways=2, mshrs=2)
        violation = Violation(
            program=get_case("spectre_v1").build()[0],
            defense="invisispec",
            contract="CT-SEQ",
            input_a=None,
            input_b=None,
            trace_a=None,
            trace_b=None,
            contract_trace=ContractTrace(observations=()),
            patched=True,
            uarch_config=amplified,
            sandbox_pages=4,
            prime_strategy="fill",
            mode="naive",
            trace_config_name="l1d-only",
        )
        executor = violation.build_executor()
        assert executor.uarch_config == amplified
        assert executor.sandbox.pages == 4
        assert executor.mode is ExecutionMode.NAIVE
        assert executor.prime_strategy is PrimeStrategy.FILL
        assert executor.trace_config.name == "l1d-only"
        # The patched flag must survive the rebuild.
        rebuilt_defense = executor.defense_factory()
        patched_reference = create_defense("invisispec", patched=True)
        unpatched_reference = create_defense("invisispec")
        assert rebuilt_defense.bugs == patched_reference.bugs
        assert rebuilt_defense.bugs != unpatched_reference.bugs
        # Overrides swap single aspects without touching the rest.
        override = violation.build_executor(trace_config=L1D_ONLY_TRACE)
        assert override.uarch_config == amplified

    def test_analyze_violation_rebuilds_from_provenance(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        analysis = analyze_violation(violation)  # no executor passed
        assert analysis.first_divergence_index is not None
        assert analysis.leaking_pc is not None

    def test_validation_updates_both_contexts(self, baseline_campaign):
        """Regression: the fuzzer's validation used to leave
        ``uarch_context_b`` stale after re-collecting traces under a shared
        context, handing downstream stages a mismatched context pair."""
        for violation in baseline_campaign.violations:
            assert violation.validated
            assert violation.uarch_context == violation.uarch_context_b


class TestMinimization:
    def test_minimized_witness_still_violates_definition_2_1(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        result = minimize_violation(
            violation, budget=MinimizationBudget(max_passes=2, max_candidates=128)
        )
        assert len(result.program) < len(violation.program)
        assert result.removed_instructions > 0
        # The shrunk witness (program AND input pair) must still reproduce:
        # equal contract traces, and micro-architectural traces that differ.
        executor = violation.build_executor()
        contract = get_contract(violation.contract)
        emulator = Emulator(result.program, executor.sandbox)
        assert emulator.contract_trace(result.input_a, contract) == (
            emulator.contract_trace(result.input_b, contract)
        )
        assert violation.rerun(
            executor, result.program, result.input_a, result.input_b
        ).diverges

    def test_input_pair_shrink_reduces_differing_locations(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        result = minimize_violation(
            violation, budget=MinimizationBudget(max_passes=1, max_candidates=256)
        )
        assert result.shrunk_locations > 0

    def test_candidate_budget_is_respected(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        result = minimize_violation(
            violation, budget=MinimizationBudget(max_candidates=5)
        )
        assert result.candidates_tried <= 5
        assert result.budget_exhausted

    def test_minimizer_builds_one_executor(self):
        """Regression: the minimizer's reproduce check used to construct a
        throwaway executor just to borrow its sandbox (two factory calls per
        check); one executor now serves every candidate."""
        case = get_case("spectre_v1")
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
        violation = Violation(
            program=program,
            defense=case.defense,
            contract=case.contract,
            input_a=input_a,
            input_b=input_b,
            trace_a=record_a.trace,
            trace_b=record_b.trace,
            contract_trace=ContractTrace(observations=()),
            uarch_context=record_a.uarch_context,
        )
        calls = []

        def counting_factory():
            calls.append(1)
            return SimulatorExecutor(
                defense_factory=lambda: create_defense(case.defense),
                uarch_config=case.uarch_config,
                sandbox=sandbox,
                trace_config=case.trace_config,
                prime_strategy=case.prime_strategy,
            )

        assert violation.rerun(counting_factory()).diverges
        calls.clear()
        result = minimize_violation(
            violation, counting_factory, budget=MinimizationBudget(max_candidates=4)
        )
        assert result.candidates_tried == 4
        assert len(calls) == 1


def _non_diverging_rerun(checked_violation, executor):
    return Rerun(checked_violation.trace_a, checked_violation.trace_a, None)


def _context_less_witness(case, patched):
    """A litmus pair as a violation that recorded no context, and the litmus
    runner's verdict on it."""
    outcome = run_case(case, patched=patched)
    program, input_a, input_b = case.build()
    witness = Violation(
        program=program,
        defense=case.defense,
        contract=case.contract,
        input_a=input_a,
        input_b=input_b,
        trace_a=outcome.trace_a,
        trace_b=outcome.trace_b,
        contract_trace=ContractTrace(observations=()),
        patched=patched,
        uarch_config=case.uarch_config,
        sandbox_pages=case.sandbox().pages,
        prime_strategy=case.prime_strategy,
        trace_config_name=case.trace_config.name,
    )
    return witness, outcome.violation


_LITMUS_VARIANTS = [
    pytest.param(case, patched, id=f"{case.name}-{variant}")
    for case in all_cases()
    for patched, variant in ((False, "buggy"), (True, "patched"))
]


class TestOneRerunRule:
    @pytest.mark.parametrize("case, patched", _LITMUS_VARIANTS)
    def test_context_less_witness_verdicts_match_the_litmus_runner(self, case, patched):
        """Regression: with no recorded context, triage and the minimizer ran
        input b from the predictor state input a left behind, so the patched
        ``invisispec_eviction``, ``stt_store_tlb`` and ``speclfb_first_load``
        pairs re-validated as leaks the litmus runner does not report."""
        witness, leaks = _context_less_witness(case, patched)
        assert _revalidate(witness, TriageConfig()) == (leaks, None, 0)
        assert witness.validated is leaks

        witness, _ = _context_less_witness(case, patched)
        # The minimizer's reproduce check on the unshrunk witness, repeated on
        # one executor: each re-run starts from a fresh core, not from the
        # state the previous re-run left behind ...
        executor = witness.build_executor()
        assert [witness.rerun(executor).diverges for _ in range(3)] == [leaks] * 3
        # ... and on its candidates: a clean pair has none that reproduce.
        result = minimize_violation(
            witness, budget=MinimizationBudget(max_passes=1, max_candidates=8)
        )
        if leaks:
            assert witness.rerun(
                witness.build_executor(), result.program, result.input_a, result.input_b
            ).diverges
        else:
            assert result.removed_instructions == 0
            assert result.shrunk_locations == 0

    @pytest.mark.parametrize("case, patched", _LITMUS_VARIANTS)
    def test_input_pair_pass_over_a_context_less_witness(self, case, patched):
        """The input-pair pass checks every candidate against one program on
        one executor.  Input b also differs from input a in registers the
        gadget never reads: a leaking pair sheds all of them and keeps its
        secret; a clean pair has no candidate that reproduces."""
        witness, leaks = _context_less_witness(case, patched)
        asm = witness.program.to_asm()
        unread = [
            r for r in INPUT_REGISTERS + SCRATCH_REGISTERS if r.upper() not in asm
        ]
        assert unread
        for name, value in (("input_a", 0), ("input_b", 0x40)):
            test_input = getattr(witness, name)
            registers = {**test_input.register_dict(), **dict.fromkeys(unread, value)}
            setattr(witness, name, test_input.with_registers(registers))
        result = minimize_violation(
            witness, budget=MinimizationBudget(max_passes=0, max_candidates=None)
        )
        assert result.candidates_tried == len(unread) + 1
        assert result.shrunk_locations == (len(unread) if leaks else 0)
        assert result.remaining_locations == (1 if leaks else len(unread) + 1)

    @pytest.mark.parametrize(
        "defense", ["baseline", "invisispec", "cleanupspec", "stt", "speclfb"]
    )
    def test_campaign_violations_revalidate_without_amplification(self, defense):
        config = FuzzerConfig(defense=defense, programs_per_instance=10, seed=4)
        result = Campaign(config, instances=1).run()
        assert result.violations
        for violation in result.violations:
            assert _revalidate(violation, TriageConfig()) == (True, None, 0)
            assert violation.uarch_context is violation.uarch_context_b

    def test_rerun_does_not_mutate_and_adopt_takes_the_evidence(self, baseline_campaign):
        import dataclasses

        violation = dataclasses.replace(baseline_campaign.violations[0], validated=None)
        before = dict(violation.__dict__)
        rerun = violation.rerun(violation.build_executor())
        assert rerun.diverges
        assert violation.__dict__ == before
        violation.adopt(rerun)
        assert (violation.trace_a, violation.trace_b) == (rerun.trace_a, rerun.trace_b)
        assert violation.uarch_context is rerun.context
        assert violation.uarch_context_b is rerun.context
        assert violation.validated is True


class TestAmplificationEscalation:
    def _unreproducible_violation(self):
        from repro.executor.traces import UarchTrace

        program = get_case("spectre_v1").build()[0]
        return Violation(
            program=program,
            defense="baseline",
            contract="CT-SEQ",
            input_a=None,
            input_b=None,
            trace_a=UarchTrace(components=(("l1d", (1,)),)),
            trace_b=UarchTrace(components=(("l1d", (2,)),)),
            contract_trace=ContractTrace(observations=()),
            sandbox_pages=1,
            mode="opt",
            prime_strategy="fill",
            trace_config_name="l1d+tlb",
        )

    def test_escalation_stops_at_the_first_detecting_level(self, monkeypatch):
        violation = self._unreproducible_violation()
        detecting = DEFAULT_LADDER[1].apply(UarchConfig())  # 2-way L1D
        tried_configs = []

        def fake_rerun(checked_violation, executor):
            tried_configs.append(executor.uarch_config)
            if executor.uarch_config == detecting:
                return Rerun(checked_violation.trace_a, checked_violation.trace_b, None)
            return Rerun(checked_violation.trace_a, checked_violation.trace_a, None)

        monkeypatch.setattr(Violation, "rerun", fake_rerun)
        reproduced, level, levels_tried = _revalidate(
            violation, TriageConfig(amplify=True)
        )
        assert reproduced
        assert level == DEFAULT_LADDER[1].name
        assert levels_tried == 1
        # The as-found config, then exactly one ladder level — never the
        # deeper "2-way L1D + 2 MSHRs" level.
        assert tried_configs == [UarchConfig(), detecting]
        # Provenance now points at the detecting configuration.
        assert violation.uarch_config == detecting

    def test_exhausted_ladder_reports_no_reproduction(self, monkeypatch):
        violation = self._unreproducible_violation()
        monkeypatch.setattr(Violation, "rerun", _non_diverging_rerun)
        reproduced, level, levels_tried = _revalidate(
            violation, TriageConfig(amplify=True)
        )
        assert not reproduced
        assert level is None
        # The ladder's "default" level duplicates the as-found configuration
        # and is skipped; the two genuinely amplified levels are re-run.
        assert levels_tried == len(DEFAULT_LADDER) - 1
        assert violation.validated is False

    def test_no_amplify_means_no_escalation(self, monkeypatch):
        violation = self._unreproducible_violation()
        monkeypatch.setattr(Violation, "rerun", _non_diverging_rerun)
        reproduced, level, levels_tried = _revalidate(violation, TriageConfig())
        assert not reproduced
        assert levels_tried == 0


class TestPipeline:
    def _campaign(self):
        config = FuzzerConfig(
            defense="baseline",
            programs_per_instance=20,
            inputs_per_program=14,
            seed=3,
            stop_on_violation=True,
        )
        result = Campaign(config, instances=1).run()
        assert result.detected
        return result

    def test_process_backend_propagates_violation_mutations(self):
        """Regression: with >= 2 work items the process backend triages
        pickled copies, and worker-side mutations (here: ``validated`` going
        False for a violation that no longer reproduces) used to be silently
        discarded, leaving caller-visible campaign state backend-dependent."""
        import dataclasses

        result = self._campaign()
        original = result.violations[0]
        # A pair whose two "witnesses" are the same input can never
        # reproduce: the traces are trivially equal under any context.
        broken = [
            dataclasses.replace(original, input_b=original.input_a, validated=True)
            for _ in range(2)
        ]
        report = TriagePipeline(
            config=TriageConfig(budget=MinimizationBudget(max_candidates=8)),
            workers=2,
        ).run(broken)
        assert report.backend == "process"
        assert [entry.reproduced for entry in report.violations] == [False, False]
        assert [violation.validated for violation in broken] == [False, False]

    def test_reports_identical_across_inline_and_process_backends(self):
        triage_config = TriageConfig(budget=MinimizationBudget(max_passes=2, max_candidates=96))
        inline_result = self._campaign()
        process_result = self._campaign()
        inline_report = TriagePipeline(config=triage_config).run(inline_result)
        process_report = TriagePipeline(config=triage_config, workers=2).run(
            process_result
        )
        assert inline_report.backend == "inline"
        assert process_report.backend == "process"
        assert _scrub(inline_report.to_json_dict()) == _scrub(
            process_report.to_json_dict()
        )
        # Cluster signatures also match the campaign-level deduplication keys.
        assert [c.signature for c in inline_report.clusters] == [
            c.signature for c in process_report.clusters
        ]

    def test_report_is_embedded_in_campaign_json(self):
        result = self._campaign()
        report = TriagePipeline(config=TriageConfig(budget=MinimizationBudget(max_candidates=48))).run(result)
        assert result.triage is report
        payload = result.to_json_dict()
        assert payload["triage"]["violations_triaged"] == len(report.violations)
        first = payload["triage"]["violations"][0]
        assert first["minimized"]["instruction_count"] < first["original_instruction_count"]
        assert first["analysis"]["leaking_pc"] is not None
        assert payload["triage"]["clusters"]
        assert report.summary_lines()

    def test_render_triage_table_lists_clusters(self, baseline_campaign):
        from repro.reporting import render_triage_table

        report = TriagePipeline(config=TriageConfig(budget=MinimizationBudget(max_candidates=32))).run(
            list(baseline_campaign.violations)
        )
        table = render_triage_table(report)
        assert "leaking_pc" in table
        assert "baseline" in table

    def test_duplicate_signatures_cluster_together(self, baseline_campaign):
        violation = baseline_campaign.violations[0]
        triage_config = TriageConfig(budget=MinimizationBudget(max_candidates=32))
        entry = triage_one((0, violation, triage_config))
        twin = triage_one((1, violation, triage_config))
        report = TriagePipeline(config=triage_config).run([])
        assert report.violations == [] and report.clusters == []
        # Cluster the two triaged twins through a fresh pipeline run.
        pipeline = TriagePipeline(config=triage_config)
        clustered = pipeline.run([violation, violation])
        assert len(clustered.clusters) == 1
        assert clustered.clusters[0].size == 2
        assert clustered.suppressed_duplicates == 1
        assert clustered.violations[1].duplicate_of == clustered.violations[0].index
        assert entry.signature == twin.signature


class TestCli:
    def test_cli_triage_json_payload(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--defense",
                "baseline",
                "--programs",
                "20",
                "--seed",
                "3",
                "--stop-on-violation",
                "--triage",
                "--json",
            ]
        )
        import json

        payload = json.loads(capsys.readouterr().out)
        assert code == 1  # violations found
        triage = payload["triage"]
        assert triage["violations_triaged"] >= 1
        first = triage["violations"][0]
        assert first["reproduced"]
        assert first["minimized"]["instruction_count"] < first["original_instruction_count"]
        assert first["analysis"]["leaking_pc"] is not None
        assert triage["clusters"]

    def test_cli_triage_table_output(self, capsys):
        from repro.cli import main

        code = main(
            [
                "--defense",
                "baseline",
                "--programs",
                "20",
                "--seed",
                "3",
                "--stop-on-violation",
                "--triage",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "triage (inline backend)" in out
        assert "leaking_pc=" in out
        assert "minimized gadget:" in out
