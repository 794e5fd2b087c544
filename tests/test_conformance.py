"""The generated per-defense conformance harness."""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.defenses.base import Defense
from repro.defenses.conformance import (
    ConformanceReport,
    FastForwardCheck,
    LitmusCheck,
    build_harness,
    litmus_case_names,
    litmus_selection,
    main as conformance_main,
    run_litmus_checks,
    run_smoke_campaign,
)
from repro.defenses.registry import register_defense, unregister_defense
from repro.reporting import render_conformance_table

PLUGIN_DIR = Path(__file__).resolve().parent.parent / "examples" / "undospec_plugin"
if str(PLUGIN_DIR) not in sys.path:
    sys.path.insert(0, str(PLUGIN_DIR))

import undospec_plugin  # noqa: E402

ARTIFACT = (
    Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "artifacts"
    / "BENCH_case_studies_patched_variants.json"
)


class TestLitmusSelection:
    def test_builtin_selection_comes_from_the_spec_tags(self):
        selection = litmus_selection("cleanupspec")
        assert [s.case for s in selection] == [
            "cleanupspec_store",
            "cleanupspec_split",
            "cleanupspec_too_much_cleaning",
            "cleanupspec_unxpec",
        ]
        assert all(not s.borrowed for s in selection)
        # Expectations fall back to the case's own recorded outcomes.
        by_case = {s.case: s for s in selection}
        assert by_case["cleanupspec_store"].expect_violation is True
        assert by_case["cleanupspec_store"].expect_violation_patched is False
        assert by_case["cleanupspec_split"].expect_violation_patched is True

    def test_plugin_selection_marks_borrowed_cases(self):
        register_defense(undospec_plugin.UndoSpecDefense)
        try:
            selection = litmus_selection("undospec")
            assert all(s.borrowed for s in selection)
            by_case = {s.case: s for s in selection}
            # Borrowed cases carry the tag's explicit expectations, not the
            # ones recorded for CleanupSpec.
            assert by_case["cleanupspec_split"].expect_violation is False
        finally:
            unregister_defense("undospec")

    def test_spec_less_class_falls_back_to_directed_cases(self):
        class HandWritten(Defense):
            """A hand-written defense with no spec."""

            name = "handwritten"

        register_defense(HandWritten)
        try:
            assert litmus_selection("handwritten") == ()
            assert litmus_case_names("stt") == ("stt_store_tlb",)
        finally:
            unregister_defense("handwritten")


class TestLitmusChecks:
    def test_stt_ab_runs_both_variants(self):
        checks = run_litmus_checks("stt")
        assert [c.variant for c in checks] == ["buggy", "patched"]
        assert all(c.ok for c in checks)
        assert checks[0].violation is True
        assert checks[1].violation is False

    def test_baseline_has_no_patched_variant(self):
        checks = run_litmus_checks("baseline")
        assert {c.variant for c in checks} == {"buggy"}
        assert all(c.ok for c in checks)

    def test_patched_outcomes_match_recorded_artifact(self):
        """The A/B reproduces BENCH_case_studies_patched_variants.json."""
        recorded = {
            row["case"]: row["patched_violation"]
            for row in json.loads(ARTIFACT.read_text())["rows"]
        }
        seen = {}
        for name in ("invisispec", "cleanupspec", "stt", "speclfb"):
            for check in run_litmus_checks(name):
                if check.variant == "patched":
                    seen[check.case] = check.violation
        assert seen == recorded


class TestSmokeCampaign:
    def test_buggy_witnesses_and_patched_does_not(self):
        buggy = run_smoke_campaign("invisispec", programs=3, inputs_per_program=10)
        patched = run_smoke_campaign(
            "invisispec", patched=True, programs=3, inputs_per_program=10
        )
        assert buggy.detected
        assert not patched.detected
        assert buggy.contract == "CT-SEQ"
        assert buggy.test_cases > 0


class TestBuildHarness:
    def test_full_report_for_a_builtin(self):
        report = build_harness("speclfb", smoke_programs=3, smoke_inputs=10)
        assert report.ok
        assert report.has_spec and report.has_patch
        assert report.spec_lines is not None and report.spec_lines < 100
        assert report.table11_row["total_loc"] > 0
        variants = {smoke.variant for smoke in report.smoke}
        assert variants == {"buggy", "patched"}
        assert [check.variant for check in report.fast_forward] == ["buggy", "patched"]
        assert all(check.cases == len(report.litmus) // 2 for check in report.fast_forward)
        assert any("speclfb" in line for line in report.summary_lines())
        assert any(
            "fast-forward == stepping patched" in line for line in report.summary_lines()
        )

    def test_plugin_report_is_fully_generated(self):
        register_defense(undospec_plugin.UndoSpecDefense)
        try:
            report = build_harness("undospec", smoke=False)
            assert report.ok
            assert report.source == "api"
            # The acceptance bar: the plugin lands in <50 spec lines with a
            # generated harness, litmus selection and Table-11 row.
            assert report.spec_lines is not None and report.spec_lines < 50
            assert len(report.litmus) == 8  # 4 borrowed cases x 2 variants
            assert [check.cases for check in report.fast_forward] == [4, 4]
            assert report.table11_row["spec_loc"] == report.spec_lines
        finally:
            unregister_defense("undospec")

    def test_failures_are_reported_not_swallowed(self):
        report = ConformanceReport(
            defense="x",
            source="api",
            description="",
            contract="CT-SEQ",
            sandbox_pages=1,
            has_spec=True,
            has_patch=False,
            spec_lines=1,
            litmus=(
                LitmusCheck("a", "UV1", "buggy", violation=True, expected=False),
                LitmusCheck("b", "UV2", "buggy", violation=True, expected=True),
            ),
        )
        assert not report.ok
        assert [c.case for c in report.failures()] == ["a"]
        assert any("MISMATCH" in line for line in report.summary_lines())

    def test_fast_forward_mismatch_fails_the_report(self):
        mismatch = FastForwardCheck("buggy", cases=2, mismatches=("b",))
        report = ConformanceReport(
            defense="x",
            source="api",
            description="",
            contract="CT-SEQ",
            sandbox_pages=1,
            has_spec=True,
            has_patch=False,
            spec_lines=1,
            litmus=(LitmusCheck("b", "UV2", "buggy", violation=True, expected=True),),
            fast_forward=(mismatch,),
        )
        assert not report.ok
        assert report.failures() == (mismatch,)
        assert any(
            "fast-forward == stepping buggy: 2 litmus cases MISMATCH in b" in line
            for line in report.summary_lines()
        )

    def test_json_round_trip(self):
        report = build_harness("baseline", smoke=False)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["defense"] == "baseline"
        assert payload["ok"] is True
        assert payload["litmus"]
        assert payload["fast_forward"] == [
            {"variant": "buggy", "cases": 3, "mismatches": [], "ok": True}
        ]


class TestRendering:
    def test_render_conformance_table(self):
        report = build_harness("stt", smoke_programs=2, smoke_inputs=8)
        text = render_conformance_table([report])
        assert "litmus:stt_store_tlb" in text
        assert "smoke:ARCH-SEQ" in text
        assert "fast-forward==stepping" in text
        assert "buggy" in text and "patched" in text


class TestModuleMain:
    def test_main_runs_one_defense(self, capsys):
        exit_code = conformance_main(
            ["--defense", "baseline", "--programs", "2", "--inputs", "8"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "conformance baseline" in out

    def test_main_json_output(self, capsys):
        exit_code = conformance_main(["--defense", "stt", "--no-smoke", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["defense"] == "stt"
