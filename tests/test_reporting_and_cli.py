"""Tests for reporting utilities, the experiment registry and the CLI."""

import importlib.util
import os
import textwrap

import pytest

from repro.cli import build_parser, main
from repro.reporting import (
    EXPERIMENTS,
    count_defense_loc,
    format_table,
    get_experiment,
    loc_table,
    render_breakdown_table,
)
from repro.reporting.loc import _count_module_loc
from repro.reporting.tables import rows_to_markdown


class TestTables:
    def test_format_table_alignment_and_values(self):
        rows = [
            {"defense": "baseline", "detected": True, "time": 1.5},
            {"defense": "stt", "detected": False, "time": None},
        ]
        text = format_table(rows)
        assert "defense" in text.splitlines()[0]
        assert "YES" in text and "NO" in text
        assert "-" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_breakdown_table_has_total_row(self):
        breakdowns = {
            "Naive": {"gem5 startup": {"seconds": 90.0, "percent": 90.0}, "gem5 simulate": {"seconds": 10.0, "percent": 10.0}},
            "Opt": {"gem5 startup": {"seconds": 1.0, "percent": 10.0}, "gem5 simulate": {"seconds": 9.0, "percent": 90.0}},
        }
        text = render_breakdown_table(breakdowns)
        assert "Total" in text
        assert "Naive" in text and "Opt" in text

    def test_rows_to_markdown(self):
        text = rows_to_markdown([{"a": 1, "b": 2}], ["a", "b"])
        assert text.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in text


class TestLocAccounting:
    def test_every_defense_has_a_nonzero_breakdown(self):
        for row in loc_table():
            assert row["defense_model_loc"] > 0
            assert row["spec_kit_loc"] > 0
            assert row["executor_plumbing_loc"] > 0
            assert row["trace_extraction_loc"] > 0
            assert row["total_loc"] == (
                row["defense_model_loc"]
                + row["spec_kit_loc"]
                + row["executor_plumbing_loc"]
                + row["trace_extraction_loc"]
            )

    def test_module_counter_skips_docstrings_comments_and_blanks(self, tmp_path):
        """Pins the counter behind Table 11: every docstring shape ends where
        its closing quotes end, whether they close the opening line, end a
        text line or stand alone."""
        path = tmp_path / "counted.py"
        path.write_text(
            textwrap.dedent(
                '''\
                """A module docstring on one line."""

                import os  # counted: 1


                def multi_line():  # 2
                    """A docstring whose
                    closing quotes end a text line."""
                    # a comment
                    value = os.sep  # 3
                    """
                    A docstring whose closing quotes stand alone.
                    """
                    return value  # 4


                def single_quoted():  # 5
                    \'\'\'One line.\'\'\'
                    return 2  # 6
                '''
            )
        )
        spec = importlib.util.spec_from_file_location("counted", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert _count_module_loc(module) == 6

    def test_defense_model_is_the_smaller_part(self):
        """Most integration code is shared plumbing, as in the paper."""
        breakdown = count_defense_loc("invisispec")
        shared = (
            breakdown["spec_kit"]
            + breakdown["executor_plumbing"]
            + breakdown["trace_extraction"]
        )
        assert breakdown["defense_model"] < shared

    def test_spec_declarations_are_small(self):
        """Every built-in countermeasure's spec declaration is <100 lines."""
        for row in loc_table():
            assert row["spec_loc"] is not None
            assert 0 < row["spec_loc"] < 100
            assert row["spec_loc"] <= row["defense_model_loc"]


class TestExperimentRegistry:
    def test_every_major_table_is_registered(self):
        identifiers = {experiment.identifier for experiment in EXPERIMENTS}
        assert {"table2", "table3", "table4", "table5", "table6", "table8", "table11"} <= identifiers

    def test_every_bench_target_exists_on_disk(self):
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        for experiment in EXPERIMENTS:
            assert os.path.exists(os.path.join(repo_root, experiment.bench_target)), (
                f"{experiment.identifier} points at a missing bench file"
            )

    def test_lookup(self):
        assert get_experiment("table4").title.startswith("Defense campaigns")
        with pytest.raises(KeyError):
            get_experiment("table99")


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.defense == "baseline"
        assert args.programs == 10

    def test_cli_runs_a_tiny_campaign(self, capsys):
        exit_code = main(
            [
                "--defense",
                "baseline",
                "--programs",
                "4",
                "--inputs",
                "14",
                "--seed",
                "3",
                "--stop-on-violation",
            ]
        )
        captured = capsys.readouterr()
        assert "campaign summary" in captured.out
        assert exit_code in (0, 1)

    def test_cli_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--defense", "bogus"])

    def test_cli_describe_defense_prints_the_full_spec(self, capsys):
        exit_code = main(["--describe-defense", "cleanupspec"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "bug flags" in out
        assert "UV3" in out and "patched variant sets False" in out
        assert "UV4" in out and "not addressed by the patch" in out
        assert "prime_strategy    : flush" in out
        assert "event policy" in out
        assert "litmus cases" in out
        assert "source            : builtin" in out

    def test_cli_describe_defense_rejects_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--describe-defense", "securespec9000"])
        assert excinfo.value.code == 2
        assert "unknown defense" in capsys.readouterr().err

    def test_cli_amplification_flags(self, capsys):
        exit_code = main(
            [
                "--defense",
                "invisispec",
                "--patched",
                "--programs",
                "2",
                "--inputs",
                "7",
                "--l1d-ways",
                "2",
                "--mshrs",
                "2",
            ]
        )
        assert exit_code in (0, 1)
        assert "campaign summary" in capsys.readouterr().out
