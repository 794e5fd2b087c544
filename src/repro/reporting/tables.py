"""Plain-text table rendering in the style of the paper's result tables."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence


def _format_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "YES" if value else "NO"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str] | None = None) -> str:
    """Render a list of row dictionaries as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths: Dict[str, int] = {column: len(column) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [_format_value(row.get(column)) for column in columns]
        rendered_rows.append(rendered)
        for column, cell in zip(columns, rendered):
            widths[column] = max(widths[column], len(cell))
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for rendered in rendered_rows:
        lines.append(
            " | ".join(cell.ljust(widths[column]) for column, cell in zip(columns, rendered))
        )
    return "\n".join(lines)


def render_breakdown_table(
    breakdowns: Mapping[str, Mapping[str, Mapping[str, float]]]
) -> str:
    """Render Table-2-style time breakdowns.

    ``breakdowns`` maps a configuration label (e.g. "Naive", "Opt") to the
    output of :meth:`repro.executor.startup.Tally.breakdown`.
    """
    components: List[str] = []
    for breakdown in breakdowns.values():
        for component in breakdown:
            if component not in components:
                components.append(component)
    rows = []
    for component in components:
        row: Dict[str, object] = {"Component": component}
        for label, breakdown in breakdowns.items():
            entry = breakdown.get(component, {"seconds": 0.0, "percent": 0.0})
            row[label] = f"{entry['seconds']:.1f} s ({entry['percent']:.1f}%)"
        rows.append(row)
    total_row: Dict[str, object] = {"Component": "Total"}
    for label, breakdown in breakdowns.items():
        total = sum(entry["seconds"] for entry in breakdown.values())
        total_row[label] = f"{total:.1f} s (100%)"
    rows.append(total_row)
    return format_table(rows)


def rows_to_markdown(rows: Iterable[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Render rows as a GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    lines = ["| " + " | ".join(columns) + " |", "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_format_value(row.get(column)) for column in columns) + " |")
    return "\n".join(lines)


def render_conformance_table(reports) -> str:
    """Render generated conformance harness results, one row per check.

    ``reports`` is an iterable of
    :class:`~repro.defenses.conformance.ConformanceReport`; litmus rows come
    first (with their expectations), then one fast-forward == stepping row
    per variant, then one row per smoke campaign.
    """
    rows: List[Dict[str, object]] = []
    for report in reports:
        for check in report.litmus:
            rows.append(
                {
                    "defense": report.defense,
                    "check": f"litmus:{check.case}",
                    "variant": check.variant,
                    "violation": check.violation,
                    "expected": check.expected,
                    "ok": check.ok,
                }
            )
        for check in report.fast_forward:
            rows.append(
                {
                    "defense": report.defense,
                    "check": "fast-forward==stepping",
                    "variant": check.variant,
                    "violation": None,
                    "expected": None,
                    "ok": check.ok,
                }
            )
        for smoke in report.smoke:
            rows.append(
                {
                    "defense": report.defense,
                    "check": f"smoke:{smoke.contract}",
                    "variant": smoke.variant,
                    "violation": smoke.detected,
                    "expected": None,
                    "ok": True,
                }
            )
    return format_table(
        rows, ["defense", "check", "variant", "violation", "expected", "ok"]
    )


def render_triage_table(report) -> str:
    """Render a triage report's clusters as a paper-style text table.

    One row per unique-signature cluster: how many violations share the root
    cause, the representative's witness size before/after minimization, and
    the leaking access identified by first-divergence analysis.  ``report``
    is a :class:`~repro.triage.report.TriageReport` (typed loosely to keep
    this module dependency-free).
    """
    rows: List[Dict[str, object]] = []
    for cluster in report.clusters:
        entry = report.violations[cluster.representative]
        rows.append(
            {
                "cluster": f"x{cluster.size}",
                "defense": entry.defense,
                "contract": entry.contract,
                "reproduced": entry.reproduced,
                "instructions": (
                    f"{entry.original_instruction_count}"
                    f"->{entry.minimized_instruction_count}"
                    if entry.minimized_instruction_count is not None
                    else "-"
                ),
                "leaking_pc": (
                    f"{entry.leaking_pc:#x}" if entry.leaking_pc is not None else None
                ),
                "kind": entry.leaking_kind,
                "amplified": entry.amplification_level,
            }
        )
    return format_table(rows)
