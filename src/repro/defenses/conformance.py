"""Generated per-defense conformance harnesses.

FUTAG-style payoff of the declarative spec kit: once a defense is described
by a :class:`~repro.defenses.spec.DefenseSpec`, its validation harness does
not have to be hand-written.  :func:`build_harness` derives, from the spec
alone,

* the **litmus selection** — which directed cases to replay (the spec's
  :class:`~repro.defenses.spec.LitmusTag` entries, including cases borrowed
  from another defense's gadget library, with per-tag expectation
  overrides),
* the **patched-vs-buggy A/B** — every selected case runs against the
  original artifact and, when the spec's bug flags define a patched
  variant, against the patch, each checked against its expected outcome,
* a **fast-forward == stepping** check — every selected case, for each
  variant, replays once more on a :func:`stepping_class` copy of the defense
  that makes the core step every cycle; traces, statistics and the final
  L1I/L1D/L2 contents with their replacement state must match, which
  catches a wrong :meth:`~repro.defenses.base.Defense.next_tick` and any
  cache update the core's skip takes differently from stepping,
* a **recommended-contract smoke campaign** — a short randomized fuzzing
  campaign under the spec's recommended contract/sandbox/priming, run for
  both variants, and
* the **Table-11 row** — the integration-cost accounting counting the
  defense's *spec lines* rather than hand-written module lines.

Defenses registered without a spec (hand-written ``Defense`` subclasses)
still get a harness: litmus selection falls back to the cases directed at
their registry name and the A/B runs only when the class provides
``patched_bugs()``.

Run as a module for the CI conformance smoke::

    python -m repro.defenses.conformance            # every registered defense
    python -m repro.defenses.conformance --defense undospec --json
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.defenses.base import Defense
from repro.defenses.registry import create_defense, defense_class, registry

VARIANT_BUGGY = "buggy"
VARIANT_PATCHED = "patched"


@dataclass(frozen=True)
class SelectedCase:
    """One litmus case the harness replays for a defense."""

    case: str
    vulnerability: str
    #: The case targets a different defense's gadget (plugin reuse).
    borrowed: bool
    #: Expected outcome on the original artifact (None: informational only).
    expect_violation: Optional[bool]
    #: Expected outcome on the patched variant (None: informational only).
    expect_violation_patched: Optional[bool]


@dataclass(frozen=True)
class LitmusCheck:
    """Outcome of one (case, variant) litmus replay."""

    case: str
    vulnerability: str
    variant: str
    violation: bool
    expected: Optional[bool]
    borrowed: bool = False

    @property
    def ok(self) -> bool:
        return self.expected is None or self.violation == self.expected

    def as_row(self) -> Dict[str, object]:
        return {
            "case": self.case,
            "vulnerability": self.vulnerability,
            "variant": self.variant,
            "violation": self.violation,
            "expected": self.expected,
            "borrowed": self.borrowed,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class FastForwardCheck:
    """The selected litmus cases of one variant, fast-forwarded vs stepped."""

    variant: str
    cases: int
    #: Cases whose traces, statistics or final cache state differ between
    #: the two runs.
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_row(self) -> Dict[str, object]:
        return {
            "variant": self.variant,
            "cases": self.cases,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


@dataclass(frozen=True)
class SmokeResult:
    """Summary of one recommended-contract smoke campaign."""

    variant: str
    contract: str
    programs: int
    inputs_per_program: int
    seed: int
    test_cases: int
    violations: int
    unique_violations: int
    detected: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "variant": self.variant,
            "contract": self.contract,
            "programs": self.programs,
            "inputs_per_program": self.inputs_per_program,
            "seed": self.seed,
            "test_cases": self.test_cases,
            "violations": self.violations,
            "unique_violations": self.unique_violations,
            "detected": self.detected,
        }


@dataclass
class ConformanceReport:
    """Everything the generated harness learned about one defense."""

    defense: str
    source: str
    description: str
    contract: str
    sandbox_pages: int
    has_spec: bool
    has_patch: bool
    spec_lines: Optional[int]
    litmus: Tuple[LitmusCheck, ...] = ()
    fast_forward: Tuple[FastForwardCheck, ...] = ()
    smoke: Tuple[SmokeResult, ...] = ()
    table11_row: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> Tuple[object, ...]:
        """Failed litmus checks, then failed fast-forward checks."""
        return tuple(
            check for check in self.litmus + self.fast_forward if not check.ok
        )

    def summary_lines(self) -> Tuple[str, ...]:
        lines = [
            f"conformance {self.defense} [{self.source}]: "
            f"{'OK' if self.ok else 'FAILED'}",
            f"  contract={self.contract} sandbox_pages={self.sandbox_pages} "
            f"patched_variant={'yes' if self.has_patch else 'no'} "
            f"spec_lines={self.spec_lines if self.spec_lines is not None else '-'}",
        ]
        for check in self.litmus:
            expected = "-" if check.expected is None else str(check.expected)
            borrowed = " (borrowed)" if check.borrowed else ""
            lines.append(
                f"  litmus {check.case}{borrowed} [{check.vulnerability}] "
                f"{check.variant}: violation={check.violation} "
                f"expected={expected} {'ok' if check.ok else 'MISMATCH'}"
            )
        for check in self.fast_forward:
            outcome = (
                "ok" if check.ok else "MISMATCH in " + ", ".join(check.mismatches)
            )
            lines.append(
                f"  fast-forward == stepping {check.variant}: "
                f"{check.cases} litmus cases {outcome}"
            )
        for smoke in self.smoke:
            lines.append(
                f"  smoke  {smoke.variant} ({smoke.contract}): "
                f"{smoke.test_cases} test cases, "
                f"{smoke.unique_violations} unique violations"
            )
        if self.table11_row:
            row = self.table11_row
            lines.append(
                f"  table11 spec_loc={row.get('spec_loc')} "
                f"defense_model_loc={row.get('defense_model_loc')} "
                f"shared_loc={row.get('shared_loc')}"
            )
        return tuple(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "defense": self.defense,
            "source": self.source,
            "description": self.description,
            "contract": self.contract,
            "sandbox_pages": self.sandbox_pages,
            "has_spec": self.has_spec,
            "has_patch": self.has_patch,
            "spec_lines": self.spec_lines,
            "ok": self.ok,
            "litmus": [check.as_row() for check in self.litmus],
            "fast_forward": [check.as_row() for check in self.fast_forward],
            "smoke": [smoke.as_row() for smoke in self.smoke],
            "table11": self.table11_row,
        }


def litmus_selection(defense_name: str) -> Tuple[SelectedCase, ...]:
    """The litmus cases a defense's harness replays, resolved from its spec.

    Spec-declared :class:`LitmusTag` entries win; their expectation overrides
    apply, and a borrowed case (one directed at a different defense) carries
    no implicit expectation — the tag must state one for the check to become
    an assertion.  Without a spec, the cases directed at the defense's
    registry name are selected with their own recorded expectations.
    """
    from repro.litmus.cases import cases_for_defense, get_case

    cls = defense_class(defense_name)
    spec = getattr(cls, "SPEC", None)
    if spec is not None and spec.litmus:
        selections = []
        for tag in spec.litmus:
            case = get_case(tag.case)
            borrowed = case.defense != defense_name
            expect = tag.expect_violation
            expect_patched = tag.expect_violation_patched
            if not borrowed:
                if expect is None:
                    expect = case.expect_violation
                if expect_patched is None:
                    expect_patched = case.expect_violation_patched
            selections.append(
                SelectedCase(
                    case=case.name,
                    vulnerability=case.vulnerability,
                    borrowed=borrowed,
                    expect_violation=expect,
                    expect_violation_patched=expect_patched,
                )
            )
        return tuple(selections)
    return tuple(
        SelectedCase(
            case=case.name,
            vulnerability=case.vulnerability,
            borrowed=False,
            expect_violation=case.expect_violation,
            expect_violation_patched=case.expect_violation_patched,
        )
        for case in cases_for_defense(defense_name)
    )


def litmus_case_names(defense_name: str) -> Tuple[str, ...]:
    """Names of the defense's selected litmus cases (corpus seeding)."""
    return tuple(selection.case for selection in litmus_selection(defense_name))


def _has_patched_variant(cls) -> bool:
    factory = getattr(cls, "patched_bugs", None)
    if factory is None:
        return False
    patched = factory()
    if patched is None:
        return False
    spec = getattr(cls, "SPEC", None)
    if spec is not None:
        return spec.has_patch()
    return True


def _variants(defense_name: str) -> List[Tuple[str, bool]]:
    """(variant label, patched) pairs: buggy, plus patched when defined."""
    variants = [(VARIANT_BUGGY, False)]
    if _has_patched_variant(defense_class(defense_name)):
        variants.append((VARIANT_PATCHED, True))
    return variants


def run_litmus_checks(
    defense_name: str,
    selection: Optional[Sequence[SelectedCase]] = None,
) -> Tuple[LitmusCheck, ...]:
    """Replay the selected cases, buggy and (when defined) patched."""
    from repro.litmus.cases import get_case
    from repro.litmus.runner import run_case

    if selection is None:
        selection = litmus_selection(defense_name)
    variants = _variants(defense_name)
    checks: List[LitmusCheck] = []
    for selected in selection:
        case = get_case(selected.case)
        for variant, patched in variants:
            outcome = run_case(case, patched=patched, defense=defense_name)
            expected = (
                selected.expect_violation_patched
                if patched
                else selected.expect_violation
            )
            checks.append(
                LitmusCheck(
                    case=selected.case,
                    vulnerability=selected.vulnerability,
                    variant=variant,
                    violation=outcome.violation,
                    expected=expected,
                    borrowed=selected.borrowed,
                )
            )
    return tuple(checks)


@functools.lru_cache(maxsize=None)
def stepping_class(cls: Type[Defense]) -> Type[Defense]:
    """``cls``, with the core's idle-cycle fast-forward off: the oracle.

    Overriding ``tick`` turns the core's tick stage on even for a defense
    without one, and a ``next_tick`` of ``cycle + 1`` forbids every skip.
    The fast-forward only skips cycles in which nothing happens, so a
    stepping defense must produce exactly the same traces and statistics.
    """

    class Stepping(cls):
        def tick(self, cycle: int) -> None:
            super().tick(cycle)

        def next_tick(self, cycle: int) -> Optional[int]:
            return cycle + 1

    Stepping.__name__ = Stepping.__qualname__ = f"Stepping{cls.__name__}"
    return Stepping


def _create_stepping_defense(name: str, patched: bool = False, bugs=None) -> Defense:
    """:func:`~repro.defenses.registry.create_defense`, as its stepping class."""
    defense = create_defense(name, patched=patched, bugs=bugs)
    defense.__class__ = stepping_class(type(defense))
    return defense


def run_fast_forward_checks(
    defense_name: str,
    selection: Optional[Sequence[SelectedCase]] = None,
) -> Tuple[FastForwardCheck, ...]:
    """Replay the selected cases fast-forwarded and stepped; compare.

    Both runs must agree on the two inputs' traces and statistics and on the
    final L1I/L1D/L2 contents, replacement state included, of every core
    the case ran on.
    """
    from repro.litmus.cases import get_case
    from repro.litmus.runner import run_case

    if selection is None:
        selection = litmus_selection(defense_name)
    checks: List[FastForwardCheck] = []
    for variant, patched in _variants(defense_name):
        mismatches = []
        for selected in selection:
            case = get_case(selected.case)
            observed = []
            for factory in (create_defense, _create_stepping_defense):
                defenses: List[Defense] = []

                def capture(factory=factory) -> Defense:
                    defenses.append(factory(defense_name, patched=patched))
                    return defenses[-1]

                run = run_case(case, defense_factory=capture)
                caches = [
                    defense.core.memory.cache_state()
                    for defense in defenses
                    if defense.core is not None
                ]
                observed.append((run.trace_a, run.trace_b, run.stats, caches))
            if observed[0] != observed[1]:
                mismatches.append(selected.case)
        checks.append(
            FastForwardCheck(
                variant=variant, cases=len(selection), mismatches=tuple(mismatches)
            )
        )
    return tuple(checks)


def run_smoke_campaign(
    defense_name: str,
    *,
    patched: bool = False,
    programs: int = 4,
    inputs_per_program: int = 10,
    seed: int = 11,
) -> SmokeResult:
    """A short randomized campaign under the defense's recommendations."""
    from repro.core.campaign import Campaign
    from repro.core.config import FuzzerConfig

    cls = defense_class(defense_name)
    config = FuzzerConfig(
        defense=defense_name,
        patched=patched,
        programs_per_instance=programs,
        inputs_per_program=inputs_per_program,
        seed=seed,
    )
    result = Campaign(config, instances=1).run()
    return SmokeResult(
        variant=VARIANT_PATCHED if patched else VARIANT_BUGGY,
        contract=cls.recommended_contract,
        programs=programs,
        inputs_per_program=inputs_per_program,
        seed=seed,
        test_cases=sum(report.test_cases_executed for report in result.reports),
        violations=result.violation_count(),
        unique_violations=result.unique_violation_count(),
        detected=result.detected,
    )


def _table11_row(defense_name: str) -> Dict[str, object]:
    from repro.reporting.loc import count_defense_loc

    breakdown = count_defense_loc(defense_name)
    shared = (
        breakdown["spec_kit"]
        + breakdown["executor_plumbing"]
        + breakdown["trace_extraction"]
    )
    return {
        "defense": defense_name,
        "spec_loc": breakdown["spec_loc"],
        "defense_model_loc": breakdown["defense_model"],
        "spec_kit_loc": breakdown["spec_kit"],
        "executor_plumbing_loc": breakdown["executor_plumbing"],
        "trace_extraction_loc": breakdown["trace_extraction"],
        "shared_loc": shared,
        "total_loc": breakdown["defense_model"] + shared,
    }


def build_harness(
    defense_name: str,
    *,
    smoke: bool = True,
    smoke_programs: int = 4,
    smoke_inputs: int = 10,
    smoke_seed: int = 11,
) -> ConformanceReport:
    """Generate and execute the defense's conformance harness."""
    cls = defense_class(defense_name)
    spec = getattr(cls, "SPEC", None)
    selection = litmus_selection(defense_name)
    checks = run_litmus_checks(defense_name, selection)
    fast_forward = run_fast_forward_checks(defense_name, selection)
    has_patch = _has_patched_variant(cls)
    smoke_results: List[SmokeResult] = []
    if smoke:
        smoke_results.append(
            run_smoke_campaign(
                defense_name,
                patched=False,
                programs=smoke_programs,
                inputs_per_program=smoke_inputs,
                seed=smoke_seed,
            )
        )
        if has_patch:
            smoke_results.append(
                run_smoke_campaign(
                    defense_name,
                    patched=True,
                    programs=smoke_programs,
                    inputs_per_program=smoke_inputs,
                    seed=smoke_seed,
                )
            )
    table11 = _table11_row(defense_name)
    doc = (cls.__doc__ or "").strip().splitlines()
    description = doc[0] if doc else (spec.description if spec else "")
    return ConformanceReport(
        defense=defense_name,
        source=registry.source(defense_name),
        description=description,
        contract=cls.recommended_contract,
        sandbox_pages=cls.recommended_sandbox_pages,
        has_spec=spec is not None,
        has_patch=has_patch,
        spec_lines=table11["spec_loc"],
        litmus=checks,
        fast_forward=fast_forward,
        smoke=tuple(smoke_results),
        table11_row=table11,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.defenses.conformance",
        description="Run the generated conformance harness for registered defenses.",
    )
    parser.add_argument(
        "--defense",
        action="append",
        default=None,
        help="defense to check (repeatable; default: every registered defense)",
    )
    parser.add_argument("--no-smoke", dest="smoke", action="store_false")
    parser.add_argument("--programs", type=int, default=4, help="smoke campaign programs")
    parser.add_argument("--inputs", type=int, default=10, help="smoke inputs per program")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    from repro.defenses.registry import available_defenses

    names = args.defense or list(available_defenses())
    reports = [
        build_harness(
            name,
            smoke=args.smoke,
            smoke_programs=args.programs,
            smoke_inputs=args.inputs,
            smoke_seed=args.seed,
        )
        for name in names
    ]
    if args.json:
        print(json.dumps([report.to_json_dict() for report in reports], indent=2))
    else:
        for report in reports:
            for line in report.summary_lines():
                print(line)
    return 0 if all(report.ok for report in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
