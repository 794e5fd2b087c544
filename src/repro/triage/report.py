"""Triage results: per-violation records, clusters, and the campaign report.

Everything here is plain data, deliberately backend-agnostic: a
:class:`TriagedViolation` is produced by one independent triage work item
(possibly in a worker process) and must therefore be picklable and carry all
evidence the report needs.  Wall-clock measurements live only in fields whose
names end in ``_seconds`` so consumers comparing reports across backends can
scrub them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class TriagedViolation:
    """Everything triage learned about one confirmed violation."""

    #: Position in the campaign's violation list (stable across backends).
    index: int
    defense: str
    contract: str
    #: Did the violation survive shared-context re-validation (possibly after
    #: amplification escalation)?
    reproduced: bool = False
    #: Name of the amplification ladder level that made the violation
    #: reappear; ``None`` when it reproduced under the as-found configuration
    #: (or never reproduced).
    amplification_level: Optional[str] = None
    #: Ladder levels re-run before the violation appeared (0 when the
    #: as-found configuration already reproduced or escalation was off).
    amplification_levels_tried: int = 0
    original_instruction_count: int = 0
    minimized_instruction_count: Optional[int] = None
    minimized_program_asm: Optional[str] = None
    #: Serialised minimized witness (program dict + ``Input.to_dict`` pair), so the
    #: feedback corpus can re-seed from triage output
    #: (:meth:`repro.core.campaign.CampaignResult.merged_corpus`).
    minimized_program_dict: Optional[Dict[str, object]] = None
    minimized_inputs: Tuple[Dict[str, object], ...] = ()
    removed_instructions: int = 0
    input_locations_shrunk: int = 0
    input_locations_remaining: int = 0
    minimization_candidates: int = 0
    minimization_budget_exhausted: bool = False
    #: PC / kind of the first diverging memory access (the transmitter).
    leaking_pc: Optional[int] = None
    leaking_kind: Optional[str] = None
    first_divergence_index: Optional[int] = None
    #: Deduplication signature (the clustering key).
    signature: Optional[Tuple] = None
    #: Index of the cluster representative when this violation's signature
    #: was already known; ``None`` for cluster representatives themselves.
    duplicate_of: Optional[int] = None
    #: Wall-clock seconds per stage ("revalidate", "minimize", "analyze").
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> Dict[str, object]:
        minimized = None
        if self.minimized_instruction_count is not None:
            minimized = {
                "instruction_count": self.minimized_instruction_count,
                "removed_instructions": self.removed_instructions,
                "program": self.minimized_program_asm,
                "input_locations_shrunk": self.input_locations_shrunk,
                "input_locations_remaining": self.input_locations_remaining,
                "candidates_tried": self.minimization_candidates,
                "budget_exhausted": self.minimization_budget_exhausted,
            }
        analysis = None
        if self.reproduced:
            analysis = {
                "leaking_pc": self.leaking_pc,
                "leaking_kind": self.leaking_kind,
                "first_divergence_index": self.first_divergence_index,
            }
        return {
            "index": self.index,
            "defense": self.defense,
            "contract": self.contract,
            "reproduced": self.reproduced,
            "amplification": {
                "level": self.amplification_level,
                "levels_tried": self.amplification_levels_tried,
            },
            "original_instruction_count": self.original_instruction_count,
            "minimized": minimized,
            "analysis": analysis,
            "signature": str(self.signature) if self.signature is not None else None,
            "duplicate_of": self.duplicate_of,
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in self.stage_seconds.items()
            },
        }


@dataclass
class TriageCluster:
    """One group of violations sharing a deduplication signature."""

    signature: Tuple
    size: int
    #: Index (into the triaged list) of the first violation with this
    #: signature; its minimized gadget/analysis represent the cluster.
    representative: int
    leaking_pc: Optional[int] = None
    leaking_kind: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "signature": str(self.signature),
            "size": self.size,
            "representative": self.representative,
            "leaking_pc": self.leaking_pc,
            "leaking_kind": self.leaking_kind,
        }


@dataclass
class TriageReport:
    """Aggregated triage outcome for one campaign."""

    backend: str
    amplify: bool
    violations: List[TriagedViolation] = field(default_factory=list)
    clusters: List[TriageCluster] = field(default_factory=list)
    #: Violations suppressed by the signature filter (duplicates).
    suppressed_duplicates: int = 0
    #: Summed wall-clock seconds per stage across all triaged violations.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    @property
    def reproduced_count(self) -> int:
        return sum(1 for entry in self.violations if entry.reproduced)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "amplify": self.amplify,
            "violations_triaged": len(self.violations),
            "reproduced": self.reproduced_count,
            "unique_clusters": len(self.clusters),
            "suppressed_duplicates": self.suppressed_duplicates,
            "clusters": [cluster.to_json_dict() for cluster in self.clusters],
            "violations": [entry.to_json_dict() for entry in self.violations],
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in self.stage_seconds.items()
            },
            "wall_clock_seconds": round(self.wall_clock_seconds, 3),
        }

    def summary_lines(self, asm_limit: int = 1) -> List[str]:
        """Human-readable triage summary for the CLI's table output."""
        lines = [
            f"triage ({self.backend} backend): "
            f"{len(self.violations)} violation(s) -> "
            f"{self.reproduced_count} reproduced, "
            f"{len(self.clusters)} unique cluster(s), "
            f"{self.suppressed_duplicates} duplicate(s) suppressed"
        ]
        shown_asm = 0
        for cluster in self.clusters:
            entry = self.violations[cluster.representative]
            pc = f"{entry.leaking_pc:#x}" if entry.leaking_pc is not None else "-"
            size = (
                f"{entry.minimized_instruction_count}/{entry.original_instruction_count}"
                if entry.minimized_instruction_count is not None
                else "-"
            )
            level = (
                f" amplified@{entry.amplification_level}"
                if entry.amplification_level
                else ""
            )
            lines.append(
                f"  x{cluster.size:<3} [{entry.defense}/{entry.contract}] "
                f"leaking_pc={pc} kind={entry.leaking_kind or '-'} "
                f"instructions={size}{level}"
            )
            if entry.minimized_program_asm and shown_asm < asm_limit:
                shown_asm += 1
                lines.append("    minimized gadget:")
                lines.extend(
                    "      " + asm_line
                    for asm_line in entry.minimized_program_asm.splitlines()
                )
        return lines
