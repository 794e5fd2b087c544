"""The end-to-end violation triage pipeline.

The paper's workflow does not end at detection (Section 3.3): every confirmed
violation is re-validated under a shared micro-architectural context, shrunk
to a minimal gadget, root-caused via the first diverging memory access, and
deduplicated by signature before being counted — the same shrink-then-cluster
loop Revizor and Scam-V use.  :class:`TriagePipeline` runs those four stages
over a campaign's violations:

1. **Re-validation** — rebuild the executor from the violation's recorded
   provenance (defense + ``patched`` flag + possibly amplified
   :class:`~repro.uarch.config.UarchConfig` + sandbox + priming) and re-run
   the witness pair from a shared context
   (:meth:`~repro.core.violation.Violation.rerun`).  Optionally, when the violation
   does not reappear, escalate through the Table-6 **amplification ladder**
   (fewer L1D ways / MSHRs) until it does or the ladder is exhausted.
2. **Minimization** — budgeted greedy instruction removal plus an input-pair
   shrink pass (:func:`~repro.core.minimize.minimize_violation`).
3. **Analysis** — re-run the minimized witness with the access-order trace
   and locate the first diverging access
   (:func:`~repro.core.analysis.analyze_violation`).
4. **Clustering** — deduplicate by signature through
   :class:`~repro.core.filtering.ViolationFilter`.

Stages 1–3 are independent per violation, so they fan out through the
:class:`~repro.backends.ExecutionBackend` abstraction: inline (deterministic,
the default) or across a process pool for large campaigns.  Both backends
produce identical reports (modulo wall-clock fields) for the same campaign.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.backends import ExecutionBackend, get_backend
from repro.core.amplification import DEFAULT_LADDER, AmplificationLevel
from repro.core.analysis import analyze_violation, compute_signature
from repro.core.campaign import CampaignResult
from repro.core.filtering import ViolationFilter
from repro.core.minimize import MinimizationBudget, minimize_violation
from repro.core.violation import Violation
from repro.triage.report import TriageCluster, TriagedViolation, TriageReport
from repro.uarch.config import UarchConfig


@dataclass(frozen=True)
class TriageConfig:
    """Knobs of the triage pipeline (picklable: shipped to worker processes)."""

    #: Escalate non-reproducing violations through the amplification ladder.
    amplify: bool = False
    #: The Table-6 ladder of increasingly amplified configurations.
    ladder: Tuple[AmplificationLevel, ...] = DEFAULT_LADDER
    #: Minimization budget.  The default keeps ``max_seconds`` at ``None`` so
    #: the explored candidate sequence — and therefore the minimized
    #: witness — is identical across backends and machines.
    budget: MinimizationBudget = MinimizationBudget()
    #: Run the input-pair shrink pass after instruction removal.
    shrink_inputs: bool = True


#: One fan-out work item: (violation index, violation, pipeline config).
TriageWorkItem = Tuple[int, Violation, TriageConfig]


def _revalidate(
    violation: Violation, config: TriageConfig
) -> Tuple[bool, Optional[str], int]:
    """Stage 1: shared-context re-validation with optional amplification.

    Returns ``(reproduced, detecting ladder level name or None, ladder levels
    tried)``.  Escalation stops at the first level that makes the violation
    reappear; the violation's provenance is updated to that configuration so
    the later minimization/analysis re-runs happen under it.
    """
    executor = violation.build_executor()
    rerun = violation.rerun(executor)
    if rerun.diverges:
        violation.adopt(rerun)
        return True, None, 0
    if not config.amplify:
        violation.validated = False
        return False, None, 0

    base = violation.uarch_config or UarchConfig()
    tried = [executor.uarch_config]
    levels_tried = 0
    for level in config.ladder:
        amplified = level.apply(base)
        if amplified in tried:
            continue  # identical to a configuration already re-run
        tried.append(amplified)
        levels_tried += 1
        rerun = violation.rerun(violation.build_executor(uarch_config=amplified))
        if rerun.diverges:
            violation.uarch_config = amplified
            violation.adopt(rerun)
            return True, level.name, levels_tried
    violation.validated = False
    return False, None, levels_tried


def _triage_work(item: TriageWorkItem) -> Tuple[TriagedViolation, Violation]:
    """Run stages 1–3 (re-validate, minimize, analyze) on one violation.

    Module-level so the process backend can pickle it; the violation travels
    with the item and all executor re-runs rebuild from its provenance.  The
    (possibly worker-local) violation is returned alongside the record: the
    stages mutate its evidence (validated flag, re-validated traces, shared
    contexts, escalated ``uarch_config``), and the pipeline must fold those
    mutations back into the caller's objects — a process-backend worker only
    ever touches a pickled copy.
    """
    index, violation, config = item
    triaged = TriagedViolation(
        index=index,
        defense=violation.defense,
        contract=violation.contract,
        original_instruction_count=len(violation.program),
    )
    timings: Dict[str, float] = {}

    started = time.perf_counter()
    reproduced, level_name, levels_tried = _revalidate(violation, config)
    timings["revalidate"] = time.perf_counter() - started
    triaged.reproduced = reproduced
    triaged.amplification_level = level_name
    triaged.amplification_levels_tried = levels_tried

    if reproduced:
        started = time.perf_counter()
        minimized = minimize_violation(
            violation, budget=config.budget, shrink_inputs=config.shrink_inputs
        )
        timings["minimize"] = time.perf_counter() - started
        triaged.minimized_instruction_count = len(minimized.program)
        triaged.minimized_program_asm = minimized.program.to_asm()
        triaged.minimized_program_dict = minimized.program.to_dict()
        triaged.minimized_inputs = (
            minimized.input_a.to_dict(),
            minimized.input_b.to_dict(),
        )
        triaged.removed_instructions = minimized.removed_instructions
        triaged.input_locations_shrunk = minimized.shrunk_locations
        triaged.input_locations_remaining = minimized.remaining_locations
        triaged.minimization_candidates = minimized.candidates_tried
        triaged.minimization_budget_exhausted = minimized.budget_exhausted

        started = time.perf_counter()
        witness = dataclasses.replace(
            violation,
            program=minimized.program,
            input_a=minimized.input_a,
            input_b=minimized.input_b,
        )
        analysis = analyze_violation(witness)
        timings["analyze"] = time.perf_counter() - started
        triaged.leaking_pc = analysis.leaking_pc
        triaged.leaking_kind = analysis.leaking_kind
        triaged.first_divergence_index = analysis.first_divergence_index

    # The clustering key reflects the re-validated evidence (stage 4 runs on
    # the caller's side, across violations).
    triaged.signature = compute_signature(violation)
    triaged.stage_seconds = timings
    return triaged, violation


def triage_one(item: TriageWorkItem) -> TriagedViolation:
    """Public per-violation triage entry point (mutates the given violation)."""
    triaged, _ = _triage_work(item)
    return triaged


class TriagePipeline:
    """Runs the detect→shrink→explain→dedup tail of a campaign."""

    def __init__(
        self,
        config: Optional[TriageConfig] = None,
        backend: Optional[Union[str, ExecutionBackend]] = None,
        workers: Optional[int] = None,
    ) -> None:
        self.config = config or TriageConfig()
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            name = backend
            if name is None:
                name = "process" if workers is not None and workers > 1 else "inline"
            self.backend = get_backend(name, workers=workers)

    def run(
        self, source: Union[CampaignResult, Sequence[Violation]]
    ) -> TriageReport:
        """Triage every confirmed violation of ``source``.

        ``source`` is a :class:`~repro.core.campaign.CampaignResult` (the
        report is then also attached as ``source.triage`` and embedded in its
        ``to_json_dict()``) or a plain sequence of violations.
        """
        campaign: Optional[CampaignResult] = None
        if isinstance(source, CampaignResult):
            campaign = source
            violations = list(source.violations)
        else:
            violations = list(source)

        started = time.perf_counter()
        items: List[TriageWorkItem] = [
            (index, violation, self.config)
            for index, violation in enumerate(violations)
        ]
        outcomes = self.backend.map_items(_triage_work, items)

        # Fold worker-side evidence mutations (validated flag, re-validated
        # traces/contexts, escalated uarch_config) back into the caller's
        # violation objects: a process-backend worker mutated a pickled copy,
        # and campaign state must not depend on the fan-out backend.
        triaged: List[TriagedViolation] = []
        for (entry, updated), violation in zip(outcomes, violations):
            if updated is not violation:
                violation.__dict__.update(updated.__dict__)
            triaged.append(entry)

        # Stage 4: signature clustering (needs the full result set, so it
        # runs on the caller's side, in violation order — deterministic
        # whatever the fan-out backend did).
        cluster_started = time.perf_counter()
        violation_filter = ViolationFilter()
        clusters: Dict[Tuple, TriageCluster] = {}
        ordered_clusters: List[TriageCluster] = []
        for entry, violation in zip(triaged, violations):
            violation.signature = entry.signature
            if violation_filter.is_new(violation):
                violation_filter.mark_known(violation)
                cluster = TriageCluster(
                    signature=entry.signature,
                    size=1,
                    representative=entry.index,
                    leaking_pc=entry.leaking_pc,
                    leaking_kind=entry.leaking_kind,
                )
                clusters[entry.signature] = cluster
                ordered_clusters.append(cluster)
            else:
                cluster = clusters[entry.signature]
                cluster.size += 1
                entry.duplicate_of = cluster.representative
        cluster_seconds = time.perf_counter() - cluster_started

        stage_seconds: Dict[str, float] = {}
        for entry in triaged:
            for stage, seconds in entry.stage_seconds.items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
        stage_seconds["cluster"] = cluster_seconds

        report = TriageReport(
            backend=self.backend.name,
            amplify=self.config.amplify,
            violations=triaged,
            clusters=ordered_clusters,
            suppressed_duplicates=violation_filter.suppressed,
            stage_seconds=stage_seconds,
            wall_clock_seconds=time.perf_counter() - started,
        )
        if campaign is not None:
            campaign.triage = report
        return report
