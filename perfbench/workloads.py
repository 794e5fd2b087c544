"""The benchmark's workloads: fixed, seeded campaign budgets.

Every workload is a list of campaigns (one per defense) with a fixed program
budget, so each deterministic count (violations, signatures, coverage,
simulated statistics) repeats exactly for a given seed.  Each defense's
campaign seed is derived from the workload seed with
:func:`repro.core.seeding.derive_instance_seed`, so no two campaigns of a
workload share programs and the process-wide specialization cache gives no
campaign free compiles that a real one-defense campaign would not get.

This module is plain data; ``repro`` is only imported by
:meth:`Workload.configs` and :meth:`Workload.describe`, which run inside the
repetition process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

ONE_PAGE_DEFENSES = ("baseline", "invisispec", "cleanupspec", "speclfb")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs, and why it was chosen."""

    name: str
    why: str
    defenses: Tuple[str, ...]
    #: Programs per instance, per defense campaign.
    programs: int
    instances: int = 1
    inputs_per_program: int = 14
    boost_factor: int = 6
    #: Sandbox pages (None: the defense's recommendation).
    sandbox_pages: Optional[int] = 1
    filter: str = "none"
    strategy: str = "random"
    corpus_litmus: bool = False
    backend: str = "inline"
    workers: int = 1
    #: Largest self-time span the traced run should find (None: no claim).
    expected_dominant: Optional[str] = None
    #: Scheduler skip share the traced run should exceed (None: no claim).
    expected_skip_share: Optional[float] = None

    @property
    def pooled(self) -> bool:
        return self.backend == "process"

    def rounds_per_rep(self) -> int:
        """Rounds (programs) one repetition schedules across all campaigns."""
        return len(self.defenses) * self.instances * self.programs

    def configs(self, seed: int, variant: int = 0) -> List["object"]:
        """One :class:`~repro.core.config.FuzzerConfig` per defense campaign.

        ``variant`` selects another, equally sized campaign set for the same
        ``seed`` (repetitions of one run average over several).
        """
        from repro.core import FilterLevel, FuzzerConfig, derive_instance_seed
        from repro.feedback.strategy import GenerationStrategy

        return [
            FuzzerConfig(
                defense=defense,
                programs_per_instance=self.programs,
                inputs_per_program=self.inputs_per_program,
                boost_factor=self.boost_factor,
                sandbox_pages=self.sandbox_pages,
                filter=FilterLevel(self.filter),
                strategy=GenerationStrategy(self.strategy),
                corpus_litmus=self.corpus_litmus,
                seed=derive_instance_seed(seed, variant * len(self.defenses) + index),
            )
            for index, defense in enumerate(self.defenses)
        ]

    def describe(self, seed: int) -> Dict[str, object]:
        """Seed, budget, defenses, contract, sandbox, filter, strategy, backend."""
        from repro.core import resolve_contract_name
        from repro.defenses.registry import defense_class

        configs = self.configs(seed)
        payload = asdict(self)
        payload["seed"] = seed
        payload["campaign_seeds"] = [config.seed for config in configs]
        payload["contracts"] = sorted({resolve_contract_name(c) for c in configs})
        payload["sandbox_pages"] = sorted(
            {
                self.sandbox_pages
                or defense_class(defense).recommended_sandbox_pages
                for defense in self.defenses
            }
        )
        payload["rounds_per_rep"] = self.rounds_per_rep()
        return payload


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="stt-boosted",
            why=(
                "STT with a 128-page sandbox under ARCH-SEQ, boost 6: input "
                "boosting and materialization of 512 KiB inputs dominate"
            ),
            defenses=("stt",),
            programs=11,
            sandbox_pages=None,
            expected_dominant="generator.inputs.boost",
        ),
        Workload(
            name="wide-hybrid",
            why=(
                "boost 0, filter=speculation, hybrid strategy on a litmus-seeded "
                "corpus: the scheduler skips most simulations, exposing "
                "emulation, input materialization, mutation and feedback"
            ),
            defenses=ONE_PAGE_DEFENSES,
            programs=90,
            boost_factor=0,
            filter="speculation",
            strategy="hybrid",
            corpus_litmus=True,
            expected_skip_share=0.5,
        ),
        Workload(
            name="parallel",
            why=(
                "paper-default boosted campaigns (boost 6, 14 inputs) on four "
                "1-page defenses, 2 instances each on ProcessPoolBackend(workers=2): "
                "the O3 simulator dominates; the only workload that runs backends"
            ),
            defenses=ONE_PAGE_DEFENSES,
            programs=30,
            instances=2,
            backend="process",
            workers=2,
            expected_dominant="uarch.core",
        ),
    )
}
