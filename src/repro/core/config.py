"""Configuration of a fuzzing instance / campaign."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.executor.executor import ExecutionMode, PrimeStrategy
from repro.executor.traces import BASELINE_TRACE, TraceConfig
from repro.feedback.strategy import GenerationStrategy
from repro.generator.config import GeneratorConfig
from repro.core.scheduler import FilterLevel
from repro.uarch.config import UarchConfig


@dataclass
class FuzzerConfig:
    """Everything one AMuLeT instance needs to run a testing campaign.

    The paper's full-scale campaigns use 100 parallel instances, each running
    200 programs with 140 inputs per program.  The defaults here are small so
    tests and benchmarks finish quickly; the benchmark harness scales them up
    per experiment.
    """

    #: Which target to test ("baseline", "invisispec", "cleanupspec", "stt",
    #: "speclfb").
    defense: str = "baseline"
    #: Apply the paper's implementation-bug patches to the defense.
    patched: bool = False
    #: Leakage contract to test against (defaults to the defense's
    #: recommendation when None).
    contract: Optional[str] = None
    #: Number of test programs per instance.
    programs_per_instance: int = 10
    #: Total inputs per program (base inputs plus boosted variants).
    inputs_per_program: int = 14
    #: Contract-preserving variants derived from each base input.
    boost_factor: int = 6
    #: Sandbox size in 4 KiB pages (defaults to the defense's recommendation).
    sandbox_pages: Optional[int] = None
    #: Executor mode (Opt amortises simulator start-up across inputs).
    mode: ExecutionMode = ExecutionMode.OPT
    #: Cache priming strategy (defaults to the defense's recommendation).
    prime_strategy: Optional[PrimeStrategy] = None
    #: Execution-scheduler filter level ("none", "singleton", "speculation"):
    #: how aggressively the round pipeline skips the O3 simulation of entries
    #: that can never witness a Definition 2.1 violation.  The default
    #: preserves seed behavior (simulate everything); benchmarks and the CLI
    #: opt in explicitly.  See :mod:`repro.core.scheduler`.
    filter: FilterLevel = FilterLevel.NONE
    #: Run each test program on per-instruction specialized ``evaluate``
    #: closures (shared by the functional emulator and the O3 core).
    #: ``False`` (the CLI's ``--no-specialize``) forces the generic
    #: interpreter everywhere; results are identical either way, this is
    #: the equivalence oracle / A-B switch.
    specialize: bool = True
    #: Micro-architectural trace format.
    trace_config: TraceConfig = BASELINE_TRACE
    #: Simulated core configuration (use ``UarchConfig.with_amplification``
    #: for the reduced-structure amplified configurations of Table 6).
    uarch_config: UarchConfig = field(default_factory=UarchConfig)
    #: Program generator settings (sandbox is overridden to match
    #: ``sandbox_pages``).
    generator_config: Optional[GeneratorConfig] = None
    #: Validate detected violations by re-running both inputs from the same
    #: initial micro-architectural context.
    validate_violations: bool = True
    #: Analyze violations immediately (compute signatures for deduplication).
    analyze_violations: bool = True
    #: Stop the instance at the first confirmed violation.  In a campaign the
    #: first confirmed violation also cancels all *other* instances'
    #: outstanding work (whatever the backend).
    stop_on_violation: bool = False
    #: How the fuzzer picks the next test program: fresh random generation
    #: (the seed behavior), mutation of energy-selected corpus entries, or a
    #: per-round mix of both.  See :mod:`repro.feedback`.
    strategy: GenerationStrategy = GenerationStrategy.RANDOM
    #: Persistent corpus file.  Loaded (when it exists) to seed every
    #: instance's corpus before the campaign; the campaign saves the merged
    #: corpus back to the same path when it finishes.
    corpus_path: Optional[str] = None
    #: Seed each instance's corpus from the directed litmus gadgets relevant
    #: to the configured defense (plus the baseline Spectre gadgets).
    corpus_litmus: bool = False
    #: Probability that a hybrid-strategy round mutates (vs generates fresh).
    hybrid_mutation_probability: float = 0.5
    #: Seed of this instance (campaigns derive one seed per instance).
    seed: int = 0
    #: Campaign execution backend ("inline" or "process"); see
    #: :mod:`repro.backends`.
    backend: str = "inline"
    #: Worker processes for pooled backends (None: one per CPU, capped at the
    #: instance count).
    workers: Optional[int] = None
    #: Rounds a pooled worker runs for one instance before rotating to its
    #: next instance and re-checking the campaign-wide cancellation flag.
    chunk_size: int = 1
    #: Work items per chunk for backend ``map_items`` fan-out (triage).
    #: None (the default) sizes chunks adaptively from item count / workers.
    map_chunksize: Optional[int] = None
    #: Worker supervision (pooled backends): how many times a dead or hung
    #: worker is respawned and its lost work re-dispatched before the
    #: affected rounds are abandoned and recorded in ``FuzzerReport.faults``.
    max_retries: int = 2
    #: Pause before each respawn, doubled per consecutive retry.
    retry_backoff_seconds: float = 0.05
    #: Per-task wall-clock deadline for pooled workers (None: no deadline).
    #: A worker that produces no result for this long is force-killed and
    #: treated like a dead worker (retry, then degrade).
    task_timeout_seconds: Optional[float] = None

    @property
    def base_inputs_per_program(self) -> int:
        """Number of independently generated base inputs per program."""
        return max(1, self.inputs_per_program // (1 + self.boost_factor))

    def effective_inputs_per_program(self) -> int:
        """Actual number of test cases per program after boosting."""
        return self.base_inputs_per_program * (1 + self.boost_factor)


def resolve_contract_name(config: FuzzerConfig) -> str:
    """The contract a config will be tested against, without building a fuzzer.

    ``AmuletFuzzer`` construction instantiates an executor, a sandbox and a
    probe defense; resolving the contract only needs the defense class's
    recommendation, so callers that just want the name (campaign headers,
    empty reports for cancelled instances) should use this instead.
    """
    from repro.defenses.registry import defense_class

    return config.contract or defense_class(config.defense).recommended_contract
