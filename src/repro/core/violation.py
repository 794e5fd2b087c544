"""Contract violations (Definition 2.1 of the paper).

A violation is a program, two inputs with *equal contract traces* but
*different micro-architectural traces*, and the evidence needed to analyse
it: both traces, their diff, the micro-architectural context the executor
started from, and (once analysed) a signature used to deduplicate similar
violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

from repro.executor.traces import UarchTrace
from repro.generator.inputs import Input
from repro.isa.program import Program
from repro.model.emulator import ContractTrace
from repro.uarch.config import UarchConfig

if TYPE_CHECKING:  # imported lazily at runtime to keep this module light
    from repro.executor.executor import SimulatorExecutor
    from repro.executor.traces import TraceConfig


class Rerun(NamedTuple):
    """The trace pair one shared-context re-run of a witness pair observed."""

    trace_a: UarchTrace
    trace_b: UarchTrace
    #: The recorded context both inputs started from (None: the violation
    #: recorded none, and input b started from input a's starting context).
    context: Optional[dict]

    @property
    def diverges(self) -> bool:
        return self.trace_a != self.trace_b


@dataclass
class Violation:
    """Evidence of an unexpected leak found by relational testing."""

    program: Program
    defense: str
    contract: str
    input_a: Input
    input_b: Input
    trace_a: UarchTrace
    trace_b: UarchTrace
    contract_trace: ContractTrace
    #: Executed inputs whose trace disagrees with the majority (largest)
    #: trace group of the contract-equivalence class.
    violating_input_count: int = 2
    #: Names of the trace components that differ (l1d, dtlb, l1i, ...).
    differing_components: Tuple[str, ...] = ()
    #: Micro-architectural context input_a started from (for validation).
    uarch_context: Optional[dict] = None
    #: Micro-architectural context input_b started from.  Validation re-runs
    #: the pair from each witness's context in turn (the paper re-runs the
    #: violating inputs with the *other* input's starting context).
    uarch_context_b: Optional[dict] = None
    #: Set by the validation step: does the difference persist when both
    #: inputs start from the same context?
    validated: Optional[bool] = None
    #: Wall-clock seconds from the start of the instance until detection.
    detection_wall_clock_seconds: float = 0.0
    #: Modeled (gem5-equivalent) seconds until detection.
    detection_modeled_seconds: float = 0.0
    #: Index of the test case (within the instance) that triggered detection.
    detected_at_test_case: int = 0
    #: Program index within the instance.
    detected_at_program: int = 0
    #: Filled in by analysis: a stable identifier for "the same kind of leak".
    signature: Optional[Tuple] = None
    #: Optional analysis annotations (root-cause hints, leaking PCs, ...).
    notes: Dict[str, object] = field(default_factory=dict)

    # -- executor provenance --------------------------------------------------
    # The exact configuration the violation was found under.  Re-runs
    # (validation, minimization, first-divergence analysis, amplification
    # escalation) must rebuild the executor from these fields: the bare
    # ``defense`` name is not enough — it drops the ``patched`` flag and any
    # amplified :class:`UarchConfig`, so the re-run can fail to reproduce.
    #: Was the defense running with the paper's bug patches applied?
    patched: bool = False
    #: The (possibly amplified) core configuration of the detecting executor.
    uarch_config: Optional[UarchConfig] = None
    #: Sandbox size (4 KiB pages) the program was generated for.
    sandbox_pages: Optional[int] = None
    #: Cache priming strategy value ("fill", "flush", "none").
    prime_strategy: Optional[str] = None
    #: Executor mode value ("naive", "opt").
    mode: Optional[str] = None
    #: Name of the trace format the violation was observed in.
    trace_config_name: Optional[str] = None

    def record_provenance(
        self, executor: "SimulatorExecutor", patched: bool = False
    ) -> None:
        """Stamp the detecting executor's configuration onto the violation."""
        self.patched = patched
        self.uarch_config = executor.uarch_config
        self.sandbox_pages = executor.sandbox.pages
        self.prime_strategy = executor.prime_strategy.value
        self.mode = executor.mode.value
        self.trace_config_name = executor.trace_config.name

    def build_executor(
        self,
        trace_config: Optional["TraceConfig"] = None,
        uarch_config: Optional[UarchConfig] = None,
        sandbox: Optional[object] = None,
    ) -> "SimulatorExecutor":
        """Rebuild an executor with the configuration the violation was found
        under.

        ``trace_config`` / ``uarch_config`` / ``sandbox`` override single
        aspects (e.g. analysis swaps in the access-order trace, amplification
        escalation swaps in a reduced configuration) while everything else —
        defense, ``patched`` flag, priming, mode — comes from provenance.
        """
        from repro.defenses.registry import create_defense
        from repro.executor.executor import ExecutionMode, SimulatorExecutor
        from repro.executor.traces import get_trace_config
        from repro.generator.sandbox import Sandbox

        defense_name = self.defense
        patched = self.patched
        if trace_config is None and self.trace_config_name is not None:
            trace_config = get_trace_config(self.trace_config_name)
        if sandbox is None and self.sandbox_pages is not None:
            sandbox = Sandbox(pages=self.sandbox_pages)
        kwargs = {}
        if trace_config is not None:
            kwargs["trace_config"] = trace_config
        return SimulatorExecutor(
            defense_factory=lambda: create_defense(defense_name, patched=patched),
            uarch_config=uarch_config or self.uarch_config,
            sandbox=sandbox,
            mode=ExecutionMode(self.mode) if self.mode else ExecutionMode.OPT,
            prime_strategy=self.prime_strategy,
            **kwargs,
        )

    def rerun(
        self,
        executor: "SimulatorExecutor",
        program: Optional[Program] = None,
        input_a: Optional[Input] = None,
        input_b: Optional[Input] = None,
    ) -> Rerun:
        """Re-run the witness pair from a shared micro-architectural context.

        AMuLeT-Opt carries predictor state between inputs, so a trace
        difference can come from different starting contexts rather than from
        the inputs.  The one rule every re-run follows: start both inputs
        from input a's recorded context, then from input b's (skipped when it
        *is* a's, as after validation); with no recorded context, input b
        starts from input a's starting context.  The first diverging pair is
        returned, else the last pair tried.  ``program`` and the inputs
        default to the witness's (the minimizer passes candidates).  The
        program is loaded when ``executor`` does not hold it already, so the
        fuzzer's validation reuses the round's core, and whenever there is no
        recorded context, so input a starts from a fresh core (as in
        :func:`repro.litmus.runner.run_case`), not from what an earlier
        re-run left behind.  Nothing on the violation changes; see
        :meth:`adopt`.
        """
        program = self.program if program is None else program
        input_a = self.input_a if input_a is None else input_a
        input_b = self.input_b if input_b is None else input_b
        contexts = [self.uarch_context]
        if self.uarch_context_b is not self.uarch_context:
            contexts.append(self.uarch_context_b)
        contexts = [c for c in contexts if c is not None]
        if executor.program is not program or not contexts:
            executor.load_program(program)
        for context in contexts or [None]:
            rerun = Rerun(
                *executor.run_pair_with_shared_context(input_a, input_b, context), context
            )
            if rerun.diverges:
                break
        return rerun

    def adopt(self, rerun: Rerun) -> None:
        """Take a diverging :meth:`rerun` as the violation's validated evidence.

        Both witnesses now point at the confirming context, so later re-runs
        (minimization, analysis) start from it alone.
        """
        self.trace_a, self.trace_b = rerun.trace_a, rerun.trace_b
        self.differing_components = rerun.trace_a.differing_components(rerun.trace_b)
        self.uarch_context = self.uarch_context_b = rerun.context
        self.validated = True

    def trace_diff(self) -> Dict[str, Dict[str, Tuple]]:
        return self.trace_a.diff(self.trace_b)

    def summary(self) -> str:
        components = ", ".join(self.differing_components) or "none"
        status = {True: "validated", False: "rejected", None: "unvalidated"}[self.validated]
        return (
            f"Violation[{self.defense}/{self.contract}] program={self.program.name} "
            f"components={components} inputs={self.violating_input_count} ({status})"
        )

    def __str__(self) -> str:
        return self.summary()
