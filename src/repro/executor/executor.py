"""The simulator executor: runs test cases and extracts micro-architectural traces."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.defenses.base import Defense
from repro.defenses.registry import create_defense
from repro.executor.startup import Tally, TimeModel
from repro.executor.traces import BASELINE_TRACE, TraceConfig, UarchTrace, build_trace
from repro.generator.inputs import Input
from repro.generator.sandbox import Sandbox
from repro.isa.program import Program
from repro.uarch.config import UarchConfig
from repro.uarch.core import O3Core, SimulationResult


class ExecutionMode(str, Enum):
    """Naive restarts the simulator per test case; Opt restarts per program."""

    NAIVE = "naive"
    OPT = "opt"


class PrimeStrategy(str, Enum):
    """How the data cache is initialised before each test case.

    ``FILL`` loads every L1D set with addresses from outside the sandbox (the
    paper's preferred strategy: leaks become visible both as installs and as
    evictions).  ``FLUSH`` starts from empty caches (the strategy used for
    CleanupSpec and SpecLFB, whose simulator versions support direct
    invalidation).  ``NONE`` leaves whatever the previous test left behind.
    """

    FILL = "fill"
    FLUSH = "flush"
    NONE = "none"


#: Base address of the priming region; chosen to conflict with sandbox sets
#: while being clearly outside any sandbox (max sandbox is 128 pages).
PRIME_REGION_BASE = 0x1000000

#: The default priming strategy follows Section 3.5 of the paper and is
#: declared by each defense (``Defense.recommended_prime_strategy``, set from
#: the defense's spec) rather than kept in a hard-coded per-name table here —
#: entry-point plugins get the right priming without touching the executor.


@dataclass
class ExecutionRecord:
    """The executor's output for one test case.

    ``uarch_context`` is the predictor state the run *started* from: a
    plain copy taken by :meth:`~repro.uarch.core.O3Core.save_uarch_context`,
    which later runs on the same core do not change.  Violation witnesses
    carry it, and validation re-runs both inputs from it.
    """

    trace: UarchTrace
    result: SimulationResult
    uarch_context: dict


class SimulatorExecutor:
    """Generates micro-architectural traces for (program, input) test cases.

    The executor owns the simulator lifecycle.  In Opt mode one
    :class:`O3Core` is constructed per test program (`load_program`) and
    reused for every input — registers and sandbox memory are simply
    overwritten, and predictor state carries over.  In Naive mode a fresh
    core (and defense instance) is constructed for every single input.
    """

    def __init__(
        self,
        defense_factory: Callable[[], Defense] | str = "baseline",
        uarch_config: Optional[UarchConfig] = None,
        sandbox: Optional[Sandbox] = None,
        trace_config: TraceConfig = BASELINE_TRACE,
        mode: ExecutionMode = ExecutionMode.OPT,
        prime_strategy: Optional[PrimeStrategy] = None,
        time_model: Optional[TimeModel] = None,
    ) -> None:
        if isinstance(defense_factory, str):
            defense_name = defense_factory
            self.defense_factory: Callable[[], Defense] = lambda: create_defense(defense_name)
        else:
            self.defense_factory = defense_factory
        self.uarch_config = uarch_config or UarchConfig()
        self.sandbox = sandbox or Sandbox()
        self.trace_config = trace_config
        self.mode = ExecutionMode(mode)
        probe_defense = self.defense_factory()
        self.defense_name = probe_defense.name
        if prime_strategy is None:
            prime_strategy = getattr(
                probe_defense, "recommended_prime_strategy", PrimeStrategy.FILL
            )
        self.prime_strategy = PrimeStrategy(prime_strategy)
        #: The accounting ledger this executor counts and charges into; a
        #: fuzzer shares it with its report.
        self.tally = Tally(model=time_model or TimeModel())

        self._program: Optional[Program] = None
        self._core: Optional[O3Core] = None

    # -- lifecycle ------------------------------------------------------------
    @property
    def program(self) -> Optional[Program]:
        """The loaded test program (None before :meth:`load_program`)."""
        return self._program

    def load_program(self, program: Program) -> None:
        """Prepare the executor for a new test program."""
        self._program = program
        self._drop_core()
        if self.mode is ExecutionMode.OPT:
            self._core = self._start_simulator(program)

    def _drop_core(self) -> None:
        """Forget the current core.

        Its defense is detached first: the two reference each other, so
        otherwise the dropped core (sandbox state included) would live until
        the next cyclic garbage collection.
        """
        if self._core is not None:
            self._core.defense.detach()
            self._core = None

    def _start_simulator(self, program: Program) -> O3Core:
        core = O3Core(
            program,
            config=self.uarch_config,
            defense=self.defense_factory(),
            sandbox=self.sandbox,
        )
        self.tally.count("simulator_starts")
        self.tally.charge_startup()
        return core

    # -- cache priming ----------------------------------------------------------
    def _prime(self, core: O3Core) -> int:
        """Reset/prime the memory hierarchy before a test case.

        Returns the number of "instructions" the priming would have cost if
        done with explicit loads, which the time model charges to simulation
        (the paper resets the cache with real instructions and notes the
        resulting 10x increase in instructions per test).
        """
        if self.prime_strategy is PrimeStrategy.FILL:
            return core.memory.reset_and_prime(PRIME_REGION_BASE)
        if self.prime_strategy is PrimeStrategy.FLUSH:
            core.memory.reset_caches()
        else:
            core.memory.reset_run_state()
        return 0

    # -- execution -----------------------------------------------------------------
    def run_input(
        self,
        test_input: Input,
        uarch_context: Optional[dict] = None,
    ) -> ExecutionRecord:
        """Run one input of the current program and extract its trace.

        ``uarch_context`` optionally forces the predictor state before the
        run — used when validating violations (re-running two inputs from the
        same initial micro-architectural context).
        """
        if self._program is None:
            raise RuntimeError("load_program() must be called before run_input()")

        if self.mode is ExecutionMode.NAIVE or self._core is None:
            self._drop_core()
            self._core = self._start_simulator(self._program)
        core = self._core

        if uarch_context is not None:
            core.restore_uarch_context(uarch_context)
        context_before = core.save_uarch_context()

        priming_instructions = self._prime(core)

        result = core.run(test_input)
        self.tally.charge_simulation(
            priming_instructions + result.stats.instructions_committed
        )
        trace = build_trace(core, self.trace_config)
        self.tally.charge_trace_extraction()
        self.tally.count("simulations")
        return ExecutionRecord(trace=trace, result=result, uarch_context=context_before)

    def run_pair_with_shared_context(
        self,
        test_input_a: Input,
        test_input_b: Input,
        uarch_context: Optional[dict],
    ) -> Tuple[UarchTrace, UarchTrace]:
        """Re-run two inputs from an identical starting micro-architectural
        context (the paper's violation-validation step for Opt mode).

        With ``uarch_context=None``, input b starts from the context input a
        started from, as in :func:`repro.litmus.runner.run_case`.
        """
        record_a = self.run_input(test_input_a, uarch_context=uarch_context)
        shared = record_a.uarch_context if uarch_context is None else uarch_context
        record_b = self.run_input(test_input_b, uarch_context=shared)
        return record_a.trace, record_b.trace

    # -- metadata ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "defense": self.defense_name,
            "mode": self.mode.value,
            "trace": self.trace_config.name,
            "prime": self.prime_strategy.value,
            "uarch": self.uarch_config.describe(),
            "sandbox_pages": self.sandbox.pages,
        }
