"""The executor: produces micro-architectural traces from the simulator.

This is AMuLeT's counterpart to Revizor's hardware executor.  Instead of
inferring cache state through a Prime+Probe side channel on silicon, the
executor reads the final micro-architectural state straight out of the
simulator (white-box access), after priming the caches so that both
speculative installs and speculative evictions become visible.

Two execution modes mirror the paper's Section 3.2:

* **Naive** — a fresh simulator is constructed for every test case (every
  program/input combination), paying the simulator start-up cost each time.
* **Opt** — one simulator per test program; between inputs only the
  registers and sandbox memory are overwritten and the caches re-primed,
  amortising the start-up cost and (deliberately) carrying the predictor
  state from input to input.
"""

from repro.executor.traces import (
    BASELINE_TRACE,
    BP_STATE_TRACE,
    BRANCH_PREDICTION_ORDER_TRACE,
    L1I_EXTENDED_TRACE,
    MEMORY_ACCESS_ORDER_TRACE,
    TraceConfig,
    UarchTrace,
    build_trace,
    get_trace_config,
)
from repro.executor.startup import Tally, TimeModel
from repro.executor.executor import ExecutionMode, PrimeStrategy, SimulatorExecutor

__all__ = [
    "BASELINE_TRACE",
    "BP_STATE_TRACE",
    "BRANCH_PREDICTION_ORDER_TRACE",
    "L1I_EXTENDED_TRACE",
    "MEMORY_ACCESS_ORDER_TRACE",
    "TraceConfig",
    "UarchTrace",
    "build_trace",
    "get_trace_config",
    "Tally",
    "TimeModel",
    "ExecutionMode",
    "PrimeStrategy",
    "SimulatorExecutor",
]
