"""Deterministic trace collection used by the decoded-equivalence suite.

``collect_golden`` runs a fixed, seeded workload through the functional
emulator (every contract) and the out-of-order executor (every defense, both
execution modes) and reduces everything observable to stable strings.  The
checked-in ``tests/data/golden_traces.json`` pins the observable behaviour
of both interpreters — contract traces, taint sets, micro-architectural
traces, cycle counts, final registers — on the seeded programs and the
bulk-derived sandbox inputs of that workload.  It was first recorded with
the pre-``DecodedProgram`` interpreters and has been re-recorded once since,
when sandbox memory moved to bulk derivation (the programs and run counts
stayed identical; only input-dependent fields changed).  Re-running the
collection with the current code and comparing for exact equality proves
that interpreter and scheduling changes are architecturally invisible.

Re-record (only when the *workload* intentionally changes, never to paper
over an equivalence failure) with::

    PYTHONPATH=src:tests python -m golden_utils
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.traces import TraceConfig
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.model.contracts import list_contracts
from repro.model.emulator import Emulator

GOLDEN_SEED = 20250127
GOLDEN_PROGRAMS = 3
GOLDEN_INPUTS = 4

DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")
MODES = (ExecutionMode.NAIVE, ExecutionMode.OPT)

#: Every trace component enabled, so any micro-architectural divergence
#: (caches, TLB, predictor state, access order, prediction order) is caught.
FULL_TRACE = TraceConfig(
    name="golden-full",
    include_l1d=True,
    include_dtlb=True,
    include_l1i=True,
    include_bp_state=True,
    include_memory_access_order=True,
    include_branch_prediction_order=True,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "golden_traces.json")


def _registers_repr(registers: Dict[str, int]) -> str:
    return repr(tuple(sorted(registers.items())))


def collect_golden() -> dict:
    """Run the fixed workload and return everything observable as strings."""
    sandbox = Sandbox()
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=GOLDEN_SEED)
    input_generator = InputGenerator(sandbox, seed=GOLDEN_SEED)

    programs = [program_generator.generate() for _ in range(GOLDEN_PROGRAMS)]
    inputs = [input_generator.generate_one() for _ in range(GOLDEN_INPUTS)]

    golden: dict = {
        "seed": GOLDEN_SEED,
        "programs": [program.to_asm() for program in programs],
        "contract_runs": [],
        "uarch_runs": [],
    }

    for program_index, program in enumerate(programs):
        emulator = Emulator(program, sandbox)
        for contract in list_contracts():
            for input_index, test_input in enumerate(inputs):
                result = emulator.run(test_input, contract)
                golden["contract_runs"].append(
                    {
                        "program": program_index,
                        "contract": contract.name,
                        "input": input_index,
                        "trace": repr(result.trace.observations),
                        "relevant_labels": repr(sorted(result.relevant_labels, key=repr)),
                        "instruction_count": result.instruction_count,
                        "speculative_instruction_count": result.speculative_instruction_count,
                        "executed_pcs": repr(result.executed_pcs),
                        "final_registers": _registers_repr(result.final_registers),
                        "architectural_accesses": repr(result.architectural_accesses),
                    }
                )

    for defense in DEFENSES:
        for mode in MODES:
            executor = SimulatorExecutor(
                defense_factory=defense,
                sandbox=sandbox,
                trace_config=FULL_TRACE,
                mode=mode,
            )
            for program_index, program in enumerate(programs):
                executor.load_program(program)
                for input_index, test_input in enumerate(inputs):
                    record = executor.run_input(test_input)
                    golden["uarch_runs"].append(
                        {
                            "program": program_index,
                            "defense": defense,
                            "mode": mode.value,
                            "input": input_index,
                            "trace": repr(record.trace.components),
                            "cycles": record.result.cycles,
                            "instructions_committed": record.result.instructions_committed,
                            "exit_reached": record.result.exit_reached,
                            "final_registers": _registers_repr(record.result.final_registers),
                        }
                    )

    return golden


def main() -> None:
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    golden = collect_golden()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    print(
        f"recorded {len(golden['contract_runs'])} contract runs and "
        f"{len(golden['uarch_runs'])} uarch runs to {GOLDEN_PATH}"
    )


if __name__ == "__main__":
    main()
