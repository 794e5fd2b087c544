"""Table 2: per-test-program time breakdown, Naive vs Opt executor.

The paper's result: with the Naive executor ~96% of the time is gem5 start-up
and only ~1% is simulation; the Opt executor amortises the start-up across a
program's inputs, making simulation the dominant component and improving the
per-program cost by roughly an order of magnitude.  The modeled-time
accounting reproduces that shape; the wall-clock of this Python
implementation is benchmarked alongside it.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import attach_rows
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.executor.startup import SIMULATE, STARTUP
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.reporting.tables import render_breakdown_table

PROGRAMS = 2
INPUTS = 140


def _run_executor(mode: ExecutionMode) -> SimulatorExecutor:
    sandbox = Sandbox()
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=2)
    input_generator = InputGenerator(sandbox, seed=2)
    executor = SimulatorExecutor("baseline", sandbox=sandbox, mode=mode)
    for _ in range(PROGRAMS):
        program = program_generator.generate()
        executor.load_program(program)
        executor.tally.charge_test_generation()
        for _ in range(INPUTS):
            executor.run_input(input_generator.generate_one())
            executor.tally.charge_contract_traces()
        executor.tally.charge_other()
    return executor


@pytest.mark.benchmark(group="table2")
def test_table2_naive_vs_opt_breakdown(benchmark):
    naive = _run_executor(ExecutionMode.NAIVE)
    opt = benchmark.pedantic(
        lambda: _run_executor(ExecutionMode.OPT), rounds=1, iterations=1
    )

    breakdowns = {"Naive": naive.tally.breakdown(), "Opt": opt.tally.breakdown()}
    table = render_breakdown_table(breakdowns)
    attach_rows(benchmark, "Table 2 (modeled gem5 seconds per campaign slice)", table)

    naive_total = naive.tally.total_modeled()
    opt_total = opt.tally.total_modeled()
    rows = [
        {
            "metric": "modeled seconds / program",
            "Naive": naive_total / PROGRAMS,
            "Opt": opt_total / PROGRAMS,
            "ratio": naive_total / opt_total,
        },
        {
            "metric": "startup share (%)",
            "Naive": 100 * naive.tally.breakdown()[STARTUP]["percent"] / 100,
            "Opt": opt.tally.breakdown()[STARTUP]["percent"],
            "ratio": None,
        },
        {
            "metric": "simulate share (%)",
            "Naive": naive.tally.breakdown()[SIMULATE]["percent"],
            "Opt": opt.tally.breakdown()[SIMULATE]["percent"],
            "ratio": None,
        },
    ]
    attach_rows(benchmark, "Table 2 summary", rows)

    # Shape checks from the paper: Naive is startup-dominated, Opt is
    # simulation-dominated, and Opt is roughly an order of magnitude cheaper.
    assert naive.tally.breakdown()[STARTUP]["percent"] > 80
    assert opt.tally.breakdown()[SIMULATE]["percent"] > 60
    assert naive_total / opt_total > 5
    assert naive.tally.counts["simulator_starts"] == PROGRAMS * INPUTS
    assert opt.tally.counts["simulator_starts"] == PROGRAMS
