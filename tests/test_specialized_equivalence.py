"""Specialized (closure) vs interpreted execution must be byte-identical.

The specialization layer (:mod:`repro.isa.specialized`) builds one
``evaluate`` closure per decoded instruction; ``specialize=False`` runs the
same workload through generic ``evaluate``.  These property tests drive
seeded random programs through both paths — the functional emulator under
every registered contract (architectural and speculative paths), the O3
simulator under every defense in both execution modes — and require
identical results everywhere: contract traces, taint sets, speculation
profiles, micro-architectural traces, cycle counts and final register files.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.defenses.registry import defense_class
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.model.contracts import list_contracts
from repro.model.emulator import Emulator

SEED = 20250807
EMULATOR_PROGRAMS = 6
EMULATOR_INPUTS = 3
SIMULATOR_PROGRAMS = 3
SIMULATOR_INPUTS = 2
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def _workload(sandbox: Sandbox, programs: int, inputs: int, seed: int = SEED):
    program_generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed)
    input_generator = InputGenerator(sandbox, seed=seed)
    return (
        [program_generator.generate() for _ in range(programs)],
        [input_generator.generate_one() for _ in range(inputs)],
    )


def _model_result_key(result):
    """Everything a ModelResult asserts about a run, in comparable form."""
    return (
        result.trace.observations,
        sorted(result.relevant_labels),
        result.instruction_count,
        result.executed_pcs,
        result.final_registers,
        result.speculative_instruction_count,
        result.architectural_accesses,
        result.speculation.cond_branches,
        result.speculation.tainted_accesses,
    )


class TestEmulatorEquivalence:
    @pytest.mark.parametrize("contract", list_contracts(), ids=lambda c: c.name)
    def test_all_contracts_byte_identical(self, contract):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, EMULATOR_PROGRAMS, EMULATOR_INPUTS)
        for program in programs:
            compiled = Emulator(program, sandbox, specialize=True)
            interpreted = Emulator(program, sandbox, specialize=False)
            for test_input in inputs:
                fast = compiled.run(test_input, contract)
                slow = interpreted.run(test_input, contract)
                assert _model_result_key(fast) == _model_result_key(slow), (
                    f"model divergence: program {program.name} "
                    f"contract {contract.name} input {test_input.seed}"
                )

    def test_batch_matches_individual_runs(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 2, EMULATOR_INPUTS)
        contract = list_contracts()[1]  # CT-COND: speculation + taint
        for program in programs:
            emulator = Emulator(program, sandbox, specialize=True)
            batch = emulator.collect_traces_batch(inputs, contract)
            for test_input, batched in zip(inputs, batch):
                single = Emulator(program, sandbox, specialize=True).run(
                    test_input, contract
                )
                assert _model_result_key(batched) == _model_result_key(single)

    def test_architectural_path_runs_the_effect_closures(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 1, 1, seed=SEED + 1)
        contract = list_contracts()[0]  # CT-SEQ: architectural path only
        assert not contract.speculate_branches
        emulator = Emulator(programs[0], sandbox, specialize=True)
        emulator.run(inputs[0], contract)  # builds the closures
        calls = Counter()

        def counting(effect_fn, pc):
            def wrapper(*args):
                calls[pc] += 1
                return effect_fn(*args)
            return wrapper

        for entry in emulator.decoded.entries:
            entry.effect_fn = counting(entry.effect_fn, entry.pc)
        result = emulator.run(inputs[0], contract)
        assert result.instruction_count > 0
        assert calls == Counter(result.executed_pcs)

        # The generic emulator shares the decoded program (and so sees the
        # wrapped closures) but must not call any of them.
        calls.clear()
        generic = Emulator(programs[0], sandbox, specialize=False)
        assert generic.decoded is emulator.decoded
        assert generic.run(inputs[0], contract).executed_pcs == result.executed_pcs
        assert not calls


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("mode", [ExecutionMode.OPT, ExecutionMode.NAIVE])
    def test_all_defenses_both_modes_byte_identical(self, defense, mode):
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, SIMULATOR_PROGRAMS, SIMULATOR_INPUTS)
        for program in programs:
            records = {}
            for specialize in (True, False):
                executor = SimulatorExecutor(
                    defense_factory=defense,
                    sandbox=sandbox,
                    mode=mode,
                    specialize=specialize,
                )
                executor.load_program(program)
                records[specialize] = [
                    executor.run_input(test_input) for test_input in inputs
                ]
            for test_input, fast, slow in zip(inputs, records[True], records[False]):
                context = (
                    f"uarch divergence: program {program.name} defense {defense} "
                    f"mode {mode.value} input {test_input.seed}"
                )
                assert fast.trace == slow.trace, context
                assert fast.result.cycles == slow.result.cycles, context
                assert (
                    fast.result.instructions_committed
                    == slow.result.instructions_committed
                ), context
                assert fast.result.exit_reached == slow.result.exit_reached, context
                assert (
                    fast.result.final_registers == slow.result.final_registers
                ), context
