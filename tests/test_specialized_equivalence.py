"""The effect closures must match the generic ``evaluate`` reference.

The specialization layer (:mod:`repro.isa.specialized`) builds one
``evaluate`` closure per decoded instruction, and those closures are the
only way the emulator and the O3 core execute an instruction.  Generic
:func:`repro.isa.semantics.evaluate` stays as the reference:
:func:`reference_program` gives a program its own decoded form whose
``effect_fn`` entries call ``evaluate`` directly.  These tests drive seeded
random programs through both — the functional emulator under every
registered contract (architectural and speculative paths), the O3
simulator under every defense in both execution modes — and require
identical results everywhere: contract traces, taint sets, speculation
profiles, micro-architectural traces, cycle counts and final register
files.
"""

from __future__ import annotations

import copy
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.emulator as emulator_module
import repro.uarch.core as core_module
from repro.defenses.registry import available_defenses, defense_class
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import decode_program
from repro.isa.program import Program
from repro.isa.semantics import evaluate
from repro.isa.specialized import compile_effect
from repro.model.contracts import list_contracts
from repro.model.emulator import Emulator

SEED = 20250807
EMULATOR_PROGRAMS = 6
EMULATOR_INPUTS = 3
SIMULATOR_PROGRAMS = 3
SIMULATOR_INPUTS = 2
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def reference_program(program: Program) -> Program:
    """A copy of ``program`` whose decoded instructions run generic ``evaluate``.

    The copy is a distinct key in the decode cache, so it gets its own
    decoded program; marking it ``effects_attached`` keeps the interpreters
    from replacing the reference closures with specialized ones.
    """
    clone = copy.deepcopy(program)
    decoded = decode_program(clone)
    for entry in decoded.entries:
        entry.effect_fn = (
            lambda ins: lambda rr, fl, rm: evaluate(ins, rr, fl, rm)
        )(entry.instruction)
    decoded.effects_attached = True
    return clone


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


def _assert_emulators_agree(program, sandbox, inputs, contract):
    closures = Emulator(program, sandbox)
    reference = Emulator(reference_program(program), sandbox)
    for test_input in inputs:
        fast = closures.run(test_input, contract)
        slow = reference.run(test_input, contract)
        assert _model_result_key(fast) == _model_result_key(slow), (
            f"model divergence: program {program.name} "
            f"contract {contract.name} input {test_input.seed}"
        )


def _simulator_records(program, sandbox, inputs, defense, mode):
    executor = SimulatorExecutor(defense_factory=defense, sandbox=sandbox, mode=mode)
    executor.load_program(program)
    return [executor.run_input(test_input) for test_input in inputs]


def _assert_simulators_agree(program, sandbox, inputs, defense, mode):
    closures = _simulator_records(program, sandbox, inputs, defense, mode)
    reference = _simulator_records(
        reference_program(program), sandbox, inputs, defense, mode
    )
    for test_input, fast, slow in zip(inputs, closures, reference):
        context = (
            f"uarch divergence: program {program.name} defense {defense} "
            f"mode {mode.value} input {test_input.seed}"
        )
        assert fast.trace == slow.trace, context
        assert fast.result.cycles == slow.result.cycles, context
        assert (
            fast.result.instructions_committed == slow.result.instructions_committed
        ), context
        assert fast.result.exit_reached == slow.result.exit_reached, context
        assert fast.result.final_registers == slow.result.final_registers, context


class TestReferenceHelper:
    def test_reference_program_runs_evaluate_on_its_own_decoded_program(self):
        sandbox = Sandbox()
        programs, _ = _workload(sandbox, 1, 0)
        reference = reference_program(programs[0])
        decoded = decode_program(reference)
        assert decoded is not decode_program(programs[0])
        before = [entry.effect_fn for entry in decoded.entries]
        Emulator(reference, sandbox).run(
            InputGenerator(sandbox, seed=SEED).generate_one(), list_contracts()[0]
        )
        # The emulator found the reference closures attached and kept them.
        assert [entry.effect_fn for entry in decoded.entries] == before


class TestEmulatorEquivalence:
    @pytest.mark.parametrize("contract", list_contracts(), ids=lambda c: c.name)
    def test_all_contracts_byte_identical(self, contract):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, EMULATOR_PROGRAMS, EMULATOR_INPUTS)
        for program in programs:
            _assert_emulators_agree(program, sandbox, inputs, contract)

    def test_batch_matches_individual_runs(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 2, EMULATOR_INPUTS)
        contract = list_contracts()[1]  # CT-COND: speculation + taint
        for program in programs:
            emulator = Emulator(program, sandbox)
            batch = emulator.collect_traces_batch(inputs, contract)
            for test_input, batched in zip(inputs, batch):
                single = Emulator(program, sandbox).run(test_input, contract)
                assert _model_result_key(batched) == _model_result_key(single)

    def test_architectural_path_runs_the_effect_closures(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 1, 1, seed=SEED + 1)
        contract = list_contracts()[0]  # CT-SEQ: architectural path only
        assert not contract.speculate_branches
        emulator = Emulator(programs[0], sandbox)
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


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("mode", [ExecutionMode.OPT, ExecutionMode.NAIVE])
    def test_all_defenses_both_modes_byte_identical(self, defense, mode):
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, SIMULATOR_PROGRAMS, SIMULATOR_INPUTS)
        for program in programs:
            _assert_simulators_agree(program, sandbox, inputs, defense, mode)


@settings(deadline=None, max_examples=6)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_closures_match_the_reference_for_any_generator_seed(seed):
    """Every registered defense and every contract, one random program."""
    for defense in available_defenses():
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, 1, 2, seed=seed)
        _assert_simulators_agree(
            programs[0], sandbox, inputs, defense, ExecutionMode.OPT
        )
    sandbox = Sandbox()
    programs, inputs = _workload(sandbox, 1, 2, seed=seed)
    for contract in list_contracts():
        _assert_emulators_agree(programs[0], sandbox, inputs, contract)


class TestOneExecutionPath:
    def test_interpreters_do_not_bind_the_reference(self):
        for module in (emulator_module, core_module):
            for name in ("evaluate", "execute_on_state"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"

    def test_compile_effect_raises_on_an_unhandled_opcode(self):
        unknown = SimpleNamespace(name="UNKNOWN")
        decoded = SimpleNamespace(
            instruction=SimpleNamespace(fallthrough_pc=0, memory_operand=None),
            opcode=unknown,
        )
        with pytest.raises(NotImplementedError, match="UNKNOWN"):
            compile_effect(decoded)
