"""Lazy sandbox pages: inputs are derived one page at a time, on first touch.

Three guarantees are checked here:

* **No stale page.** The emulator and the O3 core reuse one sandbox buffer
  across runs.  A page an earlier run filled or stored to must read as the
  current input's own bytes, whole or partially overwritten, and the
  emulator's speculative rollback must restore the derived value.
* **Lazy equals eager.** A derived input and its eager twin (the same bytes
  passed as an explicit image) behave identically in the contract model and
  in every defense's simulator, on a 128-page sandbox.
* **The round hot path stays sparse.** A boosted 128-page STT round never
  builds a full sandbox image and derives each touched page at most once
  per input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AmuletFuzzer, FuzzerConfig
from repro.defenses import create_defense
from repro.defenses.registry import available_defenses
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.generator.inputs import Input, memory_taint_label
from repro.isa.instructions import (
    Instruction,
    Opcode,
    cond_branch,
    exit_instruction,
    jump,
    load,
    store,
)
from repro.isa.operands import Register
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import PAGE_SIZE
from repro.model import ARCH_SEQ, CT_COND, Emulator
from repro.model.contracts import list_contracts
from repro.uarch import O3Core

SANDBOX = Sandbox(pages=4)
#: A page no program below touches before the access under test.
PAGE = 2 * PAGE_SIZE


def _program(*instructions) -> Program:
    return Program([BasicBlock("bb_main.0", list(instructions), exit_instruction())])


def _inputs(count: int, sandbox: Sandbox = SANDBOX, seed: int = 11):
    return InputGenerator(sandbox, seed=seed).generate(count)


def _emulate(program, test_inputs):
    emulator = Emulator(program, SANDBOX)
    return [emulator.run(test_input, ARCH_SEQ).final_registers for test_input in test_inputs]


def _simulate(program, test_inputs):
    core = O3Core(program, defense=create_defense("baseline"), sandbox=SANDBOX)
    return [core.run(test_input).final_registers for test_input in test_inputs]


RUNNERS = pytest.mark.parametrize("run", [_emulate, _simulate], ids=["emulator", "core"])


class TestNoStalePages:
    @RUNNERS
    def test_a_page_stored_by_one_run_reads_as_the_next_input(self, run):
        """Load, then overwrite, the same word: each run must load its own
        input's word, never the previous run's store."""
        program = _program(load("rax", None, PAGE + 8), store(None, "rbx", PAGE + 8))
        first, second = _inputs(2)
        assert first.memory_word(PAGE + 8) != first.register_dict()["rbx"]
        registers = run(program, [first, second])
        assert registers[0]["rax"] == first.memory_word(PAGE + 8)
        assert registers[1]["rax"] == second.memory_word(PAGE + 8)

    @RUNNERS
    def test_a_partial_store_keeps_the_rest_of_the_derived_page(self, run):
        program = _program(
            store(None, "rbx", PAGE + 17, size=1), load("rax", None, PAGE + 16)
        )
        test_inputs = _inputs(3)
        for test_input, registers in zip(test_inputs, run(program, test_inputs)):
            word = bytearray(test_input.read(PAGE + 16, 8))
            word[1] = test_input.register_dict()["rbx"] & 0xFF
            assert registers["rax"] == int.from_bytes(word, "little")

    def test_speculative_rollback_restores_the_derived_value(self):
        """The mispredicted path stores to an untouched page; after the
        rollback, the architectural load reads the input's own bytes."""
        program = Program(
            [
                BasicBlock(
                    "bb_main.0",
                    [
                        Instruction(Opcode.CMP, (Register("rax"), Register("rax"))),
                        cond_branch("nz", "bb_main.2"),
                    ],
                    jump("bb_main.1"),
                ),
                BasicBlock(
                    "bb_main.1", [load("rcx", None, PAGE + 8)], jump("bb_main.exit")
                ),
                BasicBlock(
                    "bb_main.2", [store(None, "rbx", PAGE + 8)], jump("bb_main.exit")
                ),
                BasicBlock("bb_main.exit", [], exit_instruction()),
            ]
        )
        emulator = Emulator(program, SANDBOX)
        for test_input in _inputs(3):
            result = emulator.run(test_input, CT_COND)
            assert result.speculative_instruction_count > 0
            assert result.final_registers["rcx"] == test_input.memory_word(PAGE + 8)


def _model_key(result):
    return (
        result.trace.observations,
        sorted(result.relevant_labels),
        result.executed_pcs,
        result.final_registers,
        result.speculative_instruction_count,
        result.speculation,
    )


def _uarch_key(record):
    return (
        record.trace,
        record.result.cycles,
        record.result.instructions_committed,
        record.result.final_registers,
    )


@settings(deadline=None, max_examples=4)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_lazy_inputs_behave_like_their_eager_twins(seed):
    """Every contract and every registered defense, on a 128-page sandbox,
    for a generated input and a boosted variant with preserved granules."""
    sandbox = Sandbox(pages=128)
    program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
    generator = InputGenerator(sandbox, seed=seed)
    base = generator.generate_one()
    preserve = {memory_taint_label(offset) for offset in (0, 8, 5 * PAGE_SIZE + 64)}
    lazy = [base, *generator.mutate_preserving(base, preserve, count=1)]
    eager = [Input.create(x.register_dict(), x.read(0, x.size), seed=x.seed) for x in lazy]

    for contract in list_contracts():
        emulator = Emulator(program, sandbox)
        for derived, image in zip(lazy, eager):
            assert _model_key(emulator.run(derived, contract)) == _model_key(
                emulator.run(image, contract)
            )
    for defense in available_defenses():
        executor = SimulatorExecutor(
            defense_factory=defense, sandbox=sandbox, mode=ExecutionMode.NAIVE
        )
        executor.load_program(program)
        for derived, image in zip(lazy, eager):
            assert _uarch_key(executor.run_input(derived)) == _uarch_key(
                executor.run_input(image)
            )


def test_a_boosted_128_page_stt_round_stays_sparse(monkeypatch):
    derived = {}
    derive_page = Input._derive_page

    def counting(self, index):
        key = (id(self), index)
        _, count = derived.get(key, (self, 0))
        derived[key] = (self, count + 1)
        return derive_page(self, index)

    monkeypatch.setattr(Input, "_derive_page", counting)
    config = FuzzerConfig(
        defense="stt", programs_per_instance=1, boost_factor=6, seed=5
    )
    fuzzer = AmuletFuzzer(config)
    assert fuzzer.sandbox.pages == 128
    result = fuzzer.run_round()

    assert result.test_cases == config.inputs_per_program
    assert derived, "no page was derived"
    assert max(count for _, count in derived.values()) == 1
    inputs = {id(test_input) for test_input, _ in derived.values()}
    # Each input derives only the few pages its program touches.
    assert len(derived) <= 8 * len(inputs)
