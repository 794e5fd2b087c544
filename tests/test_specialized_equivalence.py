"""The interpreters' per-program steps must match the generic references.

Both interpreters run the fused steps of :mod:`repro.model.steps`, built
from :mod:`repro.isa.semantics`: the contract emulator on its live state,
the O3 core on each in-flight instruction's renamed operands.  Each
interpreter has a reference built on generic
:func:`reference_semantics.evaluate`:

* :class:`~reference_emulator.ReferenceEmulator`, the effect-based
  emulator loop (``evaluate``, apply, a generic taint walk and an undo
  log), for the emulator;
* :func:`reference_program`, a program whose decoded form runs
  ``evaluate`` in every ``step``, for the O3 core.

These tests drive seeded random programs through both sides — the
emulator under every registered contract (architectural and speculative
paths), the O3 simulator under every defense in both execution modes —
and require identical results everywhere: contract traces, taint sets,
speculation profiles, micro-architectural traces, cycle counts and final
register files.  The core's committed registers must also equal the
reference emulator's architectural run, which shares no code with the
core's step harness, and every branch direction the core resolves must
equal ``evaluate``'s.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from types import SimpleNamespace
from unittest import mock

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
from repro.isa.instructions import (
    CONDITION_CODES,
    Instruction,
    Opcode,
    cond_branch,
    exit_instruction,
    jump,
)
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import FLAG_NAMES
from repro.litmus import all_cases
from repro.model.contracts import CT_SEQ, list_contracts
from repro.model.emulator import Emulator
from repro.model.steps import compile_step
from repro.uarch.core import O3Core

from reference_emulator import ReferenceEmulator, odd_shapes_program
from reference_semantics import evaluate, flag_dict

SEED = 20250807
EMULATOR_PROGRAMS = 6
EMULATOR_INPUTS = 3
SIMULATOR_PROGRAMS = 3
SIMULATOR_INPUTS = 2
DEFENSES = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")


def _evaluate_step(instruction: Instruction):
    """A step that runs generic ``evaluate`` and applies its effect.

    Values, flags and memory go through the :class:`Machine` as in the
    fused steps; taint is not tracked (the O3 core tracks none).  The
    effective address is recomputed by ``evaluate`` from the registers.
    """
    def step(machine, address):
        effect = evaluate(
            instruction, machine.regs.__getitem__, flag_dict(machine.flags),
            machine.read_memory,
        )
        machine.regs.update(effect.register_writes)
        if effect.flag_writes:
            merged = {**flag_dict(machine.flags), **effect.flag_writes}
            machine.flags = tuple(merged[name] for name in FLAG_NAMES)
        if effect.memory_write is not None:
            machine.write_memory(*effect.memory_write)
        return effect.next_pc
    return step


def reference_program(program: Program) -> Program:
    """A copy of ``program`` whose decoded instructions step through ``evaluate``.

    The copy is a distinct key in the decode cache, so it gets its own
    decoded program; marking it ``steps_built`` keeps the O3 core from
    replacing the reference steps with fused ones.
    """
    clone = copy.deepcopy(program)
    decoded = decode_program(clone)
    for entry in decoded.entries:
        entry.step = _evaluate_step(entry.instruction)
    decoded.steps_built = True
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
    steps = Emulator(program, sandbox)
    reference = ReferenceEmulator(program, sandbox)
    for test_input in inputs:
        fast = steps.run(test_input, contract)
        slow = reference.run(test_input, contract)
        assert _model_result_key(fast) == _model_result_key(slow), (
            f"model divergence: program {program.name} "
            f"contract {contract.name} input {test_input.seed}"
        )


def _checked_branch(resolve_branch):
    """``O3Core._resolve_branch`` holding each resolved direction to ``evaluate``.

    The core decides a conditional branch from its condition when it issues
    and never runs the step of a JCC, so the reference steps cannot check
    branch direction.  The flags it read are still there at resolution: its
    flag producer's, else the architectural flags, which no older flag
    writer was left in flight to change.
    """
    def wrapper(core, entry, cycle):
        instruction = entry.decoded.instruction
        source = entry.flags_source
        flags = (
            core.arch_state.flags.as_tuple()
            if source is None
            else core._entries[source].flags_out
        )
        expected = evaluate(instruction, None, flag_dict(flags), None).branch_taken
        assert entry.actual_taken == expected, f"branch direction of {instruction}"
        return resolve_branch(core, entry, cycle)
    return wrapper


def _simulator_records(program, sandbox, inputs, defense, mode):
    executor = SimulatorExecutor(defense_factory=defense, sandbox=sandbox, mode=mode)
    executor.load_program(program)
    checked = _checked_branch(O3Core._resolve_branch)
    with mock.patch.object(O3Core, "_resolve_branch", checked):
        return [executor.run_input(test_input) for test_input in inputs]


def _assert_simulators_agree(program, sandbox, inputs, defense, mode):
    steps = _simulator_records(program, sandbox, inputs, defense, mode)
    reference = _simulator_records(
        reference_program(program), sandbox, inputs, defense, mode
    )
    architectural = ReferenceEmulator(program, sandbox)
    for test_input, fast, slow in zip(inputs, steps, reference):
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
        if fast.result.exit_reached:
            expected = architectural.run(test_input, CT_SEQ).final_registers
            assert fast.result.final_registers == expected, context


class TestReferenceHelper:
    def test_reference_program_runs_evaluate_on_its_own_decoded_program(self):
        sandbox = Sandbox()
        programs, _ = _workload(sandbox, 1, 0)
        reference = reference_program(programs[0])
        decoded = decode_program(reference)
        assert decoded is not decode_program(programs[0])
        before = [entry.step for entry in decoded.entries]
        O3Core(reference, sandbox=sandbox)
        # The core found the reference steps attached and kept them.
        assert [entry.step for entry in decoded.entries] == before

    def test_reference_emulator_does_not_run_the_steps(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 1, 1)
        ReferenceEmulator(programs[0], sandbox).run(inputs[0], list_contracts()[1])
        assert not decode_program(programs[0]).steps_built


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

    def test_step_calls_equal_the_executed_pcs(self):
        sandbox = Sandbox()
        programs, inputs = _workload(sandbox, 1, 1, seed=SEED + 1)
        contract = list_contracts()[0]  # CT-SEQ: architectural path only
        assert not contract.speculate_branches
        emulator = Emulator(programs[0], sandbox)
        emulator.run(inputs[0], contract)  # builds the steps
        calls = Counter()

        def counting(step, pc):
            def wrapper(*args):
                calls[pc] += 1
                return step(*args)
            return wrapper

        for entry in emulator.decoded.entries:
            entry.step = counting(entry.step, entry.pc)
        result = emulator.run(inputs[0], contract)
        assert result.instruction_count > 0
        assert calls == Counter(result.executed_pcs)

    def test_odd_instruction_shapes_match_the_reference(self):
        sandbox = Sandbox()
        _, inputs = _workload(sandbox, 0, EMULATOR_INPUTS)
        for contract in list_contracts():
            _assert_emulators_agree(odd_shapes_program(), sandbox, inputs, contract)

    def test_litmus_programs_match_the_reference(self):
        for case in all_cases():
            program, input_a, input_b = case.build()
            for contract in list_contracts():
                _assert_emulators_agree(
                    program, case.sandbox(), [input_a, input_b], contract
                )


class TestSimulatorEquivalence:
    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("mode", [ExecutionMode.OPT, ExecutionMode.NAIVE])
    def test_all_defenses_both_modes_byte_identical(self, defense, mode):
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, SIMULATOR_PROGRAMS, SIMULATOR_INPUTS)
        for program in programs + [flag_heavy_program(SEED)]:
            _assert_simulators_agree(program, sandbox, inputs, defense, mode)


_OPERAND_REGISTERS = ("rax", "rbx", "rcx", "rdx", "r8", "r9")
_BINARY = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR)
_UNARY = (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT)


def flag_heavy_program(seed: int) -> Program:
    """A program dense in partial flag writers and flag readers.

    Generated programs rarely put a flag reader right behind INC/DEC or a
    zero-count shift, so this draws every ALU shape, comparisons and masked
    memory accesses in any order, follows each with a SETcc or CMOVcc on a
    random condition, and draws shift counts that include zero and counts
    above 63.  Some readers are followed by a Jcc on the same condition
    whose target is its own fall-through block, where only the condition
    says whether the branch was taken.  An epilogue copies the final flags
    into registers the body never touches.  The program is drawn from
    ``random.Random(seed)``: Hypothesis draws of each choice cluster on the
    first option.
    """
    rng = random.Random(seed)

    def register() -> Register:
        return Register(rng.choice(_OPERAND_REGISTERS))

    def value():
        return register() if rng.random() < 0.5 else Immediate(rng.randint(0, 70))

    blocks = []
    body = []
    for _ in range(rng.randint(8, 24)):
        kind = rng.choice(("binary", "unary", "unary", "compare", "compare", "memory"))
        if kind == "binary":
            body.append(Instruction(rng.choice(_BINARY), (register(), value())))
        elif kind == "unary":
            body.append(Instruction(rng.choice(_UNARY), (register(),)))
        elif kind == "compare":
            body.append(Instruction(rng.choice((Opcode.CMP, Opcode.TEST)), (register(), value())))
        else:
            index = register()
            memory = MemoryOperand(index=index.name, size=rng.choice((1, 2, 4, 8)))
            body.append(Instruction(Opcode.AND, (index, Immediate(0xFF8))))
            access = rng.choice(("load", "store", "load_op", "rmw", "inc"))
            if access == "load":
                body.append(Instruction(Opcode.MOV, (register(), memory)))
            elif access == "store":
                body.append(Instruction(Opcode.MOV, (memory, register())))
            elif access == "load_op":
                body.append(Instruction(rng.choice((Opcode.ADD, Opcode.XOR)), (register(), memory)))
            elif access == "rmw":
                body.append(Instruction(rng.choice((Opcode.ADD, Opcode.XOR)), (memory, register())))
            else:
                body.append(Instruction(rng.choice((Opcode.INC, Opcode.DEC)), (memory,)))
        condition = rng.choice(CONDITION_CODES)
        if rng.random() < 0.7:
            body.append(Instruction(Opcode.SETCC, (register(),), condition=condition))
        else:
            body.append(Instruction(Opcode.CMOV, (register(), register()), condition=condition))
        if rng.random() < 0.25:
            label = f"bb_main.{len(blocks) + 1}"
            blocks.append(BasicBlock(f"bb_main.{len(blocks)}", body, cond_branch(condition, label)))
            body = []
    for name, condition in zip(("r10", "r11", "r12", "r13", "r15"), ("b", "z", "s", "o", "p")):
        body.append(Instruction(Opcode.SETCC, (Register(name),), condition=condition))
    return Program(
        blocks
        + [BasicBlock(f"bb_main.{len(blocks)}", body, jump("bb_main.exit")),
           BasicBlock("bb_main.exit", [], exit_instruction())],
        name=f"flag_heavy_{seed}",
    )


@settings(deadline=None, max_examples=settings.default.max_examples)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_steps_match_the_reference_on_flag_heavy_programs(seed):
    sandbox = Sandbox()
    program = flag_heavy_program(seed)
    input_generator = InputGenerator(sandbox, seed=seed)
    inputs = [input_generator.generate_one() for _ in range(2)]
    for contract in list_contracts():
        _assert_emulators_agree(program, sandbox, inputs, contract)


@settings(deadline=None, max_examples=settings.default.max_examples * 6 // 100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_steps_match_the_reference_for_any_generator_seed(seed):
    """Every registered defense on one random and one flag-heavy program,
    and every contract on the random one."""
    for defense in available_defenses():
        sandbox = Sandbox(pages=defense_class(defense).recommended_sandbox_pages)
        programs, inputs = _workload(sandbox, 1, 2, seed=seed)
        for program in (programs[0], flag_heavy_program(seed)):
            _assert_simulators_agree(
                program, sandbox, inputs, defense, ExecutionMode.OPT
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

    def test_the_core_runs_the_steps(self):
        assert not hasattr(core_module, "ExecutionEffect")
        assert not hasattr(O3Core, "_eval")
        with pytest.raises(ImportError):
            __import__("repro.isa.specialized")

    def test_emulator_does_not_bind_effects(self):
        for name in ("ExecutionEffect", "attach_effect_closures", "_UndoLog"):
            assert not hasattr(emulator_module, name), name
        for name in ("_apply_effect", "_propagate_taint", "_observe_speculative"):
            assert not hasattr(Emulator, name), name

    def test_compilers_raise_on_an_unhandled_opcode(self):
        unknown = SimpleNamespace(name="UNKNOWN")
        decoded = SimpleNamespace(
            instruction=SimpleNamespace(operands=()),
            opcode=unknown,
            fallthrough_pc=0,
            memory_operand=None,
            mem_base=None,
            mem_index=None,
            mem_displacement=0,
            mem_size=0,
            source_registers=(),
            destination_register=None,
        )
        with pytest.raises(NotImplementedError, match="UNKNOWN"):
            compile_step(decoded)
