"""Determinism equivalence of the decode-once hot path.

``tests/data/golden_traces.json`` pins the interpreters' observable
behaviour on a fixed seeded workload (first recorded with the
pre-``DecodedProgram`` interpreters; see ``golden_utils`` for its history).
These tests replay the identical seeded workload through the current code
and require byte-identical results — contract traces, taint sets,
micro-architectural traces, cycle counts and final register files — for
every contract, every defense, and both execution modes.

Also covers the :class:`DecodedProgram` layer directly and the journal-based
taint snapshot/restore that replaced the per-branch deep copies.
"""

from __future__ import annotations

import itertools
import json

import pytest

from golden_utils import (
    DEFENSES,
    FULL_TRACE,
    GOLDEN_INPUTS,
    GOLDEN_PATH,
    GOLDEN_PROGRAMS,
    GOLDEN_SEED,
    collect_golden,
)
from reference_emulator import odd_shapes_program
from reference_semantics import condition_holds
from repro.core.scheduler import ExecutionScheduler, FilterLevel
from repro.core.testcase import TestCase as RelationalTestCase
from repro.executor.executor import ExecutionMode, SimulatorExecutor
from repro.generator.config import GeneratorConfig
from repro.generator.inputs import InputGenerator
from repro.generator.program_generator import ProgramGenerator
from repro.generator.sandbox import Sandbox
from repro.isa.decoded import DecodedProgram, decode_program
from repro.isa.instructions import CONDITION_CODES, InstructionClass
from repro.isa.program import INSTRUCTION_SIZE
from repro.isa.semantics import condition_predicate
from repro.litmus import all_cases
from repro.model.contracts import Contract, get_contract
from repro.model.emulator import Emulator
from repro.model.taint import TaintState


def _run_scheduled(executor, program, inputs, filter_level):
    """Emulate, plan and simulate one program's inputs as
    ``AmuletFuzzer.run_round`` does: the scheduler partitions the CT-SEQ
    contract traces, and only its executable entries reach ``run_input``
    (skipped entries keep ``record=None``).  Returns the plan."""
    contract = get_contract("CT-SEQ")
    emulator = Emulator(program, executor.sandbox)
    test_case = RelationalTestCase(program=program)
    for test_input in inputs:
        model_result = emulator.run(test_input, contract)
        test_case.add(test_input, model_result.trace, speculation=model_result.speculation)
    plan = ExecutionScheduler(FilterLevel(filter_level)).plan(test_case)
    if plan.executable:
        executor.load_program(program)
        for entry in plan.executable:
            entry.record = executor.run_input(entry.test_input)
    return plan


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def fresh() -> dict:
    return collect_golden()


class TestGoldenEquivalence:
    def test_same_workload(self, golden, fresh):
        """The seeded generator still produces the recorded programs."""
        assert golden["seed"] == fresh["seed"]
        assert golden["programs"] == fresh["programs"]

    def test_contract_runs_are_byte_identical(self, golden, fresh):
        assert len(golden["contract_runs"]) == len(fresh["contract_runs"])
        for recorded, replayed in zip(golden["contract_runs"], fresh["contract_runs"]):
            context = (
                f"program {recorded['program']} contract {recorded['contract']} "
                f"input {recorded['input']}"
            )
            assert recorded == replayed, f"contract divergence at {context}"

    def test_contract_runs_cover_speculating_contracts(self, golden):
        contracts = {run["contract"] for run in golden["contract_runs"]}
        assert {"CT-SEQ", "CT-COND", "ARCH-SEQ", "ARCH-COND"} <= contracts
        # The speculative execution clause must actually have fired.
        assert any(
            run["speculative_instruction_count"] > 0
            for run in golden["contract_runs"]
            if run["contract"] in ("CT-COND", "ARCH-COND")
        )

    def test_uarch_runs_are_byte_identical(self, golden, fresh):
        assert len(golden["uarch_runs"]) == len(fresh["uarch_runs"])
        for recorded, replayed in zip(golden["uarch_runs"], fresh["uarch_runs"]):
            context = (
                f"program {recorded['program']} defense {recorded['defense']} "
                f"mode {recorded['mode']} input {recorded['input']}"
            )
            assert recorded == replayed, f"uarch divergence at {context}"

    def test_uarch_runs_cover_all_defenses_and_modes(self, golden):
        combinations = {(run["defense"], run["mode"]) for run in golden["uarch_runs"]}
        defenses = ("baseline", "invisispec", "stt", "cleanupspec", "speclfb")
        assert combinations == set(itertools.product(defenses, ("naive", "opt")))


class TestDecodedProgram:
    @pytest.fixture(scope="class")
    def program(self):
        generator = ProgramGenerator(GeneratorConfig(sandbox=Sandbox()), seed=99)
        return generator.generate()

    def test_decode_program_is_cached_per_program(self, program):
        assert decode_program(program) is decode_program(program)
        other = ProgramGenerator(GeneratorConfig(sandbox=Sandbox()), seed=100).generate()
        assert decode_program(other) is not decode_program(program)

    def test_dense_table_matches_instruction_at(self, program):
        decoded = DecodedProgram(program)
        for pc in range(program.code_base - 8, program.end_pc + 8):
            entry = decoded.at_pc(pc)
            instruction = program.instruction_at(pc)
            if instruction is None:
                assert entry is None
            else:
                assert entry is not None and entry.instruction is instruction

    #: Decoded slots that mirror the like-named Instruction attribute,
    #: property or method.
    MIRRORED = (
        "pc", "opcode", "condition", "target_pc", "fallthrough_pc",
        "instruction_class", "is_branch", "is_cond_branch", "is_exit", "is_load",
        "is_store", "is_memory_access", "writes_flags", "reads_flags",
        "writes_dest_register", "source_registers", "destination_register",
        "address_registers", "memory_operand",
    )

    @staticmethod
    def _programs():
        generator = ProgramGenerator(GeneratorConfig(sandbox=Sandbox()), seed=99)
        yield from (generator.generate() for _ in range(40))
        for case in all_cases():
            yield case.build()[0]
        yield odd_shapes_program()

    def test_every_slot_equals_the_instruction_property_it_mirrors(self):
        checked = set()
        for program in self._programs():
            for entry in DecodedProgram(program).entries:
                instruction = entry.instruction
                for name in self.MIRRORED:
                    expected = getattr(instruction, name)
                    if callable(expected):
                        expected = expected()
                    assert getattr(entry, name) == expected, (name, str(instruction))
                assert set(entry.needed_registers) == set(
                    instruction.source_registers()
                ) | set(instruction.address_registers())
                mem = instruction.memory_operand
                if mem is None:
                    assert entry.mem_base is None and entry.mem_size == 0
                else:
                    assert (
                        entry.mem_base, entry.mem_index, entry.mem_displacement,
                        entry.mem_size,
                    ) == (mem.base, mem.index, mem.displacement, mem.size)
                checked.add(entry.instruction_class)
        assert checked == set(InstructionClass)

    def test_cache_does_not_pin_dead_programs(self):
        """The decode cache must not leak: a campaign decodes thousands of
        short-lived programs, and a value referencing its weak key would
        pin every one of them for the process lifetime."""
        import gc
        import weakref

        from repro.isa.decoded import _DECODED_CACHE

        generator = ProgramGenerator(GeneratorConfig(sandbox=Sandbox()), seed=123)
        refs = []
        for _ in range(10):
            program = generator.generate()
            decode_program(program)
            refs.append(weakref.ref(program))
        del program
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert not any(ref() in _DECODED_CACHE for ref in refs)

    def test_misaligned_pc_is_rejected(self, program):
        decoded = DecodedProgram(program)
        assert decoded.at_pc(program.code_base + 1) is None
        assert decoded.at_pc(program.code_base - INSTRUCTION_SIZE) is None
        assert decoded.at_pc(program.end_pc) is None


class TestFilterTracePreservation:
    """Execution filtering never changes the bytes of a collected trace.

    The golden traces did not need re-recording for the execution scheduler
    because filtering only *removes* simulations: this suite replays the
    golden workload (same seed, same programs, same full trace format)
    through the scheduler the way ``run_round`` routes it and asserts that
    every trace still collected under ``singleton``/``speculation`` filtering
    is byte-identical to the unfiltered run.  Duplicated inputs guarantee
    multi-entry contract classes so the comparison is never vacuous.  Naive
    mode is exactly preserving whatever the skip order; in Opt mode the
    skipped entries are scheduled after the executed ones here, which keeps
    the carried predictor state identical too (see the fidelity caveat in
    ``repro.core.scheduler``).
    """

    @pytest.fixture(scope="class")
    def workload(self):
        sandbox = Sandbox()
        program_generator = ProgramGenerator(
            GeneratorConfig(sandbox=sandbox), seed=GOLDEN_SEED
        )
        input_generator = InputGenerator(sandbox, seed=GOLDEN_SEED)
        programs = [program_generator.generate() for _ in range(GOLDEN_PROGRAMS)]
        base_inputs = [input_generator.generate_one() for _ in range(GOLDEN_INPUTS)]
        # Duplicate the first two inputs so their contract classes have two
        # members (executed); the remaining inputs stay singletons (skipped).
        inputs = [
            base_inputs[0],
            base_inputs[0],
            base_inputs[1],
            base_inputs[1],
            *base_inputs[2:],
        ]
        return sandbox, programs, inputs

    @staticmethod
    def _collect(sandbox, programs, inputs, mode, filter_level):
        traces = []
        skipped = 0
        executor = SimulatorExecutor(
            defense_factory="baseline",
            sandbox=sandbox,
            trace_config=FULL_TRACE,
            mode=mode,
        )
        for program in programs:
            plan = _run_scheduled(executor, program, inputs, filter_level)
            traces.append(
                [
                    None if entry.record is None else repr(entry.record.trace.components)
                    for entry in plan.test_case.entries
                ]
            )
            skipped += sum(plan.skip_counts().values())
        return traces, skipped

    @pytest.mark.parametrize("mode", (ExecutionMode.NAIVE, ExecutionMode.OPT))
    @pytest.mark.parametrize("filter_level", ("singleton", "speculation"))
    def test_collected_traces_are_byte_identical(self, workload, mode, filter_level):
        sandbox, programs, inputs = workload
        reference, _ = self._collect(sandbox, programs, inputs, mode, "none")
        filtered, skipped = self._collect(sandbox, programs, inputs, mode, filter_level)
        assert skipped > 0, "the workload must actually exercise the filter"
        compared = 0
        for program_traces, reference_traces in zip(filtered, reference):
            for trace_bytes, reference_bytes in zip(program_traces, reference_traces):
                if trace_bytes is None:
                    continue
                compared += 1
                assert trace_bytes == reference_bytes
        assert compared > 0, "filtering must leave some traces to compare"

    def test_unfiltered_batch_still_matches_the_goldens(self, golden):
        """The scheduled path with ``filter=none`` reproduces the recorded
        golden traces exactly (same executor lifecycle as the collection)."""
        sandbox = Sandbox()
        program_generator = ProgramGenerator(
            GeneratorConfig(sandbox=sandbox), seed=GOLDEN_SEED
        )
        input_generator = InputGenerator(sandbox, seed=GOLDEN_SEED)
        programs = [program_generator.generate() for _ in range(GOLDEN_PROGRAMS)]
        inputs = [input_generator.generate_one() for _ in range(GOLDEN_INPUTS)]
        recorded = {
            (run["defense"], run["mode"], run["program"], run["input"]): run["trace"]
            for run in golden["uarch_runs"]
        }
        for defense in DEFENSES:
            for mode in (ExecutionMode.NAIVE, ExecutionMode.OPT):
                executor = SimulatorExecutor(
                    defense_factory=defense,
                    sandbox=sandbox,
                    trace_config=FULL_TRACE,
                    mode=mode,
                )
                for program_index, program in enumerate(programs):
                    plan = _run_scheduled(executor, program, inputs, "none")
                    for input_index, entry in enumerate(plan.test_case.entries):
                        key = (defense, mode.value, program_index, input_index)
                        assert repr(entry.record.trace.components) == recorded[key]


class TestConditionPredicates:
    def test_predicates_agree_with_condition_holds(self):
        flag_names = ("zf", "sf", "cf", "of", "pf")
        for condition in CONDITION_CODES:
            predicate = condition_predicate(condition)
            for bits in range(32):
                flags = {
                    name: bool((bits >> position) & 1)
                    for position, name in enumerate(flag_names)
                }
                expected = condition_holds(condition, flags)
                assert (
                    bool(
                        predicate(
                            flags["zf"], flags["sf"], flags["cf"], flags["of"], flags["pf"]
                        )
                    )
                    == expected
                ), f"{condition} with {flags}"

    def test_unknown_condition_raises(self):
        with pytest.raises(ValueError):
            condition_predicate("zz")
        with pytest.raises(ValueError):
            condition_holds("zz", {})


class TestTaintJournal:
    """The journal-based snapshot/restore that replaced per-branch deep copies."""

    def _state(self) -> TaintState:
        return TaintState(Sandbox())

    def test_nested_speculation_restores_exactly(self):
        taint = self._state()
        base = taint.sandbox.base
        taint.set_register("r8", frozenset({("reg", "rax")}))
        taint.set_memory(base + 16, 8, frozenset({("reg", "rbx")}))
        before_registers = dict(taint.register_taints)
        before_memory = dict(taint._memory_taints)
        before_flags = taint.flag_taint

        outer = taint.snapshot()
        taint.set_register("r8", frozenset({("reg", "rcx")}))
        taint.set_flags(frozenset({("reg", "rdx")}))
        taint.set_memory(base + 16, 8, frozenset({("reg", "rsi")}))
        taint.set_memory(base + 64, 8, frozenset({("reg", "rdi")}))  # fresh granule

        inner = taint.snapshot()
        taint.set_register("r9", frozenset({("mem", 0)}))
        taint.set_memory(base + 64, 4, frozenset({("mem", 8)}))
        taint.restore(inner)

        # Inner effects are gone, outer effects still visible.
        assert taint.register_taints["r9"] == frozenset()
        assert taint.register_taints["r8"] == frozenset({("reg", "rcx")})
        assert taint._memory_taints[64] == frozenset({("reg", "rdi")})

        taint.restore(outer)
        assert taint.register_taints == before_registers
        assert taint._memory_taints == before_memory
        assert taint.flag_taint == before_flags
        # The granule that only ever existed speculatively is gone again.
        assert 64 not in taint._memory_taints

    def test_architectural_writes_are_not_journalled(self):
        taint = self._state()
        taint.set_register("r10", frozenset({("reg", "rax")}))
        assert taint._journal == []

    def test_relevant_survives_restore(self):
        taint = self._state()
        mark = taint.snapshot()
        taint.mark_relevant(frozenset({("reg", "rax")}))
        taint.restore(mark)
        assert ("reg", "rax") in taint.relevant_labels()

    def test_emulator_speculation_leaves_no_residue(self):
        """Back-to-back CT-COND runs and a CT-SEQ run agree architecturally.

        Nested speculative exploration (max_nesting=2) mutates and rolls
        back taint and architectural state; any leak across the rollback
        would change the second run or the non-speculating run.
        """
        from repro.generator.inputs import InputGenerator

        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=7).generate()
        test_input = InputGenerator(sandbox, seed=7).generate_one()
        emulator = Emulator(program, sandbox)
        nested = Contract(name="CT-COND-NESTED", speculate_branches=True, max_nesting=2)
        plain = Contract(name="CT-SEQ-REF")

        first = emulator.run(test_input, nested)
        second = emulator.run(test_input, nested)
        reference = emulator.run(test_input, plain)

        assert first.trace == second.trace
        assert first.relevant_labels == second.relevant_labels
        assert first.final_registers == second.final_registers
        assert first.final_registers == reference.final_registers
        assert first.executed_pcs == reference.executed_pcs
