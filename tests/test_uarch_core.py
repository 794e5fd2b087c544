"""Tests for the out-of-order core: architectural equivalence, speculation and
the per-run state reset."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defenses import create_defense
from repro.generator import GeneratorConfig, InputGenerator, ProgramGenerator, Sandbox
from repro.isa.instructions import Instruction, Opcode
from repro.isa.operands import Immediate, Label, Register
from repro.isa.program import BasicBlock, Program
from repro.litmus import get_case
from repro.litmus.cases import make_input
from repro.litmus.programs import spectre_v1
from repro.model import CT_SEQ, Emulator
from repro.uarch import O3Core, UarchConfig


def _run_pair(program, sandbox, test_input, defense_name="baseline", config=None):
    """Run one input on the emulator and the core; return both results."""
    emulator_result = Emulator(program, sandbox).run(test_input, CT_SEQ)
    core = O3Core(
        program,
        config=config or UarchConfig(),
        defense=create_defense(defense_name),
        sandbox=sandbox,
    )
    core_result = core.run(test_input)
    return emulator_result, core_result, core


class TestArchitecturalEquivalence:
    """The simulator must agree with the leakage model architecturally.

    This is the invariant model-based relational testing rests on: any
    difference between executions must be micro-architectural, so the
    committed architectural state of the core must match the emulator for
    every program and input.
    """

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_random_programs_match_the_emulator(self, seed):
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=seed).generate()
        test_input = InputGenerator(sandbox, seed=seed).generate_one()
        emulator_result, core_result, _ = _run_pair(program, sandbox, test_input)
        assert core_result.exit_reached
        assert core_result.final_registers == emulator_result.final_registers

    @pytest.mark.parametrize(
        "defense_name", ["baseline", "invisispec", "cleanupspec", "stt", "speclfb"]
    )
    def test_defenses_do_not_change_architecture(self, defense_name):
        sandbox = Sandbox()
        generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=77)
        inputs = InputGenerator(sandbox, seed=77)
        for _ in range(5):
            program = generator.generate()
            test_input = inputs.generate_one()
            emulator_result, core_result, _ = _run_pair(
                program, sandbox, test_input, defense_name=defense_name
            )
            assert core_result.exit_reached
            assert core_result.final_registers == emulator_result.final_registers

    def test_spectre_v4_program_is_architecturally_correct(self):
        """The bypassing load must be squashed and re-executed with the
        forwarded value, so the final registers match the in-order model."""
        case = get_case("spectre_v4")
        sandbox = case.sandbox()
        program, input_a, _ = case.build()
        emulator_result, core_result, core = _run_pair(program, sandbox, input_a)
        assert core_result.final_registers == emulator_result.final_registers
        assert core.stats.memory_order_violations >= 1


class TestPerRunState:
    #: What a core keeps from one run to the next: the predictors AMuLeT-Opt
    #: carries over, the memory hierarchy the executor primes, the defense
    #: (reset through ``reset_for_run``), the architectural state rebuilt for
    #: each input, the sandbox buffer whose pages each run reloads, and the
    #: step machine and memory recorder (with its read method) that every
    #: step overwrites before use.
    CARRIED = {
        "branch_predictor",
        "dependence_predictor",
        "memory",
        "defense",
        "arch_state",
        "_sandbox_buffer",
        "_machine",
        "_step_memory",
        "_read_loaded",
    }

    def test_a_reused_core_starts_each_run_like_a_fresh_core(self):
        """After ``_reset_run_state`` every other field of a core that already
        ran equals a new core's, so no per-run field escapes the reset."""
        sandbox = Sandbox()
        program = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=11).generate()
        inputs = InputGenerator(sandbox, seed=11)
        used = O3Core(program, sandbox=sandbox)
        for _ in range(3):
            used.run(inputs.generate_one())
        fresh = O3Core(program, sandbox=sandbox)
        names = sorted(set(vars(fresh)) - self.CARRIED)
        assert set(vars(used)) == set(vars(fresh))
        assert any(getattr(used, name) != getattr(fresh, name) for name in names)

        test_input = inputs.generate_one()
        # The last run left its fetch-ahead stream to the caches' next reader.
        assert used.memory.ahead_pc is not None
        used._reset_run_state(test_input)
        fresh._reset_run_state(test_input)
        for name in names:
            assert getattr(used, name) == getattr(fresh, name), name
        # The carried memory system's stream fields: none is left pending.
        for memory in (used.memory, fresh.memory):
            assert (memory.ahead_pc, memory.ahead_end) == (None, None)


class TestSpeculationMechanics:
    @pytest.mark.parametrize("rax, taken", [(1, False), (0, True)])
    def test_a_jcc_to_its_fall_through_trains_its_real_direction(self, rax, taken):
        """``jz`` whose target is the next instruction goes to the same pc
        either way, so only the condition says whether it was taken."""
        jcc = Instruction(Opcode.JCC, (Label("bb_main.1"),), condition="z")
        program = Program([
            BasicBlock(
                "bb_main.0", [Instruction(Opcode.CMP, (Register("rax"), Immediate(0)))], jcc
            ),
            BasicBlock("bb_main.1", [], Instruction(Opcode.EXIT)),
        ])
        assert jcc.target_pc == jcc.fallthrough_pc
        sandbox = Sandbox()
        core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
        core.run(make_input(sandbox, {"rax": rax}))
        # The untrained predictor says not taken.
        assert core.stats.branch_mispredictions == int(taken)
        assert core.branch_predictor.predict_direction(jcc.pc) is taken

    def test_branch_misprediction_is_detected_and_squashed(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        test_input = make_input(sandbox, {"rax": 1, "rbx": 0x100})
        _, result, core = _run_pair(program, sandbox, test_input)
        assert core.stats.branch_mispredictions == 1
        assert core.stats.instructions_squashed > 0
        assert core.stats.speculative_loads >= 1

    def test_correctly_predicted_branch_after_training(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        test_input = make_input(sandbox, {"rax": 1, "rbx": 0x100})
        core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
        core.run(test_input)
        first_mispredictions = core.stats.branch_mispredictions
        core.run(test_input)  # predictor state carries over between runs
        assert first_mispredictions == 1
        assert core.stats.branch_mispredictions == 0

    def test_speculative_load_installs_cache_line(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        test_input = make_input(sandbox, {"rax": 1, "rbx": 0x200})
        _, _, core = _run_pair(program, sandbox, test_input)
        assert (sandbox.base + 0x200) in core.memory.snapshot_l1d()

    def test_spectre_v4_leaks_the_stale_address(self):
        case = get_case("spectre_v4")
        sandbox = case.sandbox()
        program, input_a, _ = case.build()
        _, _, core = _run_pair(program, sandbox, input_a)
        # The dependent load ran once with the stale value (0x400) and once,
        # after the squash, with the forwarded store value.
        assert (sandbox.base + 0x400) in core.memory.snapshot_l1d()

    def test_memory_dependence_predictor_learns_from_violations(self):
        case = get_case("spectre_v4")
        sandbox = case.sandbox()
        program, input_a, _ = case.build()
        core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
        core.run(input_a)
        assert core.stats.memory_order_violations >= 1
        core.run(input_a)  # second run: the predictor now predicts aliasing
        assert core.stats.memory_order_violations == 0

    def test_store_to_load_forwarding(self):
        sandbox = Sandbox()
        from repro.isa.instructions import Instruction, Opcode, exit_instruction
        from repro.isa.operands import Immediate, Register
        from repro.isa.program import BasicBlock, Program
        from repro.isa.instructions import load, store

        blocks = [
            BasicBlock(
                "bb_main.0",
                [
                    Instruction(Opcode.AND, (Register("rbx"), Immediate(0xFF8))),
                    store("rbx", "rdi"),
                    load("rax", "rbx"),
                ],
                exit_instruction(),
            )
        ]
        program = Program(blocks, name="forwarding")
        test_input = make_input(sandbox, {"rbx": 0x40, "rdi": 0x1234}, {0x40: 0x9999})
        emulator_result, core_result, _ = _run_pair(program, sandbox, test_input)
        assert core_result.final_registers["rax"] == 0x1234
        assert core_result.final_registers == emulator_result.final_registers

    def test_uarch_context_save_restore_round_trip(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
        context = core.save_uarch_context()
        core.run(make_input(sandbox, {"rax": 1, "rbx": 0x100}))
        trained = core.branch_predictor.snapshot()
        core.restore_uarch_context(context)
        assert core.branch_predictor.snapshot() != trained

    def test_exit_is_always_reached_within_the_cycle_budget(self):
        sandbox = Sandbox()
        generator = ProgramGenerator(GeneratorConfig(sandbox=sandbox), seed=31)
        inputs = InputGenerator(sandbox, seed=31)
        for _ in range(10):
            program = generator.generate()
            core = O3Core(program, defense=create_defense("baseline"), sandbox=sandbox)
            result = core.run(inputs.generate_one())
            assert result.exit_reached
            assert result.cycles < UarchConfig().max_cycles

    def test_amplified_config_is_honoured(self):
        sandbox = Sandbox()
        program = spectre_v1(sandbox.aligned_mask)
        config = UarchConfig().with_amplification(l1d_ways=2, mshrs=2)
        core = O3Core(program, config=config, defense=create_defense("baseline"), sandbox=sandbox)
        assert core.memory.l1d.config.ways == 2
        assert core.memory.mshrs.count == 2
        result = core.run(make_input(sandbox, {"rax": 1, "rbx": 0x100}))
        assert result.exit_reached
