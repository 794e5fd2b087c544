"""Unit and property-based tests for the reference instruction semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Instruction, Opcode, cmov, cond_branch, load, store
from repro.isa.operands import Immediate, MemoryOperand, Register
from repro.isa.registers import ArchState, MASK64

from reference_semantics import (
    alu_compute,
    compute_effective_address,
    condition_holds,
    evaluate,
    execute_on_state,
)


def _state(registers=None, memory=None) -> ArchState:
    state = ArchState()
    for name, value in (registers or {}).items():
        state.registers.write(name, value)
    for offset, (size, value) in (memory or {}).items():
        state.write_memory(state.sandbox_base + offset, size, value)
    return state


class TestAluCompute:
    def test_add_sets_carry_and_zero(self):
        result, flags = alu_compute(Opcode.ADD, MASK64, 1, 8)
        assert result == 0
        assert flags["cf"] and flags["zf"]

    def test_add_signed_overflow(self):
        result, flags = alu_compute(Opcode.ADD, 0x7FFFFFFFFFFFFFFF, 1, 8)
        assert flags["of"] and flags["sf"]
        assert result == 0x8000000000000000

    def test_sub_borrow(self):
        result, flags = alu_compute(Opcode.SUB, 1, 2, 8)
        assert result == MASK64
        assert flags["cf"] and flags["sf"] and not flags["zf"]

    def test_cmp_equal_sets_zero(self):
        _, flags = alu_compute(Opcode.CMP, 42, 42, 8)
        assert flags["zf"] and not flags["cf"]

    def test_logical_ops_clear_carry_and_overflow(self):
        for opcode in (Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.TEST):
            _, flags = alu_compute(opcode, 0xF0, 0x0F, 8)
            assert not flags["cf"] and not flags["of"]

    def test_and_result(self):
        result, _ = alu_compute(Opcode.AND, 0xFF00, 0x0FF0, 8)
        assert result == 0x0F00

    def test_inc_wraps_at_width(self):
        result, flags = alu_compute(Opcode.INC, 0xFF, 0, 1)
        assert result == 0 and flags["zf"]

    def test_neg(self):
        result, flags = alu_compute(Opcode.NEG, 5, 0, 8)
        assert result == (-5) & MASK64
        assert flags["cf"]

    def test_neg_zero_clears_carry(self):
        _, flags = alu_compute(Opcode.NEG, 0, 0, 8)
        assert not flags["cf"]

    def test_not_has_no_flags(self):
        result, flags = alu_compute(Opcode.NOT, 0, 0, 8)
        assert result == MASK64 and flags == {}

    def test_shl_and_shr(self):
        result, flags = alu_compute(Opcode.SHL, 0x1, 4, 8)
        assert result == 0x10
        result, flags = alu_compute(Opcode.SHR, 0x10, 4, 8)
        assert result == 0x1

    def test_shift_by_zero_preserves_flags(self):
        result, flags = alu_compute(Opcode.SHL, 7, 0, 8)
        assert result == 7 and flags == {}

    def test_width_masks_operands(self):
        result, _ = alu_compute(Opcode.ADD, 0x1FF, 0x01, 1)
        assert result == 0x00  # 0xFF + 0x01 wraps at 8 bits

    def test_non_alu_opcode_raises(self):
        with pytest.raises(ValueError):
            alu_compute(Opcode.MOV, 1, 2, 8)

    @given(a=st.integers(0, MASK64), b=st.integers(0, MASK64))
    @settings(max_examples=150)
    def test_add_matches_python_arithmetic(self, a, b):
        result, flags = alu_compute(Opcode.ADD, a, b, 8)
        assert result == (a + b) & MASK64
        assert flags["cf"] == ((a + b) > MASK64)
        assert flags["zf"] == (result == 0)

    @given(a=st.integers(0, MASK64), b=st.integers(0, MASK64))
    @settings(max_examples=150)
    def test_sub_matches_python_arithmetic(self, a, b):
        result, flags = alu_compute(Opcode.SUB, a, b, 8)
        assert result == (a - b) & MASK64
        assert flags["cf"] == (a < b)

    @given(
        opcode=st.sampled_from([Opcode.AND, Opcode.OR, Opcode.XOR]),
        a=st.integers(0, MASK64),
        b=st.integers(0, MASK64),
    )
    @settings(max_examples=150)
    def test_bitwise_ops(self, opcode, a, b):
        expected = {Opcode.AND: a & b, Opcode.OR: a | b, Opcode.XOR: a ^ b}[opcode]
        result, flags = alu_compute(opcode, a, b, 8)
        assert result == expected
        assert flags["sf"] == bool(result >> 63)


class TestConditionCodes:
    def test_zero_flag_conditions(self):
        assert condition_holds("z", {"zf": True})
        assert condition_holds("nz", {"zf": False})

    def test_signed_comparisons(self):
        # sf != of  =>  "less than"
        assert condition_holds("l", {"sf": True, "of": False})
        assert condition_holds("ge", {"sf": True, "of": True})
        assert condition_holds("g", {"zf": False, "sf": False, "of": False})
        assert condition_holds("le", {"zf": True, "sf": False, "of": False})

    def test_unsigned_comparisons(self):
        assert condition_holds("b", {"cf": True})
        assert condition_holds("a", {"cf": False, "zf": False})
        assert condition_holds("be", {"cf": False, "zf": True})

    def test_parity_and_sign(self):
        assert condition_holds("p", {"pf": True})
        assert condition_holds("ns", {"sf": False})

    def test_unknown_condition_raises(self):
        with pytest.raises(ValueError):
            condition_holds("xx", {})

    @given(
        flags=st.fixed_dictionaries(
            {name: st.booleans() for name in ("zf", "sf", "cf", "of", "pf")}
        )
    )
    @settings(max_examples=100)
    def test_complementary_conditions(self, flags):
        for positive, negative in (("z", "nz"), ("s", "ns"), ("o", "no"), ("b", "nb"), ("p", "np"), ("l", "ge")):
            assert condition_holds(positive, flags) != condition_holds(negative, flags)


class TestEvaluate:
    def test_mov_register_immediate(self):
        state = _state()
        effect = execute_on_state(
            Instruction(Opcode.MOV, (Register("rax"), Immediate(7))), state
        )
        assert state.registers.read("rax") == 7
        assert effect.memory_write is None

    def test_load_reads_memory(self):
        state = _state({"rbx": 0x20}, {0x20: (8, 0xCAFE)})
        instruction = load("rax", "rbx")
        effect = execute_on_state(instruction, state)
        assert state.registers.read("rax") == 0xCAFE
        assert effect.memory_read == (state.sandbox_base + 0x20, 8)

    def test_store_writes_memory(self):
        state = _state({"rbx": 0x40, "rdi": 0x99})
        execute_on_state(store("rbx", "rdi"), state)
        assert state.read_memory(state.sandbox_base + 0x40, 8) == 0x99

    def test_rmw_reads_and_writes(self):
        state = _state({"rbx": 0x10, "rdi": 0x0F}, {0x10: (8, 0xF0)})
        instruction = Instruction(Opcode.OR, (MemoryOperand(index="rbx"), Register("rdi")))
        effect = execute_on_state(instruction, state)
        assert state.read_memory(state.sandbox_base + 0x10, 8) == 0xFF
        assert effect.memory_read is not None and effect.memory_write is not None

    def test_cmov_taken_and_not_taken(self):
        state = _state({"rax": 1, "rbx": 2})
        state.flags.update({"zf": True})
        execute_on_state(cmov("z", "rax", Register("rbx")), state)
        assert state.registers.read("rax") == 2
        state.flags.update({"zf": False})
        execute_on_state(cmov("z", "rax", Register("rcx")), state)
        assert state.registers.read("rax") == 2  # unchanged

    def test_setcc(self):
        state = _state()
        state.flags.update({"cf": True})
        execute_on_state(Instruction(Opcode.SETCC, (Register("rax"),), condition="b"), state)
        assert state.registers.read("rax") == 1

    def test_conditional_branch_next_pc(self):
        state = _state()
        branch = cond_branch("z", "bb")
        branch.pc, branch.target_pc, branch.fallthrough_pc = 0x100, 0x200, 0x104
        state.flags.update({"zf": True})
        effect = evaluate(branch, state.registers.read, state.flags.as_dict(), state.read_memory)
        assert effect.branch_taken and effect.next_pc == 0x200
        state.flags.update({"zf": False})
        effect = evaluate(branch, state.registers.read, state.flags.as_dict(), state.read_memory)
        assert not effect.branch_taken and effect.next_pc == 0x104

    def test_cmp_only_sets_flags(self):
        state = _state({"rax": 5})
        execute_on_state(Instruction(Opcode.CMP, (Register("rax"), Immediate(5))), state)
        assert state.flags.zf
        assert state.registers.read("rax") == 5

    def test_inc_preserves_carry(self):
        state = _state({"rax": 1})
        state.flags.update({"cf": True})
        execute_on_state(Instruction(Opcode.INC, (Register("rax"),)), state)
        assert state.flags.cf is True

    def test_effective_address_with_displacement(self):
        state = _state({"rbx": 0x10})
        operand = MemoryOperand(index="rbx", displacement=0x20)
        address = compute_effective_address(operand, state.registers.read)
        assert address == state.sandbox_base + 0x30

    def test_small_access_sizes(self):
        state = _state({"rbx": 0x8}, {0x8: (8, 0x1122334455667788)})
        instruction = load("rax", "rbx", size=2)
        execute_on_state(instruction, state)
        assert state.registers.read("rax") == 0x7788
