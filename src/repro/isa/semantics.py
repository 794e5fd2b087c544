"""Shared execution semantics for the reproduction ISA.

Both the functional emulator (the leakage model) and the out-of-order
simulator (the executor substrate) execute instructions through one fused
step per static instruction (:mod:`repro.model.steps`), built from the ALU
functions and condition predicates of this module.  Keeping the semantics
in exactly one place guarantees that the two sides can never disagree
architecturally; any relational-test difference therefore has to originate
in the micro-architecture, which is the property model-based relational
testing relies on.

The generic reference the test suite holds the steps to (``evaluate`` and
its ``ExecutionEffect``) lives beside the tests, in
``tests/reference_semantics.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.isa.instructions import Opcode

def _width_mask(size: int) -> int:
    return (1 << (8 * size)) - 1


#: One predicate per condition code, taking the five flags positionally.
#: :class:`~repro.isa.decoded.DecodedInstruction` binds the predicate once at
#: decode time so the hot path never rebuilds a lookup table per evaluation.
CONDITION_PREDICATES: Dict[str, Callable[[bool, bool, bool, bool, bool], bool]] = {
    "z": lambda zf, sf, cf, of, pf: zf,
    "nz": lambda zf, sf, cf, of, pf: not zf,
    "s": lambda zf, sf, cf, of, pf: sf,
    "ns": lambda zf, sf, cf, of, pf: not sf,
    "o": lambda zf, sf, cf, of, pf: of,
    "no": lambda zf, sf, cf, of, pf: not of,
    "l": lambda zf, sf, cf, of, pf: sf != of,
    "ge": lambda zf, sf, cf, of, pf: sf == of,
    "le": lambda zf, sf, cf, of, pf: zf or (sf != of),
    "g": lambda zf, sf, cf, of, pf: (not zf) and (sf == of),
    "b": lambda zf, sf, cf, of, pf: cf,
    "nb": lambda zf, sf, cf, of, pf: not cf,
    "be": lambda zf, sf, cf, of, pf: cf or zf,
    "a": lambda zf, sf, cf, of, pf: (not cf) and (not zf),
    "p": lambda zf, sf, cf, of, pf: pf,
    "np": lambda zf, sf, cf, of, pf: not pf,
}


def condition_predicate(condition: str) -> Callable[[bool, bool, bool, bool, bool], bool]:
    """Resolve a condition code to its flag predicate once."""
    try:
        return CONDITION_PREDICATES[condition]
    except KeyError:
        raise ValueError(f"unknown condition code: {condition}") from None


#: The five flags in :data:`~repro.isa.registers.FLAG_NAMES` order.
FlagTuple = Tuple[bool, bool, bool, bool, bool]

#: ``fn(a, b, carry_in) -> (result, flags)`` for one ALU opcode at one width:
#: ``a``/``b`` already masked to the width, ``flags`` None when the operation
#: leaves every flag untouched (NOT, zero-count shifts).
AluFunction = Callable[[int, int, bool], Tuple[int, Optional[FlagTuple]]]

#: Even parity of every byte value (x86 PF looks at the low byte only).
_PARITY = tuple(value.bit_count() % 2 == 0 for value in range(256))


def _alu_functions(size: int) -> Dict[Opcode, AluFunction]:
    """The per-opcode ALU functions for one operand width."""
    mask = _width_mask(size)
    top = 1 << (8 * size - 1)  # the sign bit
    bits = 8 * size

    def add(a: int, b: int, carry_in: bool):
        raw = a + b
        result = raw & mask
        negative = result >= top
        sign_a = a >= top
        overflow = sign_a == (b >= top) and negative != sign_a
        return result, (result == 0, negative, raw > mask, overflow, _PARITY[result & 0xFF])

    def sub(a: int, b: int, carry_in: bool):
        result = (a - b) & mask
        negative = result >= top
        sign_a = a >= top
        overflow = sign_a != (b >= top) and negative != sign_a
        return result, (result == 0, negative, a < b, overflow, _PARITY[result & 0xFF])

    def logical(operation: Callable[[int, int], int]) -> AluFunction:
        def apply(a: int, b: int, carry_in: bool):
            result = operation(a, b)
            return result, (result == 0, result >= top, False, False, _PARITY[result & 0xFF])
        return apply

    # INC/DEC preserve the carry flag (x86 behaviour).
    def inc(a: int, b: int, carry_in: bool):
        result = (a + 1) & mask
        return result, (result == 0, result >= top, carry_in, result == top, _PARITY[result & 0xFF])

    def dec(a: int, b: int, carry_in: bool):
        result = (a - 1) & mask
        return result, (result == 0, result >= top, carry_in, a == top, _PARITY[result & 0xFF])

    def neg(a: int, b: int, carry_in: bool):
        result = (-a) & mask
        return result, (result == 0, result >= top, a != 0, a == top, _PARITY[result & 0xFF])

    # NOT does not modify flags on x86.
    def not_(a: int, b: int, carry_in: bool):
        return (~a) & mask, None

    # A zero shift count leaves every flag untouched.
    def shl(a: int, b: int, carry_in: bool):
        amount = b & 0x3F
        if amount == 0:
            return a, None
        shifted = a << amount
        result = shifted & mask
        carry = bool((shifted >> bits) & 1)
        return result, (result == 0, result >= top, carry, False, _PARITY[result & 0xFF])

    def shr(a: int, b: int, carry_in: bool):
        amount = b & 0x3F
        if amount == 0:
            return a, None
        carry = bool((a >> (amount - 1)) & 1) if amount <= bits else False
        result = (a >> amount) & mask
        return result, (result == 0, result >= top, carry, False, _PARITY[result & 0xFF])

    bitwise_and = logical(lambda a, b: a & b)
    return {
        Opcode.ADD: add,
        Opcode.SUB: sub,
        Opcode.CMP: sub,
        Opcode.AND: bitwise_and,
        Opcode.TEST: bitwise_and,
        Opcode.OR: logical(lambda a, b: a | b),
        Opcode.XOR: logical(lambda a, b: a ^ b),
        Opcode.INC: inc,
        Opcode.DEC: dec,
        Opcode.NEG: neg,
        Opcode.NOT: not_,
        Opcode.SHL: shl,
        Opcode.SHR: shr,
    }


_ALU_FUNCTIONS: Dict[int, Dict[Opcode, AluFunction]] = {
    size: _alu_functions(size) for size in (1, 2, 4, 8)
}


def alu_function(opcode: Opcode, size: int = 8) -> AluFunction:
    """The ALU function of ``opcode`` at ``size`` bytes (see :data:`AluFunction`).

    These functions are the one definition of ALU results and flags; the
    interpreters bind them once per static instruction.
    """
    try:
        return _ALU_FUNCTIONS[size][opcode]
    except KeyError:
        raise ValueError(f"no ALU function for {opcode} at {size} bytes") from None
