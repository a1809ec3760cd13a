"""Functional semantics for the mini-ISA.

:func:`execute` is a pure(ish) evaluator: it reads sources through a caller
supplied function and touches memory only through the provided
:class:`~repro.memory.main_memory.MainMemory`.  The same evaluator drives

* committed execution in the timing cores, and
* SVR's transient per-lane execution (Section IV-A4 of the paper), where the
  source reader substitutes speculative-register-file lane values and stores
  are suppressed (transient instructions must not affect architectural state).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.isa.instructions import Instruction, OpClass, Opcode
from repro.isa.registers import to_signed64, wrap64

_MASK64 = (1 << 64) - 1
# Fixed-point scale used by the FP-style ops (graph scores are Q32.16).
FP_SHIFT = 16


@dataclass(slots=True)
class ExecResult:
    """Outcome of functionally executing one instruction.

    ``value``    the result written to ``rd`` (or the store data)
    ``address``  effective memory address for LD/ST, else ``None``
    ``taken``    branch outcome for conditional branches, else ``None``
    ``next_pc``  PC of the next instruction to execute
    ``halted``   true when a HALT was executed
    """

    value: int | None = None
    address: int | None = None
    taken: bool | None = None
    next_pc: int = 0
    halted: bool = False
    src_a: int = 0     # rs1 value as read (LC register needs compare sources)
    src_b: int = 0     # rs2 value as read


# One evaluator per ALU/FP/CMP opcode, indexed by ``Instruction.opindex``.
# The hot paths (the timing cores' run loops and SVR's per-lane transient
# execution) fetch the callable with one list index instead of walking an
# if-chain and hashing enum members.  The common ops mask with ``_MASK64``
# inline rather than calling :func:`wrap64`, and the signed compares flip
# the sign bit of the wrapped operands (an order-preserving map onto
# unsigned order) rather than calling :func:`to_signed64` twice.
_SIGN64 = 1 << 63
_ALU_TABLE: dict[Opcode, Callable[[int, int, int], int]] = {
    Opcode.ADD: lambda a, b, imm: (a + b) & _MASK64,
    Opcode.SUB: lambda a, b, imm: (a - b) & _MASK64,
    Opcode.MUL: lambda a, b, imm: (a * b) & _MASK64,
    Opcode.AND: lambda a, b, imm: a & b,
    Opcode.OR: lambda a, b, imm: a | b,
    Opcode.XOR: lambda a, b, imm: a ^ b,
    Opcode.SLL: lambda a, b, imm: (a << (b & 63)) & _MASK64,
    Opcode.SRL: lambda a, b, imm: a >> (b & 63),
    Opcode.MIN: lambda a, b, imm: wrap64(min(to_signed64(a), to_signed64(b))),
    Opcode.MAX: lambda a, b, imm: wrap64(max(to_signed64(a), to_signed64(b))),
    Opcode.ADDI: lambda a, b, imm: (a + imm) & _MASK64,
    Opcode.ANDI: lambda a, b, imm: a & imm & _MASK64,
    Opcode.ORI: lambda a, b, imm: a | (imm & _MASK64),
    Opcode.XORI: lambda a, b, imm: a ^ (imm & _MASK64),
    Opcode.SLLI: lambda a, b, imm: (a << (imm & 63)) & _MASK64,
    Opcode.SRLI: lambda a, b, imm: a >> (imm & 63),
    Opcode.MULI: lambda a, b, imm: (a * imm) & _MASK64,
    Opcode.LI: lambda a, b, imm: imm & _MASK64,
    Opcode.MV: lambda a, b, imm: a,
    Opcode.FADD: lambda a, b, imm: (a + b) & _MASK64,
    # Q32.16 fixed-point multiply.
    Opcode.FMUL: lambda a, b, imm: wrap64(
        (to_signed64(a) * to_signed64(b)) >> FP_SHIFT),
    Opcode.CMP_LT: lambda a, b, imm: (
        1 if (a & _MASK64) ^ _SIGN64 < (b & _MASK64) ^ _SIGN64 else 0),
    Opcode.CMP_LTU: lambda a, b, imm: 1 if a < b else 0,
    Opcode.CMP_EQ: lambda a, b, imm: 1 if a == b else 0,
    Opcode.CMP_NE: lambda a, b, imm: 1 if a != b else 0,
    Opcode.CMP_GE: lambda a, b, imm: (
        1 if (a & _MASK64) ^ _SIGN64 >= (b & _MASK64) ^ _SIGN64 else 0),
}

_ALU_BY_INDEX: list[Callable[[int, int, int], int] | None] = [
    _ALU_TABLE.get(op) for op in Opcode
]


def alu_fn(inst: Instruction) -> Callable[[int, int, int], int] | None:
    """The pre-decoded ``(a, b, imm) -> value`` evaluator for *inst*.

    ``None`` for non-ALU opcodes.  SVR hoists this lookup out of its
    per-lane loops.
    """
    return _ALU_BY_INDEX[inst.opindex]


def alu_compute(op: Opcode, a: int, b: int, imm: int) -> int:
    """Evaluate an ALU/FP/CMP operation on 64-bit values.

    Shared by committed and transient execution so the two can never drift.
    """
    fn = _ALU_TABLE.get(op)
    if fn is None:
        raise ValueError(f"not an ALU-evaluable opcode: {op}")
    return fn(a, b, imm)


def execute(
    inst: Instruction,
    pc: int,
    read_reg: Callable[[int], int],
    memory,
    commit_stores: bool = True,
) -> ExecResult:
    """Execute *inst* at *pc* and return the :class:`ExecResult`.

    ``read_reg`` supplies source operand values (architectural registers for
    real execution, SRF lanes for transient SVR execution).  ``memory`` must
    expose ``read_word(addr)`` / ``write_word(addr, value)``.  With
    ``commit_stores=False`` store data is computed but memory is untouched.
    """
    result = ExecResult(next_pc=pc + 1)
    opclass = inst.opclass

    if opclass is OpClass.LOAD:
        addr = wrap64(read_reg(inst.rs1) + inst.imm)
        result.address = addr
        result.value = memory.read_word(addr)
    elif opclass is OpClass.STORE:
        addr = wrap64(read_reg(inst.rs1) + inst.imm)
        result.address = addr
        result.value = read_reg(inst.rs2)
        if commit_stores:
            memory.write_word(addr, result.value)
    elif opclass is OpClass.BRANCH:
        value = read_reg(inst.rs1)
        result.src_a = value
        if (value == 0) if inst.op is Opcode.BEQZ else (value != 0):
            result.taken = True
            result.next_pc = inst.target
        else:
            result.taken = False
    elif opclass is OpClass.JUMP:
        result.taken = True
        result.next_pc = inst.target
    elif opclass is OpClass.HALT:
        result.halted = True
        result.next_pc = pc
    elif opclass is OpClass.NOP:
        pass
    else:
        a = read_reg(inst.rs1) if inst.rs1 is not None else 0
        b = read_reg(inst.rs2) if inst.rs2 is not None else 0
        result.src_a = a
        result.src_b = b
        result.value = _ALU_BY_INDEX[inst.opindex](a, b, inst.imm)

    return result


def fixed_point(value: float) -> int:
    """Convert a float to the Q32.16 fixed-point encoding used by kernels."""
    return wrap64(int(round(value * (1 << FP_SHIFT))))


def from_fixed_point(value: int) -> float:
    """Convert a Q32.16 fixed-point register value back to a float."""
    return to_signed64(value) / (1 << FP_SHIFT)
