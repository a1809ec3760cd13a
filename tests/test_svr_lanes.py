"""Per-lane semantics of scalar-vector instructions.

Each SVI lane is a scalar copy of the instruction it clones (Section
IV-A4): its ALU result, its address arithmetic, its load value and its
branch outcome must be exactly what the scalar pipeline would produce for
that lane's operands.  These tests drive the SVR unit's per-lane paths
directly with adversarial 64-bit lane values (sign boundaries,
wrap-around, shift extremes) and compare every lane with the committed-path
evaluator, :func:`repro.isa.executor.execute`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.isa.executor import alu_fn, execute
from repro.isa.instructions import (
    ALU_OPS,
    CMP_OPS,
    FP_OPS,
    Instruction,
    Opcode,
)
from repro.isa.program import ProgramBuilder
from repro.isa.registers import wrap64
from repro.svr.config import SVRConfig
from repro.svr.stride_detector import StrideEntry

from conftest import make_inorder, make_memory

MASK64 = (1 << 64) - 1

# Adversarial 64-bit operand pool: zero, small, sign boundaries, all-ones,
# and a pseudo-random spread (fixed seed — determinism contract).
OPERANDS = (
    [0, 1, 2, 7, 63, 64, 255,
     (1 << 31) - 1, 1 << 31, (1 << 32) - 1, 1 << 32,
     (1 << 63) - 1, 1 << 63, (1 << 63) + 1, MASK64 - 1, MASK64]
    + np.random.default_rng(0xC0FFEE).integers(
        0, 1 << 64, size=16, dtype=np.uint64).tolist())
IMMEDIATES = [0, 1, 8, 63, 64, -1, -8, 4096, -4096, (1 << 62), -(1 << 62)]

_IMM_OPS = sorted(
    (Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI,
     Opcode.SRLI, Opcode.MULI, Opcode.LI),
    key=lambda op: op.value)
_TWO_OPERAND = sorted(
    (op for op in ALU_OPS | FP_OPS | CMP_OPS
     if op not in _IMM_OPS and op is not Opcode.MV),
    key=lambda op: op.value)

# Far outside the simulated memory image.
_UNMAPPED = 1 << 40
# ALU ops never touch memory; execute() still wants one.
_ALU_MEMORY = make_memory(64)


def _make(op: Opcode, imm: int = 0) -> Instruction:
    if op is Opcode.LI:
        return Instruction(op, rd=1, imm=imm)
    if op is Opcode.MV:
        return Instruction(op, rd=1, rs1=2)
    if op in _IMM_OPS:
        return Instruction(op, rd=1, rs1=2, imm=imm)
    return Instruction(op, rd=1, rs1=2, rs2=3)


def _lane_unit(lanes: int = len(OPERANDS), memory=None, **overrides):
    """An SVR unit in PRM with every lane active, on an in-order core."""
    builder = ProgramBuilder()
    builder.halt()
    _, _, unit = make_inorder(
        builder.build(), memory if memory is not None else make_memory(),
        svr=SVRConfig(vector_length=lanes, **overrides))
    unit.in_prm = True
    unit.mask = [True] * lanes
    return unit


def _map_lanes(unit, reg: int, values) -> None:
    """Give tainted register *reg* one ready, valid value per lane."""
    srf_id = unit.srf.allocate(reg, unit.taint)
    unit.taint.map(reg, srf_id, 0)
    for lane, value in enumerate(values):
        unit.srf.write_lane(srf_id, lane, value, 0.0)


def _dest_lanes(unit, reg: int) -> tuple[list[int], list[bool]]:
    srf_id = unit.taint.srf_of(reg)
    return unit.srf.values[srf_id], unit.srf.valid[srf_id]


def _record_prefetches(unit) -> list[tuple[int, float]]:
    """Capture each lane's (target, start) instead of touching caches."""
    calls: list[tuple[int, float]] = []

    def prefetch(addr, time, *_args, **_kwargs):
        calls.append((addr, time))
        return None

    unit.core.hierarchy.prefetch = prefetch
    return calls


def _scalar(inst: Instruction, a: int, b: int) -> int:
    regs = {2: a, 3: b}
    return execute(inst, 0, regs.__getitem__, _ALU_MEMORY,
                   commit_stores=False).value


class TestVectorKernelExactness:
    """Dependent ALU SVIs compute each lane as the scalar core would."""

    @pytest.mark.parametrize("op", _TWO_OPERAND, ids=lambda o: o.value)
    def test_two_operand_matches_scalar(self, op):
        inst = _make(op)
        unit = _lane_unit()
        # Every rotation of the pool against itself: all (a, b) pairs.
        for shift in range(len(OPERANDS)):
            rotated = OPERANDS[shift:] + OPERANDS[:shift]
            _map_lanes(unit, 2, OPERANDS)
            _map_lanes(unit, 3, rotated)
            unit._generate_dependent_alu(inst, 0.0)
            values, valid = _dest_lanes(unit, 1)
            assert all(valid)
            assert values == [_scalar(inst, a, b)
                              for a, b in zip(OPERANDS, rotated)]

    @pytest.mark.parametrize("op", _IMM_OPS, ids=lambda o: o.value)
    @pytest.mark.parametrize("imm", IMMEDIATES)
    def test_immediate_matches_scalar(self, op, imm):
        if op in (Opcode.SLLI, Opcode.SRLI) and imm < 0:
            imm &= 63   # the assembler never emits negative shift counts
        inst = _make(op, imm=imm)
        unit = _lane_unit()
        _map_lanes(unit, 2, OPERANDS)
        unit._generate_dependent_alu(inst, 0.0)
        values, valid = _dest_lanes(unit, 1)
        assert all(valid)
        assert values == [_scalar(inst, a, 0) for a in OPERANDS]

    def test_mv_matches_scalar(self):
        unit = _lane_unit()
        _map_lanes(unit, 2, OPERANDS)
        unit._generate_dependent_alu(_make(Opcode.MV), 0.0)
        assert _dest_lanes(unit, 1) == (OPERANDS, [True] * len(OPERANDS))

    def test_every_scalar_alu_op_is_covered_or_excluded(self):
        """Any op with a scalar evaluator has a lane exactness case here —
        a new opcode must be added to one of the parameter lists."""
        covered = set(_TWO_OPERAND) | set(_IMM_OPS) | {Opcode.MV}
        for op in sorted(ALU_OPS | FP_OPS | CMP_OPS, key=lambda o: o.value):
            if alu_fn(_make(op)) is not None:
                assert op in covered, op


class TestBranchOutcomes:
    """A lane whose branch outcome diverges from the real path is masked."""

    def _check(self, op: Opcode, taken: bool) -> None:
        values = [0, 1, MASK64, 0]
        inst = Instruction(op, rs1=5, target=0)
        unit = _lane_unit(lanes=len(values))
        _map_lanes(unit, 5, values)
        unit._mask_divergent_lanes(0, inst, SimpleNamespace(taken=taken), 0.0)
        expect = [inst.branch_taken(v) == taken for v in values]
        assert unit.mask == expect
        assert unit.stats.masked_lanes == expect.count(False)

    def test_beqz(self):
        for taken in (True, False):
            self._check(Opcode.BEQZ, taken)

    def test_bnez(self):
        for taken in (True, False):
            self._check(Opcode.BNEZ, taken)

    def test_non_branch_raises(self):
        unit = _lane_unit(lanes=2)
        _map_lanes(unit, 2, [0, 1])
        with pytest.raises(ValueError):
            unit._mask_divergent_lanes(
                0, Instruction(Opcode.ADD, rd=1, rs1=2, rs2=3),
                SimpleNamespace(taken=False), 0.0)


def _stride_round(unit, addr: int, stride: int, length: int) -> None:
    entry = StrideEntry(pc=4, prev_addr=addr, stride=stride, confidence=3)
    load = Instruction(Opcode.LD, rd=2, rs1=3)
    unit._generate_stride_svis(entry, load, addr, 0.0, shared_mask=False,
                               length=length)


class TestAddressVectors:
    """Lane addresses wrap at 64 bits, like the scalar AGU."""

    @pytest.mark.parametrize("stride", [8, -8, 64, 1, -1])
    def test_stride_targets_wrap_like_scalar(self, stride):
        addr = 0x1_0040
        unit = _lane_unit(lanes=16)
        calls = _record_prefetches(unit)
        _stride_round(unit, addr, stride, 16)
        assert [target for target, _ in calls] == [
            wrap64(addr + (lane + 1) * stride) for lane in range(16)]

    def test_stride_targets_negative_wraps_past_zero(self):
        unit = _lane_unit(lanes=4)
        calls = _record_prefetches(unit)
        _stride_round(unit, 8, -8, 4)
        assert [target for target, _ in calls] == [
            wrap64(8 - 8 * (k + 1)) for k in range(4)]
        # Wrapped lanes point outside memory: their loads fail and the
        # lanes die, exactly as a faulting scalar copy would.
        assert unit.mask == [True, False, False, False]
        assert unit.stats.masked_lanes == 3

    @pytest.mark.parametrize("imm", [0, 8, -8, 4096])
    def test_offset_targets_wrap_like_scalar(self, imm):
        unit = _lane_unit()
        calls = _record_prefetches(unit)
        _map_lanes(unit, 5, OPERANDS)
        unit._generate_dependent_load(
            0, Instruction(Opcode.LD, rd=4, rs1=5, imm=imm), 0.0)
        assert [target for target, _ in calls] == [
            wrap64(base + imm) for base in OPERANDS]


def _gather(unit, bases: list[int]) -> tuple[list[int], list[bool]]:
    _map_lanes(unit, 5, bases)
    unit._generate_dependent_load(0, Instruction(Opcode.LD, rd=4, rs1=5),
                                  0.0)
    return _dest_lanes(unit, 4)


class TestGatherWords:
    """Dependent-load lanes read memory word by word; a lane whose address
    is outside memory is masked and leaves its SRF lane empty."""

    def test_in_bounds_gather(self):
        memory = make_memory()
        base = memory.alloc_array(np.arange(100, dtype=np.int64) * 3)
        unit = _lane_unit(lanes=4, memory=memory)
        values, valid = _gather(unit, [base, base + 8, base + 16, base + 792])
        assert values == [0, 3, 6, 297]
        assert all(valid)
        assert all(unit.mask)

    def test_out_of_bounds_flagged_and_zero(self):
        memory = make_memory()
        base = memory.alloc_array(np.array([5, 6], dtype=np.int64))
        unit = _lane_unit(lanes=3, memory=memory)
        values, valid = _gather(unit, [base, _UNMAPPED, base + 8])
        assert unit.mask == [True, False, True]
        assert valid == [True, False, True]
        assert values == [5, 0, 6]
        assert unit.stats.masked_lanes == 1

    def test_all_out_of_bounds(self):
        unit = _lane_unit(lanes=2)
        values, valid = _gather(unit, [_UNMAPPED, MASK64 & ~7])
        assert not any(unit.mask)
        assert not any(valid)
        assert values == [0, 0]
        assert unit.stats.masked_lanes == 2


def _record_slots(unit) -> list[float]:
    """Hand out issue slots 0, 10, 20, ... and remember each reservation."""
    slots: list[float] = []

    def svi_slot(_earliest):
        slots.append(10.0 * len(slots))
        return slots[-1]

    unit._svi_slot = svi_slot
    return slots


class TestExpandGroupSlots:
    """``scalars_per_unit`` lanes share one issue slot (Fig 16)."""

    def _round(self, count: int, spu: int):
        memory = make_memory()
        addr = memory.alloc_zeros(count + 1)
        unit = _lane_unit(lanes=8, memory=memory, scalars_per_unit=spu)
        slots = _record_slots(unit)
        calls = _record_prefetches(unit)
        _stride_round(unit, addr, 8, count)
        srf_id = unit.taint.srf_of(2)
        return slots, [start for _, start in calls], unit.srf.ready[srf_id]

    def test_spu_one_is_identity(self):
        slots, starts, ready = self._round(3, 1)
        assert slots == [0.0, 10.0, 20.0]
        assert starts == slots
        assert ready[:3] == slots

    @pytest.mark.parametrize("count,spu", [(7, 4), (8, 4), (1, 4), (5, 2)])
    def test_matches_scalar_grouping(self, count, spu):
        slots, starts, ready = self._round(count, spu)
        assert len(slots) == -(-count // spu)
        expect = [slots[i // spu] for i in range(count)]
        assert starts == expect
        assert ready[:count] == expect
