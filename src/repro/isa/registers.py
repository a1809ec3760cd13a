"""Architectural register file.

32 64-bit integer registers, ``x0`` hard-wired to zero (RISC-V style).
Values are stored as Python ints and wrapped to 64 bits on write so that
shifts and multiplies behave like hardware registers.
"""

from __future__ import annotations

NUM_REGS = 32
_MASK64 = (1 << 64) - 1

REG_NAMES = {f"x{i}": i for i in range(NUM_REGS)}
# Convenience ABI-ish aliases used by the kernel builders.
REG_NAMES.update({"zero": 0, "ra": 1, "sp": 2})
for _i in range(10):
    REG_NAMES[f"a{_i}"] = 10 + _i     # a0..a9 -> x10..x19
for _i in range(12):
    REG_NAMES[f"t{_i}"] = 20 + _i     # t0..t11 -> x20..x31
for _i in range(7):
    REG_NAMES[f"s{_i}"] = 3 + _i      # s0..s6  -> x3..x9


def reg_index(reg: int | str | None) -> int | None:
    """Resolve a register name or index to its architectural index."""
    if reg is None:
        return None
    if isinstance(reg, int):
        if not 0 <= reg < NUM_REGS:
            raise ValueError(f"register index out of range: {reg}")
        return reg
    try:
        return REG_NAMES[reg]
    except KeyError:
        raise ValueError(f"unknown register name: {reg!r}") from None


def wrap64(value: int) -> int:
    """Wrap *value* to an unsigned 64-bit integer."""
    return value & _MASK64


def to_signed64(value: int) -> int:
    """Interpret an unsigned 64-bit value as signed."""
    value &= _MASK64
    return value - (1 << 64) if value >= (1 << 63) else value


class RegisterFile:
    """The architectural integer register file."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs = [0] * NUM_REGS

    def read(self, index: int) -> int:
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        if index != 0:
            self._regs[index] = value & _MASK64

    @property
    def values(self) -> list[int]:
        """The live register list, for run loops that index it directly.

        Its identity never changes (:meth:`load` fills it in place).  A
        direct writer must skip ``x0`` and store 64-bit values, as
        :meth:`write` does.
        """
        return self._regs

    def snapshot(self) -> list[int]:
        return list(self._regs)

    def load(self, values: list[int]) -> None:
        if len(values) != NUM_REGS:
            raise ValueError("snapshot must have exactly 32 registers")
        self._regs[:] = [v & _MASK64 for v in values]
        self._regs[0] = 0
