"""Shared core-model machinery: configuration, stats, issue-slot tracking.

Both cores are *event-driven latency models* (DESIGN.md): simulated time is
a float cycle count, instructions are processed in program order, and every
structural resource (issue width, scoreboard/ROB occupancy, MSHRs, DRAM
bandwidth) is a constraint on when an instruction may issue or complete.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType


class SimulationError(RuntimeError):
    """A simulator-side guard tripped (watchdog fence, injected hang).

    Carries enough context — cycle, pc, committed instructions, and (once
    the harness enriches it) workload and technique — for
    :class:`repro.exec.RunFailure` to record a useful post-mortem instead
    of a bare traceback.
    """

    def __init__(self, message: str, *, cycle: float | None = None,
                 pc: int | None = None, instructions: int | None = None,
                 workload: str | None = None,
                 technique: str | None = None) -> None:
        super().__init__(message)
        self.message = message
        self.cycle = cycle
        self.pc = pc
        self.instructions = instructions
        self.workload = workload
        self.technique = technique

    def context(self) -> dict:
        """JSON-ready context fields (Nones elided)."""
        fields = {"cycle": self.cycle, "pc": self.pc,
                  "instructions": self.instructions,
                  "workload": self.workload, "technique": self.technique}
        return {k: v for k, v in fields.items() if v is not None}

    def __str__(self) -> str:
        ctx = self.context()
        if not ctx:
            return self.message
        detail = ", ".join(f"{k}={v}" for k, v in ctx.items())
        return f"{self.message} [{detail}]"


class StallReason(enum.Enum):
    """CPI-stack attribution buckets (Fig 3 / Fig 11)."""

    BASE = "base"
    MEM_L1 = "mem-l1"
    MEM_L2 = "mem-l2"
    MEM_DRAM = "mem-dram"
    BRANCH = "branch"
    OTHER = "other"


# Stall counters are a list indexed by declaration order, so the core run
# loops add to a slot by small int instead of hashing enum members.
STALL_REASONS: tuple[StallReason, ...] = tuple(StallReason)
STALL_INDEX: dict[StallReason, int] = {
    r: i for i, r in enumerate(STALL_REASONS)}
STALL_OTHER = STALL_INDEX[StallReason.OTHER]
STALL_BRANCH = STALL_INDEX[StallReason.BRANCH]


# Producing memory level / unit -> stall slot (AccessOutcome.level values
# plus "alu" for results of the execution units).
LEVEL_STALL_INDEX: dict[str, int] = {
    "l1": STALL_INDEX[StallReason.MEM_L1],
    "l2": STALL_INDEX[StallReason.MEM_L2],
    "dram": STALL_INDEX[StallReason.MEM_DRAM],
    "alu": STALL_OTHER,
}


@dataclass
class CoreConfig:
    """Table III parameters shared by both cores."""

    width: int = 3                   # dispatch/commit width
    frequency_ghz: float = 2.0
    scoreboard_entries: int = 32     # in-order in-flight window
    rob_entries: int = 32            # OoO
    lsq_entries: int = 16            # OoO
    mispredict_penalty: float = 10.0
    alu_latency: float = 1.0
    mul_latency: float = 3.0
    fp_latency: float = 3.0
    # Watchdog fence: hard ceilings on lifetime simulated cycles /
    # committed instructions.  ``None`` disables the fence; the harness
    # runner installs a window-scaled default so a runaway model raises a
    # context-rich SimulationError instead of spinning forever.
    watchdog_max_cycles: float | None = None
    watchdog_max_instructions: int | None = None


@dataclass
class CoreStats:
    """Counters for one measured region of one core."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    alu_ops: int = 0
    fp_ops: int = 0
    mispredicts: int = 0
    halted: bool = False
    start_cycle: float = 0.0
    end_cycle: float = 0.0
    # Stall cycles per StallReason, in STALL_REASONS order.
    stalls: list[float] = field(
        default_factory=lambda: [0.0] * len(STALL_REASONS))

    @property
    def stall_cycles(self) -> Mapping[StallReason, float]:
        """Read-only ``{StallReason: cycles}`` view of :attr:`stalls`."""
        return MappingProxyType(dict(zip(STALL_REASONS, self.stalls)))

    @property
    def cycles(self) -> float:
        return max(0.0, self.end_cycle - self.start_cycle)

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def cpi_stack(self) -> dict[str, float]:
        """CPI contributions per bucket; 'base' is the residual issue CPI."""
        if not self.instructions:
            return {r.value: 0.0 for r in StallReason}
        stack = {r.value: c / self.instructions
                 for r, c in zip(STALL_REASONS, self.stalls)}
        attributed = sum(stack.values()) - stack[StallReason.BASE.value]
        stack[StallReason.BASE.value] = max(0.0, self.cpi - attributed)
        return stack


def check_watchdog(core) -> None:
    """Raise :class:`SimulationError` when *core* has blown past its
    configured watchdog fence (called from the run loop of both cores
    once a ceiling is exceeded).  Emits a ``core.watchdog`` probe event
    before raising so observability layers can count trips."""
    cfg = core.config
    tripped = None
    if (cfg.watchdog_max_cycles is not None
            and core.stats.end_cycle > cfg.watchdog_max_cycles):
        tripped = ("cycles", cfg.watchdog_max_cycles)
    elif (cfg.watchdog_max_instructions is not None
            and core.lifetime_instructions > cfg.watchdog_max_instructions):
        tripped = ("instructions", cfg.watchdog_max_instructions)
    if tripped is None:
        return
    kind, limit = tripped
    core.bus.probe("core.watchdog").emit(
        kind=kind, limit=limit, core=core.kind,
        cycle=core.stats.end_cycle, pc=core.pc,
        instructions=core.lifetime_instructions)
    raise SimulationError(
        f"watchdog fence: simulated {kind} exceeded {limit:g} "
        f"on the {core.kind} core",
        cycle=core.stats.end_cycle, pc=core.pc,
        instructions=core.lifetime_instructions)


class IssueSlots:
    """Tracks issue bandwidth: at most ``width`` issues per integer cycle.

    Allocation requests are monotonic in practice (program order); a request
    earlier than the current issue cycle is pushed forward, which is also
    how SVR's lockstep coupling serialises SVIs behind the real instruction
    that spawned them.
    """

    __slots__ = ("width", "_cycle", "_used")

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ValueError("issue width must be >= 1")
        self.width = width
        self._cycle = 0
        self._used = 0

    @property
    def current_cycle(self) -> int:
        return self._cycle

    def allocate(self, earliest: float) -> float:
        """Reserve one slot at or after *earliest*; return the issue time."""
        if earliest < self._cycle:
            earliest = float(self._cycle)
        cycle = math.floor(earliest)
        if cycle > self._cycle:
            self._cycle = cycle
            self._used = 1
            return earliest
        if self._used < self.width:
            self._used += 1
            return earliest
        self._cycle += 1
        self._used = 1
        return float(self._cycle)

    def allocate_many(self, earliest: float, count: int) -> "np.ndarray":
        """Reserve *count* slots at or after *earliest* in one call.

        Exactly equivalent to *count* sequential :meth:`allocate` calls
        with the same *earliest* (the SoA lane engine's usage pattern),
        but computed in closed form: the first slots fill the remaining
        width of the cycle containing *earliest*, then whole groups of
        ``width`` land on each subsequent integer cycle.
        """
        import numpy as np

        out = np.empty(count, dtype=np.float64)
        if count == 0:
            return out
        if earliest < self._cycle:
            earliest = float(self._cycle)
        cycle = math.floor(earliest)
        if cycle > self._cycle:
            # A fresh cycle: the full width issues at *earliest*.
            head = min(self.width, count)
            self._cycle = cycle
            self._used = head
        else:
            # Fill what is left of the current cycle.
            cycle = self._cycle
            head = min(self.width - self._used, count)
            self._used += head
        out[:head] = earliest
        rest = count - head
        if rest == 0:
            return out
        groups = -(-rest // self.width)
        out[head:] = np.repeat(np.arange(cycle + 1, cycle + 1 + groups,
                                         dtype=np.float64), self.width)[:rest]
        self._cycle = cycle + groups
        self._used = rest - (groups - 1) * self.width
        return out

    def peek(self, earliest: float) -> float:
        """Issue time :meth:`allocate` would return, without reserving."""
        if earliest < self._cycle:
            earliest = float(self._cycle)
        cycle = math.floor(earliest)
        if cycle > self._cycle or self._used < self.width:
            return earliest
        return float(self._cycle + 1)
