"""3-wide stall-on-use in-order core (ARM Cortex-A510-like, Table III).

The core issues strictly in program order, up to ``width`` instructions per
cycle.  A load does not stall the pipeline; the first *use* of a register
whose producing load is outstanding does (stall-on-use), which is the
property SVR piggybacks on (Section III of the paper).  A 32-entry
scoreboard bounds the in-flight window.

SVR attaches through the ``svr`` hook object (see
:class:`repro.svr.unit.ScalarVectorUnit`): the core calls
``svr.after_issue(...)`` for every issued instruction and exposes
:meth:`issue_transient` so SVIs consume real issue slots in lockstep.
"""

from __future__ import annotations

import math

from repro.branch.predictor import HybridBranchPredictor
from repro.cores.base import (
    LEVEL_STALL_INDEX,
    STALL_BRANCH,
    STALL_OTHER,
    CoreConfig,
    CoreStats,
    IssueSlots,
    check_watchdog,
)
# ``execute`` is unused here but stays importable: perfbench's layer tracer
# wraps ``repro.cores.inorder.execute``.
from repro.isa.executor import _ALU_BY_INDEX, ExecResult, execute  # noqa: F401
from repro.isa.instructions import Opcode, OpClass
from repro.isa.registers import _MASK64, NUM_REGS, RegisterFile
from repro.obs.probes import default_bus

_LOAD, _STORE, _BRANCH, _JUMP, _HALT, _NOP, _FP = (
    OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.JUMP, OpClass.HALT,
    OpClass.NOP, OpClass.FP)
_INF = float("inf")


class InOrderCore:
    """Stall-on-use in-order timing model."""

    kind = "inorder"

    def __init__(self, program, memory, hierarchy, config: CoreConfig | None = None,
                 svr=None, bus=None) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.bus = bus if bus is not None else default_bus()
        self._p_commit = self.bus.probe("core.commit")
        self.config = config or CoreConfig()
        self.regs = RegisterFile()
        self.predictor = HybridBranchPredictor(
            misprediction_penalty=self.config.mispredict_penalty)
        self.slots = IssueSlots(self.config.width)
        self.pc = 0
        self.halted = False
        self.stats = CoreStats()
        self.lifetime_instructions = 0   # across windows, for the watchdog
        self._ready = [0.0] * NUM_REGS
        self._producer = ["alu"] * NUM_REGS
        # Scoreboard ring: slot i % entries holds instruction i's
        # completion, so instruction i reads i - entries' (or -inf).
        self._inflight = [-_INF] * self.config.scoreboard_entries
        self._inflight_pos = 0
        self._frontend_ready = 0.0
        self.svr = svr
        if svr is not None:
            svr.attach(self)
        # Optional per-instruction observer: called as
        # trace(pc, inst, issue_time, completion, outcome) after execution.
        self.trace = None

    # -- helpers used by SVR ----------------------------------------------------

    def issue_transient(self, earliest: float) -> float:
        """Reserve an issue slot for a transient (SVI) operation."""
        time = self.slots.allocate(earliest)
        if time + 1.0 > self.stats.end_cycle:
            self.stats.end_cycle = time + 1.0
        return time

    def now(self) -> float:
        return float(self.slots.current_cycle)

    def delay_frontend(self, until: float) -> None:
        """Hold fetch until *until* (models the register-copy cost ablation
        of Section VI-D: copying scalar state before a runahead round)."""
        if until > self._frontend_ready:
            self._frontend_ready = until

    def reset_stats(self) -> None:
        """Start a fresh measurement window without disturbing state."""
        start = self.now()
        self.stats = CoreStats(start_cycle=start, end_cycle=start)

    # -- main loop ------------------------------------------------------------

    def step(self) -> bool:
        """Issue and execute one instruction; returns False once halted."""
        self.run(1)
        return not self.halted

    def run(self, max_instructions: int, progress=None) -> CoreStats:
        """Run until HALT or *max_instructions* committed in this window.

        This is the core's one per-instruction body (:meth:`step` runs it
        with a budget of one).  Raises
        :class:`~repro.cores.base.SimulationError` if the watchdog fence
        (``CoreConfig.watchdog_max_cycles`` / ``_max_instructions``) is
        exceeded.  Pass a :class:`repro.obs.ProgressReporter` as
        *progress* to emit a frame every ``progress.interval``
        instructions.

        Loop-invariant state is hoisted to locals.  State that the SVR
        unit's callbacks mutate (``_frontend_ready``, the issue slots,
        ``stats.end_cycle``) is read from its owner on every instruction,
        and ``self.pc`` / ``self.lifetime_instructions`` are written back
        before any callback, hook or watchdog trip can observe them.
        """
        cfg = self.config
        stats = self.stats
        stalls = stats.stalls
        program = self.program.instructions
        n_insts = len(program)
        regs = self.regs.values
        ready = self._ready
        producer = self._producer
        inflight = self._inflight
        entries = len(inflight)
        slots = self.slots
        width = slots.width
        load = self.hierarchy.load
        store = self.hierarchy.store
        read_word = self.memory.read_word
        write_word = self.memory.write_word
        predict = self.predictor.predict_and_update
        alu_by_index = _ALU_BY_INDEX
        level_stall = LEVEL_STALL_INDEX
        floor = math.floor
        alu_lat, mul_lat, fp_lat = (cfg.alu_latency, cfg.mul_latency,
                                    cfg.fp_latency)
        penalty = cfg.mispredict_penalty
        max_cycles = (_INF if cfg.watchdog_max_cycles is None
                      else cfg.watchdog_max_cycles)
        max_lifetime = (_INF if cfg.watchdog_max_instructions is None
                        else cfg.watchdog_max_instructions)
        svr = self.svr
        trace = self.trace
        p_commit = self._p_commit
        beqz = Opcode.BEQZ
        # Instructions until the next progress frame; without a reporter
        # the countdown cannot reach zero inside this window.
        countdown = (progress.interval if progress is not None
                     else max_instructions + 1)

        pc = self.pc
        pos = self._inflight_pos
        lifetime = self.lifetime_instructions
        executed = 0
        if self.halted:
            return stats
        try:
            while executed < max_instructions:
                if pc >= n_insts:
                    self.halted = True
                    break
                inst = program[pc]

                # Baseline for stall accounting: when this instruction could
                # issue absent hazards (frontend redirect or issue-bandwidth
                # limit).
                cycle = slots._cycle
                earliest = float(cycle)
                frontend = self._frontend_ready
                if frontend > earliest:
                    earliest = frontend
                # Scoreboard: instruction i waits for completion of
                # i - entries.
                release = inflight[pos]
                if release > earliest:
                    stalls[STALL_OTHER] += release - earliest
                    earliest = release
                # Stall-on-use: wait for source operands.
                src_ready = earliest
                src_level = None
                for reg in inst.srcs:
                    r = ready[reg]
                    if r > src_ready:
                        src_ready = r
                        src_level = producer[reg]
                if src_ready > earliest:
                    stalls[level_stall[src_level]] += src_ready - earliest
                    earliest = src_ready

                # IssueSlots.allocate, inlined (earliest >= the slot cycle
                # here, and earliest >= cycle + 1 iff floor(earliest) > cycle).
                if earliest >= cycle + 1:
                    slots._cycle = floor(earliest)
                    slots._used = 1
                    issue = earliest
                elif slots._used < width:
                    slots._used += 1
                    issue = earliest
                else:
                    slots._cycle = cycle + 1
                    slots._used = 1
                    issue = float(cycle + 1)

                # Execute: the same semantics as repro.isa.executor.execute.
                opclass = inst.opclass
                next_pc = pc + 1
                completion = issue + 1.0
                outcome = None
                if opclass is _LOAD:
                    addr = (regs[inst.rs1] + inst.imm) & _MASK64
                    value = read_word(addr)
                    outcome = load(addr, issue, pc)
                    completion = outcome.completion
                    rd = inst.rd
                    if rd:
                        regs[rd] = value
                    ready[rd] = completion
                    producer[rd] = outcome.level
                    stats.loads += 1
                elif opclass is _STORE:
                    addr = (regs[inst.rs1] + inst.imm) & _MASK64
                    value = regs[inst.rs2]
                    write_word(addr, value)
                    outcome = store(addr, issue, pc)
                    completion = outcome.completion
                    stats.stores += 1
                elif opclass is _BRANCH:
                    a = regs[inst.rs1]
                    taken = (a == 0) if inst.op is beqz else (a != 0)
                    if taken:
                        next_pc = inst.target
                    if not predict(pc, taken):
                        stats.mispredicts += 1
                        if penalty > 0:
                            stalls[STALL_BRANCH] += penalty
                        self._frontend_ready = issue + 1.0 + penalty
                    stats.branches += 1
                elif opclass is _JUMP:
                    next_pc = inst.target
                elif opclass is _HALT:
                    next_pc = pc
                    self.halted = True
                    stats.halted = True
                elif opclass is not _NOP:           # ALU / FP / CMP
                    rs1, rs2 = inst.rs1, inst.rs2
                    a = regs[rs1] if rs1 is not None else 0
                    b = regs[rs2] if rs2 is not None else 0
                    value = alu_by_index[inst.opindex](a, b, inst.imm)
                    if opclass is _FP:
                        completion = issue + fp_lat
                        stats.fp_ops += 1
                    else:
                        completion = issue + (mul_lat if inst.is_multiply
                                              else alu_lat)
                        stats.alu_ops += 1
                    rd = inst.rd
                    if rd:
                        regs[rd] = value
                    ready[rd] = completion
                    producer[rd] = "alu"

                inflight[pos] = completion
                pos += 1
                if pos == entries:
                    pos = 0
                stats.instructions += 1
                end = stats.end_cycle
                if completion > end:
                    stats.end_cycle = end = completion
                if issue + 1.0 > end:
                    stats.end_cycle = issue + 1.0

                if svr is not None and opclass is not _HALT:
                    # The SVR unit reads the operands and outcome as
                    # execute() reports them; only it needs an ExecResult.
                    if opclass is _LOAD or opclass is _STORE:
                        result = ExecResult(value, addr, None, next_pc)
                    elif opclass is _BRANCH:
                        result = ExecResult(None, None, taken, next_pc,
                                            False, a)
                    elif opclass is _JUMP:
                        result = ExecResult(None, None, True, next_pc)
                    elif opclass is _NOP:
                        result = ExecResult(next_pc=next_pc)
                    else:
                        result = ExecResult(value, None, None, next_pc,
                                            False, a, b)
                    self.pc = pc
                    svr.after_issue(pc, inst, issue, result, outcome)
                if p_commit.enabled:
                    self.pc = pc
                    p_commit.emit(
                        pc=pc, op=inst.op.value, opclass=opclass.name,
                        issue=issue, completion=completion,
                        level=outcome.level if outcome is not None else None)
                if trace is not None:
                    self.pc = pc
                    trace(pc, inst, issue, completion, outcome)

                pc = next_pc
                if opclass is _HALT:
                    break
                executed += 1
                lifetime += 1
                if stats.end_cycle > max_cycles or lifetime > max_lifetime:
                    self.pc = pc
                    self.lifetime_instructions = lifetime
                    check_watchdog(self)
                countdown -= 1
                if not countdown:
                    countdown = progress.interval
                    self.pc = pc
                    self.lifetime_instructions = lifetime
                    progress.sample(self)
        finally:
            self.pc = pc
            self.lifetime_instructions = lifetime
            self._inflight_pos = pos
        return stats
