"""3-wide out-of-order core (Table III: ROB 32, LSQ 16, RS 32).

A one-pass dataflow timing model: instructions are processed in program
order, but each one's execution start is constrained only by operand
readiness, dispatch bandwidth and window occupancy — so independent loads
overlap (MLP) while dependent chains serialise, exactly the contrast with
the in-order core that Figs 3 and 11 rest on.

Modelled constraints
--------------------
* dispatch: ``width`` per cycle, blocked when the ROB (32) is full, i.e.
  until instruction ``i - 32`` commits;
* memory ops additionally wait for a free LSQ (16) slot;
* execution: starts at max(dispatch, source-ready); loads go through the
  shared memory hierarchy (MSHRs, bandwidth, TLB);
* store-to-load forwarding: a load that hits a prior in-window store to the
  same word receives the store's data directly (Table III note);
* in-order commit at ``width`` per cycle; a mispredicted branch redirects
  fetch when it resolves, plus the 10-cycle penalty.
"""

from __future__ import annotations

import math

from repro.branch.predictor import HybridBranchPredictor
from repro.cores.base import (
    LEVEL_STALL_INDEX,
    STALL_BRANCH,
    CoreConfig,
    CoreStats,
    IssueSlots,
    check_watchdog,
)
# ``execute`` is unused here but stays importable: perfbench's layer tracer
# wraps ``repro.cores.ooo.execute``.
from repro.isa.executor import _ALU_BY_INDEX, execute  # noqa: F401
from repro.isa.instructions import Opcode, OpClass
from repro.isa.registers import _MASK64, NUM_REGS, RegisterFile
from repro.obs.probes import default_bus

_LOAD, _STORE, _BRANCH, _JUMP, _HALT, _NOP, _FP = (
    OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.JUMP, OpClass.HALT,
    OpClass.NOP, OpClass.FP)
_INF = float("inf")


class OutOfOrderCore:
    """Dataflow out-of-order timing model."""

    kind = "ooo"

    def __init__(self, program, memory, hierarchy,
                 config: CoreConfig | None = None, vr=None,
                 bus=None) -> None:
        self.program = program
        self.memory = memory
        self.hierarchy = hierarchy
        self.bus = bus if bus is not None else default_bus()
        self._p_commit = self.bus.probe("core.commit")
        self._p_window = self.bus.probe("core.window_stall")
        # Optional Vector-Runahead unit (repro.svr.vr), triggered on
        # full-window stalls.
        self.vr = vr
        if vr is not None:
            vr.attach(self)
        self.config = config or CoreConfig()
        self.regs = RegisterFile()
        self.predictor = HybridBranchPredictor(
            misprediction_penalty=self.config.mispredict_penalty)
        self._dispatch_slots = IssueSlots(self.config.width)
        self._commit_slots = IssueSlots(self.config.width)
        self.pc = 0
        self.halted = False
        self.stats = CoreStats()
        self.lifetime_instructions = 0   # across windows, for the watchdog
        self._ready = [0.0] * NUM_REGS
        self._producer = ["alu"] * NUM_REGS
        # ROB / LSQ rings of commit times: instruction (memory op) i reads
        # slot i % entries, i.e. the commit time of i - entries (or -inf).
        self._rob = [-_INF] * self.config.rob_entries
        self._rob_pos = 0
        self._lsq = [-_INF] * self.config.lsq_entries
        self._lsq_pos = 0
        self._frontend_ready = 0.0
        self._commit_tail = 0.0
        self._index = 0
        # word address -> (instruction index, data-ready time) for forwarding
        self._store_window: dict[int, tuple[int, float]] = {}

    def now(self) -> float:
        return self._commit_tail

    def reset_stats(self) -> None:
        start = self._commit_tail
        self.stats = CoreStats(start_cycle=start, end_cycle=start)

    def step(self) -> bool:
        """Dispatch and execute one instruction; returns False once halted."""
        self.run(1)
        return not self.halted

    def run(self, max_instructions: int, progress=None) -> CoreStats:
        """Run until HALT or *max_instructions* committed in this window.

        This is the core's one per-instruction body (:meth:`step` runs it
        with a budget of one); see :meth:`InOrderCore.run` for the
        watchdog, *progress* and hoisting contract.  The VR unit's
        full-window-stall callback sees a current ``self.pc``.
        """
        cfg = self.config
        stats = self.stats
        stalls = stats.stalls
        program = self.program.instructions
        n_insts = len(program)
        regs = self.regs.values
        ready = self._ready
        producer = self._producer
        rob, lsq = self._rob, self._lsq
        rob_entries, lsq_entries = len(rob), len(lsq)
        window = cfg.rob_entries
        window_cap = 4 * window
        dispatch_slots = self._dispatch_slots
        commit_slots = self._commit_slots
        width = dispatch_slots.width
        commit_width = commit_slots.width
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
        vr = self.vr
        p_commit = self._p_commit
        p_window = self._p_window
        beqz = Opcode.BEQZ
        countdown = (progress.interval if progress is not None
                     else max_instructions + 1)

        pc = self.pc
        rob_pos, lsq_pos = self._rob_pos, self._lsq_pos
        commit_tail = self._commit_tail
        index = self._index
        store_window = self._store_window
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

                cycle = dispatch_slots._cycle
                dispatch_earliest = float(cycle)
                frontend = self._frontend_ready
                if frontend > dispatch_earliest:
                    dispatch_earliest = frontend
                release = rob[rob_pos]
                if release > dispatch_earliest:
                    # Full-window stall: the VR trigger condition.
                    self.pc = pc
                    if p_window.enabled:
                        p_window.emit(pc=pc, time=dispatch_earliest,
                                      cycles=release - dispatch_earliest)
                    if vr is not None:
                        vr.on_window_stall(pc, dispatch_earliest,
                                           release - dispatch_earliest,
                                           index)
                    dispatch_earliest = release
                is_mem = inst.is_mem
                if is_mem:
                    release = lsq[lsq_pos]
                    if release > dispatch_earliest:
                        dispatch_earliest = release

                # IssueSlots.allocate, inlined (see InOrderCore.run).
                if dispatch_earliest >= cycle + 1:
                    dispatch_slots._cycle = floor(dispatch_earliest)
                    dispatch_slots._used = 1
                    dispatch = dispatch_earliest
                elif dispatch_slots._used < width:
                    dispatch_slots._used += 1
                    dispatch = dispatch_earliest
                else:
                    dispatch_slots._cycle = cycle + 1
                    dispatch_slots._used = 1
                    dispatch = float(cycle + 1)

                # Operand readiness (register dataflow).
                exec_start = dispatch
                src_level = None
                for reg in inst.srcs:
                    r = ready[reg]
                    if r > exec_start:
                        exec_start = r
                        src_level = producer[reg]

                # Execute: the same semantics as repro.isa.executor.execute.
                opclass = inst.opclass
                next_pc = pc + 1
                completion = exec_start + 1.0
                level = "alu"
                if opclass is _LOAD:
                    addr = (regs[inst.rs1] + inst.imm) & _MASK64
                    value = read_word(addr)
                    word = addr >> 3
                    if (word in store_window
                            and store_window[word][0] >= index - window):
                        # Store-to-load forwarding: no memory round trip.
                        forwarded = store_window[word][1]
                        completion = (forwarded if forwarded > exec_start
                                      else exec_start) + 1.0
                    else:
                        outcome = load(addr, exec_start, pc)
                        completion = outcome.completion
                        level = outcome.level
                    rd = inst.rd
                    if rd:
                        regs[rd] = value
                    ready[rd] = completion
                    producer[rd] = level
                    stats.loads += 1
                elif opclass is _STORE:
                    addr = (regs[inst.rs1] + inst.imm) & _MASK64
                    write_word(addr, regs[inst.rs2])
                    store(addr, exec_start, pc)   # buffered; core moves on
                    store_window[addr >> 3] = (index, exec_start)
                    if len(store_window) > window_cap:
                        cutoff = index - window
                        store_window = self._store_window = {
                            w: v for w, v in store_window.items()
                            if v[0] >= cutoff}
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
                        self._frontend_ready = completion + penalty
                    stats.branches += 1
                elif opclass is _JUMP:
                    next_pc = inst.target
                elif opclass is _HALT:
                    next_pc = pc
                    self.halted = True
                    stats.halted = True
                elif opclass is not _NOP:           # ALU / FP / CMP
                    rs1, rs2 = inst.rs1, inst.rs2
                    value = alu_by_index[inst.opindex](
                        regs[rs1] if rs1 is not None else 0,
                        regs[rs2] if rs2 is not None else 0, inst.imm)
                    if opclass is _FP:
                        completion = exec_start + fp_lat
                        stats.fp_ops += 1
                    else:
                        completion = exec_start + (mul_lat if inst.is_multiply
                                                   else alu_lat)
                        stats.alu_ops += 1
                    rd = inst.rd
                    if rd:
                        regs[rd] = value
                    ready[rd] = completion
                    producer[rd] = src_level or "alu"

                # In-order commit; attribute commit stalls to the producing
                # level.
                if completion > commit_tail:
                    stalls[level_stall[
                        level if opclass is _LOAD else (src_level or "alu")]
                    ] += completion - commit_tail
                    commit_earliest = completion
                else:
                    commit_earliest = commit_tail
                # IssueSlots.allocate, inlined: commit_tail is the previous
                # commit, so commit_earliest >= the commit slot cycle.
                cycle = commit_slots._cycle
                if commit_earliest >= cycle + 1:
                    commit_slots._cycle = floor(commit_earliest)
                    commit_slots._used = 1
                    commit = commit_earliest
                elif commit_slots._used < commit_width:
                    commit_slots._used += 1
                    commit = commit_earliest
                else:
                    commit_slots._cycle = cycle + 1
                    commit_slots._used = 1
                    commit = float(cycle + 1)
                commit_tail = commit
                rob[rob_pos] = commit
                rob_pos += 1
                if rob_pos == rob_entries:
                    rob_pos = 0
                if is_mem:
                    lsq[lsq_pos] = commit
                    lsq_pos += 1
                    if lsq_pos == lsq_entries:
                        lsq_pos = 0

                stats.instructions += 1
                index += 1
                if commit + 1.0 > stats.end_cycle:
                    stats.end_cycle = commit + 1.0
                if p_commit.enabled:
                    self.pc = pc
                    p_commit.emit(
                        pc=pc, op=inst.op.value, opclass=opclass.name,
                        issue=exec_start, completion=completion,
                        level=level if opclass is _LOAD else None)

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
            self._rob_pos, self._lsq_pos = rob_pos, lsq_pos
            self._commit_tail = commit_tail
            self._index = index
        return stats
