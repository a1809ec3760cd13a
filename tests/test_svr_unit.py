"""Integration tests for the Scalar Vector Unit on the in-order core.

These exercise the mechanisms of Section IV end to end on small kernels:
triggering, dependent-chain prefetching, waiting mode, timeout, control-flow
masking, multi-chain handling, the accuracy gate and the ablation knobs,
plus regression pins for two lane-state bugs: an unmasked invalid
store-source lane and an SRF-exhaustion taint that kept a stale mapping.
"""

import numpy as np
import pytest

from repro.cores.functional import FunctionalCore
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import ProgramBuilder
from repro.svr.config import LoopBoundPolicy, RecyclingPolicy, SVRConfig
from repro.svr.overhead import overhead_kib
from repro.svr.stride_detector import StrideEntry
from repro.svr.taint_tracker import TaintTracker

from conftest import build_gather_workload, make_inorder, make_memory


def run_gather(svr=None, count=256, steps=2600):
    program, memory = build_gather_workload(count=count)
    core, hierarchy, unit = make_inorder(program, memory, svr=svr)
    stats = core.run(steps)
    return core, hierarchy, unit, stats


class TestTriggering:
    def test_prm_triggers_on_striding_load(self):
        _, _, unit, _ = run_gather(SVRConfig())
        assert unit.stats.prm_rounds > 0

    def test_svr_issues_prefetches(self):
        _, hierarchy, _, _ = run_gather(SVRConfig())
        assert hierarchy.stats.prefetches_issued["svr"] > 0

    def test_prefetches_are_useful(self):
        _, hierarchy, _, _ = run_gather(SVRConfig())
        stats = hierarchy.stats
        assert stats.prefetch_useful["svr"] > 10 * stats.prefetch_useless["svr"]

    def test_indirect_lanes_prefetched(self):
        """Both the striding index loads and the dependent gathers vectorize."""
        _, _, unit, _ = run_gather(SVRConfig())
        # Dependent chain: slli+add+ld per lane -> load lanes exceed one
        # stride load's worth per round.
        assert unit.stats.svi_load_lanes > unit.stats.prm_rounds * 16

    def test_speedup_over_plain_inorder(self):
        _, _, _, plain = run_gather(None)
        _, _, _, svr = run_gather(SVRConfig())
        assert svr.cycles < plain.cycles / 1.5

    def test_no_trigger_without_stride(self):
        """Pointer-chasing (non-striding) loads never enter PRM."""
        memory = make_memory()
        cells = [memory.alloc(64) for _ in range(64)]
        order = np.random.default_rng(3).permutation(64)
        for i in range(63):
            memory.write_word(cells[order[i]], cells[order[i + 1]])
        b = ProgramBuilder()
        b.li("t0", cells[order[0]])
        b.li("t1", 60)
        b.label("loop")
        b.ld("t0", "t0", 0)
        b.addi("t1", "t1", -1)
        b.bnez("t1", "loop")
        b.halt()
        core, _, unit = make_inorder(b.build(), memory, svr=SVRConfig())
        core.run(1000)
        assert unit.stats.prm_rounds == 0


class TestWaitingMode:
    def test_rounds_spaced_by_vector_length(self):
        _, _, unit, stats = run_gather(SVRConfig(vector_length=16))
        iterations = stats.loads // 2          # 2 loads per iteration
        expected_rounds = iterations / 17      # one round per N+1 iterations
        assert unit.stats.prm_rounds <= expected_rounds * 2.0

    def test_disabling_waiting_mode_explodes_work(self):
        _, _, on, _ = run_gather(SVRConfig(waiting_mode=True))
        _, _, off, _ = run_gather(SVRConfig(waiting_mode=False))
        assert off.stats.prm_rounds > 4 * on.stats.prm_rounds
        assert off.stats.svi_lanes > 4 * on.stats.svi_lanes

    def test_disabling_waiting_mode_hurts_performance(self):
        _, _, _, on = run_gather(SVRConfig(waiting_mode=True))
        _, _, _, off = run_gather(SVRConfig(waiting_mode=False))
        assert off.cycles > on.cycles


class TestTermination:
    def test_hslr_termination_dominates_steady_state(self):
        _, _, unit, _ = run_gather(SVRConfig())
        terms = unit.stats.terminations
        assert terms["hslr"] > 0

    def test_timeout_on_long_bodies(self):
        """A loop body longer than the 256-instruction timeout."""
        memory = make_memory()
        data = memory.alloc_array(list(range(512)), name="A")
        b = ProgramBuilder()
        b.li("a0", data)
        b.li("a1", 400)
        b.li("t0", 0)
        b.label("loop")
        b.slli("t1", "t0", 3)
        b.add("t1", "a0", "t1")
        b.ld("t2", "t1", 0)              # striding load
        b.add("t3", "t2", "t2")          # tainted dependent
        for _ in range(140):             # long filler body
            b.addi("t4", "t4", 1)
            b.xori("t4", "t4", 3)
        b.addi("t0", "t0", 1)
        b.cmp_lt("t5", "t0", "a1")
        b.bnez("t5", "loop")
        b.halt()
        core, _, unit = make_inorder(b.build(), memory, svr=SVRConfig())
        core.run(20_000)
        assert unit.stats.terminations["timeout"] > 0

    def test_lil_trains_after_rounds(self):
        _, _, unit, _ = run_gather(SVRConfig())
        entries = [e for e in unit.detector.entries() if e.lil_confidence > 0]
        assert entries, "LIL should gain confidence in a steady loop"

    def test_taint_cleared_after_termination(self):
        _, _, unit, _ = run_gather(SVRConfig())
        if not unit.in_prm:
            assert unit.taint.mapped_registers() == []


class TestTransientSafety:
    def test_transient_stores_do_not_corrupt_memory(self):
        """Histogram kernel under SVR must produce the exact same memory
        image as pure functional execution."""
        def build(seed=11):
            memory = make_memory()
            rng = np.random.default_rng(seed)
            keys = rng.integers(0, 512, size=256, dtype=np.int64)
            key_base = memory.alloc_array(keys, name="keys")
            hist = memory.alloc_zeros(512, name="hist")
            b = ProgramBuilder()
            b.li("a0", key_base)
            b.li("a1", hist)
            b.li("a2", 256)
            b.li("t0", 0)
            b.label("loop")
            b.slli("t1", "t0", 3)
            b.add("t1", "a0", "t1")
            b.ld("t2", "t1", 0)
            b.slli("t3", "t2", 3)
            b.add("t3", "a1", "t3")
            b.ld("t4", "t3", 0)
            b.addi("t4", "t4", 1)
            b.st("t4", "t3", 0)          # tainted store
            b.addi("t0", "t0", 1)
            b.cmp_lt("t5", "t0", "a2")
            b.bnez("t5", "loop")
            b.halt()
            return b.build(), memory, hist

        program, memory, hist = build()
        fc = FunctionalCore(program, memory)
        fc.run()
        reference = memory.read_array(hist, 512).copy()

        program2, memory2, hist2 = build()
        core, _, unit = make_inorder(program2, memory2, svr=SVRConfig())
        core.run(1_000_000)
        assert core.halted
        assert unit.stats.svi_lanes > 0
        np.testing.assert_array_equal(memory2.read_array(hist2, 512),
                                      reference)

    def test_architectural_results_identical_with_svr(self, gather):
        program, memory = gather
        core, _, _ = make_inorder(program, memory, svr=SVRConfig())
        core.run(1_000_000)
        svr_sum = core.regs.read(25)       # t5 accumulator

        program2, memory2 = build_gather_workload()
        fc = FunctionalCore(program2, memory2)
        fc.run()
        assert svr_sum == fc.regs.read(25)


class TestControlFlow:
    def build_branchy_gather(self, count=512):
        """Gather where odd values skip the indirect load (divergence)."""
        memory = make_memory()
        rng = np.random.default_rng(17)
        idx = rng.integers(0, 4096, size=count, dtype=np.int64)
        idx_base = memory.alloc_array(idx, name="idx")
        data = memory.alloc(4096 << 6, name="data")
        b = ProgramBuilder()
        b.li("a0", idx_base)
        b.li("a1", data)
        b.li("a2", count)
        b.li("t0", 0)
        b.label("loop")
        b.slli("t1", "t0", 3)
        b.add("t1", "a0", "t1")
        b.ld("t2", "t1", 0)              # striding load
        b.andi("t3", "t2", 1)            # tainted predicate
        b.bnez("t3", "skip")             # divergent branch
        b.slli("t4", "t2", 6)
        b.add("t4", "a1", "t4")
        b.ld("t5", "t4", 0)              # indirect load (even lanes only)
        b.label("skip")
        b.addi("t0", "t0", 1)
        b.cmp_lt("t6", "t0", "a2")
        b.bnez("t6", "loop")
        b.halt()
        return b.build(), memory

    def test_divergent_lanes_masked(self):
        program, memory = self.build_branchy_gather()
        core, _, unit = make_inorder(program, memory, svr=SVRConfig())
        core.run(8_000)
        assert unit.stats.masked_lanes > 0

    def test_roughly_half_the_lanes_survive(self):
        program, memory = self.build_branchy_gather()
        core, hierarchy, unit = make_inorder(program, memory,
                                             svr=SVRConfig(vector_length=16))
        core.run(8_000)
        # Odd/even predicate: about half of each round's 16 lanes should be
        # masked at the divergent branch.
        per_round = unit.stats.masked_lanes / unit.stats.prm_rounds
        assert 16 * 0.25 < per_round < 16 * 0.8


class TestMultipleChains:
    def test_nested_loops_settle_on_inner_chain(self):
        """A PR-shaped kernel: the steady-state HSLR must be the *inner*
        neighbor load, not the outer offset walk (Section IV-A6 bias)."""
        from repro.workloads.gap import build_pr
        from repro.workloads.graphs import uniform_random_graph

        workload = build_pr(uniform_random_graph(256, 8, seed=5), passes=4)
        core, _, unit = make_inorder(workload.program, workload.memory,
                                     svr=SVRConfig())
        core.run(20_000)
        # The inner neighbor load is the first LD after the 'inner' label.
        inner_pc = workload.program.pc_of("inner") + 2
        assert unit.hslr_pc == inner_pc
        assert unit.stats.prm_rounds > 0

    def test_independent_loops_retarget(self):
        """Fig 9 bottom: a second phase's striding load seen twice while the
        HSLR still points at the finished first loop forces a retarget."""
        memory = make_memory()
        rng = np.random.default_rng(29)
        idx_a = memory.alloc_array(
            rng.integers(0, 2048, 512, dtype=np.int64), name="ia")
        idx_b = memory.alloc_array(
            rng.integers(0, 2048, 512, dtype=np.int64), name="ib")
        data = memory.alloc(2048 << 6, name="data")

        def gather_loop(b, idx_base_reg, tag):
            b.li("t0", 0)
            b.label(f"loop_{tag}")
            b.slli("t1", "t0", 3)
            b.add("t1", idx_base_reg, "t1")
            b.ld("t2", "t1", 0)
            b.slli("t3", "t2", 6)
            b.add("t3", "a2", "t3")
            b.ld("t4", "t3", 0)
            b.add("t5", "t5", "t4")
            b.addi("t0", "t0", 1)
            b.cmp_lt("t6", "t0", "a3")
            b.bnez("t6", f"loop_{tag}")

        b = ProgramBuilder()
        b.li("a0", idx_a)
        b.li("a1", idx_b)
        b.li("a2", data)
        b.li("a3", 512)
        gather_loop(b, "a0", "first")
        gather_loop(b, "a1", "second")
        b.halt()
        core, _, unit = make_inorder(b.build(), memory, svr=SVRConfig())
        core.run(30_000)
        assert unit.stats.retargets > 0
        # After the retarget, the HSLR sits on the second loop's index load.
        second_pc = b.build().pc_of("loop_second") + 2
        assert unit.hslr_pc == second_pc

    def test_unrolled_parallel_chains_both_vectorize(self):
        """Two independent gathers in one loop body (Fig 9 middle)."""
        memory = make_memory()
        rng = np.random.default_rng(23)
        idx_a = memory.alloc_array(
            rng.integers(0, 2048, 512, dtype=np.int64), name="ia")
        idx_b = memory.alloc_array(
            rng.integers(0, 2048, 512, dtype=np.int64), name="ib")
        data = memory.alloc(2048 << 6, name="data")
        b = ProgramBuilder()
        b.li("a0", idx_a)
        b.li("a1", idx_b)
        b.li("a2", data)
        b.li("a3", 512)
        b.li("t0", 0)
        b.label("loop")
        b.slli("t1", "t0", 3)
        b.add("t2", "a0", "t1")
        b.ld("t3", "t2", 0)              # chain A head
        b.slli("t4", "t3", 6)
        b.add("t4", "a2", "t4")
        b.ld("t5", "t4", 0)              # chain A indirect
        b.add("t6", "a1", "t1")
        b.ld("t7", "t6", 0)              # chain B head
        b.slli("t8", "t7", 6)
        b.add("t8", "a2", "t8")
        b.ld("t9", "t8", 0)              # chain B indirect
        b.addi("t0", "t0", 1)
        b.cmp_lt("t10", "t0", "a3")
        b.bnez("t10", "loop")
        b.halt()
        core, _, unit = make_inorder(b.build(), memory, svr=SVRConfig())
        core.run(10_000)
        assert unit.stats.unrolled_chains > 0


class TestAccuracyGate:
    # Small caches so useless prefetched lines actually get evicted (the
    # accuracy event of Section IV-A7) within a short test run.
    SMALL_CACHES = dict(l1_size=8 << 10, l2_size=32 << 10)

    def build_short_loop_kernel(self, trip=6, rows=4096):
        """Tiny inner trips with jumps: maxlength overfetches badly."""
        memory = make_memory()
        total = 1 << 17                  # 1 MiB array: far beyond the L2
        data = memory.alloc_array(
            np.arange(total, dtype=np.int64), name="A")
        b = ProgramBuilder()
        b.li("a0", data)
        b.li("a1", rows)
        b.li("a2", trip)
        b.li("t9", 0)                    # row
        b.label("rows")
        b.muli("t1", "t9", 7177)         # scattered row start
        b.andi("t1", "t1", total - 64)
        b.li("t2", 0)
        b.label("inner")
        b.add("t3", "t1", "t2")
        b.slli("t3", "t3", 3)
        b.add("t3", "a0", "t3")
        b.ld("t4", "t3", 0)              # short striding runs
        b.add("t5", "t5", "t4")
        b.addi("t2", "t2", 1)
        b.cmp_lt("t6", "t2", "a2")
        b.bnez("t6", "inner")
        b.addi("t9", "t9", 1)
        b.cmp_lt("t6", "t9", "a1")
        b.bnez("t6", "rows")
        b.halt()
        return b.build(), memory

    def _run(self, cfg, steps=60_000):
        from repro.memory.hierarchy import MemoryConfig

        program, memory = self.build_short_loop_kernel()
        mem_cfg = MemoryConfig(stride_prefetcher=False, **self.SMALL_CACHES)
        core, hierarchy, unit = make_inorder(program, memory, svr=cfg,
                                             mem_cfg=mem_cfg)
        core.run(steps)
        return core, hierarchy, unit

    def test_maxlength_gets_banned_on_short_loops(self):
        cfg = SVRConfig(policy=LoopBoundPolicy.MAXLENGTH,
                        accuracy_warmup_events=40,
                        accuracy_reset_interval=1_000_000)
        _, _, unit = self._run(cfg)
        assert unit.monitor.bans >= 1
        assert unit.stats.rounds_blocked_by_monitor > 0

    def test_monitor_can_be_disabled(self):
        cfg = SVRConfig(policy=LoopBoundPolicy.MAXLENGTH,
                        accuracy_enabled=False)
        _, _, unit = self._run(cfg)
        assert unit.monitor.bans == 0

    def test_tournament_policy_stays_accurate(self):
        tour_cfg = SVRConfig(policy=LoopBoundPolicy.TOURNAMENT,
                             accuracy_enabled=False)
        _, tour_hier, _ = self._run(tour_cfg)
        max_cfg = SVRConfig(policy=LoopBoundPolicy.MAXLENGTH,
                            accuracy_enabled=False)
        _, max_hier, _ = self._run(max_cfg)
        assert (tour_hier.stats.accuracy("svr")
                > max_hier.stats.accuracy("svr"))


class TestAblationKnobs:
    def test_longer_vectors_prefetch_more(self):
        _, h8, _, _ = run_gather(SVRConfig(vector_length=8), count=1024,
                                 steps=8000)
        _, h64, _, _ = run_gather(SVRConfig(vector_length=64), count=1024,
                                  steps=8000)
        assert (h64.stats.prefetches_issued["svr"]
                > h8.stats.prefetches_issued["svr"])

    def test_register_copy_cost_slows_execution(self):
        _, _, _, free = run_gather(SVRConfig(register_copy_cost_cycles=0.0))
        _, _, _, costly = run_gather(
            SVRConfig(register_copy_cost_cycles=32.0))
        assert costly.cycles > free.cycles

    def test_dvr_recycling_with_tiny_srf_loses_coverage(self):
        """On a two-level chain (Camel), a 2-entry SRF with DVR's
        no-stealing policy cannot map the second indirection level, losing
        prefetch coverage; LRU recycling keeps vectorizing (Section VI-D)."""
        from repro.workloads.hpc import build_camel

        def run_with(cfg):
            workload = build_camel(elements=1024, table_nodes=1024)
            core, hierarchy, unit = make_inorder(
                workload.program, workload.memory, svr=cfg)
            core.run(12_000)
            return hierarchy, unit

        h_lru, _ = run_with(SVRConfig(srf_entries=2,
                                      recycling=RecyclingPolicy.LRU))
        h_dvr, u_dvr = run_with(SVRConfig(srf_entries=2,
                                          recycling=RecyclingPolicy.DVR))
        assert u_dvr.srf.allocation_failures > 0
        assert (h_dvr.stats.prefetches_issued["svr"]
                < 0.9 * h_lru.stats.prefetches_issued["svr"])

    def test_scalars_per_unit_barely_matters(self):
        """Fig 16: execution is memory-bound, packing lanes changes little."""
        _, _, _, one = run_gather(SVRConfig(scalars_per_unit=1))
        _, _, _, eight = run_gather(SVRConfig(scalars_per_unit=8))
        assert eight.cycles <= one.cycles
        assert eight.cycles > 0.7 * one.cycles

    def test_state_kib_matches_overhead_table(self):
        from repro.svr.unit import ScalarVectorUnit
        unit = ScalarVectorUnit(SVRConfig(vector_length=16, srf_entries=8))
        assert unit.state_kib == pytest.approx(overhead_kib(16, 8))


class TestStoreLaneMaskingRegression:
    """Bug pin: an invalid store-source lane must be masked and counted.

    Before the fix, ``_generate_dependent_store`` skipped invalid source
    lanes with a bare ``continue`` — the lane kept issuing SVIs for the
    rest of the round even though its chain values were garbage.
    """

    def _prm_unit(self):
        program, memory = build_gather_workload(count=32)
        core, _, unit = make_inorder(program, memory, svr=SVRConfig())
        unit.in_prm = True
        unit.mask = [True] * unit.config.vector_length
        return unit

    def test_invalid_source_lane_is_masked_and_counted(self):
        unit = self._prm_unit()
        srf_id = unit.srf.allocate(5, unit.taint)
        unit.taint.map(5, srf_id, 0)
        for lane in range(8):      # lanes 8..15 stay invalid
            unit.srf.write_lane(srf_id, lane, 0x2_0000 + 8 * lane, 0.0)
        store = Instruction(Opcode.ST, rs1=5, rs2=6)
        unit._generate_dependent_store(0, store, issue_time=0.0)
        assert all(unit.mask[:8])
        assert not any(unit.mask[8:])
        assert unit.stats.masked_lanes == 8

    def test_masked_store_lane_stays_dead_for_later_svis(self):
        unit = self._prm_unit()
        srf_id = unit.srf.allocate(5, unit.taint)
        unit.taint.map(5, srf_id, 0)
        unit.srf.write_lane(srf_id, 0, 0x2_0000, 0.0)   # only lane 0 valid
        store = Instruction(Opcode.ST, rs1=5, rs2=6)
        unit._generate_dependent_store(0, store, issue_time=0.0)
        assert unit._active_lanes() == [0]


class TestSrfExhaustionTaintRegression:
    """Bug pin: allocation failure must leave the register *unmapped*.

    Before the fix the stride-SVI path set ``tainted = True`` but left a
    stale ``mapped`` / ``srf_id`` from a previous mapping, so consumers
    could read a recycled SRF vector belonging to another register.
    """

    def _exhausted_unit(self):
        program, memory = build_gather_workload(count=32)
        core, _, unit = make_inorder(
            program, memory,
            svr=SVRConfig(srf_entries=1, recycling=RecyclingPolicy.DVR))
        unit.in_prm = True
        unit.mask = [True] * unit.config.vector_length
        srf_id = unit.srf.allocate(1, unit.taint)
        unit.taint.map(1, srf_id, 0)   # the single entry is now live
        return unit

    def test_stride_path_taints_without_mapping(self):
        unit = self._exhausted_unit()
        # Leave register 2 with a stale mapping record, as a recycled
        # register would have.
        unit.taint.map(2, 0, 0)
        unit.taint.unmap(2)
        entry = StrideEntry(pc=4, prev_addr=0x2_0000, stride=8, confidence=3)
        load = Instruction(Opcode.LD, rd=2, rs1=3)
        unit._generate_stride_svis(entry, load, 0x2_0000, 0.0,
                                   shared_mask=False, length=4)
        tentry = unit.taint.entry(2)
        assert tentry.tainted
        assert not tentry.mapped
        assert tentry.srf_id == -1
        assert not unit.taint.is_vectorizable(2)

    def test_dependent_path_taints_without_mapping(self):
        unit = self._exhausted_unit()
        unit._write_dest_lanes(2, [(0, 7, 1.0)])
        tentry = unit.taint.entry(2)
        assert tentry.tainted
        assert not tentry.mapped
        assert tentry.srf_id == -1

    def test_taint_unmapped_helper_contract(self):
        taint = TaintTracker()
        taint.map(3, srf_id=2, offset=0)
        taint.taint_unmapped(3)
        entry = taint.entry(3)
        assert entry.tainted
        assert not entry.mapped
        assert entry.srf_id == -1
        assert taint.is_tainted(3)
        assert not taint.is_vectorizable(3)
