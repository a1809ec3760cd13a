"""Unit tests for the taint tracker and speculative register file."""

from repro.svr.config import RecyclingPolicy
from repro.svr.srf import SpeculativeRegisterFile
from repro.svr.taint_tracker import TaintTracker


class TestTaintTracker:
    def test_initial_state_clean(self):
        taint = TaintTracker()
        assert not taint.is_tainted(5)
        assert not taint.is_vectorizable(5)

    def test_map_taints_and_maps(self):
        taint = TaintTracker()
        taint.map(5, srf_id=2, offset=1)
        assert taint.is_tainted(5)
        assert taint.is_vectorizable(5)
        assert taint.srf_of(5) == 2

    def test_unmap_keeps_taint(self):
        """Recycled registers stay tainted but lose vectorizability."""
        taint = TaintTracker()
        taint.map(5, 2, 0)
        taint.unmap(5)
        assert taint.is_tainted(5)
        assert not taint.is_vectorizable(5)

    def test_untaint_returns_freed_srf(self):
        taint = TaintTracker()
        taint.map(5, 2, 0)
        assert taint.untaint(5) == 2
        assert not taint.is_tainted(5)

    def test_untaint_unmapped_returns_none(self):
        taint = TaintTracker()
        assert taint.untaint(5) is None

    def test_lru_victim_is_stalest_read(self):
        taint = TaintTracker()
        taint.map(3, 0, offset=10)
        taint.map(4, 1, offset=5)
        taint.touch_read(3, 20)
        assert taint.lru_victim() == 4

    def test_lru_victim_none_when_nothing_mapped(self):
        assert TaintTracker().lru_victim() is None

    def test_clear_resets_everything(self):
        taint = TaintTracker()
        taint.map(5, 2, 0)
        taint.clear()
        assert not taint.is_tainted(5)
        assert taint.mapped_registers() == []

    def test_mapped_registers_listing(self):
        taint = TaintTracker()
        taint.map(3, 0, 0)
        taint.map(7, 1, 0)
        assert taint.mapped_registers() == [3, 7]


class TestSrfAllocation:
    def test_allocate_assigns_free_entries(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=2, lanes=4)
        a = srf.allocate(3, taint)
        taint.map(3, a, 0)
        b = srf.allocate(4, taint)
        taint.map(4, b, 0)
        assert a != b

    def test_reallocate_same_register_reuses_entry(self):
        """Footnote 1: one live copy per architectural register."""
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=2, lanes=4)
        a = srf.allocate(3, taint)
        taint.map(3, a, 0)
        srf.write_lane(a, 0, 99, 1.0)
        again = srf.allocate(3, taint)
        assert again == a
        # Reset on reallocation: old lanes invalid.
        _, _, valid = srf.read_lane(a, 0)
        assert not valid

    def test_lru_policy_recycles_when_full(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=1, lanes=4,
                                      policy=RecyclingPolicy.LRU)
        a = srf.allocate(3, taint)
        taint.map(3, a, offset=0)
        b = srf.allocate(4, taint)
        assert b == a                      # stolen from register 3
        assert not taint.is_vectorizable(3)  # 3 was unmapped
        assert taint.is_tainted(3)           # but stays tainted
        assert srf.recycles == 1

    def test_dvr_policy_fails_when_full(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=1, lanes=4,
                                      policy=RecyclingPolicy.DVR)
        a = srf.allocate(3, taint)
        taint.map(3, a, 0)
        assert srf.allocate(4, taint) is None
        assert srf.allocation_failures == 1
        assert taint.is_vectorizable(3)    # victim untouched

    def test_release_returns_entry_to_pool(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=1, lanes=4,
                                      policy=RecyclingPolicy.DVR)
        a = srf.allocate(3, taint)
        taint.map(3, a, 0)
        taint.untaint(3)
        srf.release(a)
        assert srf.allocate(4, taint) == a

    def test_release_all(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=3, lanes=4)
        for reg in (3, 4, 5):
            taint.map(reg, srf.allocate(reg, taint), 0)
        srf.release_all()
        taint.clear()
        assert srf.allocate(9, taint) is not None


class TestSrfLanes:
    def test_lane_write_read(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=1, lanes=4)
        entry = srf.allocate(3, taint)
        srf.write_lane(entry, 2, 42, 100.0)
        value, ready, valid = srf.read_lane(entry, 2)
        assert (value, ready, valid) == (42, 100.0, True)

    def test_unwritten_lane_invalid(self):
        taint = TaintTracker()
        srf = SpeculativeRegisterFile(entries=1, lanes=4)
        entry = srf.allocate(3, taint)
        _, _, valid = srf.read_lane(entry, 1)
        assert not valid

    def test_lane_count_property(self):
        srf = SpeculativeRegisterFile(entries=2, lanes=16)
        assert srf.lanes == 16 and srf.num_entries == 2


class TestReleaseAllValidBitsRegression:
    """Bug pin: ``release_all`` must invalidate every lane."""

    def test_release_all_clears_valid_bits(self):
        srf = SpeculativeRegisterFile(4, 16, RecyclingPolicy.LRU)
        taint = TaintTracker()
        srf_id = srf.allocate(3, taint)
        srf.write_lane(srf_id, 0, 7, 1.0)
        srf.write_lane(srf_id, 5, 9, 2.0)
        srf.release_all()
        assert not any(any(lanes) for lanes in srf.valid)

    def test_release_single_clears_valid_bits(self):
        srf = SpeculativeRegisterFile(4, 16, RecyclingPolicy.LRU)
        taint = TaintTracker()
        srf_id = srf.allocate(3, taint)
        srf.write_lane(srf_id, 2, 7, 1.0)
        srf.release(srf_id)
        assert not any(srf.valid[srf_id])

    def test_reused_entry_never_exposes_stale_lane(self):
        srf = SpeculativeRegisterFile(1, 8, RecyclingPolicy.LRU)
        taint = TaintTracker()
        first = srf.allocate(3, taint)
        taint.map(3, first, 0)
        srf.write_lane(first, 4, 0xDEAD, 1.0)
        srf.release_all()
        taint.clear()
        second = srf.allocate(9, taint)
        _, _, valid = srf.read_lane(second, 4)
        assert not valid
