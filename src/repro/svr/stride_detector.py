"""Stride detector — the reference prediction table of Fig 6.

Each entry tracks, per load PC: previous address, stride, a 2-bit saturating
confidence counter, the Last Prefetch address that implements waiting mode,
the Seen bit used for multi-chain handling, the Last Indirect Load fields,
and the iteration/EWMA counters feeding loop-bound prediction (the paper
splits these between the stride detector and the LBD; we keep the
per-stride-PC counters here and the per-loop compare state in
:mod:`repro.svr.loop_bound`, which is the same state, organised by owner).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class StrideObservation:
    """What one load told the detector."""

    entry: "StrideEntry"
    is_striding: bool          # confidence reached the threshold
    continued: bool            # addr == prev + stride (iteration continues)
    in_waiting_range: bool     # covered by a previous round's prefetches
    ended_run: bool            # a contiguous run just ended (EWMA updated)
    run_length: int = 0        # length of the run that just ended


@dataclass(slots=True)
class StrideEntry:
    pc: int
    prev_addr: int
    stride: int = 0
    confidence: int = 0
    last_prefetch: int | None = None   # end of the prefetched range
    range_start: int | None = None     # start of the prefetched range
    seen: bool = False
    lil_offset: int = 0                # dynamic instrs to last indirect load
    lil_confidence: int = 0            # 2-bit
    iteration: int = 0                 # contiguous strides so far
    ewma: float = 0.0
    ewma_trained: bool = False         # at least one run has ended
    tournament: int = 1                # 2-bit chooser (MSB: use LBD)
    last_ewma_pred: int | None = None
    last_lbd_pred: int | None = None


class StrideDetector:
    """PC-indexed table with LRU replacement on capacity."""

    def __init__(self, entries: int = 32, confidence_threshold: int = 2,
                 ewma_cap: int = 512) -> None:
        self._entries = entries
        self._threshold = confidence_threshold
        self._ewma_cap = ewma_cap
        self._table: dict[int, StrideEntry] = {}
        self.accesses = 0
        # Optional obs probe ("predictor.stride_run"), wired by the owner.
        self.probe = None

    def __len__(self) -> int:
        return len(self._table)

    def get(self, pc: int) -> StrideEntry | None:
        return self._table.get(pc)

    def entries(self):
        return self._table.values()

    def observe(self, pc: int, addr: int) -> StrideObservation:
        """Update the entry for a committed load and classify the access."""
        self.accesses += 1
        entry = self._table.get(pc)
        if entry is None:
            if len(self._table) >= self._entries:
                del self._table[next(iter(self._table))]
            entry = StrideEntry(pc=pc, prev_addr=addr)
            self._table[pc] = entry
            return StrideObservation(entry, False, False, False, False)
        # LRU touch.
        del self._table[pc]
        self._table[pc] = entry

        stride = addr - entry.prev_addr
        continued = stride == entry.stride and stride != 0
        ended_run = False
        run_length = 0
        if continued:
            entry.confidence = min(3, entry.confidence + 1)
            entry.iteration += 1
            if entry.iteration >= self._ewma_cap:
                run_length = entry.iteration
                self._update_ewma(entry)
                ended_run = True
        else:
            if entry.iteration > 0:
                run_length = entry.iteration
                self._update_ewma(entry)
                ended_run = True
            # Hysteresis: a confirmed stride survives discontinuities (the
            # jump between inner-loop instances) with reduced confidence; a
            # new stride is only adopted once confidence has drained.  This
            # keeps loop-boundary jumps from triggering runahead with a
            # garbage stride.
            if entry.confidence > 0:
                entry.confidence -= 1
            elif stride != 0:
                entry.stride = stride

        if ended_run and self.probe is not None and self.probe.enabled:
            self.probe.emit(pc=pc, run_length=run_length)
        in_waiting = (
            entry.last_prefetch is not None
            and entry.range_start is not None
            and self._within(entry, addr)
        )
        entry.prev_addr = addr
        is_striding = entry.confidence >= self._threshold and entry.stride != 0
        return StrideObservation(entry, is_striding, continued, in_waiting,
                                 ended_run, run_length)

    @staticmethod
    def _within(entry: StrideEntry, addr: int) -> bool:
        low, high = entry.range_start, entry.last_prefetch
        if low is None or high is None:
            return False
        if low <= high:
            return low <= addr <= high
        return high <= addr <= low   # negative strides

    def _update_ewma(self, entry: StrideEntry) -> None:
        """EWMA_new = 7*EWMA_old/8 + Iteration/8 (Section IV-B2)."""
        if entry.ewma_trained:
            entry.ewma = 7.0 * entry.ewma / 8.0 + entry.iteration / 8.0
        else:
            # Cold start: seed with the first observed run length rather
            # than averaging against an uninitialised zero.
            entry.ewma = float(entry.iteration)
            entry.ewma_trained = True
        entry.iteration = 0

    def record_prefetch_range(self, entry: StrideEntry, start: int,
                              end: int) -> None:
        """Set waiting-mode bounds after a round of runahead."""
        entry.range_start = start
        entry.last_prefetch = end

    def clear_seen_except(self, keep_pc: int | None) -> None:
        for entry in self._table.values():
            if entry.pc != keep_pc:
                entry.seen = False

    def record_lil(self, entry: StrideEntry, offset: int) -> None:
        """Train the Last Indirect Load fields at PRM termination."""
        if entry.lil_offset == offset:
            entry.lil_confidence = min(3, entry.lil_confidence + 1)
        else:
            entry.lil_confidence = max(0, entry.lil_confidence - 1)
            if entry.lil_confidence == 0:
                entry.lil_offset = offset
