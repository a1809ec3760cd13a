"""SVR configuration knobs.

Defaults follow the paper: vector length N = 16, K = 8 speculative
registers, 32 stride-detector entries, 256-instruction PRM timeout,
tournament loop-bound prediction, waiting mode on, LRU register recycling.
The ablation studies of Section VI-D and Figs 15-16 are all expressed as
deviations from these defaults.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LoopBoundPolicy(enum.Enum):
    """Vector-length throttling policies evaluated in Fig 15."""

    MAXLENGTH = "maxlength"          # always issue N lanes
    LBD_WAIT = "lbd+wait"            # DVR-style: wait one iteration for LBD
    LBD_MAXLENGTH = "lbd+maxlength"  # LBD when trained, else N
    LBD_CV = "lbd+cv"                # LBD with current-value scavenging
    EWMA = "ewma"                    # history average only
    TOURNAMENT = "tournament"        # 2-bit chooser between EWMA and LBD+CV


class RecyclingPolicy(enum.Enum):
    """SRF allocation policy (Section VI-D, Register Recycling)."""

    LRU = "lru"    # SVR: steal the least-recently-read mapped register
    DVR = "dvr"    # DVR-style renaming: never steal a live mapping


@dataclass
class SVRConfig:
    """All SVR knobs; see DESIGN.md for the figure each one drives."""

    vector_length: int = 16           # N — SVR8..SVR128 in the figures
    srf_entries: int = 8              # K
    stride_detector_entries: int = 32
    stride_confidence_threshold: int = 2
    timeout_instructions: int = 256   # PRM instruction timeout
    ewma_cap: int = 512               # iteration-counter cap before forced update
    policy: LoopBoundPolicy = LoopBoundPolicy.TOURNAMENT
    recycling: RecyclingPolicy = RecyclingPolicy.LRU
    waiting_mode: bool = True         # Section IV-A5 (ablated in VI-D)
    scalars_per_unit: int = 1         # Fig 16: lanes per execute slot
    # Ablation (Section VI-D, Lockstep Coupling): give SVIs a free second
    # issue context (DVR-style decoupling) instead of sharing the main
    # thread's issue slots.  Infeasible hardware on a little core — used
    # only to quantify what lockstep coupling costs.
    decoupled_context: bool = False
    register_copy_cost_cycles: float = 0.0   # Section VI-D lockstep-coupling cost
    # Accuracy monitor (Section IV-A7).  The paper resets every 1M
    # instructions in 200M windows; we keep the same 1:200 proportion for
    # our scaled-down windows via the runner.
    accuracy_enabled: bool = True
    accuracy_threshold: float = 0.5
    accuracy_warmup_events: int = 100
    accuracy_reset_interval: int = 50_000

    def __post_init__(self) -> None:
        if self.vector_length < 1:
            raise ValueError(
                f"SVRConfig.vector_length must be >= 1, got "
                f"{self.vector_length}")
        if self.srf_entries < 1:
            raise ValueError(
                f"SVRConfig.srf_entries must be >= 1, got "
                f"{self.srf_entries}")
        if self.stride_detector_entries < 1:
            raise ValueError(
                f"SVRConfig.stride_detector_entries must be >= 1, got "
                f"{self.stride_detector_entries}")
        if self.stride_confidence_threshold < 1:
            raise ValueError(
                f"SVRConfig.stride_confidence_threshold must be >= 1, got "
                f"{self.stride_confidence_threshold}")
        if self.timeout_instructions <= 0:
            raise ValueError(
                f"SVRConfig.timeout_instructions must be > 0, got "
                f"{self.timeout_instructions}")
        if self.ewma_cap < 1:
            raise ValueError(
                f"SVRConfig.ewma_cap must be >= 1, got {self.ewma_cap}")
        if self.scalars_per_unit < 1:
            raise ValueError(
                f"SVRConfig.scalars_per_unit must be >= 1, got "
                f"{self.scalars_per_unit}")
        if self.register_copy_cost_cycles < 0:
            raise ValueError(
                f"SVRConfig.register_copy_cost_cycles must be >= 0, got "
                f"{self.register_copy_cost_cycles}")
        if not 0.0 <= self.accuracy_threshold <= 1.0:
            raise ValueError(
                f"SVRConfig.accuracy_threshold must be in [0, 1], got "
                f"{self.accuracy_threshold}")
        if self.accuracy_warmup_events < 0:
            raise ValueError(
                f"SVRConfig.accuracy_warmup_events must be >= 0, got "
                f"{self.accuracy_warmup_events}")
        if self.accuracy_reset_interval < 1:
            raise ValueError(
                f"SVRConfig.accuracy_reset_interval must be >= 1, got "
                f"{self.accuracy_reset_interval}")
