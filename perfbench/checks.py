"""Correctness checks on every cell, and the simulated-output digest.

A cell fails when its memory image differs from the functional core's
after the same number of committed instructions, or when its exported
result breaks an accounting invariant.  The digest covers only
``SimResult.to_dict()``, which holds simulated quantities and nothing
measured on the host, so two runs of one seed must print the same digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.cores.functional import FunctionalCore
from repro.memory.hierarchy import MemoryConfig
from repro.workloads.base import Workload


def reference_image(workload: Workload, instructions: int) -> np.ndarray:
    """Memory words of *workload* after *instructions* functional steps
    (mutates *workload*, which must be a fresh build)."""
    FunctionalCore(workload.program, workload.memory).run(instructions)
    return workload.memory.words


def memory_problems(words: np.ndarray, reference: np.ndarray) -> list[str]:
    if np.array_equal(words, reference):
        return []
    differing = int(np.count_nonzero(words != reference))
    return [f"memory image differs from the functional core in "
            f"{differing} words"]


def stack_excess(result: dict) -> float:
    """How far the CPI stack's sum exceeds CPI, as a share of CPI.

    The stack's ``base`` entry is the non-negative residual, so the sum is
    CPI exactly unless the attributed stall cycles alone exceed the
    cycles: the model charges overlapping stalls (a branch penalty
    shadowing a memory stall) to both causes.
    """
    stack = sum(result["cpi_stack"].values())
    return stack / result["cpi"] - 1.0 if result["cpi"] else 0.0


def unissued_fates(result: dict, origin: str) -> int:
    """Prefetch fates (useful + useless) the window counts beyond the
    prefetches it issued.  Statistics reset at the window start, but lines
    prefetched during warm-up resolve later, inside the window."""
    resolved = (result["prefetch_useful"][origin]
                + result["prefetch_useless"][origin])
    return resolved - result["prefetches_issued"][origin]


# The overlap the model allows for (its own test suite bounds the stack
# at 1.15x CPI); beyond it the stack is wrong, not just overlapping.
MAX_STACK_EXCESS = 0.15
# Prefetched lines still awaiting their fate at the window start are lines
# held in the L1 or L2, so at most this many fates can carry over.
_MEM = MemoryConfig()
MAX_CARRIED_FATES = (_MEM.l1_size + _MEM.l2_size) // _MEM.line_bytes


def invariant_problems(result: dict, measure: int) -> list[str]:
    """Accounting invariants of one exported result.

    The CPI stack and prefetch-fate checks allow for the two departures
    :func:`departures` reports; anything beyond them fails the cell.
    """
    problems = []
    excess = stack_excess(result)
    if not -1e-9 <= excess <= MAX_STACK_EXCESS:
        problems.append(f"CPI stack sums to {excess:+.3%} of CPI")
    for origin in result["prefetches_issued"]:
        extra = unissued_fates(result, origin)
        if extra > MAX_CARRIED_FATES:
            problems.append(f"{origin} prefetches: useful + useless exceeds "
                            f"issued by {extra}")
    svr = result.get("svr")
    if svr is not None and svr["accuracy"] is not None \
            and not 0.0 <= svr["accuracy"] <= 1.0:
        problems.append(f"svr accuracy {svr['accuracy']!r} outside [0, 1]")
    if result["instructions"] != measure:
        problems.append(f"measured {result['instructions']} instructions, "
                        f"window is {measure}")
    return problems


def departures(result: dict) -> list[str]:
    """Where a result breaks the strict invariants (the CPI stack sums to
    CPI; useful + useless is at most issued) within the model's bounds."""
    out = []
    excess = stack_excess(result)
    if excess > 1e-9:
        out.append(f"CPI stack {excess:+.3%} over CPI")
    for origin in result["prefetches_issued"]:
        extra = unissued_fates(result, origin)
        if extra > 0:
            out.append(f"{extra} {origin} prefetch fates beyond issued")
    return out


def result_digest(result: dict) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_digest(cell_digests: dict[str, str]) -> str:
    """One digest over every cell's result, independent of run order."""
    blob = "\n".join(f"{label} {cell_digests[label]}"
                     for label in sorted(cell_digests))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
