"""The fused core run loops against two references.

* **Differential.**  For every registered workload, a timing core leaves
  exactly the architectural state (registers, pc, memory image) that the
  timing-free :class:`~repro.cores.functional.FunctionalCore` leaves after
  the same number of committed instructions.  The in-order and OoO cores
  execute instructions inline; ``execute()`` plus ``FunctionalCore`` is
  the semantic reference they must match.
* **Lockstep.**  ``step()`` is ``run()`` with a budget of one, so a core
  driven one ``step()`` at a time stays in lockstep with one driven by
  ``run(n)`` chunks of any size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cores.functional import FunctionalCore
from repro.cores.inorder import InOrderCore
from repro.cores.ooo import OutOfOrderCore
from repro.harness.runner import technique
from repro.memory.hierarchy import MemoryHierarchy
from repro.svr.unit import ScalarVectorUnit
from repro.svr.vr import VectorRunaheadUnit
from repro.workloads.registry import (
    IRREGULAR_WORKLOADS,
    SPEC_WORKLOADS,
    build_workload,
)

from conftest import make_inorder, make_ooo

# The tiny-scale window (warm-up plus measured instructions).
BUDGET = 5_000
TECHNIQUES = ("inorder", "ooo", "svr16", "vr")


def build_core(workload, tech_name: str):
    """Wire a core the way :func:`repro.harness.runner.run` does."""
    tech = technique(tech_name)
    hierarchy = MemoryHierarchy(workload.memory, tech.memory)
    if tech.core == "inorder":
        svr = ScalarVectorUnit(tech.svr) if tech.svr is not None else None
        return InOrderCore(workload.program, workload.memory, hierarchy,
                           tech.core_config, svr=svr)
    vr = (VectorRunaheadUnit(tech.vr_length)
          if tech.vr_length is not None else None)
    return OutOfOrderCore(workload.program, workload.memory, hierarchy,
                          tech.core_config, vr=vr)


@pytest.mark.parametrize("name", IRREGULAR_WORKLOADS + SPEC_WORKLOADS)
def test_timing_cores_match_functional_core(name):
    reference = build_workload(name, "tiny")
    functional = FunctionalCore(reference.program, reference.memory)
    committed = 0
    for tech_name in TECHNIQUES:
        workload = build_workload(name, "tiny")
        core = build_core(workload, tech_name)
        core.run(BUDGET)
        # HALT ends the run without counting against the budget.
        target = core.lifetime_instructions + (1 if core.halted else 0)
        assert target >= committed
        functional.run(target)
        committed = functional.instructions
        assert committed == target, (tech_name, committed, target)
        assert core.halted == functional.halted, tech_name
        assert core.pc == functional.pc, tech_name
        assert core.regs.snapshot() == functional.regs.snapshot(), tech_name
        assert np.array_equal(workload.memory.words,
                              reference.memory.words), tech_name


def _state(core) -> tuple:
    stats = core.stats
    return (core.pc, core.halted, core.lifetime_instructions, core.now(),
            stats.instructions, stats.loads, stats.stores, stats.branches,
            stats.alu_ops, stats.fp_ops, stats.mispredicts, stats.end_cycle,
            tuple(stats.stalls), tuple(core.regs.snapshot()))


@pytest.mark.parametrize("tech_name", ["inorder", "svr16", "ooo", "vr"])
@pytest.mark.parametrize("name", ["PR_KR", "Camel", "mcf", "lbm"])
def test_step_stays_in_lockstep_with_run(name, tech_name):
    stepped = build_core(build_workload(name, "tiny"), tech_name)
    chunked = build_core(build_workload(name, "tiny"), tech_name)
    chunks = (1, 2, 5, 50, 1, 300, 7, 1_500)
    for chunk in chunks:
        chunked.run(chunk)
        for _ in range(chunk):
            if not stepped.step():
                break
        assert _state(stepped) == _state(chunked), chunk
    assert stepped.lifetime_instructions == sum(chunks) or stepped.halted


@pytest.mark.parametrize("make", [make_inorder, make_ooo])
def test_step_reports_halt(gather, make):
    program, memory = gather
    core = make(program, memory)[0]
    steps = 0
    while core.step():
        steps += 1
    assert core.halted and not core.step()
    # HALT is committed (it is in the stats) but ends the run uncounted.
    assert core.stats.instructions == steps + 1
    assert core.lifetime_instructions == steps
