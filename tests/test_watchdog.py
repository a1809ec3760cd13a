"""Watchdog fence tests: runaway simulations die with context, healthy
runs never notice the fence."""

from dataclasses import replace

import pytest

from repro.cores.base import CoreConfig, SimulationError
from repro.harness.runner import run, technique

from conftest import make_inorder, make_ooo


class TestFenceTrips:
    def test_inorder_cycle_fence(self, gather):
        program, memory = gather
        core, _, _ = make_inorder(
            program, memory,
            core_cfg=CoreConfig(watchdog_max_cycles=50.0))
        with pytest.raises(SimulationError) as excinfo:
            core.run(10_000)
        exc = excinfo.value
        assert "watchdog fence" in str(exc)
        assert exc.cycle is not None and exc.cycle > 50.0
        assert exc.pc is not None
        assert exc.instructions is not None

    def test_ooo_cycle_fence(self, gather):
        program, memory = gather
        core, _ = make_ooo(
            program, memory,
            core_cfg=CoreConfig(watchdog_max_cycles=50.0))
        with pytest.raises(SimulationError, match="ooo core"):
            core.run(10_000)

    def test_instruction_fence(self, gather):
        program, memory = gather
        core, _, _ = make_inorder(
            program, memory,
            core_cfg=CoreConfig(watchdog_max_instructions=25))
        with pytest.raises(SimulationError, match="instruction"):
            core.run(10_000)
        assert core.lifetime_instructions > 25

    def test_instruction_fence_spans_run_calls(self, gather):
        """The fence counts lifetime instructions, so a warmup+measure
        split cannot reset it."""
        program, memory = gather
        core, _, _ = make_inorder(
            program, memory,
            core_cfg=CoreConfig(watchdog_max_instructions=40))
        core.run(30)    # under the fence
        with pytest.raises(SimulationError):
            core.run(10_000)


class TestRunnerIntegration:
    def test_run_fills_workload_and_technique_context(self):
        tech = technique("inorder")
        tech = replace(tech, core_config=replace(
            tech.core_config, watchdog_max_cycles=50.0))
        with pytest.raises(SimulationError) as excinfo:
            run("Camel", tech, scale="tiny")
        exc = excinfo.value
        assert exc.workload == "Camel"
        assert exc.technique == "inorder"
        # Context rides along in the rendered message.
        text = str(exc)
        assert "workload=Camel" in text and "cycle=" in text

    def test_default_fence_never_trips_healthy_runs(self):
        for tech in ("inorder", "ooo", "svr16"):
            result = run("Camel", technique(tech), scale="tiny")
            assert result.core.instructions > 0

    def test_context_dict(self):
        exc = SimulationError("boom", cycle=5.0, pc=3, workload="w",
                              technique="t")
        ctx = exc.context()
        assert ctx == {"cycle": 5.0, "pc": 3, "workload": "w",
                       "technique": "t"}


class TestPinnedTripPoints:
    """The run loops compare against the ceilings inline; the trip must
    land on the same instruction, with the same context, as the original
    once-per-instruction ``check_watchdog`` call did."""

    @pytest.mark.parametrize("tech_name,fence,cycle,pc,instructions", [
        ("inorder", {"watchdog_max_cycles": 3000.0}, 3087.0, 21, 306),
        ("inorder", {"watchdog_max_instructions": 2000}, 12081.0, 15, 2001),
        ("svr16", {"watchdog_max_cycles": 3000.0}, 3001.0, 17, 864),
        ("ooo", {"watchdog_max_cycles": 3000.0}, 3090.0, 21, 968),
        ("ooo", {"watchdog_max_instructions": 2000}, 5153.0, 15, 2001),
        ("vr", {"watchdog_max_cycles": 3000.0}, 3076.0, 21, 2774),
    ])
    def test_trip_context_is_pinned(self, tech_name, fence, cycle, pc,
                                    instructions):
        tech = technique(tech_name)
        tech = replace(tech, core_config=replace(tech.core_config, **fence))
        with pytest.raises(SimulationError) as excinfo:
            run("PR_KR", tech, scale="tiny")
        exc = excinfo.value
        assert (exc.cycle, exc.pc, exc.instructions) == \
            (cycle, pc, instructions)
