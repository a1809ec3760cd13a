"""Tests for the SPEC surrogate suite (Fig 14 inputs)."""

import pytest

from repro.cores.functional import FunctionalCore
from repro.workloads.spec import SPEC_NAMES, _SPEC_RECIPES, build_spec


class TestSuiteShape:
    def test_23_components(self):
        """One surrogate per SPECrate 2017 bar in Fig 14."""
        assert len(SPEC_NAMES) == 23

    def test_every_name_has_a_recipe(self):
        for name in SPEC_NAMES:
            assert name in _SPEC_RECIPES

    def test_archetype_diversity(self):
        archetypes = {_SPEC_RECIPES[n][0] for n in SPEC_NAMES}
        assert archetypes == {"stream", "copy", "stencil", "compute",
                              "cached", "short"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_spec("doom3")


class TestExecution:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_runs_to_halt(self, name):
        workload = build_spec(name, repeats=1)
        core = FunctionalCore(workload.program, workload.memory)
        core.run(3_000_000)
        assert core.halted, f"{name} did not halt"
        assert core.instructions > 100

    def test_copy_kernel_writes_dst(self):
        workload = build_spec("lbm", repeats=1)
        core = FunctionalCore(workload.program, workload.memory)
        core.run(3_000_000)
        src, _ = workload.memory.allocation("A")
        dst, _ = workload.memory.allocation("B")
        for i in range(0, 64, 7):
            assert (workload.memory.read_word(dst + 8 * i)
                    == (workload.memory.read_word(src + 8 * i) + 1)
                    & ((1 << 64) - 1))

    def test_stencil_kernel_sums_neighbours(self):
        workload = build_spec("roms", repeats=1)
        core = FunctionalCore(workload.program, workload.memory)
        core.run(5_000_000)
        src, _ = workload.memory.allocation("A")
        dst, _ = workload.memory.allocation("B")
        mem = workload.memory
        for i in range(1, 50, 7):
            expected = (mem.read_word(src + 8 * (i - 1))
                        + mem.read_word(src + 8 * i)
                        + mem.read_word(src + 8 * (i + 1))) & ((1 << 64) - 1)
            assert mem.read_word(dst + 8 * i) == expected

    def test_repeats_scale_work(self):
        one = build_spec("namd", repeats=1)
        core1 = FunctionalCore(one.program, one.memory)
        core1.run(10_000_000)
        four = build_spec("namd", repeats=4)
        core4 = FunctionalCore(four.program, four.memory)
        core4.run(40_000_000)
        assert core4.instructions > 3 * core1.instructions


class TestSeeding:
    def test_inputs_do_not_depend_on_the_hash_seed(self):
        """A surrogate's data is seeded from its name with a stable hash,
        so processes with different ``PYTHONHASHSEED`` build the same
        memory image."""
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import hashlib; from repro.workloads.spec import build_spec; "
                "w = build_spec('mcf'); "
                "print(hashlib.sha256(w.memory.words.tobytes()).hexdigest())")
        digests = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  check=True, capture_output=True, text=True)
            digests.add(done.stdout.strip())
        here = hashlib.sha256(build_spec("mcf").memory.words.tobytes())
        assert digests == {here.hexdigest()}
