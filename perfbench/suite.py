"""The benchmark's workloads: which cells each one runs, and their inputs.

A *cell* is one ``(workload, technique)`` simulation, the unit the
simulator's users run.  Each benchmark workload is a fixed list of cells
at one scale; the benchmark seed builds the cells' inputs (or, for
``fig_sweep``, picks the sample of registry workloads) and shuffles the
order in which the cells run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.exec.spec import RunSpec
from repro.harness import runner
from repro.harness.runner import MAIN_TECHNIQUES
from repro.workloads import gap, graphs, hpc, spec
from repro.workloads.base import Workload
from repro.workloads.registry import HPC_WORKLOADS, build_workload
from repro.workloads.graphs import GRAPH_INPUTS


@dataclass(frozen=True)
class Suite:
    """One benchmark workload."""

    name: str
    scale: str                      # registry scale: sets the run windows
    kernels: tuple[str, ...]        # simulator workloads, before sampling
    techniques: tuple[str, ...]
    jobs: int = 1                   # > 1: cells run through run_cells

    @property
    def window(self) -> tuple[int, int]:
        """(warm-up, measured) instructions each cell commits."""
        return runner._WINDOWS[self.scale]


# Irregular GAP and HPC kernels (Figs 11-13): PR and BFS on a Kronecker
# and a uniform graph, a divergent hash join, a two-level gather, a hashed
# histogram and random table updates.  Their footprints exceed the L2, so
# the SVR unit, TLB walks, DRAM contention and all three prefetch origins
# do most of the work.
SVR_IRREGULAR = Suite(
    "svr_irregular", "default",
    ("PR_KR", "PR_UR", "BFS_KR", "BFS_UR", "HJ8", "Camel", "Kangr",
     "Randacc"),
    ("svr16", "svr64", "imp"))

# Two SPEC surrogates per archetype (stream, copy, stencil, compute,
# cached, short) on both cores: loads hit L1 or ride the stride
# prefetcher, there is no SVR, and the core loop, executor and branch
# predictor take the host time (Fig 14's "must not hurt" side).
REGULAR_CORE = Suite(
    "regular_core", "bench",
    ("bwaves", "imagick", "lbm", "x264", "cactuBSSN", "parest", "namd",
     "povray", "mcf", "perlbench", "wrf", "xz"),
    ("inorder", "ooo"))

# A Fig-11 slice through run_cells with two isolated workers: one graph
# input per GAP kernel (picked by the seed) plus every HPC kernel, on the
# eight main techniques.
FIG_SWEEP = Suite(
    "fig_sweep", "bench",
    tuple(f"{k}_{g}" for k in ("BC", "BFS", "CC", "PR", "SSSP")
          for g in GRAPH_INPUTS) + HPC_WORKLOADS,
    MAIN_TECHNIQUES, jobs=2)

SUITES = {s.name: s for s in (SVR_IRREGULAR, REGULAR_CORE, FIG_SWEEP)}

# Sizes of the `default` registry scale, fixed here so the benchmark's
# inputs do not change when the registry's scales do.
_KRON_SCALE, _GRAPH_NODES, _GRAPH_DEGREE = 14, 16384, 12
_HPC_SIZE = 1 << 16
# The SPEC surrogates' `bench`-scale repeat count.
_SPEC_REPEATS = 3


def sub_seed(seed: int, label: str) -> int:
    """A builder seed derived from the benchmark seed (stable across
    processes: string seeding hashes with SHA-512, not ``hash()``)."""
    return random.Random(f"{seed}/{label}").randrange(1 << 31)


def build_inputs(suite: Suite, seed: int) -> dict[str, Workload]:
    """Build every seeded workload of *suite*, keyed by name.

    ``fig_sweep`` returns nothing: its cells build their own inputs from
    registry names inside the workers, as figure reproduction does.
    """
    if suite is FIG_SWEEP:
        return {}
    if suite is REGULAR_CORE:
        return {name: spec.build_spec(name, repeats=_SPEC_REPEATS)
                for name in suite.kernels}
    kr = graphs.kronecker_graph(_KRON_SCALE, _GRAPH_DEGREE,
                                seed=sub_seed(seed, "KR"))
    ur = graphs.uniform_random_graph(_GRAPH_NODES, _GRAPH_DEGREE,
                                     seed=sub_seed(seed, "UR"))
    out: dict[str, Workload] = {}
    for kernel, builder in (("PR", gap.build_pr), ("BFS", gap.build_bfs)):
        for tag, graph in (("KR", kr), ("UR", ur)):
            workload = builder(graph)
            workload.name = f"{kernel}_{tag}"
            out[workload.name] = workload
    out["HJ8"] = hpc.build_hj8(buckets=_HPC_SIZE, probes=_HPC_SIZE,
                               seed=sub_seed(seed, "HJ8"))
    out["Camel"] = hpc.build_camel(elements=_HPC_SIZE,
                                   table_nodes=_GRAPH_NODES,
                                   seed=sub_seed(seed, "Camel"))
    out["Kangr"] = hpc.build_kangaroo(keys=_HPC_SIZE, bins=2 * _HPC_SIZE,
                                      seed=sub_seed(seed, "Kangr"))
    out["Randacc"] = hpc.build_randacc(updates=_HPC_SIZE,
                                       table_words=16 * _HPC_SIZE,
                                       seed=sub_seed(seed, "Randacc"))
    return out


def warm_up(suite: Suite) -> None:
    """Run each technique once on a tiny registry workload, so imports and
    caches a process fills on first use are paid in set-up."""
    for tech in suite.techniques:
        runner.run(build_workload(suite.kernels[0], "tiny"), tech,
                   scale="tiny")


def sample_kernels(suite: Suite, seed: int) -> tuple[str, ...]:
    """The simulator workloads one run covers: all of them, except that
    ``fig_sweep`` takes one seeded graph input per GAP kernel."""
    if suite is not FIG_SWEEP:
        return suite.kernels
    rng = random.Random(f"{seed}/sample")
    gap_kernels = [k for k in suite.kernels if "_" in k]
    families = sorted({k.partition("_")[0] for k in gap_kernels})
    chosen = [rng.choice([k for k in gap_kernels if k.startswith(f + "_")])
              for f in families]
    return tuple(chosen) + tuple(k for k in suite.kernels if "_" not in k)


def cell_order(suite: Suite, seed: int) -> list[tuple[str, str]]:
    """Every ``(workload, technique)`` cell of a run, in seeded order."""
    cells = [(k, t) for k in sample_kernels(suite, seed)
             for t in suite.techniques]
    random.Random(f"{seed}/order").shuffle(cells)
    return cells


def sweep_specs(suite: Suite, seed: int) -> list[RunSpec]:
    """The ``fig_sweep`` spec list: each technique's cell followed by the
    in-order baseline it is normalised against, as a normalised figure
    asks for them; ``run_cells`` runs each shared baseline once."""
    specs = []
    for workload, tech in cell_order(suite, seed):
        specs.append(RunSpec.make(workload, tech, scale=suite.scale))
        specs.append(RunSpec.make(workload, "inorder", scale=suite.scale))
    return specs
