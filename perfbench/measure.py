"""Timed runs of one benchmark workload, their checks, and their metrics.

Host time is what the simulator takes to run; simulated quantities come
from the model's exported results.  End-to-end metrics come from runs
with no tracing; per-layer metrics come from a traced run that repeats
each cell with spans installed (see :mod:`layertrace`).
"""

from __future__ import annotations

import copy
import cProfile
import functools
import gc
import json
import os
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
import hostspeed
import layertrace
import suite as suites
from repro.exec import executor
from repro.exec.executor import ExecConfig
from repro.harness import runner
from repro.workloads.registry import build_workload

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
SRC_DIR = HERE.parent / "src"

# Wall-clock fence per cell: ~50x a healthy cell, so only a hang trips it.
CELL_TIMEOUT_S = 60.0
# Set-up samples per run: this process plus fresh interpreters.
SETUP_SAMPLES = 3
# A tail percentile needs at least this many cells beyond it.
TAIL_BEYOND = 10
PREFETCH_ORIGINS = ("stride", "imp", "svr")

LAYER_UNITS = {
    "workloads.build_s": "s",
    "isa.execute.calls_pi": "calls/instr",
    "isa.execute.self_us_pi": "us/instr",
    "cores.inorder.self_us_pi": "us/instr",
    "cores.ooo.self_us_pi": "us/instr",
    "cores.pycalls_pi": "calls/instr",
    "branch.self_us_pi": "us/instr",
    "branch.mispredict_pki": "1/kinstr",
    "svr.self_us_pi": "us/instr",
    "svr.after_issue.calls_pi": "calls/instr",
    "svr.prm_rounds_pki": "1/kinstr",
    "svr.svi_lanes_pi": "lanes/instr",
    "svr.masked_lane_frac": "frac",
    "svr.accuracy": "frac",
    "memory.self_us_pi": "us/instr",
    "memory.calls_pi": "calls/instr",
    "memory.l1_hit_rate": "frac",
    "memory.dram_loads_pki": "1/kinstr",
    **{f"memory.prefetch_accuracy.{o}": "frac" for o in PREFETCH_ORIGINS},
    **{f"memory.prefetch_issued_pki.{o}": "1/kinstr"
       for o in PREFETCH_ORIGINS},
    "harness.self_ms_per_cell": "ms/cell",
    "exec.parallel_eff": "frac",
    "exec.spawns_per_cell": "1/cell",
    "exec.cell_overhead_s": "s/cell",
    "obs.trace_overhead_frac": "frac",
    "obs.untraced_frac": "frac",
}


@dataclass
class Cell:
    """One timed cell."""

    label: str
    seconds: float            # host wall time of the simulation
    instructions: int         # simulated: warm-up plus measured
    result: dict | None       # SimResult.to_dict(), None when it failed
    problems: list[str] = field(default_factory=list)
    wall: float = 0.0         # host wall time including the benchmark's
    #                           own per-cell work (input copy, checks)
    probe_s: float = 0.0      # host-speed probe of the cell (0: none)

    @property
    def norm_s(self) -> float:
        """``seconds`` at the reference host speed."""
        return hostspeed.normalised(self.seconds, self.probe_s)


@dataclass
class Tally:
    """Everything the timed region of one run measured."""

    cells: list[Cell] = field(default_factory=list)
    timed_s: float = 0.0      # host wall time of the timed region
    cpu_s: float = 0.0        # host CPU time of the timed region
    passes: int = 0
    # The same two times at the reference host speed (see hostspeed).
    norm_timed_s: float = 0.0
    norm_cpu_s: float = 0.0

    def add(self, other: "Tally") -> None:
        self.cells += other.cells
        self.timed_s += other.timed_s
        self.cpu_s += other.cpu_s
        self.passes += other.passes
        self.norm_timed_s += other.norm_timed_s
        self.norm_cpu_s += other.norm_cpu_s


# -- set-up -------------------------------------------------------------------

def setup(suite: suites.Suite, seed: int) -> dict:
    """Build the run's seeded inputs and warm the process up."""
    inputs = suites.build_inputs(suite, seed)
    suites.warm_up(suite)
    return inputs


_SETUP_SNIPPET = """\
import sys, time
sys.path[:0] = {paths!r}
import hostspeed
sampler = hostspeed.Sampler()
with sampler.active():
    t0 = time.perf_counter()
    import measure, suite
    measure.setup(suite.SUITES[{name!r}], {seed!r})
    elapsed = time.perf_counter() - t0 - sampler.spent_s
print(elapsed, sampler.probe_s)
"""


def setup_in_fresh_interpreter(suite: suites.Suite,
                               seed: int) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import the simulator and run
    :func:`setup` (interpreter start-up and host-speed sampling
    excluded), and the mean host-speed probe sampled meanwhile."""
    code = _SETUP_SNIPPET.format(paths=[str(HERE), str(SRC_DIR)],
                                 name=suite.name, seed=seed)
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          timeout=CELL_TIMEOUT_S)
    elapsed, probe_s = done.stdout.split()[-2:]
    return float(elapsed), float(probe_s)


# -- serial workloads ---------------------------------------------------------

class CellTimeout(Exception):
    pass


@contextmanager
def _fence(seconds: float):
    def expire(signum, frame):
        raise CellTimeout(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cell(suite: suites.Suite, name: str, tech: str, template,
             reference: np.ndarray,
             tracer: layertrace.Tracer | None = None) -> tuple[Cell, float]:
    """Simulate one cell on a copy of *template* and check it.

    Returns the cell and the host CPU seconds its simulation used.  An
    untraced cell samples the host speed (a traced one does not, so that
    the samples stay out of the layers' spans); its times exclude the
    sampling.
    """
    start = perf_counter()
    workload = copy.deepcopy(template)
    warmup, measure = suite.window
    result, problems = None, []
    sampler = hostspeed.Sampler() if tracer is None else None
    with tracer.installed() if tracer is not None else sampler.active():
        cpu0 = process_time()
        t0 = perf_counter()
        try:
            with _fence(CELL_TIMEOUT_S):
                result = runner.run(workload, tech,
                                    scale=suite.scale).to_dict()
        except Exception as exc:   # a crash or hang fails the cell only
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - t0
        cpu = process_time() - cpu0
        if sampler is not None:
            seconds -= sampler.spent_s
            cpu -= sampler.spent_s
    if result is not None:
        problems += checks.invariant_problems(result, measure)
        problems += checks.memory_problems(workload.memory.words, reference)
    cell = Cell(f"{name}/{tech}", seconds, warmup + measure, result,
                problems, probe_s=sampler.probe_s if sampler else 0.0)
    # The core and its SVR unit reference each other; collect the cycle
    # now so each cell's memory image is freed before the next one.
    del workload
    gc.collect()
    cell.wall = perf_counter() - start
    return cell, cpu


def references(suite: suites.Suite, seed: int) -> dict[str, np.ndarray]:
    """Functional-core memory images of identically seeded fresh builds."""
    warmup, measure = suite.window
    return {name: checks.reference_image(w, warmup + measure)
            for name, w in suites.build_inputs(suite, seed).items()}


def serial_pass(suite, order, inputs, refs) -> Tally:
    tally = Tally(passes=1)
    for name, tech in order:
        cell, cpu = run_cell(suite, name, tech, inputs[name], refs[name])
        tally.cells.append(cell)
        tally.timed_s += cell.seconds
        tally.cpu_s += cpu
        tally.norm_timed_s += cell.norm_s
        tally.norm_cpu_s += hostspeed.normalised(cpu, cell.probe_s)
    return tally


# -- run_cells sweeps ---------------------------------------------------------

def _cpu_now() -> float:
    """Host CPU seconds of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@contextmanager
def _probing_workers(directory: Path):
    """Make each isolated worker sample the host speed during its cell
    and leave the mean probe and the sampling time in *directory*.  The
    wrapper is installed in this process; the forked workers inherit it."""
    from repro.exec import spec as spec_module

    original = spec_module.execute_spec

    @functools.wraps(original)
    def probed(spec, *args, **kwargs):
        sampler = hostspeed.Sampler()
        with sampler.active():
            result = original(spec, *args, **kwargs)
        path = directory / f"{spec.key}-{os.getpid()}.json"
        path.write_text(json.dumps([sampler.probe_s, sampler.spent_s]))
        return result

    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    spec_module.execute_spec = probed
    try:
        yield
    finally:
        spec_module.execute_spec = original


def sweep_once(suite: suites.Suite, specs,
               probed: bool = False) -> tuple[Tally, object]:
    """One ``run_cells`` call over the slice; returns it and its report.

    *probed*: each worker samples the host speed during its cell.  A
    cell's time is then its ``elapsed_s`` less the sampling, and the
    sweep's normalised times use the mean probe of its cells.
    """
    warmup, measure = suite.window
    config = ExecConfig(jobs=suite.jobs, timeout_s=CELL_TIMEOUT_S)
    probe_dir = OUT_DIR / "probes"
    cpu0 = _cpu_now()
    with _probing_workers(probe_dir) if probed else nullcontext():
        t0 = perf_counter()
        report = executor.run_cells(specs, config)
        wall = perf_counter() - t0
    tally = Tally(timed_s=wall, cpu_s=_cpu_now() - cpu0, passes=1)
    probes, spent = {}, {}
    if probed:
        for path in probe_dir.glob("*.json"):
            key = path.name.rsplit("-", 1)[0]
            probes[key], spent[key] = json.loads(path.read_text())
        shutil.rmtree(probe_dir)
    for outcome in report.outcomes:
        label = outcome.spec.label()
        probe_s = probes.get(outcome.key, 0.0)
        if outcome.ok:
            cell = Cell(label, outcome.elapsed_s - spent.get(outcome.key, 0),
                        warmup + measure, outcome.result,
                        checks.invariant_problems(outcome.result, measure),
                        probe_s=probe_s)
        else:
            cell = Cell(label, outcome.elapsed_s, 0, None,
                        [str(outcome.failure)])
        if probed and not probe_s:
            cell.problems.append("the worker left no host-speed probe")
        tally.cells.append(cell)
    if probes:
        mean_probe = statistics.fmean(probes.values())
        tally.norm_timed_s = hostspeed.normalised(wall, mean_probe)
        tally.norm_cpu_s = hostspeed.normalised(tally.cpu_s, mean_probe)
    return tally, report


# -- timed region -------------------------------------------------------------

def timed(suite: suites.Suite, seed: int, seconds: float, inputs: dict,
          refs: dict) -> Tally:
    """Whole passes over the workload's cells until *seconds* of timed
    host time have been measured."""
    tally = Tally()
    if suite.jobs > 1:
        specs = suites.sweep_specs(suite, seed)
        while tally.timed_s < seconds:
            tally.add(sweep_once(suite, specs, probed=True)[0])
        return tally
    order = suites.cell_order(suite, seed)
    while tally.timed_s < seconds:
        tally.add(serial_pass(suite, order, inputs, refs))
    return tally


def digests(cells: list[Cell]) -> tuple[dict[str, str], list[str]]:
    """Per-cell result digests, and the labels whose repeats disagree."""
    seen: dict[str, str] = {}
    unstable = []
    for cell in cells:
        if cell.result is None:
            continue
        digest = checks.result_digest(cell.result)
        if seen.setdefault(cell.label, digest) != digest:
            unstable.append(cell.label)
    return seen, unstable


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it: (value, percentile).  Falls back to the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any reaped child (MiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(tally: Tally, setup_s: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; host times at the reference host speed."""
    secs = [c.norm_s for c in tally.cells if c.probe_s]
    failed = sum(1 for c in tally.cells if c.problems)
    instructions = sum(c.instructions for c in tally.cells if not c.problems)
    return {
        "sim_kips": (instructions / tally.norm_timed_s / 1000.0, "kinstr/s"),
        "cpu_s": (tally.norm_cpu_s / tally.passes, "s"),
        "cell_s_p50": (statistics.median(secs), "s"),
        "cell_s_tail": (tail(secs)[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "ok_frac": (1.0 - failed / len(tally.cells), "frac"),
    }


# -- traced run ---------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_layer_metrics(results: list[dict]) -> dict[str, float]:
    """Per-layer quantities of the model, from the exported results
    (measured windows only)."""
    def total(key, rs=results):
        return sum(r[key] for r in rs)

    measured = total("instructions")
    svr = [r for r in results if r.get("svr")]
    svr_measured = total("instructions", svr)
    svr_total = {k: sum(r["svr"][k] for r in svr)
                 for k in ("prm_rounds", "svi_lanes", "masked_lanes")}
    out = {
        "branch.mispredict_pki": 1000 * _ratio(total("mispredicts"), measured),
        "svr.prm_rounds_pki": 1000 * _ratio(svr_total["prm_rounds"],
                                            svr_measured),
        "svr.svi_lanes_pi": _ratio(svr_total["svi_lanes"], svr_measured),
        "svr.masked_lane_frac": _ratio(svr_total["masked_lanes"],
                                       svr_total["svi_lanes"]),
        "memory.l1_hit_rate": _ratio(total("l1_load_hits"), total("loads")),
        "memory.dram_loads_pki": 1000 * _ratio(total("dram_loads"), measured),
    }
    for origin in PREFETCH_ORIGINS:
        issued = sum(r["prefetches_issued"][origin] for r in results)
        useful = sum(r["prefetch_useful"][origin] for r in results)
        out[f"memory.prefetch_accuracy.{origin}"] = _ratio(useful, issued)
        out[f"memory.prefetch_issued_pki.{origin}"] = \
            1000 * _ratio(issued, measured)
    out["svr.accuracy"] = out["memory.prefetch_accuracy.svr"]
    return out


def host_layer_metrics(summary: dict, instructions: int,
                       cells: int) -> dict[str, float]:
    """Per-layer host time and call counts from a span summary."""
    us = 1e6 / instructions
    per = 1.0 / instructions
    self_s, calls = layertrace.self_s, layertrace.calls
    return {
        "isa.execute.calls_pi": calls(summary, "isa.execute") * per,
        "isa.execute.self_us_pi": self_s(summary, "isa.execute") * us,
        "cores.inorder.self_us_pi": self_s(summary, "cores.inorder") * us,
        "cores.ooo.self_us_pi": self_s(summary, "cores.ooo") * us,
        "branch.self_us_pi": self_s(summary, "branch") * us,
        "svr.self_us_pi": self_s(summary, "svr") * us,
        "svr.after_issue.calls_pi": calls(summary, "svr.after_issue") * per,
        "memory.self_us_pi": self_s(summary, "memory") * us,
        "memory.calls_pi": calls(summary, "memory") * per,
        "harness.self_ms_per_cell": self_s(summary, "harness") * 1e3 / cells,
    }


def profiled_calls(fn) -> int:
    """Python function calls (cProfile's count) made by ``fn()``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        fn()
    finally:
        profile.disable()
    return pstats.Stats(profile).total_calls


def _first_per_technique(order):
    seen = {}
    for name, tech in order:
        seen.setdefault(tech, name)
    return [(name, tech) for tech, name in seen.items()]


@dataclass
class Trace:
    """What the traced run measured, beside its untraced twin."""

    untraced: Tally
    traced: Tally
    summary: dict             # merged span summary of the traced cells
    build_s: float            # host seconds building one pass's inputs
    pycalls: int              # cProfile calls over the profiled cells
    profiled_instructions: int
    walls_s: float            # traced host wall the spans must account for
    exec_metrics: dict[str, float]


def trace_serial(suite, seed, seconds, refs) -> Trace:
    tracer = layertrace.Tracer()
    with tracer.installed():
        t0 = perf_counter()
        inputs = suites.build_inputs(suite, seed)
        build_s = perf_counter() - t0
    tracer.clear()
    order = suites.cell_order(suite, seed)
    untraced, traced, summary = Tally(), Tally(), None
    while untraced.timed_s + traced.timed_s < seconds:
        untraced.passes += 1
        traced.passes += 1
        for name, tech in order:
            for tally, t in ((untraced, None), (traced, tracer)):
                cell, cpu = run_cell(suite, name, tech, inputs[name],
                                     refs[name], t)
                tally.cells.append(cell)
                tally.timed_s += cell.seconds
                tally.cpu_s += cpu
            summary = layertrace.merge(summary, layertrace.summarize(tracer))
            if len(traced.cells) == 1:
                _write_spans(suite, tracer)
            tracer.clear()
    pycalls = profiled_instructions = 0
    for name, tech in _first_per_technique(order):
        pycalls += profiled_calls(functools.partial(
            runner.run, copy.deepcopy(inputs[name]), tech, scale=suite.scale))
        profiled_instructions += sum(suite.window)
    simulated = sum(c.seconds for c in untraced.cells)
    walls = sum(c.wall for c in untraced.cells)
    exec_metrics = {
        "exec.parallel_eff": simulated / walls,
        "exec.spawns_per_cell": 0.0,
        "exec.cell_overhead_s": (walls - simulated) / len(untraced.cells),
    }
    return Trace(untraced, traced, summary, build_s, pycalls,
                 profiled_instructions, traced.timed_s, exec_metrics)


def trace_sweep(suite, seed) -> Trace:
    specs = suites.sweep_specs(suite, seed)
    untraced, _ = sweep_once(suite, specs)
    tracer = layertrace.Tracer()
    tracer.worker_dir = OUT_DIR / "workers"
    shutil.rmtree(tracer.worker_dir, ignore_errors=True)
    tracer.worker_dir.mkdir(parents=True)
    with tracer.installed():
        traced, report = sweep_once(suite, specs)
    summary = layertrace.summarize(tracer)
    _write_spans(suite, tracer)
    parent_spawns = layertrace.calls(summary, "exec.spawn")
    workers = [json.loads(p.read_text())
               for p in sorted(tracer.worker_dir.glob("*.json"))]
    run_s = {w["cell"]: w["run_s"] for w in workers}
    for worker in workers:
        summary = layertrace.merge(summary, worker)
    build_s = sum(w["build_s"] for w in workers)
    overheads = [o.elapsed_s - run_s[o.key] for o in report.outcomes
                 if o.key in run_s]
    name, tech = suites.cell_order(suite, seed)[0]
    pycalls = profiled_calls(functools.partial(
        runner.run, build_workload(name, suite.scale), tech,
        scale=suite.scale))
    exec_metrics = {
        "exec.parallel_eff": sum(c.seconds for c in untraced.cells)
        / (suite.jobs * untraced.timed_s),
        "exec.spawns_per_cell": parent_spawns / len(traced.cells),
        "exec.cell_overhead_s": statistics.fmean(overheads or [0.0]),
    }
    walls = traced.timed_s + sum(c.seconds for c in traced.cells)
    return Trace(untraced, traced, summary, build_s, pycalls,
                 sum(suite.window), walls, exec_metrics)


def _write_spans(suite, tracer: layertrace.Tracer) -> None:
    """Keep one cell's raw spans (or the sweep parent's) for inspection."""
    OUT_DIR.mkdir(exist_ok=True)
    ids, starts, ends, parents = tracer.arrays()
    np.savez_compressed(OUT_DIR / f"spans-{suite.name}.npz",
                        names=np.array(tracer.names), name_ids=ids,
                        starts=starts, ends=ends, parents=parents)


def layer_metrics(trace: Trace) -> dict[str, float]:
    traced_instr = sum(c.instructions for c in trace.traced.cells)
    results = list(unique_results(trace.untraced.cells).values())
    out = {"workloads.build_s": trace.build_s,
           "cores.pycalls_pi": trace.pycalls / trace.profiled_instructions}
    out.update(host_layer_metrics(trace.summary, traced_instr,
                                  len(trace.traced.cells)))
    out.update(simulated_layer_metrics(results))
    out.update(trace.exec_metrics)
    out["obs.trace_overhead_frac"] = (
        sum(c.seconds for c in trace.traced.cells)
        / sum(c.seconds for c in trace.untraced.cells) - 1.0)
    out["obs.untraced_frac"] = (
        (trace.walls_s - trace.summary["root_s"]) / trace.walls_s)
    return out


def unique_results(cells: list[Cell]) -> dict[str, dict]:
    """One exported result per unique cell label."""
    return {c.label: c.result for c in cells if c.result is not None}
