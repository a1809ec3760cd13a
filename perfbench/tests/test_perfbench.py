"""Self-tests of the benchmark: seeding, digests, checks, tracing, names.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import suite as suites  # noqa: E402
from repro.harness import runner  # noqa: E402
from repro.workloads.registry import build_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = suites.Suite("tiny_check", "tiny", ("PR_KR", "Camel"),
                    ("svr16", "ooo"))


def _tiny_inputs():
    inputs = {name: build_workload(name, "tiny") for name in TINY.kernels}
    refs = {name: checks.reference_image(build_workload(name, "tiny"),
                                         sum(TINY.window))
            for name in TINY.kernels}
    return inputs, refs


def _image(workload) -> bytes:
    return workload.memory.words.tobytes()


# -- seeds, inputs and digests ------------------------------------------------

def test_seed_sets_irregular_inputs():
    first = suites.build_inputs(suites.SVR_IRREGULAR, 1)
    again = suites.build_inputs(suites.SVR_IRREGULAR, 1)
    other = suites.build_inputs(suites.SVR_IRREGULAR, 2)
    assert set(first) == set(suites.SVR_IRREGULAR.kernels)
    for name in first:
        assert _image(first[name]) == _image(again[name]), name
        assert _image(first[name]) != _image(other[name]), name


_SPEC_IMAGE = (
    "import hashlib, sys; sys.path[:0] = {paths!r}; import suite; "
    "w = suite.build_inputs(suite.REGULAR_CORE, 0)['perlbench']; "
    "print(hashlib.sha256(w.memory.words.tobytes()).hexdigest())")


def _spec_image_digest(seed: int) -> str:
    code = _SPEC_IMAGE.format(paths=[str(BENCH_DIR), str(ROOT / "src")])
    env = {**os.environ, "PYTHONHASHSEED": run.hash_seed(seed)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_seed_sets_spec_inputs_through_hash_seed():
    assert _spec_image_digest(5) == _spec_image_digest(5)
    assert _spec_image_digest(5) != _spec_image_digest(6)


def test_seed_sets_sweep_sample_and_order():
    orders = {tuple(suites.cell_order(suites.FIG_SWEEP, s)) for s in range(4)}
    assert len(orders) == 4
    assert suites.cell_order(suites.FIG_SWEEP, 3) == \
        suites.cell_order(suites.FIG_SWEEP, 3)
    specs = suites.sweep_specs(suites.FIG_SWEEP, 3)
    assert len({s.key for s in specs}) == 13 * 8


def _digest_line(seed: int) -> str:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
         "regular_core", "--seed", str(seed), "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return next(line for line in lines if line.startswith("digest:"))


def test_same_seed_same_digest_across_processes():
    assert _digest_line(7) == _digest_line(7)


def test_repeats_with_different_results_are_flagged():
    inputs, refs = _tiny_inputs()
    cell, _ = measure.run_cell(TINY, "PR_KR", "svr16", inputs["PR_KR"],
                               refs["PR_KR"])
    twin = measure.Cell(cell.label, 1.0, cell.instructions,
                        {**cell.result, "cycles": cell.result["cycles"] + 1})
    assert measure.digests([cell, cell])[1] == []
    assert measure.digests([cell, twin])[1] == [cell.label]


# -- correctness checks -------------------------------------------------------

def test_clean_cells_pass_their_checks():
    inputs, refs = _tiny_inputs()
    order = suites.cell_order(TINY, 0)
    tally = measure.serial_pass(TINY, order, inputs, refs)
    assert [c.problems for c in tally.cells] == [[]] * len(order)
    assert all(c.probe_s > 0 for c in tally.cells)
    assert tally.norm_timed_s == pytest.approx(
        sum(c.norm_s for c in tally.cells))


# -- host-speed normalisation -------------------------------------------------

def test_normalised_time_scales_with_the_probe():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.normalised(2.0, ref) == 2.0
    assert hostspeed.normalised(2.0, 2 * ref) == 1.0
    assert hostspeed.probe() > 0


def test_sampler_probes_during_the_block_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGPROF)
    sampler = hostspeed.Sampler()
    with sampler.active():
        hostspeed._run(40 * hostspeed._STEPS)   # ~40 probes of CPU time
        inside = sampler.spent_s
    assert len(sampler.probes) >= 3           # samples and the closing probe
    assert 0 < inside < sampler.spent_s
    assert sampler.probe_s > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_sweep_workers_leave_a_probe_per_cell():
    sweep = suites.Suite("tiny_sweep", "tiny", ("PR_KR",),
                         ("svr16", "imp"), jobs=2)
    specs = suites.sweep_specs(sweep, 0)
    tally, report = measure.sweep_once(sweep, specs, probed=True)
    assert [c.problems for c in tally.cells] == [[]] * len(tally.cells)
    elapsed = {o.spec.label(): o.elapsed_s for o in report.outcomes}
    for cell in tally.cells:
        assert 0 < cell.seconds < elapsed[cell.label]
        assert cell.probe_s > 0
    assert tally.norm_timed_s > 0 and tally.norm_cpu_s > 0
    assert not (measure.OUT_DIR / "probes").exists()


def test_corrupted_memory_image_fails_the_cell(monkeypatch):
    inputs, refs = _tiny_inputs()
    real_run = runner.run

    def corrupting_run(workload, tech, **kwargs):
        result = real_run(workload, tech, **kwargs)
        workload.memory.words[-1] ^= np.uint64(1)
        return result

    monkeypatch.setattr(runner, "run", corrupting_run)
    order = suites.cell_order(TINY, 0)
    tally = measure.serial_pass(TINY, order, inputs, refs)
    assert all(any("memory image differs" in p for p in c.problems)
               for c in tally.cells)
    ok_frac = measure.end_to_end(tally, setup_s=1.0)["ok_frac"][0]
    assert ok_frac == 0.0          # failed_frac == 1


def test_invariants_reject_broken_results():
    inputs, refs = _tiny_inputs()
    cell, _ = measure.run_cell(TINY, "Camel", "svr16", inputs["Camel"],
                               refs["Camel"])
    good = cell.result
    measure_window = TINY.window[1]
    assert checks.invariant_problems(good, measure_window) == []
    broken = [
        {**good, "instructions": measure_window - 1},
        {**good, "svr": {**good["svr"], "accuracy": 1.5}},
        {**good, "cpi_stack": {
            **good["cpi_stack"],
            "base": good["cpi_stack"]["base"] + good["cpi"]}},
        {**good, "prefetch_useful": {
            **good["prefetch_useful"],
            "svr": good["prefetches_issued"]["svr"]
            + checks.MAX_CARRIED_FATES + 1}},
    ]
    for result in broken:
        assert checks.invariant_problems(result, measure_window)


def test_departures_within_model_bounds_are_reported_not_failed():
    inputs, refs = _tiny_inputs()
    cell, _ = measure.run_cell(TINY, "Camel", "svr16", inputs["Camel"],
                               refs["Camel"])
    over = {**cell.result, "prefetch_useless": {
        **cell.result["prefetch_useless"],
        "svr": cell.result["prefetches_issued"]["svr"]}}
    assert checks.invariant_problems(over, TINY.window[1]) == []
    assert any("beyond issued" in d for d in checks.departures(over))


# -- tracing ------------------------------------------------------------------

def test_trace_spans_nest_and_account_for_the_cell():
    inputs, refs = _tiny_inputs()
    tracer = layertrace.Tracer()
    traced = []
    for name, tech in (("PR_KR", "svr16"), ("Camel", "ooo")):
        cell, _ = measure.run_cell(TINY, name, tech, inputs[name],
                                   refs[name], tracer)
        assert cell.problems == []
        summary = layertrace.summarize(tracer)
        tracer.clear()
        assert summary["min_self_s"] >= -1e-9
        assert summary["outside_parent"] == 0
        total_self = sum(s for _, s in summary["by_name"].values())
        assert total_self == pytest.approx(summary["root_s"], rel=1e-9)
        assert 0.0 <= cell.seconds - summary["root_s"] < 0.05 * cell.seconds
        traced.append(summary)
    merged = layertrace.merge(layertrace.merge(None, traced[0]), traced[1])
    for layer in ("isa", "cores", "svr", "memory", "branch", "harness"):
        assert layertrace.self_s(merged, layer) > 0.0, layer
    assert layertrace.calls(merged, "isa.execute") == 2 * sum(TINY.window)


def test_tracing_leaves_results_and_entry_points_unchanged():
    inputs, refs = _tiny_inputs()
    before = runner.run
    plain, _ = measure.run_cell(TINY, "PR_KR", "svr16", inputs["PR_KR"],
                                refs["PR_KR"])
    traced, _ = measure.run_cell(TINY, "PR_KR", "svr16", inputs["PR_KR"],
                                 refs["PR_KR"], layertrace.Tracer())
    assert runner.run is before
    assert checks.result_digest(plain.result) == \
        checks.result_digest(traced.result)


# -- names and the contract ---------------------------------------------------

def test_names_match_the_contract_pattern():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    for name in workloads + e2e + layers:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert workloads == list(run.WORKLOADS) == list(suites.SUITES)
    cell = measure.Cell("a/b", 1.0, 10, None,
                        probe_s=hostspeed.REFERENCE_S)
    tally = measure.Tally([cell], 1.0, 1.0, 1, norm_timed_s=1.0,
                          norm_cpu_s=1.0)
    printed = measure.end_to_end(tally, setup_s=1.0)
    assert e2e == list(printed)
    assert {m["unit"] for m in spec["end_to_end"]} >= {"s"}
    for m in spec["end_to_end"]:
        assert printed[m["name"]][1] == m["unit"], m["name"]
    assert layers == list(measure.LAYER_UNITS)
    for m in spec["per_layer"]:
        assert measure.LAYER_UNITS[m["name"]] == m["unit"], m["name"]


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regular_core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 25))
    value, pct = measure.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 14 / 24)
    assert measure.tail([3.0, 1.0]) == (3.0, 100.0)


def test_reference_image_matches_functional_semantics():
    workload = build_workload("Randacc", "tiny")
    words = checks.reference_image(workload, 500)
    assert isinstance(words, np.ndarray)
    assert checks.memory_problems(words, words.copy()) == []
