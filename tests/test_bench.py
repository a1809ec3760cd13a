"""Tests for the self-benchmarking subsystem: registry, runner
statistics, trajectory artifacts, the regression comparator and the
``repro bench`` CLI (including the MAD-scaled gate)."""

import json
import time

import pytest

from repro.bench import (
    BenchConfig,
    Benchmark,
    BenchContext,
    Work,
    all_benchmarks,
    benchmark_names,
    compare,
    environment_mismatch,
    find_artifacts,
    gate,
    get_benchmark,
    latest_artifact,
    load_artifact,
    mad,
    median,
    run_benchmarks,
    run_one,
    select_benchmarks,
    write_artifact,
)
from repro.bench.compare import (
    ERROR,
    IMPROVEMENT,
    MISSING,
    NEW,
    OK,
    REGRESSION,
)


class TestStats:
    def test_median_odd_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert median([7.0]) == 7.0

    def test_mad(self):
        assert mad([1.0, 2.0, 3.0, 100.0]) == 1.0
        assert mad([5.0, 5.0, 5.0]) == 0.0


class TestRegistry:
    def test_catalogue_covers_hot_paths(self):
        names = benchmark_names()
        assert len(names) >= 8
        assert names == sorted(names)
        groups = {b.group for b in all_benchmarks()}
        assert {"core", "svr", "mem", "isa", "e2e"} <= groups

    def test_select_patterns(self):
        mem = select_benchmarks(("mem.*",))
        assert mem and all(b.name.startswith("mem.") for b in mem)
        assert select_benchmarks(()) == all_benchmarks()
        with pytest.raises(ValueError, match="no benchmark matches"):
            select_benchmarks(("nope.*",))

    def test_get_benchmark_unknown(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("nope")

    def test_duplicate_name_rejected(self):
        from repro.bench.registry import register

        benchmark_names()          # ensure the catalogue is loaded first
        with pytest.raises(ValueError, match="duplicate"):
            register("isa.assemble", group="isa", unit="x",
                     description="dup")(lambda ctx: None)


def _quick_config(**overrides):
    defaults = dict(quick=True, repetitions=2, only=("isa.assemble",))
    defaults.update(overrides)
    return BenchConfig(**defaults)


class TestRunner:
    def test_run_one_summary_shape(self):
        outcome = run_one(get_benchmark("isa.assemble"), _quick_config())
        summary = outcome.summary()
        assert summary["repetitions"] == 2
        assert summary["unit"] == "instructions"
        for stats_key in ("wall_s", "throughput"):
            stats = summary[stats_key]
            assert {"median", "mad", "min", "max"} <= set(stats)
        assert summary["throughput"]["median"] > 0
        assert "error" not in summary

    def test_failing_benchmark_is_recorded_not_raised(self):
        def setup(_ctx):
            raise RuntimeError("boom")

        bad = Benchmark(name="x.bad", group="isa", unit="u",
                        description="always fails", setup=setup)
        summary = run_one(bad, _quick_config()).summary()
        assert summary["error"] == "RuntimeError: boom"
        assert "throughput" not in summary

    def test_profile_embeds_hotspots(self):
        outcome = run_one(get_benchmark("isa.assemble"),
                          _quick_config(profile=True, profile_top=5))
        spots = outcome.summary()["hotspots"]
        assert 0 < len(spots) <= 5
        assert all({"site", "ncalls", "cumtime_s"} <= set(s)
                   for s in spots)
        assert any("assembler" in s["site"] for s in spots)

    def test_repetitions_floor(self):
        with pytest.raises(ValueError, match=">= 2"):
            BenchConfig(repetitions=1).effective_repetitions

    def test_run_benchmarks_summary(self):
        summary = run_benchmarks(_quick_config(only=("isa.*", "mem.dram.*")))
        assert summary["schema"] == 1
        assert summary["kind"] == "bench"
        assert summary["timestamp"].endswith("Z")
        assert set(summary["benchmarks"]) == {"isa.assemble",
                                              "mem.dram.schedule"}
        env = summary["environment"]
        assert {"python", "platform", "cpu_count", "git_sha"} <= set(env)
        # SelfProfile sections: one wall-clock entry per benchmark.
        assert set(summary["profile"]) == set(summary["benchmarks"])

    def test_artifact_round_trip_and_ordering(self, tmp_path):
        summary = run_benchmarks(_quick_config())
        seed = tmp_path / "BENCH_0001.json"
        seed.write_text(json.dumps(summary))
        first = write_artifact(summary, tmp_path)
        second = write_artifact(summary, tmp_path)
        assert find_artifacts(tmp_path) == [seed, first, second]
        assert latest_artifact(tmp_path) == second
        assert latest_artifact(tmp_path, exclude=second) == first
        assert load_artifact(first)["benchmarks"] == summary["benchmarks"]

    def test_load_artifact_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"kind": "run"}')
        with pytest.raises(ValueError, match="not a bench artifact"):
            load_artifact(path)


def _artifact(environment=None, **benches):
    return {"schema": 1, "kind": "bench",
            "environment": environment or {}, "benchmarks": benches}


def _entry(median_value, mad_value=0.0):
    return {"throughput": {"median": median_value, "mad": mad_value}}


class TestCompare:
    def test_taxonomy(self):
        baseline = _artifact(
            steady=_entry(100.0), slowed=_entry(100.0),
            faster=_entry(100.0), vanished=_entry(100.0),
            broken=_entry(100.0))
        current = _artifact(
            steady=_entry(95.0), slowed=_entry(40.0),
            faster=_entry(200.0), fresh=_entry(10.0),
            broken={"error": "RuntimeError: boom"})
        by_name = {d.name: d for d in compare(current, baseline)}
        assert by_name["steady"].status == OK
        assert by_name["slowed"].status == REGRESSION
        assert by_name["slowed"].change == pytest.approx(-0.6)
        assert by_name["faster"].status == IMPROVEMENT
        assert by_name["fresh"].status == NEW
        assert by_name["vanished"].status == MISSING
        assert by_name["broken"].status == ERROR
        assert not gate(list(by_name.values()))
        assert gate([by_name["steady"], by_name["faster"],
                     by_name["fresh"]])

    def test_mad_widens_threshold(self):
        baseline = _artifact(noisy=_entry(100.0, mad_value=20.0))
        current = _artifact(noisy=_entry(55.0))
        # 4 * 1.4826 * 20/100 ≈ 1.19 relative threshold: -45% is noise.
        (delta,) = compare(current, baseline)
        assert delta.status == OK
        assert delta.threshold > 1.0
        # With a tight baseline the same drop is a regression.
        (delta,) = compare(_artifact(noisy=_entry(55.0)),
                           _artifact(noisy=_entry(100.0)))
        assert delta.status == REGRESSION

    def test_rel_tolerance_floor(self):
        baseline = _artifact(b=_entry(100.0))
        (delta,) = compare(_artifact(b=_entry(80.0)), baseline,
                           rel_tolerance=0.25)
        assert delta.status == OK
        (delta,) = compare(_artifact(b=_entry(80.0)), baseline,
                           rel_tolerance=0.1)
        assert delta.status == REGRESSION

    def test_selection_limits_missing(self):
        baseline = _artifact(chosen=_entry(100.0), other=_entry(100.0),
                             retired=_entry(100.0))
        current = _artifact(chosen={"throughput": {}})
        by_name = {d.name: d for d in compare(current, baseline,
                                              selected=["chosen", "fresh"])}
        # Unselected and retired baseline entries are not compared; a
        # selected bench without stats is still a gate failure.
        assert set(by_name) == {"chosen"}
        assert by_name["chosen"].status == MISSING

    def test_environment_mismatch_note(self):
        same = {"platform": "p", "machine": "m", "python": "3.11",
                "cpu_count": 4}
        other = dict(same, cpu_count=64)
        assert environment_mismatch(_artifact(same), _artifact(same)) == ""
        note = environment_mismatch(_artifact(same), _artifact(other))
        assert "cpu_count" in note


class TestCellBenchmarks:
    def test_e2e_cell_reports_simulated_work(self):
        bench = get_benchmark("e2e.camel.svr16")
        rep = bench.setup(BenchContext(quick=True))
        work = rep()
        assert isinstance(work, Work)
        assert work.instructions == work.units > 0
        assert work.sim_cycles > 0


class TestCli:
    def test_quick_bench_emits_schema_versioned_artifact(
            self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["bench", "--quick", "--reps", "2",
                     "--dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == 1
        benches = payload["benchmarks"]
        assert len(benches) >= 8
        for name, entry in benches.items():
            assert entry["repetitions"] == 2, name
            assert "median" in entry["throughput"], name
            assert "mad" in entry["throughput"], name
        paths = find_artifacts(tmp_path)
        assert len(paths) == 1
        assert load_artifact(paths[0])["benchmarks"].keys() \
            == benches.keys()

    def test_gate_passes_on_unchanged_tree(self, tmp_path, capsys):
        from repro.__main__ import main

        args = ["bench", "--only", "isa.assemble", "--reps", "3",
                "--dir", str(tmp_path), "--threshold", "0.5"]
        assert main(args) == 0
        assert main(args + ["--compare", "--gate"]) == 0
        out = capsys.readouterr().out
        assert "0 gate failure(s)" in out

    def test_gate_fails_on_monkeypatched_hot_path(
            self, tmp_path, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.isa import assembler

        # Five reps, not two: with two, one slow rep (a cold first call,
        # a busy host) inflates the baseline MAD past 100 % and the
        # noise-scaled threshold can no longer flag any slowdown.
        args = ["bench", "--quick", "--only", "isa.assemble",
                "--reps", "5", "--dir", str(tmp_path)]
        assert main(args) == 0

        real_assemble = assembler.assemble

        def slowed(source, name="assembly"):
            time.sleep(0.1)
            return real_assemble(source, name)

        monkeypatch.setattr(assembler, "assemble", slowed)
        assert main(args + ["--compare", "--gate"]) == 1
        err = capsys.readouterr().err
        assert "regression gate FAILED" in err

    def test_gate_ignores_benches_outside_only(self, tmp_path, capsys):
        from repro.__main__ import main

        # A baseline holding the selected bench (at a throughput any run
        # beats) plus benches this run does not select, one of them no
        # longer registered.
        baseline = _artifact(**{name: _entry(1e-6) for name in (
            "isa.assemble", "mem.tlb.translate", "svr.retired.bench")})
        (tmp_path / "BENCH_0001.json").write_text(json.dumps(baseline))
        assert main(["bench", "--quick", "--only", "isa.*", "--reps", "2",
                     "--dir", str(tmp_path), "--compare", "--gate"]) == 0
        out = capsys.readouterr().out
        assert "missing" not in out
        assert "1 benchmark(s) compared, 0 gate failure(s)" in out

    def test_gate_without_prior_artifact_passes(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["bench", "--quick", "--only", "isa.assemble",
                     "--reps", "2", "--dir", str(tmp_path),
                     "--compare", "--gate"]) == 0
        assert "first trajectory point" in capsys.readouterr().err

    def test_jsonl_record(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.obs import RunLog

        jsonl = tmp_path / "log.jsonl"
        assert main(["bench", "--quick", "--only", "mem.dram.*",
                     "--reps", "2", "--dir", str(tmp_path),
                     "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        (record,) = RunLog(jsonl).read()
        assert record["kind"] == "bench"
        assert record["artifact"].endswith(".json")
        assert "mem.dram.schedule" in record["benchmarks"]
        assert set(record["profile"]) == {"mem.dram.schedule"}

    def test_bad_reps_rejected(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "--quick", "--reps", "1"]) == 2
        assert ">= 2" in capsys.readouterr().err


class TestSeedBaseline:
    def test_in_repo_seed_is_a_valid_trajectory_point(self):
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        seed = root / "BENCH_0001.json"
        assert seed.exists(), "seed baseline BENCH_0001.json missing"
        art = load_artifact(seed)
        assert len(art["benchmarks"]) >= 8
        assert art["environment"]["git_sha"] is not None
