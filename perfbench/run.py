"""Benchmark of the SVR simulator: host speed, set-up, memory and
correctness on three workloads, with a per-layer traced mode.

Run from the repository root::

    python3 perfbench/run.py --workload svr_irregular --seed 1 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics, or the
per-layer ones with ``--trace 1``).  The exit code is non-zero when any
cell fails its checks.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC_DIR = HERE.parent / "src"
WORKLOADS = ("svr_irregular", "regular_core", "fig_sweep")


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a run uses.  ``build_spec`` seeds the SPEC
    surrogates' data from ``hash(name)``, so their inputs follow it."""
    return str(seed % 0xFFFF_FFFF + 1)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of simulation to time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # Both settings only take effect at interpreter start.  Without the
    # second, numpy asks for 2 MiB pages for the simulated memory arrays,
    # and whether the kernel grants them varies from run to run (peak RSS
    # then jumped by ~40 MiB at random).
    env = {"PYTHONHASHSEED": hash_seed(args.seed),
           "NUMPY_MADVISE_HUGEPAGE": "0"}
    if any(os.environ.get(k) != v for k, v in env.items()):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, **env})
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"simulator source not found under {SRC_DIR}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import hostspeed
    sampler = hostspeed.Sampler()
    with sampler.active():
        t0 = perf_counter()
        sys.path.insert(1, str(SRC_DIR))
        import checks
        import measure
        import suite as suites

        suite = suites.SUITES[args.workload]
        inputs = measure.setup(suite, args.seed)
        setup_s = perf_counter() - t0 - sampler.spent_s
    setup_raw = [(setup_s, sampler.probe_s)]
    setup_raw += [measure.setup_in_fresh_interpreter(suite, args.seed)
                  for _ in range(measure.SETUP_SAMPLES - 1)]
    setup_samples = [hostspeed.normalised(s, p) for s, p in setup_raw]
    refs = measure.references(suite, args.seed) if inputs else {}

    if args.trace:
        trace = measure.trace_serial(suite, args.seed, args.seconds, refs) \
            if suite.jobs == 1 else measure.trace_sweep(suite, args.seed)
        cells = trace.untraced.cells + trace.traced.cells
        values = measure.layer_metrics(trace)
        units = measure.LAYER_UNITS
        spans = trace.summary
        print(f"spans: {spans['spans']}, smallest self time "
              f"{spans['min_self_s']:.3g} s, {spans['outside_parent']} "
              f"outside their parent, untraced remainder "
              f"{values['obs.untraced_frac']:.3%} of the traced wall time")
        spans_ok = (spans["min_self_s"] >= -1e-9
                    and spans["outside_parent"] == 0
                    and values["obs.untraced_frac"] >= 0.0)
    else:
        spans_ok = True
        tally = measure.timed(suite, args.seed, args.seconds, inputs, refs)
        cells = tally.cells
        e2e = measure.end_to_end(tally, statistics.median(setup_samples))
        values = {k: v for k, (v, _) in e2e.items()}
        units = {k: u for k, (_, u) in e2e.items()}
        tail_s, tail_pct = measure.tail([c.norm_s for c in cells
                                         if c.probe_s])
        print(f"passes: {tally.passes}, cells: {len(cells)}, "
              f"cell_s_tail: p{tail_pct:.0f} of {len(cells)} cells, "
              f"setup samples: {', '.join(f'{s:.3f}' for s in setup_samples)}")
        print(f"host speed: {tally.timed_s / tally.norm_timed_s:.3f} x "
              f"reference time; as measured: sim_kips "
              f"{values['sim_kips'] * tally.norm_timed_s / tally.timed_s:.4g}"
              f", cpu_s {tally.cpu_s / tally.passes:.4g}, setup_s "
              f"{statistics.median(s for s, _ in setup_raw):.4g}")

    cell_digests, unstable = measure.digests(cells)
    failed = [c for c in cells if c.problems]
    for label in unstable:
        print(f"NONDETERMINISTIC {label}: repeats exported different results",
              file=sys.stderr)
    for cell in failed:
        print(f"FAILED {cell.label}: {'; '.join(cell.problems)}",
              file=sys.stderr)
    departed = {c.label: d for c in cells if c.result is not None
                and (d := checks.departures(c.result))}
    for label in sorted(departed):
        print(f"strict-invariant departure {label}: "
              f"{'; '.join(departed[label])}")
    failed_frac = len(failed) / len(cells)
    print(f"digest: {checks.run_digest(cell_digests)} "
          f"({len(cell_digests)} cells), failed_frac: {failed_frac:g}")
    correct = not failed and not unstable and spans_ok
    print(json.dumps({
        "correct": correct,
        "attempted": len(cells),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
