"""Trajectory loading and statistical regression gating.

A bench *trajectory* is the ordered set of ``BENCH_*.json`` artifacts in
one directory (file names sort chronologically; the in-repo seed
``BENCH_0001.json`` sorts first).  :func:`compare` confronts the current
summary with a baseline per benchmark on the primary throughput metric
(work units per wall-second, higher is better) and classifies each as
``ok`` / ``regression`` / ``improvement`` / ``new`` / ``missing`` /
``error``.  Only the benchmarks the current run selected are compared:
a baseline entry outside the selection (filtered out by ``--only``, or
retired from the registry) is not ``missing``.

The significance threshold is MAD-scaled: a change only counts when it
exceeds *both* a relative floor (``rel_tolerance``, absorbing run-to-run
wall-clock noise) and ``mad_scale`` times the combined normalised MAD of
the two samples (1.4826 · MAD estimates σ for Gaussian noise).  Under
``--gate`` any ``regression`` / ``missing`` / ``error`` makes
``repro bench`` exit non-zero.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.bench.runner import ARTIFACT_GLOB

# 1.4826 * MAD approximates the standard deviation of Gaussian noise.
MAD_SIGMA = 1.4826

REGRESSION = "regression"
IMPROVEMENT = "improvement"
OK = "ok"
NEW = "new"
MISSING = "missing"
ERROR = "error"

GATE_FAILURES = (REGRESSION, MISSING, ERROR)


def find_artifacts(root: str | Path = ".") -> list[Path]:
    """Every trajectory point under *root*, oldest first."""
    return sorted(Path(root).glob(ARTIFACT_GLOB))


def load_artifact(path: str | Path) -> dict[str, Any]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("kind") != "bench":
        raise ValueError(f"{path} is not a bench artifact")
    if data.get("schema") != 1:
        raise ValueError(f"{path}: unsupported bench schema "
                         f"{data.get('schema')!r}")
    return data


def latest_artifact(root: str | Path = ".",
                    exclude: Path | None = None) -> Path | None:
    """Newest trajectory point under *root*, skipping *exclude* (the
    artifact the current invocation just wrote)."""
    paths = find_artifacts(root)
    if exclude is not None:
        resolved = Path(exclude).resolve()
        paths = [p for p in paths if p.resolve() != resolved]
    return paths[-1] if paths else None


@dataclass(frozen=True)
class Delta:
    """One benchmark's baseline-vs-current verdict."""

    name: str
    status: str                  # OK/REGRESSION/IMPROVEMENT/NEW/MISSING/ERROR
    baseline: float | None = None   # baseline throughput median
    current: float | None = None    # current throughput median
    change: float | None = None     # current/baseline - 1
    threshold: float | None = None  # relative threshold applied
    detail: str = ""

    @property
    def gate_failure(self) -> bool:
        return self.status in GATE_FAILURES


def _throughput(entry: dict[str, Any]) -> tuple[float, float] | None:
    stats = entry.get("throughput")
    if not isinstance(stats, dict) or "median" not in stats:
        return None
    return float(stats["median"]), float(stats.get("mad", 0.0))


def compare(current: dict[str, Any], baseline: dict[str, Any], *,
            rel_tolerance: float = 0.25,
            mad_scale: float = 4.0,
            selected: Iterable[str] | None = None) -> list[Delta]:
    """Per-benchmark deltas of *current* against *baseline*, sorted by
    name.  See the module docstring for the significance rule.

    *selected* names the benchmarks the current run chose to measure;
    baseline-only entries outside it are skipped.  ``None`` compares
    every name in either artifact.
    """
    cur = current.get("benchmarks", {})
    base = baseline.get("benchmarks", {})
    names = set(cur) | set(base)
    if selected is not None:
        names &= set(selected)
    deltas = []
    for name in sorted(names):
        c_entry, b_entry = cur.get(name), base.get(name)
        if c_entry is not None and "error" in c_entry:
            deltas.append(Delta(name, ERROR, detail=c_entry["error"]))
            continue
        if b_entry is None:
            deltas.append(Delta(name, NEW))
            continue
        if c_entry is None:
            deltas.append(Delta(
                name, MISSING,
                detail="present in baseline, absent from current run"))
            continue
        b_stat, c_stat = _throughput(b_entry), _throughput(c_entry)
        if b_stat is None:
            # Baseline itself failed; any measurement is an improvement.
            deltas.append(Delta(name, NEW, detail="baseline had no stats"))
            continue
        if c_stat is None:
            deltas.append(Delta(name, MISSING,
                                detail="current run has no stats"))
            continue
        b_med, b_mad = b_stat
        c_med, c_mad = c_stat
        if b_med <= 0:
            deltas.append(Delta(name, NEW,
                                detail="non-positive baseline median"))
            continue
        noise = mad_scale * MAD_SIGMA * (b_mad + c_mad) / b_med
        threshold = max(rel_tolerance, noise)
        change = c_med / b_med - 1.0
        if change < -threshold:
            status = REGRESSION
        elif change > threshold:
            status = IMPROVEMENT
        else:
            status = OK
        deltas.append(Delta(name, status, baseline=b_med, current=c_med,
                            change=change, threshold=threshold))
    return deltas


def gate(deltas: list[Delta]) -> bool:
    """True when the trajectory is clean (no gate failures)."""
    return not any(d.gate_failure for d in deltas)


def render_comparison(deltas: list[Delta], baseline_path: Path | None = None,
                      environment_note: str = "") -> str:
    """Human-readable comparison table."""
    lines = []
    if baseline_path is not None:
        lines.append(f"baseline: {baseline_path}")
    if environment_note:
        lines.append(f"note: {environment_note}")
    width = max((len(d.name) for d in deltas), default=4)
    for d in deltas:
        if d.change is None:
            lines.append(f"  {d.name:<{width}}  {d.status:<11} {d.detail}")
            continue
        lines.append(
            f"  {d.name:<{width}}  {d.status:<11} "
            f"{d.baseline:>12.1f} -> {d.current:>12.1f} units/s "
            f"({d.change:+.1%}, threshold ±{d.threshold:.0%})")
    failures = [d for d in deltas if d.gate_failure]
    lines.append(f"{len(deltas)} benchmark(s) compared, "
                 f"{len(failures)} gate failure(s)")
    return "\n".join(lines)


def environment_mismatch(current: dict[str, Any],
                         baseline: dict[str, Any]) -> str:
    """A caveat string when the two artifacts came from visibly
    different environments (cross-machine deltas are indicative only)."""
    cur = current.get("environment", {})
    base = baseline.get("environment", {})
    differing = [key for key in ("platform", "machine", "python",
                                 "cpu_count")
                 if cur.get(key) != base.get(key)]
    if not differing:
        return ""
    return ("baseline captured on a different environment "
            f"({', '.join(differing)} differ); deltas are indicative only")
