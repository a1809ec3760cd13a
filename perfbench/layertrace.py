"""Layer spans recorded around the simulator's public entry points.

The wrappers live here, in the benchmark, and are installed on the
modules and classes before a cell builds its core, so nothing under
``src/`` changes.  Each call of a wrapped entry point records one span:
its name, start, end and the span it was called from.  Spans stay in
memory (compact arrays) until :func:`summarize` folds them into per-name
call counts and self times; a layer's self time is its spans' durations
minus the time of their child spans.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import os
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (span name, module, attribute path).  The span name's first component
# is the layer.
ENTRY_POINTS = (
    ("workloads.build_workload", "repro.workloads.registry", "build_workload"),
    ("workloads.build_workload", "repro.harness.runner", "build_workload"),
    ("workloads.kronecker_graph", "repro.workloads.graphs", "kronecker_graph"),
    ("workloads.uniform_random_graph", "repro.workloads.graphs",
     "uniform_random_graph"),
    ("workloads.build_pr", "repro.workloads.gap", "build_pr"),
    ("workloads.build_bfs", "repro.workloads.gap", "build_bfs"),
    ("workloads.build_hj8", "repro.workloads.hpc", "build_hj8"),
    ("workloads.build_camel", "repro.workloads.hpc", "build_camel"),
    ("workloads.build_kangaroo", "repro.workloads.hpc", "build_kangaroo"),
    ("workloads.build_randacc", "repro.workloads.hpc", "build_randacc"),
    ("workloads.build_spec", "repro.workloads.spec", "build_spec"),
    ("isa.assemble", "repro.isa.assembler", "assemble"),
    ("isa.build", "repro.isa.program", "ProgramBuilder.build"),
    ("isa.execute", "repro.cores.inorder", "execute"),
    ("isa.execute", "repro.cores.ooo", "execute"),
    ("cores.inorder.run", "repro.cores.inorder", "InOrderCore.run"),
    ("cores.ooo.run", "repro.cores.ooo", "OutOfOrderCore.run"),
    ("svr.after_issue", "repro.svr.unit", "ScalarVectorUnit.after_issue"),
    ("memory.load", "repro.memory.hierarchy", "MemoryHierarchy.load"),
    ("memory.store", "repro.memory.hierarchy", "MemoryHierarchy.store"),
    ("memory.prefetch", "repro.memory.hierarchy", "MemoryHierarchy.prefetch"),
    ("memory.tlb.translate", "repro.memory.tlb", "TlbHierarchy.translate"),
    ("memory.dram.access", "repro.memory.dram", "DramModel.access"),
    ("branch.predict_and_update", "repro.branch.predictor",
     "HybridBranchPredictor.predict_and_update"),
    ("harness.run", "repro.harness.runner", "run"),
    ("exec.run_cells", "repro.exec.executor", "run_cells"),
    ("exec.execute_spec", "repro.exec.spec", "execute_spec"),
    ("exec.spawn", "multiprocessing.process", "BaseProcess.start"),
)


class Tracer:
    """In-memory span recorder with wrappers for :data:`ENTRY_POINTS`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        # Isolated workers write their span summary here (see
        # :meth:`installed`); None leaves the worker path unwrapped.
        self.worker_dir: Path | None = None

    def clear(self) -> None:
        """Drop every recorded span (the arrays are reused in place,
        because the wrappers hold their bound ``append`` methods)."""
        for buf in (self.name_ids, self.parents, self.starts, self.ends):
            del buf[:]
        self._stack[:] = [-1]

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, ends = self._stack, self.ends
        push_name, push_parent = self.name_ids.append, self.parents.append
        push_start, push_end = self.starts.append, self.ends.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(idx)
            push_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def _worker_entry(self, traced_execute_spec):
        """``execute_spec`` as an isolated worker runs it: record the
        cell's spans from a clean buffer, then leave their summary in
        :attr:`worker_dir` for the parent (the result pipe is the
        program's, so the spans travel by file)."""
        tracer = self

        @functools.wraps(traced_execute_spec)
        def worker_execute_spec(spec, *args, **kwargs):
            tracer.clear()
            result = traced_execute_spec(spec, *args, **kwargs)
            summary = summarize(tracer)
            summary["cell"] = spec.key
            summary["run_s"] = tracer.total_duration("harness.run")
            summary["build_s"] = tracer.total_duration(
                "workloads.build_workload")
            path = tracer.worker_dir / f"{spec.key}-{os.getpid()}.json"
            path.write_text(json.dumps(summary))
            return result

        return worker_execute_spec

    def total_duration(self, name: str) -> float:
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        ids, starts, ends = self.arrays()[:3]
        mask = ids == nid
        return float((ends[mask] - starts[mask]).sum())

    def arrays(self):
        """(name ids, start, end, parent) as numpy arrays."""
        return (np.array(self.name_ids, dtype=np.uint16),
                np.array(self.starts, dtype=np.float64),
                np.array(self.ends, dtype=np.float64),
                np.array(self.parents, dtype=np.int64))

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for name, module_name, path in ENTRY_POINTS:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original)
                if name == "exec.execute_spec" and self.worker_dir is not None:
                    wrapped = self._worker_entry(wrapped)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def summarize(tracer: Tracer) -> dict:
    """Fold the recorded spans into per-name counts and self times.

    Also reports how well the spans nest: the smallest self time (never
    negative) and the number of spans that do not lie inside their
    parent's interval (always zero).  Spans still open are ignored.
    """
    ids, starts, ends, parents = tracer.arrays()
    n_names = len(tracer.names)
    closed = ends > 0.0
    dur = np.where(closed, ends - starts, 0.0)
    child = parents >= 0
    child_time = np.bincount(parents[child], weights=dur[child],
                             minlength=len(dur))
    self_time = dur - child_time
    p = parents[child & closed]
    inner = np.flatnonzero(child & closed)
    outside = int(np.count_nonzero((starts[inner] < starts[p])
                                   | (ends[inner] > ends[p])
                                   | ~closed[p]))
    counts = np.bincount(ids[closed], minlength=n_names)
    selfs = np.bincount(ids[closed], weights=self_time[closed],
                        minlength=n_names)
    return {
        "spans": int(closed.sum()),
        "by_name": {tracer.names[i]: [int(counts[i]), float(selfs[i])]
                    for i in range(n_names) if counts[i]},
        "root_s": float(dur[~child & closed].sum()),
        "min_self_s": float(self_time[closed].min()) if closed.any() else 0.0,
        "outside_parent": outside,
    }


def merge(total: dict | None, part: dict) -> dict:
    """Sum two summaries (counts, self times, root time, violations)."""
    if total is None:
        return copy.deepcopy(part)
    for name, (count, self_s) in part["by_name"].items():
        entry = total["by_name"].setdefault(name, [0, 0.0])
        entry[0] += count
        entry[1] += self_s
    total["spans"] += part["spans"]
    total["root_s"] += part["root_s"]
    total["min_self_s"] = min(total["min_self_s"], part["min_self_s"])
    total["outside_parent"] += part["outside_parent"]
    return total


def calls(summary: dict, prefix: str) -> int:
    return sum(count for name, (count, _) in summary["by_name"].items()
               if name == prefix or name.startswith(prefix + "."))


def self_s(summary: dict, prefix: str) -> float:
    return sum(s for name, (_, s) in summary["by_name"].items()
               if name == prefix or name.startswith(prefix + "."))
