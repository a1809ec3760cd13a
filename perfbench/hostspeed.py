"""Host-speed probe: a fixed pure-Python kernel timed beside the cells.

The shared hosts the benchmark runs on change speed by a third within
minutes, and the simulator's host time follows (see ``NOTES.md``).  The
probe is a toy register machine in the simulator's own idiom: a dispatch
loop over a fixed program of small functions that read and write slot
attributes, a list memory and a dict.  It shares no code with the
simulator, so a change to the simulator cannot move it.

A host time ``t`` measured next to a probe that took ``p`` seconds is
reported as ``t * REFERENCE_S / p``: the time at the host speed where the
probe takes :data:`REFERENCE_S`.  The host's speed also changes within a
one-second cell, so a :class:`Sampler` times short probes during the cell
as well as a whole one after it.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Probe seconds at the reference host speed: about its median on a 2-vCPU
# x86-64 virtual machine under CPython 3.  Any fixed value works; it only
# sets the scale of the normalised times.
REFERENCE_S = 0.0135
_STEPS = 60_000
_MEM_WORDS = 4096
# In-cell samples: a tenth of the probe every 50 ms of process CPU time,
# about 2.5% of the cell's time.
_SAMPLE_STEPS = _STEPS // 10
_SAMPLE_EVERY_S = 0.05


class _Machine:
    __slots__ = ("regs", "mem", "seen")

    def __init__(self) -> None:
        self.regs = [0, 1, 7, 3, 0, 0, 0, 0]
        self.mem = list(range(_MEM_WORDS))
        self.seen: dict[int, int] = {}


def _add(m: _Machine, a: int, b: int) -> None:
    m.regs[a] = (m.regs[a] + m.regs[b]) & 0xFFFF


def _load(m: _Machine, a: int, b: int) -> None:
    m.regs[a] = m.mem[m.regs[b] % _MEM_WORDS]


def _store(m: _Machine, a: int, b: int) -> None:
    m.mem[m.regs[a] % _MEM_WORDS] = m.regs[b]


def _count(m: _Machine, a: int, b: int) -> None:
    key = m.regs[a] & 0xFF
    m.seen[key] = m.seen.get(key, 0) + m.regs[b]


_PROGRAM = ((_add, 1, 2), (_load, 3, 1), (_add, 2, 3), (_store, 2, 1),
            (_count, 3, 2), (_add, 1, 1), (_load, 4, 2), (_count, 4, 1))


def _run(steps: int) -> int:
    m = _Machine()
    program = _PROGRAM
    n = len(program)
    for i in range(steps):
        op, a, b = program[i % n]
        op(m, a, b)
    return m.regs[2]


def probe() -> float:
    """Host seconds the fixed kernel takes now."""
    t0 = perf_counter()
    _run(_STEPS)
    return perf_counter() - t0


class Sampler:
    """Probes taken during one cell and right after it.

    While :meth:`active`, a ``SIGPROF`` handler times a short probe every
    :data:`_SAMPLE_EVERY_S` of process CPU time.  The handler runs in this
    thread between the simulator's bytecodes, so the samples see the core
    and the conditions the cell sees.  Leaving the block times one whole
    probe.  Time the cell inside the block and subtract :attr:`spent_s`
    there: it is the handler's time so far.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []   # in whole-probe seconds
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        _run(_SAMPLE_STEPS)
        took = perf_counter() - t0
        self.spent_s += took
        self.probes.append(took * _STEPS / _SAMPLE_STEPS)

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, _SAMPLE_EVERY_S, _SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        closing = probe()
        self.spent_s += closing
        self.probes.append(closing)

    @property
    def probe_s(self) -> float:
        """The mean probe, the closing one counted as one sample."""
        return statistics.fmean(self.probes)


def normalised(seconds: float, probe_s: float) -> float:
    """*seconds* measured beside a *probe_s* probe, at reference speed."""
    return seconds * REFERENCE_S / probe_s
