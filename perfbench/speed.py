"""Rescale measured times to a reference host speed.

The benchmark runs on shared machines whose speed jumps between levels
several seconds apart: a co-tenant on the same physical core can make the
same code 1.8x slower for a few seconds at a time.  Averaged over one sweep,
that changes a raw wall time by up to 40% between runs of identical code.

`SpeedSampler` measures the host's speed while the timed code runs.  A
SIGALRM interval timer interrupts the main thread, and the handler times one
probe: a fixed piece of work timed in thread CPU time, so that waiting for a
CPU does not count.  Each slice of the timed code between two probes is
scaled by `probe.ref_s / measured`, the factor by which the host ran slower
than the reference while that slice ran.  The probes' own intervals are left
out of every slice.

A probe's `ref_s` is its uncontended time on the host that recorded the
baseline (Intel Xeon at 2.1 GHz, 2 vCPUs), so rescaled times read as
uncontended seconds there.  A change in the program's own work moves the
rescaled time in proportion; only the host's contention is divided out.

Signal handlers run in the main thread only.  When other threads of the
process are busy (pool workers), the handler pins the main thread to the CPU
of one of them for the probe, taking each busy CPU in turn, so the factor
describes a CPU that is doing the work.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import Callable


def _python_work():
    x = 0
    for i in range(2000):
        x += i * i


_ARRAYS = []


def _oracle_work():
    # small complex einsums in the oracle's idiom, plus interpreter work
    import numpy as np

    if not _ARRAYS:
        _ARRAYS.append(np.ones((512, 2, 2), complex))
        _ARRAYS.append(np.array([[0, 1], [1, 0]], complex))
    a, s = _ARRAYS
    for _ in range(8):
        a = np.einsum("ab,fbn->fan", s, a)
    x = 0
    for i in range(400):
        x += i * i


@dataclass(frozen=True)
class Probe:
    work: Callable[[], None]
    ref_s: float  # uncontended thread CPU time on the baseline host
    interval_s: float  # time between probes

    def run(self) -> float:
        start = time.thread_time()
        self.work()
        return time.thread_time() - start


# for a set-up: it runs before numpy is imported and takes about 3% of it
PYTHON_PROBE = Probe(_python_work, ref_s=0.105e-3, interval_s=0.005)
# for a sweep: the oracle's einsums track its slowdown best; about 3.5%
ORACLE_PROBE = Probe(_oracle_work, ref_s=0.70e-3, interval_s=0.02)


def _thread_stats(main_tid: int) -> dict:
    """{tid: (CPU it last ran on, ns it has run)} for the other threads."""
    out = {}
    for name in os.listdir("/proc/self/task"):
        tid = int(name)
        if tid == main_tid:
            continue
        try:
            with open(f"/proc/self/task/{name}/stat") as fh:
                cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
            with open(f"/proc/self/task/{name}/schedstat") as fh:
                run_ns = int(fh.read().split()[0])
        except (OSError, IndexError, ValueError):
            continue  # the thread ended
        out[tid] = (cpu, run_ns)
    return out


class SpeedSampler:
    """Probes the host's speed while open; see the module doc."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.samples = []  # (wall start, wall end, cpu start, cpu end, probe s)
        self._turn = 0
        self._probing = False

    def _handler(self, signum, frame):
        if self._probing:  # a tick that lands inside the handler is dropped
            return
        self._probing = True
        try:
            self._sample()
        finally:
            self._probing = False

    def _sample(self):
        w0, c0 = time.monotonic(), time.process_time()
        stats = _thread_stats(self._main_tid)
        busy = sorted(
            {cpu for tid, (cpu, ns) in stats.items() if ns > self._run_ns.get(tid, ns)}
            & self._cpus
        )
        self._run_ns = {tid: ns for tid, (_, ns) in stats.items()}
        if busy:
            self._turn += 1
            os.sched_setaffinity(0, {busy[self._turn % len(busy)]})
            try:
                p = self.probe.run()
            finally:
                os.sched_setaffinity(0, self._cpus)
        else:
            p = self.probe.run()
        self.samples.append((w0, time.monotonic(), c0, time.process_time(), p))

    def __enter__(self):
        self.probe.run()  # the first call pays for lazy set-up
        self.samples.clear()
        self._cpus = os.sched_getaffinity(0)
        self._main_tid = threading.get_native_id()
        self._run_ns = {tid: ns for tid, (_, ns) in _thread_stats(self._main_tid).items()}
        self._old = signal.signal(signal.SIGALRM, self._handler)
        interval = self.probe.interval_s
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def rescale(self, w0, w1, c0=0.0, c1=0.0) -> tuple[float, float]:
        """Wall and CPU seconds of [w0, w1] at the reference speed.

        Wall times are `time.monotonic()` readings, which are comparable
        between processes; CPU times are `time.process_time()` readings.
        Each slice takes the factor of the probe that ends it; the tail
        after the last probe takes the last factor.
        """
        wall = cpu = 0.0
        factor = 1.0
        prev_w, prev_c = w0, c0
        for ws, we, cs, ce, p in self.samples:
            if ws < w0 or we > w1:
                continue
            factor = self.probe.ref_s / p
            wall += (ws - prev_w) * factor
            cpu += (cs - prev_c) * factor
            prev_w, prev_c = we, ce
        wall += (w1 - prev_w) * factor
        cpu += (c1 - prev_c) * factor
        return wall, cpu
