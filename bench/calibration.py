"""Machine-speed calibration of the end-to-end timings.

On a shared host the same work runs at speeds 1.5-2x apart:
a core slows while other tenants use it, in states that switch within a
second or last tens of seconds.  A 50-second run cannot average that
out.  So while a run measures, a ``SpeedProbe`` interrupts it every
``INTERVAL_S`` seconds to time a fixed pure-Python kernel, and the run
scales its timings by ``REFERENCE_S`` over the kernel's mean time.  A
timing then reads as the seconds the step takes on an uncontended core
of the baseline machine.  The probe's ``clock`` leaves out the time
spent in the kernel, so the kernel adds nothing to the timed steps.
The kernel is the benchmark's own code: a change to ``gridroots``
cannot move it.
"""
from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# The kernel's time on an uncontended core of the machine that
# bench/baseline.json describes.
REFERENCE_S = 0.002
INTERVAL_S = 0.1
KERNEL_SIDE = 40


def kernel(side: int = KERNEL_SIDE) -> int:
    """Build a side x side grid as a dict of frozensets and search it.

    Like the program, it allocates sets and dicts keyed by integers and
    walks them; it allocates no reference cycles.
    """
    adjacency = {}
    for i in range(side):
        for j in range(side):
            v = i * side + j
            near = (v - side, v + side, v - 1 if j else -1, v + 1 if j < side - 1 else -1)
            adjacency[v] = frozenset(w for w in near if 0 <= w < side * side)
    seen, frontier = {0}, [0]
    while frontier:
        following = []
        for v in frontier:
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    following.append(w)
        frontier = following
    return len(seen)


class SpeedProbe:
    """Kernel times taken at a fixed interval while one phase of a run measures."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        """``perf_counter()`` less the time spent in the kernel so far."""
        return perf_counter() - self._spent

    def _tick(self, signum, frame) -> None:
        # The collector stays off so that it cannot scan the program's
        # heap inside the kernel.  The first run only warms the caches,
        # so that what the program did just before does not slow the
        # timed second one.
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
            t1 = perf_counter()
            kernel()
            self.times.append(perf_counter() - t1)
        finally:
            if collecting:
                gc.enable()
        self._spent += perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Time the kernel now and every ``INTERVAL_S`` seconds of the block."""
        self._tick(None, None)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def held(self):
        """Defer a tick that falls due in the block to its end."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @property
    def factor(self) -> float:
        """Multiply a mean timing of the phase by this to calibrate it."""
        return REFERENCE_S / statistics.fmean(self.times)
