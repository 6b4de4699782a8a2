"""A clock that runs at a reference speed of the host.

The 2-vCPU VM the benchmark was defined on switches between speeds: for
seconds to minutes at a time it runs everything 1.3-1.7 times slower,
with no steal time and with CPU time equal to wall time (see README.md).
A timing taken in such a spell reads that much slower whatever the
program does. :class:`HostClock` therefore samples the host's speed with
a fixed pure-Python kernel, between units of the program's work, and
counts the time since the last sample at ``REFERENCE_KERNEL_NS /
kernel_ns``: a second of wall time in a spell that runs the kernel 1.5
times slower counts as 2/3 of a second. The kernel's own time is not
counted. With ``enabled=False`` the clock is wall time.
"""

from __future__ import annotations

import gc
import time

#: The kernel's time on the VM the benchmark was defined on, outside its
#: slow spells (fastest of 5 runs: 0.66-0.73 ms).
REFERENCE_KERNEL_NS = 700_000

#: Runs of the kernel per sample; a sample is the fastest of them.
KERNEL_RUNS = 5


def _kernel() -> int:
    table: dict[str, int] = {}
    for i in range(3000):
        table[str(i)] = i * 3
    total = 0
    for key, value in table.items():
        total += len(key) + value
    return total


def kernel_ns(runs: int = KERNEL_RUNS) -> int:
    """The fastest of ``runs`` kernel runs on this thread, garbage
    collection off."""
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(runs):
            start = clock()
            _kernel()
            took = clock() - start
            best = took if best is None or took < best else best
    finally:
        if enabled:
            gc.enable()
    assert best is not None
    return best


class HostClock:
    """Seconds at the reference speed, sampled at :meth:`calibrate`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counted = 0.0
        self._since = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; never serialized by the program
        #: Reference seconds per wall second, from the last sample.
        self.factor = 1.0
        self.samples: list[int] = []

    def now(self) -> float:
        return self._counted + (time.perf_counter() - self._since) * self.factor  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; never serialized by the program

    def calibrate(self) -> None:
        """Sample the host's speed; the time since the last sample counts
        at the old speed, the time from here at the new one."""
        if not self.enabled:
            return
        self._counted = self.now()
        ns = kernel_ns()
        self.samples.append(ns)
        self.factor = REFERENCE_KERNEL_NS / ns
        self._since = time.perf_counter()  # repro: noqa[REP001] -- benchmark harness measures wall-clock by design; never serialized by the program
