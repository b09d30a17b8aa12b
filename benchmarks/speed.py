"""CPU speed probe: how fast the benchmark's CPU ran while a rep was running.

The benchmark runs on a shared host whose CPUs change speed by up to a
third within seconds and drift over minutes, in two ways. Either the CPU
runs slower while the process is on it (its CPU time grows as much as its
wall time), or the hypervisor takes the CPU away for a while (steal time,
which the CPU clocks do not count). A rep's wall time then says as much
about the neighbours as about psgrank.

So the parent pins itself, and with it every child, to one CPU. During a
rep, a probe thread on that same CPU wakes every ``PERIOD_S`` and times a
fixed piece of pure Python work by its own CPU time; the mean of those
samples against ``REFERENCE_S`` is how much slower the CPU ran. The share
of the rep's ticks that ``/proc/stat`` counts as stolen on that CPU is
how long it did not run. A rep's slowdown combines both, and its wall
time divided by the slowdown is its time at the reference speed. The
probe takes about 4 % of the CPU, in every rep alike.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.05
# Mean probe sample on the 2-CPU machine the benchmark was built on.
REFERENCE_S = 2.0e-3
_STAT = "/proc/stat"


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the children it starts) to its lowest CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _sample() -> int:
    """CPU nanoseconds for a fixed piece of dict and string work."""
    t0 = time.thread_time_ns()
    counts: dict[str, int] = {}
    for i in range(4000):
        key = "t%d" % (i % 500)
        counts[key] = counts.get(key, 0) + i
    return time.thread_time_ns() - t0


def _ticks(cpu: int | None) -> tuple[int, int]:
    """(stolen, all) ticks of ``cpu`` (all CPUs if None) since boot; (0, 0)
    where the system does not count them."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    try:
        with open(_STAT, encoding="ascii") as f:
            for line in f:
                fields = line.split()
                if fields[0] == label:
                    # user nice system idle iowait irq softirq steal; the
                    # guest fields after them are already counted in user.
                    ticks = [int(x) for x in fields[1:9]]
                    return ticks[7], sum(ticks)
    except (OSError, ValueError, IndexError):
        pass
    return 0, 0


class Probe:
    """Samples the speed of ``cpu`` in a thread from ``start`` until ``stop``."""

    def __init__(self, cpu: int | None):
        self.cpu = cpu
        self.steal = 0.0
        self._samples: list[int] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._done.wait(PERIOD_S):
            self._samples.append(_sample())

    def start(self) -> "Probe":
        self._ticks = _ticks(self.cpu)
        self._thread.start()
        return self

    def stop(self) -> float:
        """The slowdown over the sampled interval: wall time / reference time.

        Also sets ``steal``, the share of the interval the CPU was taken away.
        """
        self._done.set()
        self._thread.join()
        stolen, total = (b - a for a, b in zip(self._ticks, _ticks(self.cpu)))
        self.steal = stolen / total if total > 0 else 0.0
        if not self._samples:
            self._samples.append(_sample())
        running = statistics.fmean(self._samples) / 1e9 / REFERENCE_S
        return running / (1.0 - self.steal)
