"""The host's own speed, sampled while the program runs.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU switches,
independently of the others and from every few milliseconds to every few
seconds, between two speeds about 1.6x apart (a fixed pure-Python loop:
7 ms against 11 ms on the 2-vCPU Xeon host the baseline was taken on), and
the share of time spent slow drifts over minutes.  Compute-bound wall times
taken there measure the host as much as the program: two sets of ten runs
taken minutes apart had medians 35% apart.

So the benchmark also times a fixed pure-Python kernel that calls nothing
of the program, in chunks of about 0.6 ms, evenly over each measured
operation and on the vCPU the operation runs on:

* :class:`Probe`, for work in the benchmark's own thread, runs a chunk on a
  ``SIGPROF`` timer every few tens of milliseconds of CPU time, inside the
  operation;
* :class:`Sampler`, for work in another process on a known vCPU (a
  server's), runs a chunk every 20 ms on a thread pinned to that vCPU.

The chunks' own time is taken out of the operation's, and what remains is
reported at the reference speed, the speed at which one chunk takes
:data:`REFERENCE_CHUNK_S`: multiplied by :func:`factor` of the chunks.  A
chunk is short enough to run within one scheduler slice when it shares its
vCPU with the work, and the kernel allocates no container objects, so it
never triggers the cyclic garbage collector and its time does not depend
on the program's heap.
"""

from __future__ import annotations

import os
import signal
import statistics
import threading
import time
from typing import List, Tuple

#: Loop iterations in one chunk of the kernel.
CHUNK_ITERATIONS = 1_500
#: Seconds one chunk takes at the reference speed (about the slower of the
#: two speeds of the host the baseline was taken on).
REFERENCE_CHUNK_S = 0.000625
#: CPU seconds between two chunks of a :class:`Probe`.
PROBE_INTERVAL_S = 0.05
#: Seconds between two chunks of a :class:`Sampler`.
SAMPLER_PERIOD_S = 0.02

_TABLE = {key: key * 2654435761 for key in range(512)}
_MASK = (1 << 256) - 1


def kernel() -> int:
    """Fixed work shaped like the program's: dict lookups and big-int masks."""
    acc = 0
    table = _TABLE
    mask = _MASK
    for i in range(CHUNK_ITERATIONS):
        acc ^= table[i & 511]
        acc = (acc ^ (mask >> (i & 127))) & (mask ^ i)
    return acc


def factor(chunks: List[float]) -> float:
    """Reference speed over the mean speed the chunks saw.

    A chunk's time is the inverse of the speed at that moment, so the mean
    speed over evenly spaced chunks is the mean of their inverses.
    """
    return REFERENCE_CHUNK_S * statistics.fmean(1 / chunk for chunk in chunks)


class Probe:
    """Chunks inside one operation, on a CPU-time timer in the calling thread.

    Use as a context manager in the main thread around the operation; one
    chunk runs on entry, then one every ``interval`` seconds of CPU time.
    ``overhead_s`` is the time the chunks took, to subtract from the
    operation's wall time.
    """

    def __init__(self, interval: float = PROBE_INTERVAL_S) -> None:
        self.interval = interval
        self.chunks: List[float] = []
        self.overhead_s = 0.0
        self._previous = None

    def _chunk(self, signum=None, frame=None) -> None:
        begin = time.perf_counter()
        kernel()
        self.chunks.append(time.perf_counter() - begin)
        self.overhead_s += time.perf_counter() - begin

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGPROF, self._chunk)
        self._chunk()
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


class Sampler:
    """Chunks every :data:`SAMPLER_PERIOD_S` on a thread pinned to ``cpu``.

    Use as a context manager around the operations; :meth:`during` gives
    the chunks that started within an operation's interval, as
    ``time.perf_counter`` readings.
    """

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.records: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(SAMPLER_PERIOD_S):
            begin = time.perf_counter()
            kernel()
            self.records.append((begin, time.perf_counter() - begin))

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def during(self, start: float, end: float) -> List[float]:
        return [chunk for begin, chunk in self.records if start <= begin < end]

    @property
    def chunks(self) -> List[float]:
        return [chunk for _, chunk in self.records]
