"""Host-speed sampling: wall seconds rescaled to a reference host speed.

The benchmark runs on a shared host whose speed drifts by up to ~1.7x
over tens of seconds (other tenants contend for the same physical
cores); wall time of a repetition follows that drift one for one.  While
a repetition runs, :class:`HostSpeed` times a fixed pure-Python kernel
every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler, so the samples
come from the same threads, cores and moments as the program's own work.
Worker processes the program forks inherit the sampler and append their
samples to a log file.  A kernel sample is its thread CPU time: the
scheduler sharing the VM's own CPUs between the benchmark's processes
does not count as a slow host; contention from outside the VM does.

A phase's *reference seconds* are its wall seconds, minus the sampler's
own time, times the host's mean speed during the phase relative to a host
that runs the kernel in ``REFERENCE_KERNEL_S``.  The kernel does not
depend on the program, so a change to the program moves reference
seconds as it moves wall seconds on a host of steady speed.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import signal
import time
from pathlib import Path

#: Seconds between two samples of one process (wall clock, ``ITIMER_REAL``).
INTERVAL_S = 0.05
#: Kernel iterations per sample: about 1 ms on a 2.1 GHz Xeon vCPU.
KERNEL_ITERATIONS = 4_000
#: Kernel CPU time that defines the reference host speed.
REFERENCE_KERNEL_S = 0.001
_MASK64 = (1 << 64) - 1

#: The sampler whose block is open in this process, for the fork hook.
_active: HostSpeed | None = None


def kernel(iterations: int = KERNEL_ITERATIONS) -> int:
    """Fixed interpreter work: 64-bit mixing and dict stores, as the
    program's address handling does."""
    x = 0x9E3779B97F4A7C15
    seen = {}
    for _ in range(iterations):
        x = ((x ^ (x >> 31)) * 0xBF58476D1CE4E5B9) & _MASK64
        seen[x & 0xFFF] = x
    return len(seen)


def _timed_kernel() -> tuple[float, float]:
    """(wall-clock start, thread CPU seconds) of one kernel run."""
    start = time.perf_counter()
    cpu = time.thread_time()
    kernel()
    return start, time.thread_time() - cpu


def _start_timer(handler) -> None:
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def _sample_in_worker() -> None:
    """Fork hook: a worker forked inside a sampling block samples too.

    Interval timers are not inherited across ``fork``, so the worker
    starts its own and appends each sample to the shared log.
    """
    if _active is None:
        return
    fd = os.open(_active.worker_log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)

    def sample(signum, frame):
        os.write(fd, b"%r %r\n" % _timed_kernel())

    _start_timer(sample)


os.register_at_fork(after_in_child=_sample_in_worker)


class HostSpeed:
    """Kernel samples of this process and of the workers it forks."""

    def __init__(self, worker_log: Path) -> None:
        self.worker_log = Path(worker_log)
        #: (wall-clock start, CPU seconds) of this process's samples.
        self.own: list[tuple[float, float]] = []
        #: The same for every process, ordered by start.
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        self.own.append(_timed_kernel())

    @contextlib.contextmanager
    def sampling(self):
        global _active
        previous = signal.getsignal(signal.SIGALRM)
        _active = self
        _start_timer(self._sample)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            _active = None
            workers = []
            if self.worker_log.exists():
                for line in self.worker_log.read_text().splitlines():
                    start, seconds = line.split()
                    workers.append((float(start), float(seconds)))
                self.worker_log.unlink()
            self.samples = sorted(self.own + workers)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the phase from ``start`` to ``end``.

        The host's speed over the phase is the mean speed of the samples
        in it: every process samples evenly in wall time, so this is the
        time-weighted mean over the processes.  A phase too short to hold
        a sample takes the speed of the samples next to it.
        """
        inside = _between(self.samples, start, end)
        if not inside:
            lo = bisect.bisect_left(self.samples, (start,))
            inside = self.samples[max(lo - 1, 0) : lo + 1]
        if not inside:
            raise ValueError("no host-speed sample was taken")
        speed = sum(REFERENCE_KERNEL_S / seconds for _, seconds in inside) / len(inside)
        own = sum(seconds for _, seconds in _between(self.own, start, end))
        return (end - start - own) * speed


def _between(samples, start: float, end: float):
    """The samples that started in [start, end)."""
    return samples[bisect.bisect_left(samples, (start,)) : bisect.bisect_left(samples, (end,))]
