"""Host speed samples, so that job times do not depend on the host's load.

On a shared virtual machine the same code runs at two or more speeds,
in CPU time as much as in wall time, and the speed switches every few
seconds: the fixed kernel below takes about 0.29 ms of CPU at one
speed and up to twice that at the other. A job's fastest or median run
still depends on how much of the run fell at which speed. So the
sampler runs the kernel every INTERVAL_S of CPU time, from a SIGPROF
handler, which covers the inside of long jobs too, and each job run's
CPU time is scaled by the mean relative speed of the samples taken
during it and next to it:

    normalised_s = cpu_s * mean(KERNEL_S / kernel_cpu_s)

KERNEL_S is the kernel's CPU time at the fast speed on a 2-vCPU Intel
Xeon (Sapphire Rapids) virtual machine with Python 3.11, so normalised
times read as seconds on that machine when it is not slowed down.
Kernel time is left out of every job's CPU time. CPU time is the
thread's own (CLOCK_THREAD_CPUTIME_ID): while a process CPU timer is
armed, Linux reads the process clock at tick resolution.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
KERNEL_S = 0.00029


def kernel() -> None:
    """Big-integer products, tuple-keyed dict stores and a string join.

    Of the kernels tried, this one's time tracked every job type best as
    the host's speed changed: a variant with small numpy calls slowed
    down more than the jobs did, pure-numpy calls alone even more.
    """
    x = 7**3000
    d = {}
    for i in range(600):
        d[i & 31, i % 7] = x * i
    ",".join(str(i) for i in range(400))


def kernel_speed() -> float:
    """KERNEL_S over the CPU time of one kernel run."""
    start = time.thread_time()
    kernel()
    return KERNEL_S / (time.thread_time() - start)


def measure() -> float:
    """Mean relative speed over 20 back-to-back kernel runs."""
    return sum(kernel_speed() for _ in range(20)) / 20


class Sampler:
    """Speed samples at a fixed CPU-time interval, and marks to scale by them."""

    def __init__(self) -> None:
        self.at: list[float] = []     # thread CPU time at which each sample began
        self.speed: list[float] = []  # relative speed of each sample
        self.spent = 0.0              # CPU time spent in samples so far
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.thread_time()
        self.speed.append(kernel_speed())
        self.at.append(start)
        self.spent += time.thread_time() - start
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        self.resume()

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        # The handler stays installed: a signal already on its way lands there.
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def mark(self) -> tuple[float, float]:
        """A point on the thread CPU clock, with the sample time spent by then."""
        return time.thread_time(), self.spent

    def normalised(self, begin: tuple[float, float], end: tuple[float, float]) -> float:
        """Sample-free CPU time between two marks, scaled to the fast speed.

        Uses the samples that began between the marks plus the last one
        before and the first one after, so call it once sampling is over.
        """
        cpu = (end[0] - begin[0]) - (end[1] - begin[1])
        lo = max(bisect.bisect_left(self.at, begin[0]) - 1, 0)
        hi = bisect.bisect_right(self.at, end[0]) + 1
        window = self.speed[lo:hi]
        return cpu * sum(window) / len(window)
