"""Wall time rescaled to a reference machine speed.

The shared 2-vCPU machine this benchmark was built on runs the same code
up to 1.6x slower in spells that last from seconds to minutes (neighbour
load on the host; process CPU time slows down with wall time, so it is no
way out).  A short reference kernel is timed on the same thread all
through a run, and an interval of wall time is rescaled by the kernel's
reference duration over its duration around that interval.  This removes
the machine's speed of the moment and keeps the program's.  Two kernels
match the two kinds of work in the pipeline: "cpu" (small numpy products
driven from a Python loop, like most stages) and "memory" (a Hamming scan
streaming 11 MB blocks of a 65 MB array, like the retrieval scan).  On
this machine at its usual fast speed the rescaled times equal wall times.
"""

import bisect
import signal
import statistics
import time

import numpy as np

_M = np.array([[0.6, -0.3, 0.2], [0.1, 0.5, -0.4], [0.3, 0.2, 0.7]])


def _cpu_kernel():
    acc, a = 0.0, _M
    for i in range(150):
        a = a @ _M * 0.5
        acc += float(a[0, 0]) + i * 0.5
    return acc


class _MemoryKernel:
    def __init__(self, blocks=6):
        rng = np.random.default_rng(0)
        self.data = rng.integers(0, 2, (blocks, 4096, 30, 88), dtype=np.uint8)
        self.query = self.data[0, 7].copy()
        self.next = 0

    def __call__(self):
        block = self.data[self.next]
        self.next = (self.next + 1) % len(self.data)
        return np.sum(block != self.query, axis=(1, 2))


# kind: (reference duration in seconds, background sampling period)
KINDS = {"cpu": (3.0e-4, 0.1), "memory": (6.0e-3, 0.5)}
REF_KERNEL_S = KINDS["cpu"][0]


class RefClock:
    def __init__(self, kind="cpu"):
        self.ref_s, self.period = KINDS[kind]
        self.kernel = _cpu_kernel if kind == "cpu" else _MemoryKernel()
        self.times = []            # kernel start times, ascending
        self.durations = []

    def sample(self):
        start = time.perf_counter()
        self.kernel()
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame):
        self.sample()

    def start_timer(self):
        """Sample every self.period seconds until stop_timer (main thread only)."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _speed(self, i):
        """Kernel time at sample i: the median of it and its two neighbours."""
        return statistics.median(self.durations[max(0, i - 1):i + 2])

    def scaled(self, start, end):
        """Reference seconds of the wall interval [start, end].

        Each kernel sample inside the interval stands for the stretch of it
        nearest to that sample, minus the sample's own time, at that
        sample's (smoothed) speed; the speed can change within a long
        stage.  An interval with fewer than three samples inside takes the
        median speed of the three samples nearest to it.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < 3:
            mid = (start + end) / 2.0
            near = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))[:3]
            busy = end - start - sum(self.durations[lo:hi])
            return busy * self.ref_s / statistics.median(self.durations[i] for i in near)
        cuts = [start] + [(self.times[i] + self.times[i + 1]) / 2.0
                          for i in range(lo, hi - 1)] + [end]
        return sum((cuts[k + 1] - cuts[k] - self.durations[i]) * self.ref_s / self._speed(i)
                   for k, i in enumerate(range(lo, hi)))
