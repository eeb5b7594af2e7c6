"""Normalising timings to a fixed CPU speed on a shared host.

On a shared host the core a process runs on changes speed every few
seconds, by up to 40%, as other tenants' work comes and goes on it. A run's
median wall time then follows the share of the run spent fast, not the
program. So the benchmark also times a fixed reference computation, evenly
through every timed region, and reports each region in reference seconds:
the seconds it would take on a core that runs the reference in NOMINAL_S.
The reference does not call the program, so no change to the program can
change it; it runs in the program's own process, on the same core.
"""

import math
import signal
import time

import numpy as np

# About the reference's time on the 2-vCPU Xeon host the benchmark was
# written on. It only scales the metrics; it must never change.
NOMINAL_S = 3.0e-4

_A = np.arange(64 * 64).reshape(64, 64) % 7 < 3
_B = np.arange(64 * 64).reshape(64, 64) % 5 < 2
_VALUES = np.arange(256) % 2
_RUNS = np.array([13, 19] * 128)  # sums to 64 * 64


def reference():
    """A fixed mix of interpreter and small-array work, like the program's.

    Its data fits in the first-level caches, so the time it takes follows
    the speed of the core, not the program's use of memory.
    """
    table = {}
    for i in range(400):
        table[i & 31] = table.get(i & 31, 0.0) + math.exp(-(i % 50) * 0.01)
    for _ in range(8):
        flat = np.repeat(_VALUES, _RUNS).reshape(64, 64).astype(bool)
        np.count_nonzero(flat & _A)
        np.count_nonzero(flat | _B)


class SpeedProbe:
    """Samples the speed evenly in time while armed, to normalise regions.

    An interval timer interrupts the process every PERIOD_S of wall time and
    times one reference call. A region's reference seconds are its wall time
    less the probes inside it, times the mean speed: NOMINAL_S over the
    probe's time, averaged over the probes inside it. The process must not
    use SIGALRM itself, and runs its timed code in the main thread.
    """

    PERIOD_S = 0.01

    def __init__(self):
        self.probes = []  # (start, end) of each probe, in perf_counter time

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.probes.append((t0, time.perf_counter()))

    def reference_seconds(self, regions):
        """Reference seconds of each (start, end) region.

        The speed is averaged over the probes inside any of the regions, so
        regions shorter than PERIOD_S can share it: pass the regions of one
        phase together.
        """
        inside = [(a, b) for a, b in self.probes
                  if any(t0 <= a and b <= t1 for t0, t1 in regions)]
        if not inside:  # regions shorter than PERIOD_S: take the nearest probe
            start = regions[0][0]
            inside = [min(self.probes, key=lambda p: abs(p[0] - start))]
        speed = sum(NOMINAL_S / (b - a) for a, b in inside) / len(inside)
        return [(t1 - t0 - sum(b - a for a, b in inside if t0 <= a and b <= t1)) * speed
                for t0, t1 in regions]
