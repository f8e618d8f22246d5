"""Machine-speed sampling, to take shared-host contention out of the times.

On a shared host the same code runs up to a quarter slower for tens of
seconds at a time while other tenants load the machine, and a longer run
does not average that out. So while a phase of a run is timed, SIGALRM
fires every INTERVAL_S and the handler runs a fixed pure-Python burst
(integer arithmetic, numpy element updates and the Jacobi kernel's column
rotations) and records its wall time. Phases that wait on other processes
take their bursts between the waits instead, so that the bursts never share
the machine with work of the run. The phase's speed factor is REFERENCE_S
over the mean burst (see `factor`); a reported time is the measured time
times that factor, so times read as on a machine where the burst takes
REFERENCE_S. The bursts take about 1 % of the phase's time, and timed calls
include that share.
"""

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# typical mean burst (as `factor` takes it) on one vCPU of an Intel Xeon at
# 2.1 GHz, Python 3.11, numpy 2.4
REFERENCE_S = 6.0e-4
MIN_SAMPLES = 5

_ROW = np.zeros(32)
_CELLS = np.eye(8)
# numpy scalars, as the kernel's rotation coefficients are; eight 45-degree
# rotations of a column pair are the identity, so the cells stay bounded
_C = _S = np.sqrt(0.5)
_PAIRS = ((0, 1), (2, 3), (4, 5), (6, 7))


def burst():
    """Wall time of the fixed reference work: integer arithmetic, element
    updates of a numpy vector, and Jacobi-style column rotations. No one kind
    of work tracks the program's slowdowns best, so the burst mixes three."""
    row, a, c, s = _ROW, _CELLS, _C, _S
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(20):
        for k in range(32):
            row[k] = 0.5 * row[k] - 0.25
    for _ in range(8):
        for p, q in _PAIRS:
            for k in range(8):
                akp = a[k, p]
                akq = a[k, q]
                a[k, p] = c * akp - s * akq
                a[k, q] = s * akp + c * akq
    return time.perf_counter() - t0


class Sampler:
    """Context manager: samples the burst time every INTERVAL_S inside it."""

    def __init__(self):
        self.samples = []
        self._old = None

    def _on_alarm(self, signum, frame):
        self.samples.append(burst())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < MIN_SAMPLES:  # a phase shorter than a few intervals
            self.samples.append(burst())
        return False

    @property
    def factor(self):
        return factor(self.samples)


def factor(samples):
    """Multiply a measured time by this to get it at the reference speed.

    A mean, not a median: a call slows by the average slowdown over its
    time, which a median misses when the slow spells are short. The tenth
    of samples at each end is dropped (a burst that straddles a context
    switch, say)."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return REFERENCE_S / statistics.fmean(ordered[cut : len(ordered) - cut])
