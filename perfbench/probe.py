"""Host-speed probe: a fixed batch of scipy max-flows that uses no library code.

On a shared host the same job can run 1.5 to 2 times slower for seconds or
minutes and then speed up again, so raw wall times of 30 s runs spread too
widely to gate on. The probe measures the host's speed while the benchmark
runs: in bursts between timed pieces of work, and, during a job or a query
batch, one batch every ``INTERVAL_S`` of wall time from a timer signal. A wall time is then
reported as the time it would take at the nominal speed at which a batch
takes ``REF_S``: with batch times ``x_i`` sampled evenly over the interval,
``wall * mean(REF_S / x_i)``. A library change does not touch the probe, so
it moves the scaled time by the same factor as the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

# Batch time at nominal speed: about the batch time in a fast phase of the
# 2-vCPU machine where the baseline in NOTES.md was taken. Only a scale; any
# fixed value works, but changing it changes every reported time.
REF_S = 0.0022

N, M, FLOWS = 300, 2000, 5
BURST = 7
INTERVAL_S = 0.2


class SpeedProbe:
    """A fixed seeded graph and the s-t pairs of one probe batch."""

    def __init__(self):
        rng = np.random.default_rng(0)
        u, v = rng.integers(0, N, M), rng.integers(0, N, M)
        w = rng.integers(1, 50, M)
        keep = u != v
        a = csr_matrix((w[keep], (u[keep], v[keep])), shape=(N, N))
        self.graph = (a + a.T).tocsr().astype(np.int32)

    def batch(self) -> float:
        """Seconds for one batch of FLOWS max-flows, with the cyclic garbage
        collector off so that the size of the benchmark's heap does not count."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for k in range(FLOWS):
                maximum_flow(self.graph, k, N - 1 - k)
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def burst(self) -> float:
        """Median batch time over BURST batches."""
        return statistics.median(self.batch() for _ in range(BURST))

    @contextmanager
    def sampling(self):
        """Time one batch every INTERVAL_S of wall time while the body runs;
        yields the list the batch times are appended to. The batches run
        inside the body's wall time, so the caller subtracts their sum."""
        samples: list[float] = []
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(self.batch()))
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def scale(batch_times) -> float:
        """Factor that takes a wall time to nominal speed, from batch times
        sampled evenly over it."""
        return statistics.fmean(REF_S / x for x in batch_times)
