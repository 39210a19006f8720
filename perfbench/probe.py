"""A fixed reference computation that measures how fast the host runs right now.

The host's speed drifts, whatever this process does: over forty 55 s
benchmark runs the probe's median within one unit of work ranged
0.43-1.38 ms (3.2x), and over runs spread across several hours its
median over a whole run ranged 0.42-0.80 ms (1.9x).  Every timing of the package drifts
with it, though less than in proportion.  ``probe``
runs a frozen copy of the kind of work a training step does (a small
two-layer forward and backward in numpy, a 5 x 5 Cholesky factorization
and triangular solves in Python loops, an Adam-style update) and never
touches the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The nominal speed: probe seconds that the reported times are scaled to.
# Near the fast state of the host the benchmark was written on (Intel
# Xeon, 2 vCPUs, one BLAS thread), where the probe took 0.41-0.46 ms.
NOMINAL_S = 0.0005


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20190531)
        self.w1 = rng.uniform(-0.2, 0.2, (128, 32))
        self.w2 = rng.uniform(-0.2, 0.2, (16, 128))
        self.x = rng.standard_normal((32, 105))
        self.m = [np.zeros_like(self.w1), np.zeros_like(self.w2)]

    def once(self) -> None:
        h = np.maximum(self.w1 @ self.x, 0.0)
        e = np.maximum(self.w2 @ h, 0.0)
        g2 = (e > 0.0) * e
        grads = [((self.w2.T @ g2) * (h > 0.0)) @ self.x.T, g2 @ h.T]
        for c in range(5):
            s = e[:, 5 * c : 5 * c + 5]
            gram = s.T @ s + 10.0 * np.eye(5)
            low = np.zeros((5, 5))
            for j in range(5):
                d = gram[j, j] - low[j, :j] @ low[j, :j]
                low[j, j] = math.sqrt(d)
                low[j + 1 :, j] = (gram[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
            y = s.T @ e[:, 25:]
            for i in range(5):
                y[i, :] = (y[i, :] - low[i, :i] @ y[:i, :]) / low[i, i]
        for i, g in enumerate(grads):
            self.m[i] = 0.9 * self.m[i] + 0.1 * g

    def seconds(self, repeats: int = 15) -> float:
        """Median seconds of one probe over ``repeats`` back-to-back runs."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.once()
            times.append(time.perf_counter() - start)
        times.sort()
        return times[len(times) // 2]
