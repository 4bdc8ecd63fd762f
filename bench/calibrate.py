"""Machine-speed calibration for a shared, noisy host.

On a machine shared with other load the speed of one core drifts by tens
of percent over seconds to minutes. The benchmark therefore times a fixed
reference computation, which is not delayfeed code and so cannot change
with it, before and after each timed piece of work, and rescales the work's
time by how slow the reference ran around it. `NOMINAL_S` fixes the unit:
rescaled figures are those of a core on which the reference takes that
long.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.05


def reference_seconds(n: int = 3000) -> float:
    """Wall time of a fixed mix of the interpreter work and tiny numpy
    operations that dominate delayfeed: dict lookups, slicing, small
    mat-vec products, outer products, elementwise updates."""
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((27, 32))
    w2 = rng.standard_normal((32, 32))
    w3 = rng.standard_normal((32, 1))
    g1 = np.zeros_like(w1)
    table = {i: rng.standard_normal(8) for i in range(64)}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(n):
        x = np.zeros(27)
        x[0:8] += table[i % 64]
        x[8:16] += table[(i * 7) % 64]
        h = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h @ w2, 0.0)
        r = np.exp(np.clip(h2 @ w3, -30, 30))
        g = np.outer(x, h)
        g1 += g * g
        acc += float(r[0]) + sum(j * 0.5 for j in range(20))
    return time.perf_counter() - t0


class Calibration:
    """`tick()` after each timed piece of work returns its slowness: the
    mean of the reference times measured just before and just after it,
    over NOMINAL_S (above 1 means the core ran slow)."""

    def __init__(self):
        self.samples = [reference_seconds()]

    def tick(self) -> float:
        self.samples.append(reference_seconds())
        return (self.samples[-2] + self.samples[-1]) / 2 / NOMINAL_S
