"""A clock in reference seconds: CPU time scaled by the machine's current
speed on a fixed calibration kernel.

The benchmark host shares its cores with other machines' work, and the
speed a single thread gets drifts by a third within minutes (frequency,
cache and memory contention), which neither CPU time nor medians remove.
So between timed operations the benchmark runs
:meth:`ReferenceClock.reference_op` -- a few hundred small matmuls,
elementwise ops and row reductions on a 128x32 activation, the many-small-
calls mix of the model at this size -- and times it.  The clock adds up
process CPU time outside calibration, each stretch multiplied by the scale
in force, ``scale = REFERENCE_S / mean`` of the recent reference times: a
reference second is the time one reference op takes, divided by
``REFERENCE_S``.  A change to the program moves its operations and not the
reference, so it shows in full; a drift of the machine moves both and
cancels.

The reference depends on numpy only, never on ``repro``, so no change to
the program under test can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: CPU seconds one reference op is defined to take.
REFERENCE_S = 0.005
#: Recent reference ops whose mean sets the scale.
WINDOW = 16
#: Reference CPU time spent after an operation, as a share of its CPU time.
SHARE = 0.05
#: Reference CPU time spent before the first timing.
INITIAL_S = 0.1
#: Activation rows and layer iterations of one reference op.
ROWS, ITERATIONS = 128, 60


class ReferenceClock:
    """Callable clock in reference seconds.  It stands still while
    :meth:`calibrate` runs, so calibrating inside a timed stretch adds
    nothing to it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((ROWS, 32))
        self._w1 = rng.standard_normal((32, 64)) * 0.1
        self._w2 = rng.standard_normal((64, 32)) * 0.1
        self.samples: list[float] = []
        self.scale = 1.0
        self.reading = 0.0
        self._cpu = time.process_time()
        self.reference_op()
        self.calibrate(INITIAL_S / SHARE)

    def reference_op(self) -> np.ndarray:
        x = self._x
        for _ in range(ITERATIONS):
            h = x @ self._w1
            h = h / (1.0 + np.exp(-h))
            x = x + (h @ self._w2) * 0.01
            x = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-6)
        return x

    def calibrate(self, spent_s: float) -> None:
        """Run reference ops for ``SHARE * spent_s`` CPU seconds (at least
        one) and rescale from the last :data:`WINDOW` of them."""
        self()
        budget, used = SHARE * spent_s, 0.0
        while True:
            t0 = time.process_time()
            self.reference_op()
            dt = time.process_time() - t0
            self.samples.append(dt)
            used += dt
            if used >= budget:
                break
        recent = self.samples[-WINDOW:]
        self.scale = REFERENCE_S * len(recent) / sum(recent)
        self._cpu = time.process_time()

    def calibrated(self) -> float:
        """Calibrate with one reference op, then read the clock."""
        self.calibrate(0.0)
        return self()

    def ns(self) -> int:
        """The reading in integer nanoseconds."""
        return round(self() * 1e9)

    def __call__(self) -> float:
        now = time.process_time()
        self.reading += (now - self._cpu) * self.scale
        self._cpu = now
        return self.reading
