"""Order statistics with the sample-count rule of the benchmark: a
percentile is reported only where at least ten samples lie beyond it."""

from __future__ import annotations

import numpy as np

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_supported(samples, q: float) -> bool:
    """True when at least :data:`MIN_BEYOND` samples exceed the ``q``-th
    percentile of ``samples``."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return False
    return int((arr > np.percentile(arr, q)).sum()) >= MIN_BEYOND


def samples_for_tail(q: float) -> int:
    """Smallest sample count whose ``q``-th percentile can have
    :data:`MIN_BEYOND` samples beyond it."""
    return int(np.ceil(round(MIN_BEYOND * 100.0 / (100.0 - q), 9)))


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile; raises if the sample cannot support it."""
    arr = np.asarray(samples, dtype=np.float64)
    if q > 50 and not tail_supported(arr, q):
        raise ValueError(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                         f"have {arr.size} samples")
    if arr.size == 0:
        raise ValueError("no samples")
    return float(np.percentile(arr, q))
