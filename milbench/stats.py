"""Summary statistics and the memory probe the benchmark reports with."""

from __future__ import annotations

import gc
import statistics
import tracemalloc

import numpy as np

# Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def tail_percentile(values) -> tuple[float | None, float | None, int]:
    """(percentile, value, sample count) for the highest percentile in
    ``PERCENTILES`` that has at least ``MIN_BEYOND`` samples beyond it.

    Returns ``(None, None, n)`` when even the median has too few samples.
    """
    n = len(values)
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    if best is None:
        return None, None, n
    return best, percentile(values, best), n


def held_bytes(build) -> int:
    """Bytes allocated by ``build()`` and still held by its result.

    Runs under ``tracemalloc``, to which numpy reports its buffers. The
    result is dropped once counted.
    """
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held = build()
        gc.collect()
        now = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del held
    return now - base


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 when there was no work to divide by."""
    return numerator / denominator if denominator else 0.0
