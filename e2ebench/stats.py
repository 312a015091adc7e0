"""Percentiles that refuse to claim more than the sample supports."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["MIN_BEYOND", "percentile", "samples_beyond"]

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q``-th percentile's
    interpolation point (numpy's default linear rule)."""
    if n <= 0:
        return 0
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def percentile(values, q: float) -> tuple[float, int]:
    """``(q-th percentile, samples beyond it)``; raises ``ValueError``
    when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    n = len(values)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need >= {MIN_BEYOND}"
        )
    return float(np.percentile(np.asarray(values, dtype=float), q)), beyond
