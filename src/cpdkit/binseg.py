"""Classical binary segmentation: greedy recursive CUSUM splitting."""

from __future__ import annotations

from collections import deque

import numpy as np

from .core import ChangepointConfig, TimeSeries, check_settings, threshold_level
from .cusum import max_cusum


def split_recursively(
    series: TimeSeries, threshold: float, min_len: int = 2, intervals=None
) -> ChangepointConfig:
    """The recursion of binary segmentation and WBS, at cutoff max(threshold,
    magnitude floor) and ``min_len`` >= 2. ``intervals`` is an optional table
    (starts, ends, splits, magnitudes) of maximal CUSUMs; a segment's strongest
    fully contained interval, the first in table order among equals, replaces
    the segment's own contrast if strictly larger."""
    cutoff = max(threshold, series.magnitude_floor)
    found: list[int] = []
    segments = deque([(1, len(series))])
    while segments:
        s, e = segments.popleft()
        if e - s + 1 < min_len:
            continue
        b, magnitude = max_cusum(series, s, e)
        if intervals is not None:
            starts, ends, splits, mags = intervals
            inside = np.nonzero((starts >= s) & (ends <= e))[0]
            if inside.size:
                k = inside[int(np.argmax(mags[inside]))]
                if mags[k] > magnitude:
                    b, magnitude = int(splits[k]), float(mags[k])
        if magnitude > cutoff:
            found.append(b + 1)
            segments.append((s, b))
            segments.append((b + 1, e))
    return ChangepointConfig.from_times(found, len(series))


def binary_segmentation(series: TimeSeries, min_len: int = 2, c: float = 1.3) -> ChangepointConfig:
    """Detect changepoints by recursively splitting at the maximal CUSUM.

    On each segment the best split is recorded when its contrast magnitude
    strictly exceeds the threshold c * sqrt(2 ln T) * sigma_hat; recursion
    continues on both halves and stops on segments shorter than ``min_len``
    or with no split above the threshold.
    """
    check_settings(min_len=min_len, c=c)
    return split_recursively(series, threshold_level(c, len(series), series.sigma_hat), min_len)
