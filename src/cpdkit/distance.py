"""Distance between changepoint configurations.

d(C1, C2) = |m - k| + (minimal assignment cost), where the assignment matches
every point of the smaller configuration to a distinct point of the larger
one at cost |tau - eta| / N with N the series length. The count term handles
the size mismatch; the assignment term measures how well the time sets align.
"""

from __future__ import annotations

import numpy as np

from .core import ChangepointConfig


def config_distance(c1: ChangepointConfig, c2: ChangepointConfig) -> float:
    """Distance |m - k| + minimal alignment cost between two configurations
    over the same series length."""
    if c1.series_length != c2.series_length:
        raise ValueError(
            f"configurations compare different series lengths: "
            f"{c1.series_length} vs {c2.series_length}"
        )
    small, large = sorted((c1.times, c2.times), key=len)
    count_gap = len(large) - len(small)
    if not small:
        return float(count_gap)

    # Some optimal matching never crosses: for a1 < a2 and b1 < b2 on a line,
    # |a1 - b1| + |a2 - b2| <= |a1 - b2| + |a2 - b1|, so uncrossing two pairs
    # never raises the cost. Point i of `small` then takes a slot in
    # large[i : i + w], and best[j] is the least integer gap sum of points
    # 0..i with point i at slot i + j or earlier; one final division.
    large = np.asarray(large, dtype=np.int64)
    w = len(large) - len(small) + 1
    best = np.minimum.accumulate(np.abs(small[0] - large[:w]))
    for i in range(1, len(small)):
        best = np.minimum.accumulate(best + np.abs(small[i] - large[i:i + w]))
    return count_gap + int(best[-1]) / c1.series_length
