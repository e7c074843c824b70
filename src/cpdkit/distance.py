"""Distance between changepoint configurations.

d(C1, C2) = |m - k| + (minimal assignment cost), where the assignment matches
every point of the smaller configuration to a distinct point of the larger
one at cost |tau - eta| / N with N the series length. The count term handles
the size mismatch; the assignment term measures how well the time sets align.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChangepointConfig


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise costs |time_i - time_j| / normalizer.

    Rows index the larger configuration's points, columns the smaller one's.
    """

    entries: np.ndarray
    normalizer: int

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"cost matrix must be 2-D, got shape {arr.shape}")
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise ValueError("cost entries must be finite and non-negative")
        if self.normalizer < 1:
            raise ValueError(f"normalizer must be positive, got {self.normalizer}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_times(cls, larger, smaller, normalizer: int) -> "CostMatrix":
        rows = np.asarray(larger, dtype=np.float64).reshape(-1, 1)
        cols = np.asarray(smaller, dtype=np.float64).reshape(1, -1)
        return cls(np.abs(rows - cols) / normalizer, normalizer)


@dataclass(frozen=True)
class AssignmentResult:
    """An optimal matching: (row, column) index pairs and their total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float


def min_assignment(cost: CostMatrix) -> AssignmentResult:
    """Minimum-cost matching that uses every column exactly once and every
    row at most once (rows >= columns assumed; an empty matrix gives the
    empty zero-cost assignment)."""
    m = cost.entries
    if m.size == 0:
        return AssignmentResult(pairs=(), total_cost=0.0)
    # imported here: scipy.optimize is most of the package's import time, and
    # only matching configurations needs it
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(m)
    pairs = tuple(zip((int(r) for r in rows), (int(c) for c in cols)))
    return AssignmentResult(pairs=pairs, total_cost=float(m[rows, cols].sum()))


def config_distance(c1: ChangepointConfig, c2: ChangepointConfig) -> float:
    """Distance |m - k| + minimal alignment cost between two configurations
    over the same series length."""
    if c1.series_length != c2.series_length:
        raise ValueError(
            f"configurations compare different series lengths: "
            f"{c1.series_length} vs {c2.series_length}"
        )
    n = c1.series_length
    count_gap = abs(c1.count - c2.count)
    if c1.count == 0 or c2.count == 0:
        return float(count_gap)

    larger, smaller = (c1.times, c2.times) if c1.count >= c2.count else (c2.times, c1.times)
    cost = CostMatrix.from_times(larger, smaller, n)
    result = min_assignment(cost)
    # Recompute the matched cost as an integer sum with a single final division
    # so equal-cost optima always produce the identical float.
    gaps = sum(abs(larger[i] - smaller[j]) for i, j in result.pairs)
    return count_gap + gaps / n
