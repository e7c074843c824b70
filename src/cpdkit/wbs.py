"""Wild binary segmentation: random intervals drawn up front, recursive
threshold-based selection of the strongest contained CUSUM."""

from __future__ import annotations

import numpy as np

from .binseg import split_recursively
from .core import ChangepointConfig, Seed, TimeSeries, check_settings, threshold_level
from .cusum import batch_max_cusum


def sample_interval_pairs(
    rng: np.random.Generator, n_obs: int, n_draws: int, min_span: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (s, e) pairs uniformly over {1 <= s < e <= n_obs, e - s >= min_span}.

    Sampling is by exact index inversion over the triangular pair count, so
    every feasible pair has identical probability.
    """
    check_settings(min_span=min_span)
    max_start = n_obs - min_span
    if max_start < 1:
        raise ValueError(
            f"no feasible intervals for n_obs={n_obs}, min_span={min_span}"
        )
    # pairs with start s: n_obs - s - min_span + 1, for s = 1..max_start
    per_start = np.arange(max_start, 0, -1, dtype=np.int64)
    cum = np.cumsum(per_start)
    u = rng.integers(0, cum[-1], size=n_draws)
    s_idx = np.searchsorted(cum, u, side="right")
    starts = s_idx + 1
    offset = u - np.concatenate(([0], cum[:-1]))[s_idx]
    ends = starts + min_span + offset
    return starts, ends


def wbs_detect(
    series: TimeSeries,
    m_intervals: int = 5000,
    c: float = 1.3,
    seed: Seed = 0,
    min_span: int = 1,
) -> ChangepointConfig:
    """Wild binary segmentation with threshold c * sqrt(2 ln T) * sigma_hat.

    The maximal CUSUM of each random interval is computed once; binary
    segmentation's recursion then lets the strongest interval inside each
    segment compete with the segment itself. With ``m_intervals=0`` this is
    plain binary segmentation at the same threshold.
    """
    check_settings(m_intervals=m_intervals, min_span=min_span, c=c)
    threshold = threshold_level(c, len(series), series.sigma_hat)
    intervals = None
    if m_intervals > 0:
        rng = np.random.default_rng(seed)
        starts, ends = sample_interval_pairs(rng, len(series), m_intervals, min_span)
        intervals = (starts, ends, *batch_max_cusum(series.centered_moments[0], starts, ends))
    return split_recursively(series, threshold, intervals=intervals)
