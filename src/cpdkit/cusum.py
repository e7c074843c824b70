"""CUSUM contrast statistic over subsegments.

For a segment [s, e] (1-based, inclusive) of length n = e - s + 1 and a split
b with s <= b < e, the statistic is

    sqrt((e-b) / (n (b-s+1))) * sum(X[s..b]) - sqrt((b-s+1) / (n (e-b))) * sum(X[b+1..e])

Its square equals the residual-sum-of-squares reduction from fitting one mean
on [s, b] and another on [b+1, e] instead of a single mean on [s, e], so the
split maximizing the absolute statistic is the single best changepoint of the
segment.
"""

from __future__ import annotations

import math

import numpy as np

from .core import TimeSeries


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Prefix sums P with P[i] = sum of the first i values, so the segment sum
    over times s..e is P[e] - P[s-1]."""
    return np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))


def magnitude_floor(values: np.ndarray) -> float:
    """Contrast level below which a magnitude is rounding residue, not signal.

    An exactly fitted segment evaluates to ~ scale * sqrt(len) * eps instead
    of zero; detectors compare magnitudes against this floor so noiseless data
    (threshold 0) does not trigger on dust.
    """
    scale = max(1.0, float(np.max(np.abs(values))))
    return 64.0 * np.finfo(np.float64).eps * math.sqrt(values.size) * scale


def _check_interval(n_obs: int, s: int, e: int) -> None:
    if not (1 <= s < e <= n_obs):
        raise ValueError(f"need 1 <= s < e <= {n_obs}, got s={s}, e={e}")


def cusum_stat(series: TimeSeries, s: int, e: int, b: int) -> float:
    """CUSUM contrast of splitting [s, e] after time b."""
    _check_interval(len(series), s, e)
    if not s <= b < e:
        raise ValueError(f"split must satisfy s <= b < e, got s={s}, b={b}, e={e}")
    p = prefix_sums(series.values)
    return float(_contrast(p, s, e, np.array([b]))[0])


def _contrast(p: np.ndarray, s: int, e: int, b: np.ndarray) -> np.ndarray:
    # weighted mean-difference form of the two-term statistic: algebraically
    # identical, but exact zero for segments with equal sample means
    n = e - s + 1
    left_n = b - s + 1
    right_n = e - b
    left_mean = (p[b] - p[s - 1]) / left_n
    right_mean = (p[e] - p[b]) / right_n
    return np.sqrt(left_n * right_n / n) * (left_mean - right_mean)


def max_cusum(series: TimeSeries, s: int, e: int) -> tuple[int, float]:
    """Split b* in [s, e-1] maximizing the absolute contrast, and its magnitude.

    Ties are broken toward the smallest b.
    """
    _check_interval(len(series), s, e)
    p = prefix_sums(series.values)
    return max_cusum_from_sums(p, s, e)


def max_cusum_from_sums(p: np.ndarray, s: int, e: int) -> tuple[int, float]:
    """As :func:`max_cusum`, reusing precomputed prefix sums."""
    if e - s < 1:
        raise ValueError(f"interval must contain at least one split, got s={s}, e={e}")
    b = np.arange(s, e)
    mags = np.abs(_contrast(p, s, e, b))
    idx = int(np.argmax(mags))
    return s + idx, float(mags[idx])


# cap on flattened (interval, split) entries evaluated at once; keeps peak
# memory bounded for long series with many intervals
_BATCH_FLAT_LIMIT = 4_000_000


def batch_max_cusum(
    p: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximizing split and magnitude for many intervals at once.

    ``starts``/``ends`` are 1-based with ends > starts. One flattened contrast
    evaluation covers every admissible split of every interval; per-interval
    argmaxes keep the smallest-b tie-break of :func:`max_cusum`.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - starts
    if counts.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError("every interval needs end - start >= 1")

    if int(counts.sum()) > _BATCH_FLAT_LIMIT:
        cuts = [0]
        running = 0
        for i, c in enumerate(counts):
            running += int(c)
            if running > _BATCH_FLAT_LIMIT and cuts[-1] < i:
                cuts.append(i)
                running = int(c)
        cuts.append(counts.size)
        parts = [
            batch_max_cusum(p, starts[lo:hi], ends[lo:hi])
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ]
        return (
            np.concatenate([bs for bs, _ in parts]),
            np.concatenate([ms for _, ms in parts]),
        )

    offsets = np.concatenate(([0], np.cumsum(counts)))
    total = int(offsets[-1])
    idx = np.arange(total)
    seg = np.repeat(np.arange(counts.size), counts)
    b = starts[seg] + (idx - offsets[:-1][seg])

    n = (ends - starts + 1)[seg]
    left_n = b - starts[seg] + 1
    right_n = ends[seg] - b
    left_mean = (p[b] - p[starts[seg] - 1]) / left_n
    right_mean = (p[ends[seg]] - p[b]) / right_n
    mags = np.abs(np.sqrt(left_n * right_n / n) * (left_mean - right_mean))

    best = np.maximum.reduceat(mags, offsets[:-1])
    # first flat index attaining the per-interval max == smallest b
    hit = np.where(mags == best[seg], idx, total)
    first = np.minimum.reduceat(hit, offsets[:-1])
    return b[first], best
