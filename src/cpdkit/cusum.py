"""CUSUM contrast statistic over subsegments.

For a segment [s, e] (1-based, inclusive) of length n = e - s + 1 and a split
b with s <= b < e, the statistic is

    sqrt((e-b) / (n (b-s+1))) * sum(X[s..b]) - sqrt((b-s+1) / (n (e-b))) * sum(X[b+1..e])

Its square equals the residual-sum-of-squares reduction from fitting one mean
on [s, b] and another on [b+1, e] instead of a single mean on [s, e], so the
split maximizing the absolute statistic is the single best changepoint of the
segment.

Cost model of :func:`batch_max_cusum`: time is proportional to the number of
(interval, split) entries it evaluates, and memory to its largest same-span
block (rows x span entries), not to the batch; the flat pass holds fewer than
``_BLOCK_MIN`` entries per span. WBS2 evaluates each topmost exhaustive
segment's sub-intervals in one batch and reuses the results for that
segment's exhaustive descendants.
"""

from __future__ import annotations

import numpy as np

from .core import TimeSeries


def _check_interval(n_obs: int, s: int, e: int) -> None:
    if not (1 <= s < e <= n_obs):
        raise ValueError(f"need 1 <= s < e <= {n_obs}, got s={s}, e={e}")


def cusum_stat(series: TimeSeries, s: int, e: int, b: int) -> float:
    """CUSUM contrast of splitting [s, e] after time b."""
    _check_interval(len(series), s, e)
    if not s <= b < e:
        raise ValueError(f"split must satisfy s <= b < e, got s={s}, b={b}, e={e}")
    return float(_contrast(series.centered_moments[0], s, e - s + 1, np.array([b - s + 1]))[0])


def _contrast(p: np.ndarray, s, n, j) -> np.ndarray:
    """Contrast of splitting the n observations starting at time s after the
    first j of them (split b = s + j - 1); the arguments broadcast."""
    # weighted mean-difference form of the two-term statistic: algebraically
    # identical, but exact zero for segments with equal sample means
    at_split = p[s + j - 1]
    right_n = n - j
    left_mean = (at_split - p[s - 1]) / j
    right_mean = (p[s + n - 1] - at_split) / right_n
    return np.sqrt(j * right_n / n) * (left_mean - right_mean)


def max_cusum(series: TimeSeries, s: int, e: int) -> tuple[int, float]:
    """Split b* in [s, e-1] maximizing the absolute contrast, and its magnitude.

    Ties are broken toward the smallest b.
    """
    _check_interval(len(series), s, e)
    mags = np.abs(_contrast(series.centered_moments[0], s, e - s + 1, np.arange(1, e - s + 1)))
    idx = int(np.argmax(mags))
    return s + idx, float(mags[idx])


# a same-span group of at least this many (interval, split) entries is
# evaluated as one rows x span block; smaller groups share one flat pass
_BLOCK_MIN = 256


def batch_max_cusum(
    p: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Maximizing split and magnitude for many intervals at once.

    ``starts``/``ends`` are 1-based with ends > starts. Intervals are grouped
    by span; each group of at least ``_BLOCK_MIN`` entries is one 2-D block
    over a single row of weights, and the rest share one flattened pass.
    Either way an interval's result is the one :func:`max_cusum` gives,
    smallest-b tie-break included.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = np.asarray(ends, dtype=np.int64) - starts + 1
    if n.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if np.any(n < 2):
        raise ValueError("every interval needs end - start >= 1")
    if int(n.sum()) - n.size < _BLOCK_MIN:
        return _flat_max_cusum(p, starts, n)

    splits = np.empty(n.size, dtype=np.int64)
    mags = np.empty(n.size, dtype=np.float64)
    order = np.argsort(n, kind="stable")
    spans = n[order]
    lo = np.concatenate(([0], np.flatnonzero(np.diff(spans)) + 1))
    hi = np.append(lo[1:], n.size)
    is_block = (hi - lo) * (spans[lo] - 1) >= _BLOCK_MIN
    for a, z in zip(lo[is_block], hi[is_block]):
        rows = order[a:z]
        span = int(spans[a])
        block = np.abs(_contrast(p, starts[rows, None], span, np.arange(1, span)))
        first = np.argmax(block, axis=1)  # smallest b attaining the row max
        splits[rows] = starts[rows] + first
        mags[rows] = block[np.arange(rows.size), first]
    rows = order[np.repeat(~is_block, hi - lo)]
    if rows.size:
        splits[rows], mags[rows] = _flat_max_cusum(p, starts[rows], n[rows])
    return splits, mags


def _flat_max_cusum(
    p: np.ndarray, starts: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # every split of every interval in one flat array, reduced per interval
    counts = n - 1
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
    total = int(counts.sum())
    idx = np.arange(total)
    j = idx - np.repeat(offsets - 1, counts)
    mags = np.abs(_contrast(p, np.repeat(starts, counts), np.repeat(n, counts), j))
    best = np.maximum.reduceat(mags, offsets)
    # first flat index attaining the per-interval max == smallest b
    hit = np.where(mags == np.repeat(best, counts), idx, total)
    first = np.minimum.reduceat(hit, offsets)
    return starts + (first - offsets), best
