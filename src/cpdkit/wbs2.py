"""WBS2 recursive data-driven interval sampling and steepest-drop selection.

Stage one of the detector ranks candidate changepoints: on each segment a
batch of sub-intervals is evaluated (all of them once the segment is small
enough, a fixed-size random draw otherwise), the strongest CUSUM wins, and
the segment is split at its argmax, recursing while at least two
observations remain. Stage two scans the ranked magnitudes for the steepest
relative drop among those above a noise-level gate and keeps the candidates
before the drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChangepointConfig, Seed, TimeSeries, check_settings, threshold_level
from .cusum import batch_max_cusum
from .wbs import sample_interval_pairs


@dataclass(frozen=True)
class CandidateEntry:
    """A per-stage winner: interval (start, end), argmax location, magnitude."""

    start: int
    end: int
    location: int
    magnitude: float

    def __post_init__(self):
        if not self.start <= self.location < self.end:
            raise ValueError(
                f"need start <= location < end, got "
                f"({self.start}, {self.location}, {self.end})"
            )
        if not (np.isfinite(self.magnitude) and self.magnitude >= 0):
            raise ValueError(f"magnitude must be finite and >= 0, got {self.magnitude}")

    @property
    def changepoint_time(self) -> int:
        """First index of the implied new segment."""
        return self.location + 1


@dataclass(frozen=True)
class SortedCandidateList:
    """Candidate entries sorted by non-increasing magnitude, distinct locations."""

    entries: tuple[CandidateEntry, ...]
    series_length: int

    def __post_init__(self):
        mags = [e.magnitude for e in self.entries]
        if any(a < b for a, b in zip(mags, mags[1:])):
            raise ValueError("candidate magnitudes must be non-increasing")
        locations = [e.location for e in self.entries]
        if len(set(locations)) != len(locations):
            raise ValueError("candidate locations must be pairwise distinct")
        if len(self.entries) > self.series_length - 1:
            raise ValueError("more candidates than admissible changepoints")

    def magnitudes(self) -> np.ndarray:
        return np.array([e.magnitude for e in self.entries], dtype=np.float64)


def wbs2_candidates(
    series: TimeSeries, m_stage: int = 100, seed: Seed = 0
) -> SortedCandidateList:
    """Rank candidate changepoints by recursive per-segment interval sampling.

    A segment [s, e] with (e-s)(e-s+1)/2 <= ``m_stage`` sub-intervals is
    evaluated exhaustively; larger segments get ``m_stage`` uniform random
    draws. The winner's argmax splits the segment and both halves recurse
    (left first, for a reproducible draw order) until length < 2.

    The topmost exhaustive segment on a path evaluates all its sub-intervals
    in one batch into square tables by (start, end) offset, with -1.0, below
    every magnitude, on the diagonal and the lower triangle. Each exhaustive
    stage in its subtree takes one row-major argmax over its own square of
    the magnitude table: the first maximum of its sub-intervals listed
    row-major. This gives the same entries as one batch per segment: an
    exhaustive subtree draws nothing, the stack finishes it before anything
    else, and an interval's result does not depend on its batch.
    """
    check_settings(m_stage=m_stage)
    rng = np.random.default_rng(seed)
    p, dust = series.centered_moments[0], series.magnitude_floor

    records: list[CandidateEntry] = []
    root_s, mag_tab = 1, np.empty((0, 0))  # the current exhaustive root's tables; none yet
    stack = [(1, len(series))]
    while stack:
        s, e = stack.pop()
        if e - s < 1:
            continue
        w = e - s + 1
        if w * (w - 1) // 2 <= m_stage:
            o = s - root_s
            if not 0 <= o <= len(mag_tab) - w:
                root_s, o = s, 0
                # the upper triangle of the w x w grid, row-major; np.triu_indices
                # gives the same arrays but is several times slower at these sizes
                rows, cols = np.nonzero(np.arange(w)[:, None] < np.arange(w))
                split_tab, mag_tab = np.zeros((w, w), dtype=np.int64), np.full((w, w), -1.0)
                split_tab[rows, cols], mag_tab[rows, cols] = batch_max_cusum(p, rows + s, cols + s)
            i, j = divmod(int(np.argmax(mag_tab[o : o + w, o : o + w])), w)
            start, end = s + i, s + j
            b, mag = int(split_tab[o + i, o + j]), mag_tab[o + i, o + j]
        else:
            starts, ends = sample_interval_pairs(rng, w, m_stage, 1)
            splits, mags = batch_max_cusum(p, starts + (s - 1), ends + (s - 1))
            k = int(np.argmax(mags))
            start, end = int(starts[k]) + s - 1, int(ends[k]) + s - 1
            b, mag = int(splits[k]), mags[k]
        mag = float(mag) if mag > dust else 0.0
        records.append(CandidateEntry(start=start, end=end, location=b, magnitude=mag))
        stack.append((b + 1, e))
        stack.append((s, b))

    ordered = sorted(records, key=lambda r: -r.magnitude)
    return SortedCandidateList(entries=tuple(ordered), series_length=len(series))


def sdll_select(
    candidates: SortedCandidateList,
    sigma_hat: float,
    lam: float = 1.3,
    floor_mult: float = 0.3,
) -> ChangepointConfig:
    """Pick the changepoint count at the steepest drop in ranked magnitudes.

    With gate zeta = lam * sqrt(2 ln T) * sigma_hat (:func:`threshold_level`):
    an empty list or a top magnitude not exceeding the gate gives the empty
    configuration. Otherwise the drop is searched over the entries above the
    low level ``floor_mult * zeta``: the kept count is the i maximizing
    m_i / m_{i+1}, with the low level standing in for the magnitude after the
    last scanned entry; ties go to the smallest count. ``floor_mult=1.0``
    searches only above the gate itself.
    """
    check_settings(sigma_hat=sigma_hat, lam=lam, floor_mult=floor_mult)
    n_obs = candidates.series_length
    zeta = threshold_level(lam, n_obs, sigma_hat)
    mags = candidates.magnitudes()
    if not (mags.size and mags[0] > zeta):
        return ChangepointConfig.empty(n_obs)

    floor = floor_mult * zeta
    below = np.nonzero(mags < floor)[0]
    i0 = int(below[0]) + 1 if below.size else len(mags) + 1

    # m_i / m_{i+1} for i < i0, with the low level after the last entry
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = mags[: i0 - 1] / np.append(mags, floor)[1:i0]
    ratios[np.isnan(ratios)] = -np.inf  # 0/0 pairs carry no drop information
    n_keep = int(np.argmax(ratios)) + 1

    times = [entry.changepoint_time for entry in candidates.entries[:n_keep]]
    return ChangepointConfig.from_times(times, n_obs)


def wbs2_sdll_detect(
    series: TimeSeries,
    m_stage: int = 100,
    lam: float = 1.3,
    seed: Seed = 0,
    floor_mult: float = 0.3,
) -> ChangepointConfig:
    """Full detector: ranked candidates, then steepest-drop selection with the
    robust noise scale."""
    # before the candidate list, the costly part
    check_settings(m_stage=m_stage, lam=lam, floor_mult=floor_mult)
    candidates = wbs2_candidates(series, m_stage, seed)
    return sdll_select(candidates, series.sigma_hat, lam, floor_mult)
