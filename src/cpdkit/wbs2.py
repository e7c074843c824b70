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

from .core import ChangepointConfig, Seed, TimeSeries, mad_sigma
from .cusum import batch_max_cusum, magnitude_floor, prefix_sums
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


def _all_interval_pairs(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    # the upper triangle of the (e-s+1)^2 grid, row-major; np.triu_indices
    # gives the same arrays but is several times slower at these sizes
    idx = np.arange(e - s + 1)
    rows, cols = np.nonzero(idx[:, None] < idx)
    return rows + s, cols + s


def wbs2_candidates(
    series: TimeSeries, m_stage: int = 100, seed: Seed = 0
) -> SortedCandidateList:
    """Rank candidate changepoints by recursive per-segment interval sampling.

    A segment [s, e] with (e-s)(e-s+1)/2 <= ``m_stage`` sub-intervals is
    evaluated exhaustively; larger segments get ``m_stage`` uniform random
    draws. The winner's argmax splits the segment and both halves recurse
    (left first, for a reproducible draw order) until length < 2.
    """
    if m_stage < 1:
        raise ValueError(f"m_stage must be positive, got {m_stage}")
    rng = np.random.default_rng(seed)
    p = prefix_sums(series.values)
    dust = magnitude_floor(series.values)

    records: list[CandidateEntry] = []
    stack = [(1, len(series))]
    while stack:
        s, e = stack.pop()
        if e - s < 1:
            continue
        span = e - s
        if span * (span + 1) // 2 <= m_stage:
            starts, ends = _all_interval_pairs(s, e)
        else:
            starts, ends = sample_interval_pairs(rng, span + 1, m_stage, 1)
            starts = starts + (s - 1)
            ends = ends + (s - 1)
        splits, mags = batch_max_cusum(p, starts, ends)
        k = int(np.argmax(mags))
        b = int(splits[k])
        mag = float(mags[k]) if mags[k] > dust else 0.0
        records.append(
            CandidateEntry(start=int(starts[k]), end=int(ends[k]), location=b, magnitude=mag)
        )
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

    With gate zeta = lam * sqrt(2 ln T) * sigma_hat: an empty list or a top
    magnitude not exceeding the gate gives the empty configuration. Otherwise
    the drop is searched over the entries above the low level
    ``floor_mult * zeta``: the kept count is the i maximizing m_i / m_{i+1},
    with the low level standing in for the magnitude after the last scanned
    entry; ties go to the smallest count. ``floor_mult=1.0`` searches only
    above the gate itself.
    """
    if sigma_hat < 0:
        raise ValueError(f"sigma_hat must be non-negative, got {sigma_hat}")
    if not 0.0 < floor_mult <= 1.0:
        raise ValueError(f"floor_mult must be in (0, 1], got {floor_mult}")
    n_obs = candidates.series_length
    empty = ChangepointConfig.empty(n_obs)
    if not candidates.entries:
        return empty

    zeta = lam * np.sqrt(2.0 * np.log(n_obs)) * sigma_hat
    mags = candidates.magnitudes()
    if not mags[0] > zeta:
        return empty

    floor = floor_mult * zeta
    below = np.nonzero(mags < floor)[0]
    i0 = int(below[0]) + 1 if below.size else len(mags) + 1

    ratios = np.empty(i0 - 1)
    for i in range(1, i0):
        nxt = mags[i] if i < len(mags) else floor
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios[i - 1] = mags[i - 1] / nxt
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
    candidates = wbs2_candidates(series, m_stage, seed)
    return sdll_select(candidates, mad_sigma(series), lam, floor_mult)
