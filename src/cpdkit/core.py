"""Core domain types, synthetic signal generators, and the robust noise scale.

Time indices are 1-based throughout the package: a series of length T is
observed at times 1..T, and a changepoint time tau marks the *first* index of
a new mean segment, so tau ranges over {2, ..., T} and time 1 is never a
changepoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Scaling that makes the median absolute deviation consistent for the normal
# standard deviation (0.6745 ~ the 0.75 normal quantile), and the sqrt(2)
# correction for working on first differences.
MAD_NORMAL_CONSTANT = 0.6745
_MAD_DENOM = MAD_NORMAL_CONSTANT * math.sqrt(2.0)


@dataclass(frozen=True)
class TimeSeries:
    """An ordered, finite, real-valued series of length T >= 2.

    ``values`` is stored as a read-only float64 copy of the input, so the
    caller's array stays writable and later writes to it do not reach the
    series. The statistics detectors read are computed on first use and kept.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"series must be one-dimensional, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError(f"series length must be at least 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    @cached_property
    def prefix_sums(self) -> np.ndarray:
        """P[i] = sum of the first i values, so times s..e sum to P[e] - P[s-1]."""
        return _prefix_sums(self.values)

    @cached_property
    def centered_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Prefix sums and sums of squares of the centered series (centering keeps ss - s^2/n
        from cancelling at large offsets); ValueError where an RSS could overflow or vanish."""
        with np.errstate(over="ignore", invalid="ignore"):
            centered = self.values - self.values.mean()
            s, ss = _prefix_sums(centered), _prefix_sums(centered * centered)
            # T * ss bounds every squared segment sum (s[t] - s[u])^2 an RSS forms
            if not np.isfinite(ss[-1] * len(self)) or (ss[-1] == 0 and centered.any()):
                raise ValueError(
                    "a segment RSS needs deviations from the series mean between about "
                    f"1e-150 and {1e154 / len(self):.0e} in magnitude at T={len(self)}")
        return s, ss

    @cached_property
    def sigma_hat(self) -> float:
        """The robust noise scale :func:`mad_sigma`."""
        return mad_sigma(self)

    @cached_property
    def magnitude_floor(self) -> float:
        """Contrast below which a magnitude is rounding residue: an exact fit gives about
        max|x| * sqrt(T) * eps, not 0, and noiseless data must not trigger on that."""
        scale = float(np.max(np.abs(self.values)))
        return 64.0 * np.finfo(np.float64).eps * math.sqrt(self.values.size) * scale

    # the tables penlik.segment_rss_table built for this series, by (m_max, min_seg)
    _rss_tables = cached_property(lambda self: {})


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))


@dataclass(frozen=True)
class ChangepointConfig:
    """A changepoint configuration: strictly increasing times in {2..T}.

    Each time is the first index of a new segment; the count m is implied by
    the times.
    """

    times: tuple[int, ...]
    series_length: int

    def __post_init__(self):
        times = tuple(int(t) for t in self.times)
        check_settings(length=self.series_length)
        for prev, cur in zip((1,) + times, times):
            if cur <= prev:
                raise ValueError(
                    f"changepoint times must be strictly increasing and >= 2, got {times}"
                )
        if times and times[-1] > self.series_length:
            raise ValueError(
                f"changepoint times must lie in [2, {self.series_length}], got {times}"
            )
        object.__setattr__(self, "times", times)

    @classmethod
    def empty(cls, series_length: int) -> "ChangepointConfig":
        return cls(times=(), series_length=series_length)

    @classmethod
    def from_times(cls, times, series_length: int) -> "ChangepointConfig":
        return cls(times=tuple(sorted(int(t) for t in times)), series_length=series_length)

    @property
    def count(self) -> int:
        return len(self.times)

    def segment_bounds(self) -> list[tuple[int, int]]:
        """Inclusive 1-based (start, end) bounds of the m+1 segments."""
        starts = (1,) + self.times
        ends = tuple(t - 1 for t in self.times) + (self.series_length,)
        return list(zip(starts, ends))

    def segment_lengths(self) -> list[int]:
        return [e - s + 1 for s, e in self.segment_bounds()]


# Seeds are plain Python/NumPy 64-bit integers; every generator builds its own
# ``numpy.random.Generator`` so identical (parameters, seed) pairs give
# bit-identical output.
Seed = int


def gen_null(length: int, seed: Seed) -> TimeSeries:
    """Generate ``length`` independent standard normal observations."""
    check_settings(length=length)
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.standard_normal(length))


def check_teeth(length: int, period: int, amplitude: float, sigma: float) -> None:
    """Raise ValueError unless :func:`gen_teeth` accepts these settings."""
    check_settings(period=period, length=length, amplitude=amplitude, sigma=sigma)
    if length < 2 * period:
        raise ValueError(f"length must be at least 2*period={2 * period}, got {length}")


def gen_teeth(
    length: int,
    period: int = 20,
    amplitude: float = 1.0,
    sigma: float = 0.3,
    seed: Seed = 0,
) -> tuple[TimeSeries, ChangepointConfig]:
    """Generate a square-wave mean signal plus Gaussian noise.

    The mean alternates between 0 and ``amplitude`` every ``period``
    observations. Returns the noisy series together with the true
    configuration, one changepoint at each index where the mean changes.
    """
    check_teeth(length, period, amplitude, sigma)
    t = np.arange(length)
    mean = amplitude * ((t // period) % 2).astype(np.float64)
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(length) if sigma > 0 else np.zeros(length)
    times = range(period + 1, length + 1, period)
    truth = ChangepointConfig.from_times(times, length)
    return TimeSeries(mean + noise), truth


def mad_sigma(series: TimeSeries) -> float:
    """Robust noise-scale estimate from median absolute first differences.

    Insensitive to mean shifts at sparse locations: shifts only contaminate
    one difference each, and the median ignores a sub-half fraction of
    contaminated differences.
    """
    if len(series) < 3:
        raise ValueError(f"need at least 3 observations, got {len(series)}")
    diffs = np.abs(np.diff(series.values))
    return float(np.median(diffs) / _MAD_DENOM)


def threshold_level(c: float, n_obs: int, sigma_hat: float) -> float:
    """The noise level c * sqrt(2 ln T) * sigma_hat: the threshold of binary
    segmentation and WBS and the gate of steepest-drop selection."""
    return c * math.sqrt(2.0 * math.log(n_obs)) * sigma_hat


def _non_negative_finite(value) -> bool:
    return 0 <= value < math.inf


# The one rule of each detector, search, generator and study setting, by the
# name every signature gives it. An integer is the least value of an integer
# setting (an int or a numpy integer, not a bool); a pair is a real setting's
# test and the message a value failing it raises.
SETTING_RULES = {
    "m_intervals": 0,
    "min_span": 1,
    "m_stage": 1,
    "min_len": 2,
    "min_seg": 2,
    "m_max": 0,
    "population": 1,
    "generations": 0,
    "length": 2,
    "period": 2,
    "n_reps": 1,
    "n_jobs": 1,
    "amplitude": (math.isfinite, "amplitude must be finite"),
    "sigma": (_non_negative_finite, "sigma must be non-negative and finite"),
    "c": (_non_negative_finite, "threshold constant c must be non-negative and finite"),
    "lam": (_non_negative_finite, "lam must be non-negative and finite"),
    "sigma_hat": (_non_negative_finite, "sigma_hat must be non-negative and finite"),
    "floor_mult": (lambda v: 0.0 < v <= 1.0, "floor_mult must be in (0, 1]"),
    # rejects NaN; an infinite threshold finds nothing
    "threshold": (lambda v: v is None or v >= 0, "threshold must be non-negative"),
}


def check_settings(**settings) -> None:
    """Raise ValueError, naming the setting, unless each keyword keeps its
    rule in :data:`SETTING_RULES`; checked in keyword order. ``c`` is not
    checked where a ``threshold`` is given, which replaces it."""
    for name, value in settings.items():
        rule = SETTING_RULES[name]
        if name == "c" and settings.get("threshold") is not None:
            continue
        if isinstance(rule, tuple):
            test, message = rule
            if not test(value):
                raise ValueError(f"{message}, got {value}")
        elif isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        elif value < rule:
            bound = "non-negative" if rule == 0 else f"at least {rule}"
            raise ValueError(f"{name} must be {bound}, got {value}")


def universal_threshold(series: TimeSeries, c: float = 1.3) -> float:
    """Detection threshold :func:`threshold_level` at sigma_hat = mad_sigma."""
    check_settings(c=c)
    return threshold_level(c, len(series), series.sigma_hat)


def segment_means(series: TimeSeries, config: ChangepointConfig) -> list[float]:
    """Per-segment sample means under a configuration."""
    if config.series_length != len(series):
        raise ValueError(
            f"configuration is for length {config.series_length}, series has {len(series)}"
        )
    return [float(series.values[s - 1 : e].mean()) for s, e in config.segment_bounds()]
