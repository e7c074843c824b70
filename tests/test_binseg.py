import math
from collections import deque

import numpy as np
import pytest

from cpdkit import (
    TimeSeries,
    binary_segmentation,
    gen_null,
    gen_teeth,
    max_cusum,
    wbs2_sdll_detect,
    wbs_detect,
)
from cpdkit.core import threshold_level
from cpdkit.cusum import batch_max_cusum
from cpdkit.binseg import split_recursively
from cpdkit.wbs import sample_interval_pairs


def reference_binseg(series, threshold, min_len):
    """Binary segmentation's own deque loop, before it shared one recursion
    with WBS."""
    cutoff = max(threshold, series.magnitude_floor)
    found = []
    segments = deque([(1, len(series))])
    while segments:
        s, e = segments.popleft()
        if e - s + 1 < min_len or e - s < 1:
            continue
        b, magnitude = max_cusum(series, s, e)
        if magnitude > cutoff:
            found.append(b + 1)
            segments.append((s, b))
            segments.append((b + 1, e))
    return tuple(sorted(found))


def reference_wbs(series, m_intervals, c, seed, min_span):
    """WBS's own deque loop, before it shared one recursion with binary
    segmentation."""
    n_obs = len(series)
    threshold = max(threshold_level(c, n_obs, series.sigma_hat), series.magnitude_floor)
    p = series.centered_moments[0]
    if m_intervals > 0:
        rng = np.random.default_rng(seed)
        starts, ends = sample_interval_pairs(rng, n_obs, m_intervals, min_span)
        splits, mags = batch_max_cusum(p, starts, ends)
    else:
        starts = ends = splits = np.empty(0, dtype=np.int64)
        mags = np.empty(0, dtype=np.float64)
    found = []
    segments = deque([(1, n_obs)])
    while segments:
        s, e = segments.popleft()
        if e - s < 1:
            continue
        best_b, best_mag = max_cusum(series, s, e)
        inside = np.nonzero((starts >= s) & (ends <= e))[0]
        if inside.size:
            k = inside[int(np.argmax(mags[inside]))]
            if mags[k] > best_mag:
                best_b, best_mag = int(splits[k]), float(mags[k])
        if best_mag > threshold:
            found.append(best_b + 1)
            segments.append((s, best_b))
            segments.append((best_b + 1, e))
    return tuple(sorted(found))


def reference_series(kind):
    n = 150
    if kind == "noise":
        return gen_null(n, 21)
    if kind == "rounded":  # most first differences tie, and mad_sigma is 0
        return TimeSeries(np.round(0.4 * gen_null(n, 22).values))
    teeth = gen_teeth(n, 15, 1.0, 0.4, seed=3)[0].values
    return TimeSeries(teeth + (1e8 if kind == "offset" else 0.0))


@pytest.mark.parametrize("kind", ["noise", "teeth", "rounded", "offset"])
def test_one_recursion_matches_both_reference_loops(kind):
    series = reference_series(kind)
    n = len(series)
    # thresholds equal to attained magnitudes decide the strict comparison
    root = max_cusum(series, 1, n)[1]
    half = max_cusum(series, 1, n // 2)[1]
    for min_len in (2, 5):
        for c in (0.0, 0.5, 1.3):
            expected = reference_binseg(series, threshold_level(c, n, series.sigma_hat), min_len)
            assert binary_segmentation(series, min_len=min_len, c=c).times == expected
        for threshold in (0.0, 1.0, 3.0, root, half, math.inf):
            expected = reference_binseg(series, threshold, min_len)
            got = split_recursively(series, threshold, min_len)
            assert got.times == expected, (min_len, threshold)
    for c in (0.0, 0.5, 1.3):
        for m_intervals in (0, 1, 50, 5000):
            for min_span in (1, 7):
                expected = reference_wbs(series, m_intervals, c, 4, min_span)
                got = wbs_detect(series, m_intervals, c, seed=4, min_span=min_span)
                assert got.times == expected, (c, m_intervals, min_span)


def test_contained_interval_must_beat_the_segment_strictly():
    # on (1, 6) the interval (4, 6) ties the segment's own contrast, at split
    # 5 against 3; the segment's split wins, and (4, 6) is too short to split
    series = TimeSeries([0.0, 0.0, 0.0, 1.0, 2.0, 0.0])
    p = series.centered_moments[0]
    starts, ends = np.array([4]), np.array([6])
    splits, mags = batch_max_cusum(p, starts, ends)
    assert (3, 5) == (max_cusum(series, 1, 6)[0], splits[0])
    assert max_cusum(series, 1, 6)[1] == mags[0]
    table = (starts, ends, splits, mags)
    assert split_recursively(series, 1.0, min_len=4, intervals=table).times == (4,)


def test_offset_cancels_from_contrast_and_floor():
    # the contrast is a difference of segment means, so an offset cancels;
    # the dust floor scales with the deviations from the mean, not with |x|
    step = np.array([0.0] * 30 + [1.0] * 30)
    series, shifted = TimeSeries(step), TimeSeries(step + 1e14)
    assert shifted.magnitude_floor == series.magnitude_floor
    # within a factor of 2 of a floor scaled by max|x|
    max_abs_floor = 64 * np.finfo(np.float64).eps * math.sqrt(60) * np.max(np.abs(step))
    assert max_abs_floor / 2 <= series.magnitude_floor <= max_abs_floor
    for detect in (binary_segmentation, wbs_detect, wbs2_sdll_detect):
        assert detect(shifted).times == (31,), detect.__name__


def test_cusum_detectors_name_their_usable_range():
    # a 3-sigma step scaled by 1e306 overflows its centered prefix sums, and
    # on a 1e306 offset the mean overflows: binseg and WBS returned () and
    # WBS2-SDLL raised CandidateEntry's "need start <= location < end"
    noise = np.random.default_rng(0).standard_normal(200)
    step = np.r_[np.zeros(100), 3 * np.ones(100)] + noise
    jump = np.r_[np.zeros(100), 1e300 * np.ones(100)]
    message = r"finite mean and deviations from it below about 9e\+305 at T=200"
    for detect in (binary_segmentation, wbs_detect, wbs2_sdll_detect):
        for values in (1e306 * step, 1e306 + jump):
            with pytest.raises(ValueError, match=message):
                detect(TimeSeries(values))
        for values in (1e305 * step, 1e305 + jump):
            assert detect(TimeSeries(values)).times == (101,), detect.__name__


class TestBinarySegmentation:
    def test_constant_series_empty(self):
        s = TimeSeries([2.0] * 40)
        assert split_recursively(s, 1.0).times == ()

    def test_infinite_threshold_empty(self):
        s = TimeSeries(np.random.default_rng(0).standard_normal(100))
        assert split_recursively(s, math.inf).times == ()

    def test_two_step_staircase(self):
        s = TimeSeries([0.0] * 10 + [3.0] * 10 + [6.0] * 10)
        cfg = split_recursively(s, 1.0)
        assert cfg.times == (11, 21)
        # cross-check: recursing by hand with max_cusum lands on the true breaks
        b1, m1 = max_cusum(s, 1, 30)
        assert m1 > 1.0 and b1 in (10, 20)

    def test_noiseless_step_default_threshold(self):
        s = TimeSeries([0.0] * 50 + [5.0] * 50)
        assert binary_segmentation(s).times == (51,)

    def test_output_is_valid_config(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            s = TimeSeries(rng.standard_normal(80))
            cfg = split_recursively(s, 0.5)
            assert list(cfg.times) == sorted(set(cfg.times))
            assert all(2 <= t <= 80 for t in cfg.times)

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            s = TimeSeries(rng.standard_normal(120) + (rng.random() > 0.5) * 2.0)
            counts = [
                split_recursively(s, thr).count
                for thr in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
            ]
            assert counts == sorted(counts, reverse=True)

    def test_idempotence_on_detected_segments(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            x = rng.standard_normal(150)
            x[40:] += 3.0
            x[90:] -= 2.0
            s = TimeSeries(x)
            threshold = 2.0
            cfg = split_recursively(s, threshold)
            for start, end in cfg.segment_bounds():
                if end - start + 1 < 2:
                    continue
                sub = TimeSeries(x[start - 1 : end])
                assert split_recursively(sub, threshold).times == ()

    def test_default_threshold_on_noise_is_quiet(self):
        # seeded: default c=1.3 keeps pure noise mostly clean
        fps = sum(
            binary_segmentation(gen_null(100, 600 + i)).count >= 1 for i in range(100)
        )
        assert fps <= 30

    def test_min_len_stops_recursion_on_short_segments(self):
        # noiseless staircase, one step every 4 observations
        s = TimeSeries(np.repeat(np.arange(10.0), 4))
        steps = set(range(5, 41, 4))
        for min_len in (2, 5, 8):  # every segment shorter than min_len is flat
            assert set(binary_segmentation(s, min_len=min_len).times) == steps
        for min_len in (9, 17, 33):
            cfg = binary_segmentation(s, min_len=min_len)
            assert set(cfg.times) < steps
            # a segment still holding a step was too short to split
            for start, end in cfg.segment_bounds():
                if steps & set(range(start + 1, end + 1)):
                    assert end - start + 1 < min_len, (min_len, start, end)
        assert binary_segmentation(s, min_len=41).times == ()

    def test_rejects_short_min_len(self):
        with pytest.raises(ValueError, match="min_len"):
            binary_segmentation(gen_null(20, 1), min_len=1)
