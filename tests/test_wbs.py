import math

import numpy as np
import pytest
from scipy.stats import chi2

from cpdkit import TimeSeries, binary_segmentation, gen_null, wbs_detect
from cpdkit.core import threshold_level
from cpdkit.wbs import sample_interval_pairs


def draw_pairs(n_obs, m, min_span=1, seed=0):
    """``m`` (start, end) pairs from the sampler wbs and wbs2 draw with."""
    rng = np.random.default_rng(seed)
    starts, ends = sample_interval_pairs(rng, n_obs, m, min_span)
    return list(zip(starts.tolist(), ends.tolist()))


class TestDrawIntervals:
    def test_unique_feasible_pair(self):
        intervals = draw_pairs(3, 10, min_span=2, seed=123)
        assert len(intervals) == 10
        assert set(intervals) == {(1, 3)}

    def test_determinism(self):
        assert draw_pairs(100, 5000, seed=1) == draw_pairs(100, 5000, seed=1)

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            draw_pairs(5, 10, min_span=5, seed=0)

    def test_rejects_min_span_by_its_rule(self):
        # min_span 1.5 once drew interval ends such as 7.5
        with pytest.raises(ValueError, match="^min_span must be an integer"):
            draw_pairs(10, 5, min_span=1.5)
        with pytest.raises(ValueError, match="^min_span must be at least 1"):
            draw_pairs(10, 5, min_span=0)

    def test_respects_min_span(self):
        intervals = draw_pairs(50, 2000, min_span=7, seed=9)
        assert all(e - s >= 7 for s, e in intervals)
        assert all(1 <= s < e <= 50 for s, e in intervals)

    def test_uniform_frequencies(self):
        # chi-square goodness of fit over all 4950 feasible pairs, plus a
        # 5-sigma per-cell cap (the 3-sigma cap is exceeded by ~20 of 4950
        # cells for any exactly uniform sampler, so it cannot be asserted)
        n_obs, draws = 100, 50_000
        counts = {}
        for pair in draw_pairs(n_obs, draws, min_span=1, seed=2):
            counts[pair] = counts.get(pair, 0) + 1
        cells = [(s, e) for s in range(1, n_obs) for e in range(s + 1, n_obs + 1)]
        k = len(cells)
        p = 1.0 / k
        freqs = np.array([counts.get(c, 0) / draws for c in cells])
        stat = draws * np.sum((freqs - p) ** 2 / p)
        assert stat < chi2.ppf(0.999, k - 1)
        assert np.max(np.abs(freqs - p)) < 5.0 * np.sqrt(p * (1 - p) / draws)


class TestWbsDetect:
    def test_constant_series_empty(self):
        s = TimeSeries([1.5] * 50)
        assert wbs_detect(s, seed=0).times == ()

    def test_noiseless_step(self):
        s = TimeSeries([0.0] * 50 + [5.0] * 50)
        assert wbs_detect(s, c=1.3, seed=4).times == (51,)

    def test_rejects_negative_constants(self):
        # c = -1 once gave 199 changepoints on noise; m_intervals = -5 acted as 0;
        # c = NaN once passed the sign check and found nothing
        s = gen_null(200, 1)
        for c in (-1.0, -0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="c must be non-negative"):
                wbs_detect(s, c=c)
            with pytest.raises(ValueError, match="c must be non-negative"):
                binary_segmentation(s, c=c)
        with pytest.raises(ValueError, match="m_intervals"):
            wbs_detect(s, m_intervals=-5)
        # a non-integral count once failed inside numpy with a TypeError
        for m_intervals in (2.5, True, "10"):
            with pytest.raises(ValueError, match="m_intervals must be an integer"):
                wbs_detect(s, m_intervals=m_intervals)
        # with no intervals drawn, min_span = -5 was once never checked
        for m_intervals, min_span in ((0, -5), (0, 0), (10, 0)):
            with pytest.raises(ValueError, match="min_span"):
                wbs_detect(s, m_intervals=m_intervals, min_span=min_span)
        assert threshold_level(0.0, len(s), s.sigma_hat) == 0.0

    def test_settings_are_checked_before_any_statistic(self, count_calls):
        # a bad c must fail as itself, not as mad_sigma's "need at least 3
        # observations" on this two-point series
        calls = count_calls(TimeSeries, "sigma_hat")
        s = TimeSeries([0.0, 1.0])
        for detect in (binary_segmentation, wbs_detect):
            with pytest.raises(ValueError, match="c must be non-negative"):
                detect(s, c=-1.0)
        assert calls == []

    def test_determinism(self):
        s = gen_null(200, 17)
        a = wbs_detect(s, seed=5)
        b = wbs_detect(s, seed=5)
        assert a.times == b.times

    def test_threshold_monotonicity_fixed_intervals(self):
        for trial in range(10):
            x = np.random.default_rng(100 + trial).standard_normal(120)
            x[60:] += 1.5
            s = TimeSeries(x)
            counts = [wbs_detect(s, c=c, seed=7).count for c in (0.5, 0.9, 1.3, 2.0, 3.0)]
            assert counts == sorted(counts, reverse=True)

    def test_reduces_to_binseg_without_intervals(self):
        rng = np.random.default_rng(8)
        for trial in range(15):
            x = rng.standard_normal(90)
            if trial % 2:
                x[30:60] += 2.0
            s = TimeSeries(x)
            plain = binary_segmentation(s, c=1.3)
            assert wbs_detect(s, m_intervals=0, c=1.3, seed=trial).times == plain.times

    def test_full_span_draws_reduce_to_binseg(self):
        # min_span = T-1 admits only (1, T), which never beats the root's own
        # contrast and lies inside no other segment
        n = 90
        for trial in range(6):
            series = gen_null(n, 400 + trial)
            if trial % 2:
                series = TimeSeries(series.values + np.repeat([0.0, 2.0, 0.5], 30))
            for c in (0.5, 1.3):
                plain = binary_segmentation(series, c=c)
                wild = wbs_detect(series, m_intervals=20, c=c, seed=trial, min_span=n - 1)
                assert wild.times == plain.times

    def test_detection_on_moderate_signal(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100)
        x[50:] += 3.0
        cfg = wbs_detect(TimeSeries(x), seed=11)
        assert any(abs(t - 51) <= 2 for t in cfg.times)

    def test_null_false_positive_band(self):
        # seeded replications; the full-scale run lives in the acceptance suite
        reps = 300
        fps = sum(
            wbs_detect(gen_null(100, 50_000 + i), seed=90_000 + i).count >= 1
            for i in range(reps)
        )
        assert 0.10 <= fps / reps <= 0.30
