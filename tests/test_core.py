import math

import numpy as np
import pytest

from cpdkit import ChangepointConfig, TimeSeries, gen_null, gen_teeth, mad_sigma
from cpdkit.core import MAD_NORMAL_CONSTANT, segment_means


class TestTimeSeries:
    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.nan, 2.0])
        with pytest.raises(ValueError):
            TimeSeries([1.0, np.inf])

    def test_length(self):
        assert len(TimeSeries([1.0, 2.0, 3.0])) == 3

    def test_copies_its_input(self):
        # the series owns its values: the caller's array stays writable, and
        # neither it nor the base of a view can change the series or put a
        # non-finite value past the check
        x = np.zeros(10)
        series = TimeSeries(x)
        x[0] = np.nan
        assert x.flags.writeable
        base = np.arange(20.0)
        view = TimeSeries(base[::2])
        base[6] = np.nan
        for s, want in ((series, np.zeros(10)), (view, np.arange(0.0, 20.0, 2.0))):
            assert np.array_equal(s.values, want)
            assert not s.values.flags.writeable
            with pytest.raises(ValueError):
                s.values[0] = 1.0


class TestChangepointConfig:
    def test_count_matches_times(self):
        cfg = ChangepointConfig(times=(3, 7), series_length=10)
        assert cfg.count == 2

    def test_rejects_time_one(self):
        with pytest.raises(ValueError):
            ChangepointConfig(times=(1,), series_length=10)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ChangepointConfig(times=(7, 3), series_length=10)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ChangepointConfig(times=(3, 3), series_length=10)

    def test_rejects_beyond_length(self):
        with pytest.raises(ValueError):
            ChangepointConfig(times=(11,), series_length=10)

    def test_time_T_is_admissible(self):
        cfg = ChangepointConfig(times=(10,), series_length=10)
        assert cfg.segment_lengths() == [9, 1]

    def test_segment_bounds(self):
        cfg = ChangepointConfig(times=(4, 8), series_length=10)
        assert cfg.segment_bounds() == [(1, 3), (4, 7), (8, 10)]

    def test_rejects_non_integral_length(self):
        # a length of 10.5 once constructed, and config_distance of (3,)
        # against (4,) at that length returned 1/10.5
        for length in (10.5, 12.0):
            with pytest.raises(ValueError, match="^length must be an integer"):
                ChangepointConfig.empty(length)
            with pytest.raises(ValueError, match="^length must be an integer"):
                ChangepointConfig(times=(3,), series_length=length)
        with pytest.raises(ValueError, match="^length must be at least 2"):
            ChangepointConfig.empty(1)


class TestGenNull:
    def test_length_contract(self):
        assert len(gen_null(100, 1)) == 100

    def test_determinism(self):
        a = gen_null(100, 1)
        b = gen_null(100, 1)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        assert not np.array_equal(gen_null(100, 1).values, gen_null(100, 2).values)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            gen_null(1, 0)

    def test_rejects_non_integral_length(self):
        # a float length once failed inside numpy with a TypeError naming no
        # parameter
        for length in (10.0, 50.5, True):
            with pytest.raises(ValueError, match="^length must be an integer"):
                gen_null(length, 1)

    def test_law_of_large_numbers(self):
        # tolerance 4/sqrt(T) on the mean, similar scale on the variance
        s = gen_null(10_000, 7)
        assert abs(s.values.mean()) < 0.04
        assert abs(s.values.var() - 1.0) < 0.05


class TestGenTeeth:
    def test_noiseless_construction(self):
        series, truth = gen_teeth(40, period=10, amplitude=1.0, sigma=0.0, seed=0)
        assert truth.times == (11, 21, 31)
        expected = np.array([0.0] * 10 + [1.0] * 10 + [0.0] * 10 + [1.0] * 10)
        assert np.array_equal(series.values, expected)

    def test_truth_independent_of_noise(self):
        _, noiseless = gen_teeth(40, 10, 1.0, 0.0, seed=3)
        _, noisy = gen_teeth(40, 10, 1.0, 0.2, seed=3)
        assert noisy.times == noiseless.times

    def test_boundary_single_changepoint(self):
        for period in (2, 5, 13):
            _, truth = gen_teeth(2 * period, period, 1.0, 0.0, seed=1)
            assert truth.times == (period + 1,)

    def test_rejects_small_period(self):
        with pytest.raises(ValueError):
            gen_teeth(40, period=1)

    def test_rejects_non_integral_sizes(self):
        # a float length or period once failed inside numpy with a TypeError
        # naming no parameter
        with pytest.raises(ValueError, match="^length must be an integer"):
            gen_teeth(60.5)
        with pytest.raises(ValueError, match="^period must be an integer"):
            gen_teeth(60, period=10.0)

    def test_rejects_non_finite_settings(self):
        # a NaN sigma once passed the sign check and gave a noiseless series;
        # an infinite amplitude was not checked at all
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma must be non-negative and finite"):
                gen_teeth(40, 10, 1.0, sigma)
        for amplitude in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="amplitude must be finite"):
                gen_teeth(40, 10, amplitude, 0.3)
        series, _ = gen_teeth(40, 10, -2.0, 0.0)  # a negative amplitude is a valid wave
        assert series.values.min() == -2.0

    def test_determinism(self):
        a, _ = gen_teeth(60, 10, 1.0, 0.5, seed=9)
        b, _ = gen_teeth(60, 10, 1.0, 0.5, seed=9)
        assert np.array_equal(a.values, b.values)


class TestMadSigma:
    def test_constant_series(self):
        assert mad_sigma(TimeSeries([2.0] * 50)) == 0.0

    def test_alternating_differences(self):
        # X alternates 0, c, 0, c, ... so |diffs| are all exactly c
        c = 0.7
        x = TimeSeries([0.0, c] * 20)
        expected = c / (MAD_NORMAL_CONSTANT * math.sqrt(2.0))
        assert mad_sigma(x) == pytest.approx(expected, rel=1e-12)

    def test_consistency_on_noise(self):
        assert mad_sigma(gen_null(10_000, 11)) == pytest.approx(1.0, abs=0.05)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            mad_sigma(TimeSeries([1.0, 2.0]))

    def test_shift_invariance_and_scaling(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        base = mad_sigma(TimeSeries(x))
        assert mad_sigma(TimeSeries(x + 13.7)) == pytest.approx(base, rel=1e-12)
        assert mad_sigma(TimeSeries(-2.5 * x)) == pytest.approx(2.5 * base, rel=1e-12)

    def test_breakdown_under_sparse_shifts(self):
        # 9 mean shifts contaminate 9 of 99 differences; the median stays 0
        x = np.zeros(100)
        for i, t in enumerate(range(10, 100, 10)):
            x[t:] += (-1.0) ** i * 5.0
        assert mad_sigma(TimeSeries(x)) == 0.0


def test_segment_means_on_step():
    series = TimeSeries([0.0] * 5 + [4.0] * 5)
    cfg = ChangepointConfig(times=(6,), series_length=10)
    assert segment_means(series, cfg) == [0.0, 4.0]
