import math
import tracemalloc

import numpy as np
import pytest

from cpdkit import TimeSeries, cusum_stat, max_cusum
from cpdkit.cusum import batch_max_cusum
from cpdkit.wbs import sample_interval_pairs


def direct_cusum(values, s, e, b):
    """Direct-summation reference, independent of the prefix-sum path."""
    n = e - s + 1
    left = sum(values[t - 1] for t in range(s, b + 1))
    right = sum(values[t - 1] for t in range(b + 1, e + 1))
    return math.sqrt((e - b) / (n * (b - s + 1))) * left - math.sqrt(
        (b - s + 1) / (n * (e - b))
    ) * right


class TestCusumStat:
    def test_constant_series_zero(self):
        s = TimeSeries([5.0] * 8)
        for b in range(1, 8):
            assert cusum_stat(s, 1, 8, b) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        s = TimeSeries([0.0, 0.0, 1.0, 1.0])
        assert cusum_stat(s, 1, 4, 2) == pytest.approx(-1.0, rel=1e-12)

    def test_sign_antisymmetry(self):
        s = TimeSeries([1.0, 1.0, 0.0, 0.0])
        assert cusum_stat(s, 1, 4, 2) == pytest.approx(1.0, rel=1e-12)

    def test_bounds_errors(self):
        s = TimeSeries([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            cusum_stat(s, 0, 3, 1)
        with pytest.raises(ValueError):
            cusum_stat(s, 1, 4, 2)
        with pytest.raises(ValueError):
            cusum_stat(s, 1, 3, 3)

    def test_shift_invariance_of_magnitude(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        a = TimeSeries(x)
        b = TimeSeries(x + 42.0)
        for split in (3, 10, 22):
            assert abs(cusum_stat(a, 1, 30, split)) == pytest.approx(
                abs(cusum_stat(b, 1, 30, split)), abs=1e-8
            )

    def test_linear_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(25)
        a = TimeSeries(x)
        scaled = TimeSeries(3.5 * x)
        for split in (2, 12, 20):
            assert cusum_stat(scaled, 1, 25, split) == pytest.approx(
                3.5 * cusum_stat(a, 1, 25, split), rel=1e-12
            )

    def test_agrees_with_direct_summation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(10_000)
        s = TimeSeries(x)
        for (lo, hi, b) in [(1, 10_000, 5000), (17, 9_200, 313), (100, 200, 150)]:
            assert cusum_stat(s, lo, hi, b) == pytest.approx(
                direct_cusum(x, lo, hi, b), rel=1e-9
            )


class TestMaxCusum:
    def test_balanced_step_value(self):
        # midpoint step of height 1 in a window of 20: magnitude sqrt(5) at b=10
        s = TimeSeries([0.0] * 10 + [1.0] * 10)
        b, mag = max_cusum(s, 1, 20)
        assert b == 10
        assert mag == pytest.approx(math.sqrt(5.0), rel=1e-12)

    def test_constant_tie_break_smallest_b(self):
        s = TimeSeries([1.0] * 10)
        b, mag = max_cusum(s, 1, 10)
        assert b == 1
        assert mag == 0.0

    def test_length_two_interval(self):
        s = TimeSeries([0.0, 3.0, 1.0])
        b, _ = max_cusum(s, 2, 3)
        assert b == 2

    def test_degenerate_interval_error(self):
        s = TimeSeries([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            max_cusum(s, 2, 2)

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(60)
        b1, _ = max_cusum(TimeSeries(x), 1, 60)
        b2, _ = max_cusum(TimeSeries(7.0 * x), 1, 60)
        assert b1 == b2

    def test_noiseless_step_argmax_everywhere(self):
        # every step position in every interval size up to 50 is found exactly
        for n in range(4, 51, 6):
            for p in range(1, n):
                x = np.zeros(n)
                x[p:] = 2.0
                b, _ = max_cusum(TimeSeries(x), 1, n)
                assert b == p, f"n={n}, step after {p}, got {b}"


class TestBatchMaxCusum:
    def test_matches_per_interval_calls(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(200)
        s = TimeSeries(x)
        p = TimeSeries(x).centered_moments[0]
        starts = np.array([1, 5, 30, 100, 1])
        ends = np.array([200, 20, 31, 180, 2])
        bs, mags = batch_max_cusum(p, starts, ends)
        for i in range(starts.size):
            b_ref, m_ref = max_cusum(s, int(starts[i]), int(ends[i]))
            assert bs[i] == b_ref
            assert mags[i] == pytest.approx(m_ref, rel=1e-12)

    def test_empty_input(self):
        p = TimeSeries(np.zeros(5)).centered_moments[0]
        bs, mags = batch_max_cusum(p, np.empty(0), np.empty(0))
        assert bs.size == 0 and mags.size == 0


@pytest.mark.parametrize("block_min", [1, 10**12], ids=["all-blocks", "all-flat"])
@pytest.mark.parametrize("data", ["noise", "rounded", "offset"])
def test_block_and_flat_paths_match_per_interval(monkeypatch, block_min, data):
    # _BLOCK_MIN = 1 evaluates every same-span group as a block, 10**12 puts
    # every interval in the flat pass; both must equal max_cusum
    # bit for bit, ties included
    import cpdkit.cusum as cusum_mod

    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    if data == "rounded":
        x = np.round(x)
    elif data == "offset":
        x = x + 1e8
    series = TimeSeries(x)
    p = series.centered_moments[0]
    short_starts = rng.integers(1, 290, size=400)
    long_starts, long_ends = sample_interval_pairs(rng, 300, 200)
    starts = np.concatenate((short_starts, long_starts, [1, 1, 299]))
    ends = np.concatenate((short_starts + rng.integers(1, 11, size=400), long_ends, [300, 2, 300]))

    monkeypatch.setattr(cusum_mod, "_BLOCK_MIN", block_min)
    bs, mags = batch_max_cusum(p, starts, ends)
    expected = [max_cusum(series, int(s), int(e)) for s, e in zip(starts, ends)]
    assert bs.tolist() == [b for b, _ in expected]
    assert mags.tolist() == [m for _, m in expected]


def test_batch_memory_bounded_by_largest_block():
    # WBS's 5000 draws at T=3000 hold about 5M (interval, split) entries; one
    # flat evaluation of them traces over 300 MB, a same-span block about 1 MB
    x = np.random.default_rng(6).standard_normal(3000)
    p = TimeSeries(x).centered_moments[0]
    starts, ends = sample_interval_pairs(np.random.default_rng(7), 3000, 5000)
    tracemalloc.start()
    try:
        batch_max_cusum(p, starts, ends)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
