"""Invariances the detectors hold exactly, pinned on teeth series.

Negating a series negates its prefix sums and centered moments and leaves
its median absolute deviations and every |CUSUM contrast| unchanged, all
without rounding, so every detector and both penalized searches return the
same changepoints. Scaling by a power of two is exact too, so the CUSUM
detectors, whose statistics and thresholds both scale with the noise scale,
return the same changepoints. Shifts and other scales round, so for them
the CUSUM detectors are pinned within the documented limits: shifts up to
1e8 and scales from 1e-100 to 1e6. BIC and mBIC are pinned under scaling by
2**k, |k| <= 8: the segment RSS scale by exactly 4**k, and only their log
terms may round differently. They are pinned too under shifts up to 1e8 and
scales from 1e-100 to 1e100: their moments are taken on the centered series,
and their zero-RSS rule is relative. The limit is the range of the centered
moments, which raise ValueError beyond it.

Reversing a series in time mirrors every split: the first b observations
become the last b, so a CUSUM split b on [1, T] becomes T - b and a
changepoint tau becomes T + 2 - tau. The prefix sums are summed in the other
order and round differently, so the mirrored contrasts agree only up to
rounding. WBS draws other intervals on the reversed series and is not pinned.
"""

import numpy as np
import pytest

from cpdkit import (
    GaParams,
    TimeSeries,
    binary_segmentation,
    cusum_stat,
    ga_optimize,
    gen_teeth,
    hybrid_refine,
    max_cusum,
    wbs2_candidates,
)
from cpdkit.bench import VALID_METHODS, run_method

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CUSUM_METHODS = ("binseg", "wbs", "wbs2-sdll")


@st.composite
def teeth_series(draw):
    length = draw(st.integers(20, 200))
    period = draw(st.sampled_from((5, 10)))
    amplitude = draw(st.sampled_from((0.0, 0.5, 1.0, 2.0)))
    sigma = draw(st.floats(0.1, 1.0))
    series, _ = gen_teeth(length, period, amplitude, sigma, seed=draw(st.integers(0, 2**16)))
    return series, draw(st.integers(0, 2**16))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series())
def test_negation_leaves_changepoints_unchanged(case):
    series, seed = case
    negated = TimeSeries(-series.values)
    for method in VALID_METHODS:
        assert run_method(method, negated, seed) == run_method(method, series, seed), method
    candidates = wbs2_candidates(series, seed=seed)
    assert wbs2_candidates(negated, seed=seed) == candidates
    for name in ("bic", "mbic"):
        params = GaParams(population=10, generations=10)
        assert (ga_optimize(negated, name, params, seed).config
                == ga_optimize(series, name, params, seed).config)
        assert (hybrid_refine(negated, candidates, name).config
                == hybrid_refine(series, candidates, name).config)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series(), st.integers(-8, 8))
def test_power_of_two_scaling_leaves_cusum_changepoints_unchanged(case, k):
    series, seed = case
    scaled = TimeSeries(series.values * 2.0**k)
    for method in ("binseg", "wbs", "wbs2-sdll"):
        assert run_method(method, scaled, seed) == run_method(method, series, seed), method


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series())
def test_translation_leaves_cusum_changepoints_unchanged(case):
    series, seed = case
    expected = {method: run_method(method, series, seed) for method in CUSUM_METHODS}
    for shift in (1.0, 1e3, 1e6, 1e8):
        shifted = TimeSeries(series.values + shift)
        for method in CUSUM_METHODS:
            assert run_method(method, shifted, seed) == expected[method], (method, shift)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series())
def test_scaling_leaves_cusum_changepoints_unchanged(case):
    series, seed = case
    expected = {method: run_method(method, series, seed) for method in CUSUM_METHODS}
    for scale in (3.0, 0.1, 10.0, 1e-6, 1e6, 1e-13, 1e-15, 1e-100):
        scaled = TimeSeries(series.values * scale)
        for method in CUSUM_METHODS:
            assert run_method(method, scaled, seed) == expected[method], (method, scale)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series(), st.integers(-8, 8))
def test_power_of_two_scaling_leaves_penalized_changepoints_unchanged(case, k):
    series, _ = case
    scaled = TimeSeries(series.values * 2.0**k)
    for method in ("bic", "mbic"):
        assert run_method(method, scaled, 0) == run_method(method, series, 0), method


@hypothesis.settings(derandomize=True, max_examples=50, deadline=None)
@hypothesis.given(teeth_series())
def test_translation_and_scaling_leave_penalized_changepoints_unchanged(case):
    series, _ = case
    expected = {method: run_method(method, series, 0) for method in ("bic", "mbic")}
    moved = {f"+{shift}": series.values + shift for shift in (3.7, -1e3, 1e6, 1e8)}
    moved |= {f"*{scale}": series.values * scale
              for scale in (3.0, 0.1, 10.0, 1e-6, 1e6, 1e-100, 1e100)}
    for change, values in moved.items():
        for method in ("bic", "mbic"):
            assert run_method(method, TimeSeries(values), 0) == expected[method], (method, change)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(teeth_series())
def test_time_reversal_mirrors_cusum_splits(case):
    series, _ = case
    n = len(series)
    reversed_series = TimeSeries(series.values[::-1])
    # the top magnitude must lead the runner-up by far more than the
    # rounding of contrasts formed from prefix sums in the other order
    second, top = np.sort(np.abs([cusum_stat(series, 1, n, b) for b in range(1, n)]))[-2:]
    hypothesis.assume(top - second > 1e-9 * top)
    b, _ = max_cusum(series, 1, n)
    assert max_cusum(reversed_series, 1, n)[0] == n - b
    mirrored = tuple(sorted(n + 2 - tau for tau in binary_segmentation(series).times))
    assert binary_segmentation(reversed_series).times == mirrored
