import math
from unittest import mock

import numpy as np
import pytest

from cpdkit import (
    CandidateEntry,
    SortedCandidateList,
    TimeSeries,
    gen_null,
    gen_teeth,
    max_cusum,
    sdll_select,
    wbs2_candidates,
    wbs2_sdll_detect,
)
from cpdkit import wbs2
from cpdkit.core import mad_sigma, threshold_level
from cpdkit.cusum import batch_max_cusum
from cpdkit.wbs import sample_interval_pairs


def make_candidates(magnitudes, n_obs=50):
    entries = tuple(
        CandidateEntry(start=1, end=n_obs, location=2 + i, magnitude=m)
        for i, m in enumerate(magnitudes)
    )
    return SortedCandidateList(entries=entries, series_length=n_obs)


def reference_candidates(series, m_stage, seed):
    """wbs2_candidates with one batch_max_cusum call at every stage and the
    exhaustive pairs listed row-major by a comprehension."""
    rng = np.random.default_rng(seed)
    p = series.centered_moments[0]
    dust = series.magnitude_floor
    records = []
    stack = [(1, len(series))]
    while stack:
        s, e = stack.pop()
        if e - s < 1:
            continue
        span = e - s
        if span * (span + 1) // 2 <= m_stage:
            pairs = [(a, c) for a in range(s, e) for c in range(a + 1, e + 1)]
            starts, ends = (np.array(col) for col in zip(*pairs))
        else:
            starts, ends = sample_interval_pairs(rng, span + 1, m_stage, 1)
            starts, ends = starts + (s - 1), ends + (s - 1)
        splits, mags = batch_max_cusum(p, starts, ends)
        k = int(np.argmax(mags))
        b = int(splits[k])
        mag = float(mags[k]) if mags[k] > dust else 0.0
        records.append((int(starts[k]), int(ends[k]), b, mag))
        stack.append((b + 1, e))
        stack.append((s, b))
    return sorted(records, key=lambda r: -r[3])


def gate_sigma(zeta, lam, n_obs):
    """sigma_hat that makes the gate equal zeta."""
    return zeta / (lam * math.sqrt(2.0 * math.log(n_obs)))


class TestSortedCandidateList:
    def test_rejects_increasing_magnitudes(self):
        with pytest.raises(ValueError):
            make_candidates([1.0, 2.0])

    def test_rejects_duplicate_locations(self):
        entries = (
            CandidateEntry(start=1, end=50, location=5, magnitude=2.0),
            CandidateEntry(start=1, end=50, location=5, magnitude=1.0),
        )
        with pytest.raises(ValueError):
            SortedCandidateList(entries=entries, series_length=50)


class TestWbs2Candidates:
    def test_length_two_series(self):
        cands = wbs2_candidates(TimeSeries([0.0, 1.0]), seed=0)
        assert len(cands.entries) == 1
        assert cands.entries[0].location == 1

    def test_determinism(self):
        s = gen_null(150, 3)
        a = wbs2_candidates(s, m_stage=100, seed=9)
        b = wbs2_candidates(s, m_stage=100, seed=9)
        assert a.entries == b.entries

    def test_top_entry_matches_global_argmax_on_step(self):
        x = np.zeros(100)
        x[50:] += 3.0  # first new-regime index is 51
        s = TimeSeries(x)
        cands = wbs2_candidates(s, seed=12)
        top = cands.entries[0]
        b_global, _ = max_cusum(s, 1, 100)
        assert b_global == 50
        assert top.location == 50
        assert top.changepoint_time == 51

    def test_distinct_locations_and_size_bound(self):
        rng = np.random.default_rng(21)
        s = TimeSeries(rng.standard_normal(80))
        cands = wbs2_candidates(s, seed=2)
        locations = [e.location for e in cands.entries]
        assert len(set(locations)) == len(locations)
        assert len(cands.entries) <= 79

    def test_magnitudes_sorted(self):
        s = gen_null(120, 5)
        mags = wbs2_candidates(s, seed=6).magnitudes()
        assert all(a >= b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("m_stage", [1, 3, 10, 90, 91, 92, 100, 1000])
    @pytest.mark.parametrize("n_obs", [2, 3, 17, 300, 1000])
    def test_matches_one_batch_per_stage(self, m_stage, n_obs):
        # exhaustive descendants read their ancestor's batch; the entries must
        # equal a recursion that evaluates every stage on its own. A width of
        # 14 has exactly 91 sub-intervals; a constant series ties every pair at
        # magnitude 0; in the last series (1, 6) and (2, 5) tie at the top and
        # the row-major first, (1, 6), must win
        noise = np.random.default_rng(n_obs + m_stage).standard_normal(n_obs)
        tie = np.array([-1.0, -2.0, -1.0, -1.0, 1.0, 0.0])
        for x in (noise, np.round(noise), noise + 1e8, np.full(n_obs, 2.5), tie):
            got = wbs2_candidates(TimeSeries(x), m_stage, seed=m_stage)
            entries = [(c.start, c.end, c.location, c.magnitude) for c in got.entries]
            assert entries == reference_candidates(TimeSeries(x), m_stage, m_stage)


class TestSdllSelect:
    def test_all_below_gate_empty(self):
        cands = make_candidates([0.5, 0.4])
        cfg = sdll_select(cands, sigma_hat=gate_sigma(1.0, 1.3, 50), lam=1.3)
        assert cfg.times == ()

    def test_hand_example(self):
        # magnitudes [10, 9.5, 0.5, 0.4] with gate 1: drop ratios 1.053 and 19
        cands = make_candidates([10.0, 9.5, 0.5, 0.4])
        sigma = gate_sigma(1.0, 1.3, 50)
        assert sdll_select(cands, sigma, lam=1.3, floor_mult=1.0).count == 2
        assert sdll_select(cands, sigma, lam=1.3, floor_mult=0.3).count == 2

    def test_single_candidate_above_gate(self):
        cands = make_candidates([10.0])
        cfg = sdll_select(cands, sigma_hat=gate_sigma(1.0, 1.3, 50), lam=1.3)
        assert cfg.count == 1
        assert cfg.times == (cands.entries[0].changepoint_time,)

    def test_empty_candidates(self):
        empty = SortedCandidateList(entries=(), series_length=50)
        assert sdll_select(empty, sigma_hat=1.0).times == ()

    def test_gate_is_the_universal_threshold(self):
        # at these lengths ln T differs by one ulp between math and numpy, and
        # a gate written with numpy kept a candidate exactly at the threshold
        for n_obs in (9170, 19143):
            series = gen_null(n_obs, 3)
            zeta = threshold_level(1.3, n_obs, series.sigma_hat)
            for magnitude, kept in ((zeta, ()), (np.nextafter(zeta, np.inf), (4001,))):
                entry = CandidateEntry(start=1, end=n_obs, location=4000, magnitude=magnitude)
                cands = SortedCandidateList(entries=(entry,), series_length=n_obs)
                assert sdll_select(cands, mad_sigma(series), lam=1.3).times == kept

    def test_rejects_negative_lambda(self):
        # lam = -1 once put the gate below zero: 198 changepoints on noise;
        # lam = NaN once passed the sign check and kept nothing
        for lam in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="lam"):
                sdll_select(make_candidates([10.0, 1.0]), sigma_hat=1.0, lam=lam)
            with pytest.raises(ValueError, match="lam"):
                wbs2_sdll_detect(gen_null(200, 1), lam=lam)
        for sigma_hat in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma_hat must be non-negative"):
                sdll_select(make_candidates([10.0, 1.0]), sigma_hat=sigma_hat)

    def test_detect_checks_constants_before_ranking(self):
        # lam = NaN was rejected only after the whole candidate list was built
        with mock.patch.object(wbs2, "wbs2_candidates", side_effect=AssertionError("ranked")):
            for lam, floor_mult in ((math.nan, 0.3), (-1.0, 0.3), (1.3, 0.0), (1.3, math.nan)):
                with pytest.raises(ValueError, match="lam|floor_mult"):
                    wbs2_sdll_detect(gen_null(200, 1), lam=lam, floor_mult=floor_mult)

    def test_zero_gate_zero_over_zero_and_trailing_floor(self):
        # sigma_hat 0 puts gate and low level at 0: the ratios are 3/1, 1/0,
        # 0/0 and, with the low level as the last divisor, 0/0 again; the 0/0
        # pairs carry no drop, so the count is 2
        cands = make_candidates([3.0, 1.0, 0.0, 0.0])
        assert sdll_select(cands, sigma_hat=0.0).count == 2
        # the trailing divisor alone: 4/2, 2/2, then 2 over the low level 0
        assert sdll_select(make_candidates([4.0, 2.0, 2.0]), sigma_hat=0.0).count == 3

    def test_matches_per_entry_ratio_loop(self):
        # the ratios are one array division; the per-entry loop it replaced
        # is the reference, zero gates and zero magnitudes included
        rng = np.random.default_rng(33)
        for i in range(300):
            mags = np.sort(rng.exponential(2.0, size=int(rng.integers(1, 12))))[::-1]
            if i % 3 == 0:
                mags = np.round(mags)
            sigma = float(rng.choice([0.0, 0.05, 0.3, 1.0]))
            floor_mult = float(rng.choice([0.1, 0.3, 1.0]))
            zeta = 1.3 * math.sqrt(2 * math.log(50)) * sigma
            expected = 0
            if mags[0] > zeta:
                floor = floor_mult * zeta
                ratios = []
                for k in range(len(mags)):
                    if mags[k] < floor:
                        break
                    nxt = mags[k + 1] if k + 1 < len(mags) else floor
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = mags[k] / nxt
                    ratios.append(-np.inf if np.isnan(ratio) else ratio)
                expected = int(np.argmax(ratios)) + 1
            got = sdll_select(make_candidates(mags.tolist()), sigma, 1.3, floor_mult)
            assert got.count == expected

    def test_count_bounded_by_first_below_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            mags = np.sort(rng.exponential(2.0, size=12))[::-1]
            cands = make_candidates(mags.tolist())
            lam, floor_mult = 1.3, 0.3
            sigma = float(rng.uniform(0.05, 2.0))
            cfg = sdll_select(cands, sigma, lam, floor_mult)
            zeta = lam * math.sqrt(2 * math.log(50)) * sigma
            below = np.nonzero(mags < floor_mult * zeta)[0]
            i0 = int(below[0]) + 1 if below.size else len(mags) + 1
            assert 0 <= cfg.count < i0 <= len(mags) + 1
            if mags[0] > zeta:
                assert cfg.count >= 1
            else:
                assert cfg.count == 0

    def test_scale_consistency(self):
        # joint positive scaling of magnitudes and sigma leaves the count fixed
        rng = np.random.default_rng(32)
        for _ in range(50):
            mags = np.sort(rng.exponential(2.0, size=8))[::-1]
            sigma = float(rng.uniform(0.1, 1.0))
            base = sdll_select(make_candidates(mags.tolist()), sigma).count
            for c in (0.25, 4.0, 117.3):
                scaled = sdll_select(
                    make_candidates((c * mags).tolist()), c * sigma
                ).count
                assert scaled == base


class TestWbs2SdllDetect:
    def test_constant_series_empty(self):
        assert wbs2_sdll_detect(TimeSeries([7.0] * 40), seed=1).times == ()

    def test_composition_determinism(self):
        s = gen_null(200, 77)
        assert wbs2_sdll_detect(s, seed=3).times == wbs2_sdll_detect(s, seed=3).times

    def test_matches_manual_composition(self):
        s = gen_null(150, 78)
        direct = wbs2_sdll_detect(s, m_stage=100, lam=1.3, seed=4)
        manual = sdll_select(wbs2_candidates(s, 100, seed=4), mad_sigma(s), 1.3)
        assert direct.times == manual.times

    def test_teeth_recovery_high_snr(self):
        hits = 0
        for rep in range(200):
            series, truth = gen_teeth(200, 20, 1.0, 0.1, seed=1000 + rep)
            est = wbs2_sdll_detect(series, seed=2000 + rep)
            hits += est.times == truth.times
        assert hits >= 190  # 95% of 200

    def test_null_false_positive_and_distance_band(self):
        # seeded (full scale in acceptance): band 0.08-0.30 on FP and
        # 0.3-2.5 on mean distance-to-empty
        from cpdkit import ChangepointConfig, config_distance

        reps = 300
        fires = 0
        dist = 0.0
        empty = ChangepointConfig.empty(100)
        for i in range(reps):
            est = wbs2_sdll_detect(gen_null(100, 50_000 + i), seed=70_000 + i)
            fires += est.count >= 1
            dist += config_distance(est, empty)
        assert 0.08 <= fires / reps <= 0.30
        assert 0.3 <= dist / reps <= 2.5
