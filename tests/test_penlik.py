import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cpdkit import (
    ChangepointConfig,
    GaParams,
    TimeSeries,
    ga_optimize,
    gen_null,
    gen_teeth,
    hybrid_refine,
    segment_rss_table,
    select_bic,
    select_mbic,
    wbs2_candidates,
)
from cpdkit import penlik
from cpdkit.penlik import (
    RssTable,
    bic_objective,
    default_m_max,
    evaluate_fit,
    mbic_objective,
)
from cpdkit.wbs2 import CandidateEntry, SortedCandidateList


def all_configs(n, min_seg=2, max_m=None):
    """Every admissible configuration: all segments at least min_seg long."""
    out = [()]
    positions = range(2, n + 2 - min_seg)

    def extend(prefix, last_start):
        m = len(prefix)
        if max_m is not None and m >= max_m:
            return
        for t in positions:
            if t - last_start >= min_seg and n - t + 1 >= min_seg:
                cfg = prefix + (t,)
                out.append(cfg)
                extend(cfg, t)

    extend((), 1)
    return out


def oracle_rss(values, times):
    """Segment RSS via per-segment numpy moments, independent of prefix sums."""
    bounds = [0] + [t - 1 for t in times] + [len(values)]
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = values[lo:hi]
        total += float(np.sum((seg - seg.mean()) ** 2))
    return total


def oracle_bic(values, times):
    n = len(values)
    rss = oracle_rss(values, times)
    if rss <= 0:
        return -math.inf
    return 0.5 * n * math.log(rss / n) + (2 * len(times) + 2) * math.log(n)


class TestSegmentRssTable:
    def test_m0_row(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(30)
        table = segment_rss_table(TimeSeries(x), m_max=0)
        assert table.configs[0] == ()
        assert table.rss[0] == pytest.approx(float(np.sum((x - x.mean()) ** 2)), rel=1e-12)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            x = rng.standard_normal(12)
            table = segment_rss_table(TimeSeries(x), m_max=3, min_seg=2)
            for m in range(4):
                best = min(
                    oracle_rss(x, cfg) for cfg in all_configs(12, 2, 3) if len(cfg) == m
                )
                assert table.rss[m] == pytest.approx(best, rel=1e-9)
                assert oracle_rss(x, table.configs[m]) == pytest.approx(best, rel=1e-12)

    def test_noiseless_split_row(self):
        s = TimeSeries([0.0] * 6 + [4.0] * 6)
        table = segment_rss_table(s, m_max=2)
        assert table.configs[1] == (7,)
        assert table.rss[1] == 0.0

    def test_infeasible_parameters(self):
        with pytest.raises(ValueError):
            segment_rss_table(TimeSeries(np.arange(10.0)), m_max=5, min_seg=2)
        with pytest.raises(ValueError):
            segment_rss_table(TimeSeries(np.arange(10.0)), m_max=1, min_seg=1)

    def test_rss_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            x = rng.standard_normal(60)
            table = segment_rss_table(TimeSeries(x), m_max=10)
            for m in range(10):
                assert table.rss[m + 1] <= table.rss[m] + 1e-9 * (1 + table.rss[0])

    def test_min_seg_respected(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(40)
        table = segment_rss_table(TimeSeries(x), m_max=8, min_seg=3)
        for m in range(9):
            assert all(l >= 3 for l in table.config(m).segment_lengths())


class TestSelectBic:
    def test_step_with_faint_noise(self):
        rng = np.random.default_rng(4)
        x = np.array([0.0] * 20 + [5.0] * 20) + 0.01 * rng.standard_normal(40)
        fit = select_bic(TimeSeries(x))
        assert fit.config.times == (21,)
        # direct objective comparison m=0 vs m=1 backs the selection
        assert oracle_bic(x, (21,)) < oracle_bic(x, ())

    def test_constant_series_degenerate(self):
        fit = select_bic(TimeSeries([2.0] * 30))
        assert fit.config.times == ()
        assert fit.degenerate
        assert fit.rss == 0.0

    def test_exact_over_enumeration(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(12, 15))
            x = rng.standard_normal(n)
            fit = select_bic(TimeSeries(x))
            best = min(oracle_bic(x, cfg) for cfg in all_configs(n, 2))
            assert oracle_bic(x, fit.config.times) == best

    def test_objective_reproducible_from_config(self):
        for i in range(20):
            s = gen_null(80, 700 + i)
            fit = select_bic(s)
            again = evaluate_fit(s, fit.config, "bic")
            assert again.objective == pytest.approx(fit.objective, abs=1e-9)
            assert again.rss == pytest.approx(fit.rss, rel=1e-9)

    def test_null_false_positive_band(self):
        fps = sum(select_bic(gen_null(100, 10_000 + i)).config.count >= 1 for i in range(300))
        assert fps / 300 <= 0.02

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            select_bic(TimeSeries([0.0, 1.0, 2.0, 3.0, 4.0]))


class TestSelectMbic:
    def test_constant_series(self):
        fit = select_mbic(TimeSeries([1.0] * 40))
        assert fit.config.times == ()
        assert fit.degenerate

    def test_null_false_positive_bands(self):
        fps100 = sum(
            select_mbic(gen_null(100, 10_000 + i)).config.count >= 1 for i in range(300)
        )
        assert 0.005 <= fps100 / 300 <= 0.09
        fps500 = sum(
            select_mbic(gen_null(500, 20_000 + i)).config.count >= 1 for i in range(300)
        )
        assert fps500 / 300 <= 0.03

    def test_objective_reproducible_from_config(self):
        for i in range(20):
            s = gen_null(80, 800 + i)
            fit = select_mbic(s)
            again = evaluate_fit(s, fit.config, "mbic")
            assert again.objective == pytest.approx(fit.objective, abs=1e-9)

    def test_mbic_segment_term(self):
        # hand evaluation of the objective pieces
        rss, n = 50.0, 100
        obj = mbic_objective(rss, n, [40, 60])
        expected = (
            0.5 * n * math.log(rss / n)
            + 1.5 * math.log(n)
            + 0.5 * (math.log(0.4) + math.log(0.6))
        )
        assert obj == pytest.approx(expected, rel=1e-12)
        assert bic_objective(rss, n, 1) == pytest.approx(
            0.5 * n * math.log(rss / n) + 4 * math.log(n), rel=1e-12
        )


class TestGaOptimize:
    def test_never_beats_dp_and_usually_matches(self):
        matches = 0
        for i in range(100):
            s = gen_null(60, 3000 + i)
            ga = ga_optimize(s, "bic", seed=4000 + i)
            dp = select_bic(s)
            assert ga.objective >= dp.objective - 1e-9 * (1 + abs(dp.objective))
            matches += abs(ga.objective - dp.objective) <= 1e-9 * (1 + abs(dp.objective))
        assert matches >= 90

    def test_constant_series_empty(self):
        fit = ga_optimize(TimeSeries([3.0] * 30), "bic", seed=1)
        assert fit.config.times == ()
        assert fit.degenerate

    def test_no_search_degenerates_to_null_model(self):
        params = GaParams(population=1, generations=0)
        s = gen_null(40, 9)
        fit = ga_optimize(s, "bic", ga_params=params, seed=2)
        assert fit.config.times == ()

    def test_finds_strong_changepoint(self):
        x = np.array([0.0] * 30 + [6.0] * 30) + 0.1 * np.random.default_rng(10).standard_normal(60)
        fit = ga_optimize(TimeSeries(x), "bic", seed=3)
        assert fit.config.times == (31,)

    def test_unknown_penalty(self):
        with pytest.raises(ValueError):
            ga_optimize(gen_null(30, 1), "aic", seed=0)


def _candidates_from_times(times, n):
    entries = tuple(
        CandidateEntry(start=1, end=n, location=t - 1, magnitude=float(len(times) - i))
        for i, t in enumerate(times)
    )
    return SortedCandidateList(entries=entries, series_length=n)


class TestHybridRefine:
    def test_empty_candidates(self):
        empty = SortedCandidateList(entries=(), series_length=60)
        fit = hybrid_refine(gen_null(60, 11), empty, "bic")
        assert fit.config.times == ()

    def test_keeps_true_changepoints(self):
        series, truth = gen_teeth(120, 20, 2.0, 0.1, seed=21)
        cands = _candidates_from_times(truth.times, 120)
        fit = hybrid_refine(series, cands, "bic")
        assert fit.config.times == truth.times
        # enumeration over all subsets confirms the optimum
        best = min(
            (evaluate_fit(series, ChangepointConfig.from_times(sub, 120), "bic").objective)
            for r in range(len(truth.times) + 1)
            for sub in itertools.combinations(truth.times, r)
        )
        assert fit.objective == pytest.approx(best, abs=1e-9)

    def test_drops_spurious_extras_under_mbic(self):
        kept_clean = 0
        for i in range(100):
            series, truth = gen_teeth(120, 20, 2.0, 0.15, seed=500 + i)
            rng = np.random.default_rng(600 + i)
            spurious = []
            for t in truth.times:
                extra = t + int(rng.integers(4, 9))
                if extra <= 120 and extra not in truth.times:
                    spurious.append(extra)
            pool = sorted(set(truth.times) | set(spurious[:3]))
            cands = _candidates_from_times(tuple(pool), 120)
            fit = hybrid_refine(series, cands, "mbic")
            kept_clean += fit.config.times == truth.times
        assert kept_clean >= 90

    def test_uses_ga_beyond_exhaustive_limit(self):
        series, truth = gen_teeth(200, 40, 3.0, 0.1, seed=77)
        pool = sorted(set(truth.times) | set(range(3, 200, 9)))
        assert len(pool) > 20
        cands = _candidates_from_times(tuple(pool), 200)
        fit = hybrid_refine(series, cands, "bic", seed=5)
        assert set(truth.times) <= set(fit.config.times)

    def test_refines_wbs2_candidates(self):
        # top-ranked candidates from the sampler, exhaustively refined
        series, truth = gen_teeth(160, 20, 1.5, 0.1, seed=33)
        cands = wbs2_candidates(series, seed=34)
        top = SortedCandidateList(entries=cands.entries[:12], series_length=160)
        fit = hybrid_refine(series, top, "bic", seed=35)
        assert set(truth.times) <= set(fit.config.times)


def _dense_rss_table(series, m_max, min_seg):
    """Reference segment-neighborhood DP over the whole (T+1)^2 cost matrix."""
    n = len(series)
    s, ss = penlik._prefix_moments(series.values)
    t = np.arange(n + 1)
    lengths = t[None, :] - t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (ss[None, :] - ss[:, None]) - (s[None, :] - s[:, None]) ** 2 / lengths
    cost = np.maximum(cost, 0.0)
    cost[lengths < min_seg] = np.inf
    f = cost[0].copy()
    rss, backs = [float(f[n])], []
    for _ in range(m_max):
        w = f[:, None] + cost
        f = np.min(w, axis=0)
        backs.append(np.argmin(w, axis=0))
        rss.append(float(f[n]))
    configs = [()]
    for m in range(1, m_max + 1):
        end, times = n, []
        for back in reversed(backs[:m]):
            end = int(back[end])
            times.append(end + 1)
        configs.append(tuple(sorted(times)))
    return RssTable(rss=tuple(rss), configs=tuple(configs), series_length=n, min_seg=min_seg)


def test_blockwise_dp_matches_dense_reference(monkeypatch):
    # every cost-block size, from one column to the whole matrix, gives the
    # dense DP's table exactly; the step series makes zero-cost ties
    for n, min_seg in itertools.product((23, 61, 150), (2, 3)):
        m_max = default_m_max(n, min_seg)
        q = n // 4
        step = TimeSeries(np.repeat([0.0, 3.0, 1.0, 3.0], [q, q, q, n - 3 * q]))
        for series in (gen_null(n, n), step):
            expected = _dense_rss_table(series, m_max, min_seg)
            for block in (1, 7, n + 1, 10 * n):
                monkeypatch.setattr(penlik, "_COST_BLOCK", block)
                assert segment_rss_table(series, m_max, min_seg) == expected


def test_dp_memory_bounded_by_cost_block():
    # working memory is a few (T+1) x _COST_BLOCK float64 blocks, not the
    # dense (T+1)^2 cost matrix (32 MB at T=2000)
    series = gen_null(2000, 2)
    block_bytes = (len(series) + 1) * penlik._COST_BLOCK * 8
    tracemalloc.start()
    try:
        segment_rss_table(series, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * block_bytes
    assert peak < 8 * (len(series) + 1) ** 2 / 2


def test_large_offset_leaves_penalized_fit_unchanged():
    # moments of the raw series cancel catastrophically at a 1e8 offset
    base = gen_null(300, 7)
    shifted = TimeSeries(base.values + 1e8)
    for name, select in (("bic", select_bic), ("mbic", select_mbic)):
        fit, shifted_fit = select(base), select(shifted)
        assert shifted_fit.config == fit.config
        assert shifted_fit.rss == pytest.approx(fit.rss, rel=1e-9)
        assert evaluate_fit(shifted, fit.config, name).rss == pytest.approx(
            evaluate_fit(base, fit.config, name).rss, rel=1e-9
        )
