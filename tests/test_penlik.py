import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

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
from cpdkit.penlik import RssTable, default_m_max
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
        # a non-integral size once failed inside numpy with a TypeError
        for kwargs in ({"m_max": 2.5}, {"m_max": True}, {"m_max": -1}, {"min_seg": 2.0}):
            name = next(iter(kwargs))
            with pytest.raises(ValueError, match=f"^{name} must be"):
                segment_rss_table(TimeSeries(np.arange(10.0)), **{"m_max": 1, **kwargs})

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
            again = penlik._Objective(s, "bic").fit(fit.config.times)
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
            again = penlik._Objective(s, "mbic").fit(fit.config.times)
            assert again.objective == pytest.approx(fit.objective, abs=1e-9)

    def test_mbic_segment_term(self):
        # hand evaluation of the objective pieces
        rss, n = 50.0, 100
        obj = penlik._Objective(gen_null(n, 0), "mbic").score(rss, [40, 60])
        expected = (
            0.5 * n * math.log(rss / n)
            + 1.5 * math.log(n)
            + 0.5 * (math.log(0.4) + math.log(0.6))
        )
        assert obj == pytest.approx(expected, rel=1e-12)
        assert penlik._Objective(gen_null(n, 0), "bic").score(rss, [40, 60]) == pytest.approx(
            0.5 * n * math.log(rss / n) + 4 * math.log(n), rel=1e-12
        )


def _exact_oracle(series, penalty_name):
    """The exact optimum over every configuration: the subset search of
    hybrid_refine with every time 2..T as a candidate."""
    n = len(series)
    return hybrid_refine(series, _candidates_from_times(tuple(range(2, n + 1)), n), penalty_name)


class TestGaOptimize:
    def test_never_beats_dp_and_usually_matches(self):
        # the exact oracle equals the DP under BIC, whose penalty depends on
        # the count alone; under mBIC the DP's per-count approximation and
        # the GA may only score at or above it
        matches = 0
        for i in range(100):
            s = gen_null(60, 3000 + i)
            ga = ga_optimize(s, "bic", seed=4000 + i)
            dp = select_bic(s)
            assert _exact_oracle(s, "bic").objective == pytest.approx(dp.objective, rel=1e-9)
            assert ga.objective >= dp.objective - 1e-9 * (1 + abs(dp.objective))
            matches += abs(ga.objective - dp.objective) <= 1e-9 * (1 + abs(dp.objective))
            if i % 5 == 0:  # ten null and ten teeth series under mBIC
                if i % 10 == 5:
                    s, _ = gen_teeth(100, 20, 1.0, 0.5, seed=i)
                exact = _exact_oracle(s, "mbic").objective
                assert select_mbic(s).objective >= exact
                assert ga_optimize(s, "mbic", seed=5000 + i).objective >= exact
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
    def test_rejects_other_series_length(self):
        # a mismatched length was evaluated silently; out-of-range candidate
        # times were dropped as infeasible subsets
        series = gen_null(60, 1)
        with pytest.raises(ValueError, match="length 100"):
            hybrid_refine(series, _candidates_from_times((30, 80), 100), "bic")

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
            penlik._Objective(series, "bic").fit(sub).objective
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

    def test_exact_beyond_twenty_candidates(self):
        # the pool holds the exact optimum over every configuration, so the
        # best subset of the pool must be it
        series, truth = gen_teeth(200, 40, 3.0, 0.1, seed=77)
        pool = sorted(set(truth.times) | set(range(3, 200, 9)))
        assert len(pool) > 20
        cands = _candidates_from_times(tuple(pool), 200)
        fit = hybrid_refine(series, cands, "bic", seed=5)
        assert fit == _exact_oracle(series, "bic")
        assert fit.config == truth

    def test_global_minimum_of_forty_wbs2_candidates(self):
        # a genetic search over these 40 candidates returned m=4 at objective
        # -176.928; the exact optimum has as many changepoints as the truth
        series, truth = gen_teeth(500, 25, 1.0, 0.5, seed=3)
        ranked = wbs2_candidates(series, seed=0)
        top = SortedCandidateList(entries=ranked.entries[:40], series_length=500)
        fit = hybrid_refine(series, top, "mbic")
        assert fit.config.count == truth.count == 19
        assert fit.config.times == (
            26, 51, 76, 101, 125, 151, 175, 202, 224, 251,
            276, 299, 327, 351, 376, 401, 426, 451, 476,
        )
        assert fit.objective == pytest.approx(-217.013, abs=5e-4)

    def test_refines_wbs2_candidates(self):
        # top-ranked candidates from the sampler, exhaustively refined
        series, truth = gen_teeth(160, 20, 1.5, 0.1, seed=33)
        cands = wbs2_candidates(series, seed=34)
        top = SortedCandidateList(entries=cands.entries[:12], series_length=160)
        fit = hybrid_refine(series, top, "bic", seed=35)
        assert set(truth.times) <= set(fit.config.times)


def _dense_levels(series, m_max, min_seg):
    """Reference segment-neighborhood DP over the whole (T+1)^2 cost matrix:
    cost[u, t], every level f[k, t] and its back pointers backs[k - 1][t]."""
    n = len(series)
    s, ss = series.centered_moments
    t = np.arange(n + 1)
    lengths = t[None, :] - t[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (ss[None, :] - ss[:, None]) - (s[None, :] - s[:, None]) ** 2 / lengths
    cost = np.maximum(cost, 0.0)
    cost[lengths < min_seg] = np.inf
    f, backs = [cost[0].copy()], []
    for _ in range(m_max):
        w = f[-1][:, None] + cost
        f.append(np.min(w, axis=0))
        backs.append(np.argmin(w, axis=0))
    return cost, np.array(f), backs


def _dense_rss_table(series, m_max, min_seg):
    """The RssTable of the dense reference DP."""
    n = len(series)
    _, f, backs = _dense_levels(series, m_max, min_seg)
    rss = f[:, n].tolist()
    configs = [()]
    for m in range(1, m_max + 1):
        end, times = n, []
        for back in reversed(backs[:m]):
            end = int(back[end])
            times.append(end + 1)
        configs.append(tuple(sorted(times)))
    return RssTable(rss=tuple(rss), configs=tuple(configs), series_length=n, min_seg=min_seg)


def _tie_prone_series(n):
    """Noise, then series whose DP levels tie (steps with zero-cost
    segments, rounded noise, a constant), then noise at a 1e8 offset."""
    q = n // 4
    yield gen_null(n, n)
    yield TimeSeries(np.repeat([0.0, 3.0, 1.0, 3.0], [q, q, q, n - 3 * q]))
    yield TimeSeries(np.round(0.3 * gen_null(n, n).values))
    yield TimeSeries(np.full(n, 2.5))
    yield TimeSeries(1e8 + gen_null(n, n).values)


def test_blockwise_dp_matches_dense_reference(monkeypatch):
    # every cost-block size, from one row to the whole matrix, gives the
    # dense DP's table exactly, ties included (the first minimum, smallest u)
    for n, min_seg in itertools.product((23, 61, 150), (2, 3, 5)):
        for series in _tie_prone_series(n):
            for m_max in (0, 1, default_m_max(n, min_seg)):
                expected = _dense_rss_table(series, m_max, min_seg)
                for block in (1, 7, 128, n + 1, 10 * n):
                    monkeypatch.setattr(penlik, "_COST_BLOCK", block)
                    # a fresh series, which keeps no table from the last block
                    fresh = TimeSeries(series.values)
                    assert segment_rss_table(fresh, m_max, min_seg) == expected


def test_dp_matches_dense_reference_on_small_integer_series():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(
        values=st.lists(st.integers(-2, 2), min_size=6, max_size=40),
        min_seg=st.integers(2, 5),
        block=st.sampled_from((1, 3, 7, 128)),
    )
    def check(values, min_seg, block):
        series = TimeSeries(np.array(values, dtype=np.float64))
        m_max = default_m_max(len(series), min_seg)
        expected = _dense_rss_table(series, m_max, min_seg)
        with mock.patch.object(penlik, "_COST_BLOCK", block):
            assert segment_rss_table(series, m_max, min_seg) == expected

    check()


@pytest.mark.parametrize("min_seg", (2, 3, 5))
def test_pruned_dp_matches_dense_reference_on_long_series(monkeypatch, min_seg):
    # at T=800, 7-row blocks give 114 pruning tests per level and 128-row
    # blocks give 6, on noise, teeth and series whose levels tie
    n = 800
    teeth, _ = gen_teeth(n, period=20, seed=n)
    for series in (teeth, *_tie_prone_series(n)):
        m_max = default_m_max(n, min_seg)
        expected = _dense_rss_table(series, m_max, min_seg)
        for block in (7, 128):
            monkeypatch.setattr(penlik, "_COST_BLOCK", block)
            assert segment_rss_table(TimeSeries(series.values), m_max, min_seg) == expected


def test_pruning_keeps_a_column_one_ulp_from_a_tie(monkeypatch):
    # the constant tail's segment costs are rounding residue, so at level 3
    # the pruning test at t = 10 (2-row blocks, min_seg 2) finds column 7 one
    # ulp above column 10, yet the dense DP picks column 7 at t = 12
    series = TimeSeries(np.array([0.93, 1.37, 0.24, -1.16] + [-2.0] * 8))
    m_max = default_m_max(len(series), 2)
    cost, f, backs = _dense_levels(series, m_max, 2)
    assert f[2, 7] + cost[7, 10] == np.nextafter(f[2, 10], np.inf)
    assert backs[2][12] == 7
    monkeypatch.setattr(penlik, "_COST_BLOCK", 2)
    assert segment_rss_table(series, m_max, 2) == _dense_rss_table(series, m_max, 2)


def test_dp_memory_bounded_by_cost_block():
    # working memory is a few _COST_BLOCK x (T+1) float64 blocks, not the
    # dense (T+1)^2 cost matrix (32 MB at T=2000)
    series = gen_null(2000, 2)
    block_bytes = (len(series) + 1) * penlik._COST_BLOCK * 8
    tracemalloc.start()
    try:
        segment_rss_table(series, 25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * block_bytes
    assert peak < 8 * (len(series) + 1) ** 2 / 2


def test_large_offset_leaves_penalized_fit_unchanged():
    # moments of the raw series cancel catastrophically at a 1e8 offset
    base = gen_null(300, 7)
    shifted = TimeSeries(base.values + 1e8)
    for name, select in (("bic", select_bic), ("mbic", select_mbic)):
        fit, shifted_fit = select(base), select(shifted)
        assert shifted_fit.config == fit.config
        assert shifted_fit.rss == pytest.approx(fit.rss, rel=1e-9)
        assert penlik._Objective(shifted, name).fit(fit.config.times).rss == pytest.approx(
            penlik._Objective(base, name).fit(fit.config.times).rss, rel=1e-9
        )


def test_near_perfect_fit_gets_one_rule_on_every_path():
    # the two means are not exact in binary, so the best one-changepoint RSS
    # is rounding residue (about 4e-15), not 0: every penalized path treats it
    # as a perfect fit within 1e-12 * null RSS
    series = TimeSeries([1000.1] * 30 + [1000.7] * 30)
    config = ChangepointConfig.from_times((31,), 60)
    ranked = wbs2_candidates(series, seed=1)
    top = SortedCandidateList(entries=ranked.entries[:10], series_length=60)
    for name, select in (("bic", select_bic), ("mbic", select_mbic)):
        fits = [
            select(series),
            penlik._Objective(series, name).fit(config.times),
            ga_optimize(series, name, seed=1),
            hybrid_refine(series, top, name),
        ]
        assert 0.0 < fits[0].rss < 1e-12
        for fit in fits:
            assert (fit.config, fit.objective, fit.degenerate) == (config, -math.inf, True)
            assert fit.rss == fits[0].rss


def test_zero_rss_rule_is_scale_free():
    # a tolerance of 1e-12 * max(1, null RSS) was absolute below a null RSS
    # of 1: at scale 1e-8 the null RSS itself fell under it, and every fit
    # came back empty, degenerate and at objective -inf
    base, truth = gen_teeth(200, 20, 2.0, 0.3, seed=5)
    assert truth.count == 9
    for scale in (1e-4, 1e-8, 1e-12):
        series = TimeSeries(base.values * scale)
        for name, select in (("bic", select_bic), ("mbic", select_mbic)):
            fit = select(series)
            assert (fit.config, fit.degenerate) == (truth, False), (scale, name)
            assert math.isfinite(fit.objective)
            evaluated = penlik._Objective(series, name).fit(truth.times)
            assert (evaluated.rss, evaluated.degenerate) == (fit.rss, False)
    # a constant series has tolerance 0 and stays a perfect fit at m = 0
    for value in (3e-9, 0.1, 1000.1):
        fit = select_bic(TimeSeries([value] * 40))
        assert (fit.config.times, fit.degenerate, fit.objective) == ((), True, -math.inf)


def _step_series(scale):
    x = np.random.default_rng(1).standard_normal(200)
    x[100:] += 3
    return TimeSeries(scale * x)


@pytest.mark.parametrize("scale", [1e154, 1e152, 1e-200])
def test_penalized_paths_reject_magnitudes_whose_squares_overflow_or_vanish(scale):
    # at 1e154 the centered squares overflow and the fit failed inside
    # ChangepointConfig; at 1e152 they sum to a finite value, but squared
    # segment sums overflow, and both selections moved the step from 101 to
    # 91; at 1e-200 they vanish and the step came back as a degenerate fit
    # with no changepoints, as for a constant series
    series = _step_series(scale)
    candidates = wbs2_candidates(series, seed=1)
    paths = {
        "select_bic": lambda: select_bic(series),
        "select_mbic": lambda: select_mbic(series),
        "ga_optimize": lambda: ga_optimize(series, "bic", GaParams(4, 2)),
        "hybrid_refine": lambda: hybrid_refine(series, candidates, "mbic"),
        "_Objective.fit": lambda: penlik._Objective(series, "bic").fit(()),
    }
    for name, path in paths.items():
        with pytest.raises(ValueError, match="between about 1e-150 and "):
            path()
            pytest.fail(name)


def test_penalized_fits_sharing_a_series_match_fresh_series():
    # the RSS table a series keeps is keyed by (m_max, min_seg): the order of
    # the calls and a change of min_seg between them do not change a fit. A
    # two-observation spike gives min_seg 2 and 3 different fits at one m_max
    values = gen_teeth(120, 15, 1.0, 0.6, seed=8)[0].values.copy()
    values[60:62] += 6
    calls = [(select_mbic, 2), (select_bic, 2), (select_bic, 3), (select_mbic, 3), (select_bic, 2)]
    fresh = [select(TimeSeries(values), min_seg) for select, min_seg in calls]
    for order in (calls, calls[::-1]):
        shared = TimeSeries(values)
        fits = [select(shared, min_seg) for select, min_seg in order]
        assert fits == [fresh[calls.index(call)] for call in order]
    assert fresh[1] != fresh[2]


def _bit_vector_exhaustive(series, pool, penalty_name, min_seg):
    """Reference exhaustive refinement: one bit vector per subset, in size then
    lexicographic order, replacing the best only on a strictly smaller key."""
    objective = penlik._Objective(series, penalty_name, min_seg)
    pool = np.array(pool, dtype=np.int64)
    if pool.size == 0:
        return objective.fit(pool)
    best_bits = np.zeros(pool.size, dtype=np.int8)
    best_key = objective.key(pool[best_bits.astype(bool)])
    for size in range(1, pool.size + 1):
        for combo in itertools.combinations(range(pool.size), size):
            bits = np.zeros(pool.size, dtype=np.int8)
            bits[list(combo)] = 1
            key = objective.key(pool[bits.astype(bool)])
            if key < best_key:
                best_key = key
                best_bits = bits
    return objective.fit(pool[best_bits.astype(bool)])


def test_exhaustive_refine_matches_bit_vector_reference():
    # pools are drawn from a narrow window, so adjacent candidates make
    # subsets infeasible under min_seg 2 and 3; rounded and constant series
    # make exact ties between subsets
    rng = np.random.default_rng(41)
    cases = [(int(rng.integers(0, 13)), int(rng.integers(24, 80))) for _ in range(16)]
    cases += [(0, 30), (20, 24)]
    for i, (k, n) in enumerate(cases):
        noise = gen_null(n, 900 + i).values
        kinds = {
            "noise": noise,
            "rounded": np.round(noise),
            "constant": np.full(n, 1.5),
        }
        lo = int(rng.integers(2, max(3, n + 1 - 2 * k)))
        window = np.arange(lo, min(n, lo + 2 * k) + 1)
        pool = sorted(rng.choice(window, size=k, replace=False).tolist())
        for (kind, values), min_seg, name in itertools.product(
            kinds.items(), (2, 3), ("bic", "mbic")
        ):
            if k == 20 and (kind, min_seg, name) != (
                "constant", 3, "bic"
            ):
                continue  # 2**20 subsets: one case, every feasible subset scoring -inf
            series = TimeSeries(values)
            expected = _bit_vector_exhaustive(series, pool, name, min_seg)
            fit = hybrid_refine(series, _candidates_from_times(tuple(pool), n), name,
                                min_seg=min_seg)
            assert fit == expected, (kind, min_seg, name, pool)

    # an exact tie at the optimum: under min_seg 3 the spike at 16..17 cannot
    # be isolated, and (15, 18) and (16, 19) fit it equally well; the first
    # in lexicographic order wins
    spike = TimeSeries([0.0] * 15 + [5.0, 5.0] + [0.0] * 15)
    pool = list(range(13, 22))
    for name in ("bic", "mbic"):
        objective = penlik._Objective(spike, name, 3)
        assert objective.key((15, 18)) == objective.key((16, 19))
        expected = _bit_vector_exhaustive(spike, pool, name, 3)
        fit = hybrid_refine(spike, _candidates_from_times(tuple(pool), 32), name, min_seg=3)
        assert fit == expected
        assert fit.config.times == (15, 18)


def test_exhaustive_refine_matches_reference_on_benchmark_units():
    # the benchmark's shape: T=500 teeth and noise, the top 12 and 14 ranked
    # WBS2 candidates; sizes of 7 and more sum their costs in another order
    # than the key, so the batched values can differ from the key's
    for series in (gen_teeth(500, 30, 1.0, 0.3, seed=8)[0], gen_null(500, 8)):
        ranked = wbs2_candidates(series, seed=9)
        for top, name, min_seg in itertools.product((12, 14), ("bic", "mbic"), (2, 3)):
            cands = SortedCandidateList(entries=ranked.entries[:top], series_length=500)
            pool = sorted({e.changepoint_time for e in cands.entries})
            expected = _bit_vector_exhaustive(series, pool, name, min_seg)
            assert hybrid_refine(series, cands, name, min_seg=min_seg) == expected


def test_exhaustive_refine_smallest_perfect_fit_wins():
    # a noiseless wave of 0 and 2 has mean 1, so its centered values are +-1
    # and every segment within one level costs exactly 0: the true times and
    # each feasible superset in the pool fit perfectly, and the smallest
    # count, the true times, must win
    series, truth = gen_teeth(120, 20, 2.0, 0.0, seed=0)
    pool = sorted(set(truth.times) | {9, 30, 52, 75, 98, 110})
    for name, min_seg in itertools.product(("bic", "mbic"), (2, 3)):
        objective = penlik._Objective(series, name, min_seg)
        assert objective.key(truth.times + (110,)) == (-math.inf, truth.count + 1)
        fit = hybrid_refine(series, _candidates_from_times(tuple(pool), 120), name,
                            min_seg=min_seg)
        assert (fit.config, fit.objective, fit.rss, fit.degenerate) == (truth, -math.inf, 0.0, True)
        assert fit == _bit_vector_exhaustive(series, pool, name, min_seg)


def test_exhaustive_refine_memory_bounded_by_largest_size():
    # every one of the 2**20 subsets of 20 spread candidates is feasible;
    # working memory is a few arrays over the C(20, 10) subsets of the
    # largest size, not one over all subsets (2**20 x 22 int64 bounds would
    # take 185 MB)
    series = gen_null(500, 4)
    pool = tuple(range(21, 421, 20))
    tracemalloc.start()
    try:
        fit = hybrid_refine(series, _candidates_from_times(pool, 500), "mbic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * math.comb(20, 10)
    assert set(fit.config.times) <= set(pool)


def test_exhaustive_refine_exact_when_the_batch_rounds_differently(monkeypatch):
    # the batch may round differently from the key; within the rounding bound
    # (each log within 4 ulp) the rescoring must still return the key's first
    # minimum. Every np.log the batch takes is moved by up to 3 ulp at random,
    # which splits the exact ties between subsets of rounded series, and of
    # the spike of the test above, in random directions
    rng = np.random.default_rng(5)
    log = np.log

    def jittered_log(x):
        out = log(x)
        with np.errstate(invalid="ignore"):
            moved = out + rng.integers(-3, 4, size=np.shape(out)) * np.spacing(out)
        return np.where(np.isfinite(out), moved, out)

    cases = [(TimeSeries([0.0] * 15 + [5.0, 5.0] + [0.0] * 15), list(range(13, 22)))]
    for i, n in enumerate((30, 45, 60)):
        noise = gen_null(n, 950 + i).values
        pool = sorted(rng.choice(np.arange(8, 8 + 16), size=11, replace=False).tolist())
        cases += [(TimeSeries(np.round(noise)), pool), (TimeSeries(noise), pool)]
    expected = {
        (i, name, min_seg): _bit_vector_exhaustive(series, pool, name, min_seg)
        for i, (series, pool) in enumerate(cases)
        for name, min_seg in itertools.product(("bic", "mbic"), (2, 3))
    }
    monkeypatch.setattr(np, "log", jittered_log)
    for _ in range(5):
        for (i, name, min_seg), fit in expected.items():
            series, pool = cases[i]
            cands = _candidates_from_times(tuple(pool), len(series))
            assert hybrid_refine(series, cands, name, min_seg=min_seg) == fit, (i, name)


def test_exhaustive_refine_skips_times_outside_the_series():
    # a hand-built list may hold times 1 and T+1 or beyond; every subset
    # holding one is infeasible, and the search must not index past the
    # series for them
    series, truth = gen_teeth(60, 20, 2.0, 0.1, seed=3)
    pool = [1, *truth.times, 45, 61, 64]
    entries = tuple(
        CandidateEntry(start=0, end=70, location=t - 1, magnitude=1.0) for t in pool
    )
    cands = SortedCandidateList(entries=entries, series_length=60)
    for name in ("bic", "mbic"):
        fit = hybrid_refine(series, cands, name)
        assert fit == _bit_vector_exhaustive(series, pool, name, 2)
        assert fit.config == truth


def test_key_scores_times_outside_the_series_without_costing_them():
    # a time outside 2..T, a repeat or a time out of order makes a set
    # infeasible; its key must come without indexing past the series and
    # without a 0/0 (RuntimeWarning is an error in this suite)
    objective = penlik._Objective(gen_null(60, 3), "mbic")
    for times in ((0,), (-5,), (1,), (2,), (60,), (61,), (70,), (20, 61), (20, 20), (40, 20)):
        assert objective.key(times) == (math.inf, len(times)), times
        assert math.isnan(objective.key_and_rss(times)[1])
    assert all(math.isfinite(objective.key(times)[0]) for times in ((3,), (59,), (20, 40)))


def test_hybrid_costs_no_subset_twice():
    # the final fit takes the RSS of the subset that set the best key, so
    # each set of times is costed once
    series, truth = gen_teeth(120, 20, 2.0, 0.1, seed=21)
    cands = _candidates_from_times(tuple(sorted(set(truth.times) | {9, 52, 75})), 120)
    costed = []
    one_pass = penlik._Objective._pass

    def recording(self, t, counts):
        costed.append(tuple(t.tolist()))
        return one_pass(self, t, counts)

    for name in ("bic", "mbic"):
        costed.clear()
        with mock.patch.object(penlik._Objective, "_pass", recording):
            fit = hybrid_refine(series, cands, name)
        assert fit.config == truth
        assert len(costed) == len(set(costed)) > 1
        assert fit == hybrid_refine(series, cands, name)


def test_hybrid_null_fit_on_a_series_shorter_than_min_seg():
    # no segment can be min_seg long: the null fit is returned, with its RSS
    series = TimeSeries([0.0, 1.0, 3.0])
    fit = hybrid_refine(series, _candidates_from_times((2,), 3), "bic", min_seg=5)
    assert fit == penlik._Objective(series, "bic", 5).fit(())
    assert fit.config.times == () and math.isfinite(fit.rss) and math.isfinite(fit.objective)


def _pinned_ga_fit(case):
    if case == "ga-null-bic":
        return ga_optimize(gen_null(60, 3787), "bic", seed=4787)
    if case == "ga-teeth-mbic":
        series, _ = gen_teeth(80, 20, 2.0, 0.5, seed=5)
        return ga_optimize(series, "mbic", seed=5)
    if case == "ga-teeth-500-mbic":  # the benchmark's shape
        series, _ = gen_teeth(500, 30, 1.0, 0.3, seed=11)
        return ga_optimize(series, "mbic", ga_params=GaParams(), seed=11)
    if case == "ga-population-1":  # fewer individuals than the elite
        series, _ = gen_teeth(80, 20, 2.0, 0.5, seed=6)
        return ga_optimize(series, "bic", ga_params=GaParams(population=1, generations=3), seed=6)
    if case == "ga-population-3":  # the last pair's second child is drawn, then dropped
        series, _ = gen_teeth(80, 20, 2.0, 0.5, seed=7)
        return ga_optimize(series, "mbic", ga_params=GaParams(population=3, generations=5), seed=7)
    if case == "ga-generations-0":  # the initial draw alone
        series, _ = gen_teeth(6, 2, 5.0, 0.5, seed=0)
        return ga_optimize(series, "bic", ga_params=GaParams(population=4, generations=0), seed=0)
    # the case of TestHybridRefine.test_exact_beyond_twenty_candidates
    series, truth = gen_teeth(200, 40, 3.0, 0.1, seed=77)
    pool = sorted(set(truth.times) | set(range(3, 200, 9)))
    return hybrid_refine(series, _candidates_from_times(tuple(pool), 200), "bic", seed=5)


@pytest.mark.parametrize("case, times, objective, rss", [
    ("ga-null-bic", (30,), 1.9873338008308892, 37.1393262133074),
    ("ga-teeth-mbic", (21, 41, 57, 61), -48.495303482722576, 13.761718535453523),
    ("hybrid-exact", (41, 81, 121, 161), -407.6943077247608, 1.996793317625439),
    ("ga-teeth-500-mbic",
     (32, 59, 90, 120, 122, 151, 181, 211, 242, 271, 301, 332, 360, 391, 420, 451, 481),
     -465.9393155885311, 45.81581167691232),
    ("ga-population-1", (), 11.100228970813792, 84.8114898565255),
    ("ga-population-3", (14,), 2.248439989277736, 73.61448230023792),
    ("ga-generations-0", (3, 5), -0.42206485096049917, 0.14479334603525906),
])
def test_ga_outputs_are_pinned(case, times, objective, rss):
    # exact outputs of the GA's fixed settings and seeded draws: a change to
    # the order or the arguments of any draw shows here; the hybrid case is
    # the exact subset search over more than 20 candidates
    fit = _pinned_ga_fit(case)
    assert (fit.config.times, fit.objective, fit.rss) == (times, objective, rss)


@pytest.mark.parametrize("kwargs", [
    {"population": 0}, {"population": -5}, {"generations": -1},
    {"population": -5, "generations": -2},
    {"population": 2.5}, {"population": math.nan}, {"population": True},
    {"generations": 1.5}, {"generations": math.inf},
])
def test_ga_params_reject_empty_search(kwargs):
    # a non-positive population was once run as one individual, and negative
    # generations as zero; a non-integral size once failed late, in the search
    with pytest.raises(ValueError, match="population|generations"):
        GaParams(**kwargs)


def test_ga_params_keep_only_the_search_size():
    assert [f.name for f in dataclasses.fields(GaParams)] == ["population", "generations"]
    assert GaParams() == GaParams(population=50, generations=200)


@pytest.mark.parametrize("min_seg", [0, 1])
def test_penalized_paths_reject_min_seg_below_two(min_seg):
    # min_seg 0 once raised ZeroDivisionError in default_m_max, and the GA
    # and the hybrid accepted min_seg 1, which the DP rejects
    series = gen_null(60, 1)
    top = _candidates_from_times((20, 40), 60)
    calls = [
        lambda: select_bic(series, min_seg=min_seg),
        lambda: select_mbic(series, min_seg=min_seg),
        lambda: ga_optimize(series, "bic", min_seg=min_seg),
        lambda: hybrid_refine(series, top, "bic", min_seg=min_seg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="min_seg must be at least 2"):
            call()


def _rss(objective, bounds):
    """The RSS of the segments between the prefix indices ``bounds``, by a 1-D np.sum."""
    return float(np.sum(penlik._segment_cost(objective.s, objective.ss, bounds[:-1], bounds[1:])))


@pytest.mark.parametrize("name", ("bic", "mbic"))
def test_array_value_agrees_with_score(name):
    # the branch and bound evaluates the key's formula with np.log on running
    # sums; on feasible subsets the two differ by rounding alone, within the
    # 1e-12 (T + |null objective|) that hybrid_refine's slack comment states
    rng = np.random.default_rng(23)
    for n in (40, 500):
        teeth, _ = gen_teeth(n, 10, 1.0, 0.5, seed=n)
        for s in (teeth, TimeSeries(1e8 + gen_null(n, n).values)):
            objective = penlik._Objective(s, name)
            tol = 1e-12 * (n + abs(objective.score(_rss(objective, np.array([0, n])), [n])))
            running, keys = [], []
            for _ in range(300):
                m = int(rng.integers(0, objective.m_max + 1))
                lengths = 2 + rng.multinomial(n - 2 * (m + 1), np.full(m + 1, 1 / (m + 1)))
                bounds = np.concatenate(([0], np.cumsum(lengths)))
                rss = log_sum = 0.0
                for u, t in zip(bounds[:-1], bounds[1:]):  # summed in another order
                    rss += float(penlik._segment_cost(objective.s, objective.ss, u, t))
                    log_sum += np.log((t - u) / n)
                running.append((rss, log_sum, m))
                keys.append(objective.score(_rss(objective, bounds), lengths.tolist()))
            rss, log_sum, count = map(np.array, zip(*running))
            values = objective.value(rss, log_sum, count, log=np.log)
            assert np.all(np.isfinite(keys))
            np.testing.assert_allclose(values, keys, rtol=0, atol=tol)


def test_ga_params_accept_numpy_integers():
    params = GaParams(population=np.int64(4), generations=np.int32(2))
    fit = ga_optimize(gen_null(30, 2), "bic", ga_params=params, seed=1)
    assert fit == ga_optimize(gen_null(30, 2), "bic", ga_params=GaParams(4, 2), seed=1)


def _one_subset_key(objective, times):
    """The search key as scored one subset at a time, by a 1-D np.sum."""
    m = len(times)
    bounds = np.subtract((1, *times, objective.n + 1), 1)
    lengths = np.diff(bounds)
    if m > objective.m_max or lengths.min() < objective.min_seg:
        return (math.inf, m)
    return (objective.score(_rss(objective, bounds), lengths.tolist()), m)


@pytest.mark.parametrize("name, min_seg", itertools.product(("bic", "mbic"), (2, 3)))
def test_batched_keys_equal_one_row_keys(name, min_seg):
    # the GA scores a generation in one batch per count; each key must be,
    # to the bit, the key of its row scored alone
    rng = np.random.default_rng(17)
    n = 60  # above 52 the cap of 25 changepoints binds before min_seg 2 does
    steps, truth = gen_teeth(n, 10, 1.0, 0.0, seed=1)  # piecewise constant
    noise = gen_null(n, 2).values
    series = [gen_null(n, 3), TimeSeries(1e8 + noise), TimeSeries(np.round(3 * noise)), steps]
    pool = np.arange(2, n + 1)
    seen = set()
    for s in series:
        objective = penlik._Objective(s, name, min_seg)
        population = np.concatenate([
            (rng.random((40, pool.size)) < density).astype(np.int8)
            for density in (0.03, 0.08, 0.15, 0.3, 0.6)
        ])
        perfect = np.isin(pool, truth.times).astype(np.int8)
        extra = (rng.random((10, pool.size)) < 0.05).astype(np.int8)
        spaced = np.zeros((2, pool.size), np.int8)  # min_seg apart, m_max and m_max + 1
        for i, m in enumerate((objective.m_max, objective.m_max + 1)):
            spaced[i, min_seg - 1 : (m + 1) * min_seg - 1 : min_seg] = 1
        population = np.concatenate([
            population, population[::7], perfect[None], perfect | extra, spaced,
            np.zeros((2, pool.size), np.int8),
        ])
        batched = objective.keys(population)
        assert len(batched) == len(population)
        for row, key in zip(population, batched):
            times = tuple(pool[row.astype(bool)].tolist())
            alone = objective.key(times)
            assert key == alone == _one_subset_key(objective, times)
            assert repr(key) == repr(alone)
            seen.add("above m_max" if len(times) > objective.m_max
                     else "infeasible" if key[0] == math.inf
                     else "perfect" if key[0] == -math.inf else "scored")
    assert seen == {"above m_max", "infeasible", "perfect", "scored"}


def _one_child_at_a_time_ga(objective, pool, params, seed):
    """The GA as it once ran, scoring one individual at a time and taking
    each tournament's ``min`` over the keys: every generation's population,
    and the fit of the best found."""
    rng = np.random.default_rng(seed)
    size, n_bits = params.population, pool.size

    def key(bits):
        return objective.key(pool[bits.astype(bool)])

    population = (rng.random((size, n_bits)) < penlik._INIT_DENSITY).astype(np.int8)
    population[0, :] = 0
    generations = [population]
    keys = [key(ind) for ind in population]
    best_idx = min(range(size), key=keys.__getitem__)
    best_bits, best_key = population[best_idx].copy(), keys[best_idx]
    for _ in range(params.generations):
        order = sorted(range(size), key=keys.__getitem__)
        children = [population[i].copy() for i in order[:penlik._ELITISM]]
        while len(children) < size:
            p1, p2 = (
                population[min(rng.integers(0, size, size=penlik._TOURNAMENT),
                               key=keys.__getitem__)]
                for _ in range(2)
            )
            c1, c2 = p1.copy(), p2.copy()
            if rng.random() < penlik._CROSSOVER_RATE:
                lo, hi = np.sort(rng.choice(n_bits, size=2, replace=False))
                c1[lo:hi], c2[lo:hi] = p2[lo:hi], p1[lo:hi]
            for child in (c1, c2):
                child[rng.random(n_bits) < penlik._MUTATIONS_PER_CHILD / n_bits] ^= 1
                if len(children) < size:
                    children.append(child)
        population = np.array(children, dtype=np.int8)
        generations.append(population)
        keys = [key(ind) for ind in population]
        gen_best = min(range(size), key=keys.__getitem__)
        if keys[gen_best] < best_key:
            best_bits, best_key = population[gen_best].copy(), keys[gen_best]
    return generations, objective.fit(pool[best_bits.astype(bool)])


@pytest.mark.parametrize("size, seed", [(21, 3), (8, 6)])
def test_ga_breeds_as_one_child_at_a_time(size, seed):
    # every generation, not just the fit, must be the one-at-a-time GA's:
    # each generation scores exactly the distinct rows the one before did not
    # hold. Tournament ties between infeasible keys broken by index, not by
    # draw order, change the generations while the fits seldom show it
    series = gen_null(30, seed)
    objective = penlik._Objective(series, "mbic")
    pool = np.arange(2, 31)
    params = GaParams(population=size, generations=25)
    batches = []
    keys = penlik._Objective.keys

    def recording(self, population):
        batches.append([row.tobytes() for row in population])
        return keys(self, population)

    with mock.patch.object(penlik._Objective, "keys", recording):
        fit = ga_optimize(series, "mbic", params, seed)
    generations, expected_fit = _one_child_at_a_time_ga(objective, pool, params, seed)
    expected, previous = [], set()
    for population in generations:
        rows = list(dict.fromkeys(row.tobytes() for row in population))
        expected.append([row for row in rows if row not in previous])
        previous = set(rows)
    assert batches == expected
    assert fit == expected_fit


@pytest.mark.parametrize("n", [2, 3, 5, 499, 2999, 10001, 123457])
def test_crossover_cut_draws_as_choice(n):
    # the GA's cut takes the draws of np.sort(rng.choice(n, 2, replace=False))
    # without calling it; a numpy change to Generator.choice or integers
    # changes the pair or the generator's state after it, and fails here.
    # One integer draw below 2^32 leaves half of a 64-bit output cached
    for seed in range(200):
        for odd_draws in (0, 1, 3):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for g in (rng, reference):
                g.integers(0, 7, size=odd_draws)
            assert rng.bit_generator.state["has_uint32"] == odd_draws % 2
            want = tuple(np.sort(reference.choice(n, size=2, replace=False)).tolist())
            assert penlik._crossover_cut(rng, n) == want
            assert rng.bit_generator.state == reference.bit_generator.state
