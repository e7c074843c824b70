import math
import re
from unittest import mock

import numpy as np
import pytest

from cpdkit import (
    TeethSpec,
    TimeSeries,
    gen_null,
    gen_teeth,
    run_null_study,
    run_signal_study,
    wbs2_sdll_detect,
)
from cpdkit import bench, core, penlik
from cpdkit.bench import (
    VALID_METHODS,
    check_study,
    data_seed,
    format_table,
    method_seed,
    run_method,
)


class TestSeedDerivation:
    def test_collision_free_over_grid(self):
        seen = set()
        for length in (100, 500):
            for rep in range(200):
                seen.add(data_seed(99, length, rep))
                for method in VALID_METHODS:
                    seen.add(method_seed(99, method, length, rep))
        assert len(seen) == 2 * 200 * (1 + len(VALID_METHODS))

    def test_data_seed_shared_across_methods(self):
        # the same replication must see the same series for every method
        assert data_seed(7, 100, 3) == data_seed(7, 100, 3)
        assert data_seed(7, 100, 3) != data_seed(7, 100, 4)
        assert data_seed(7, 100, 3) != data_seed(8, 100, 3)

    def test_method_seeds_pinned(self):
        # the method table's order fixes each detector's seed stream, and so
        # every study result; a reordered table must not move them silently
        assert {m: method_seed(12345, m, 100, 0) for m in VALID_METHODS} == {
            "bic": 13913857450986360537,
            "mbic": 3841899023762396000,
            "wbs": 14158096100336874695,
            "wbs2-sdll": 13347351076557989819,
            "binseg": 10036863329855540650,
        }


class TestRunMethod:
    def test_defaults_are_the_detectors(self):
        for k in range(10):
            series = gen_null(100, 700 + k)
            assert run_method("wbs2-sdll", series, k) == wbs2_sdll_detect(series, seed=k)

    def test_params_reach_detector(self):
        series, _ = gen_teeth(300, period=20, sigma=0.6, seed=0)
        config = run_method("wbs2-sdll", series, 0, {"floor_mult": 1.0})
        assert config == wbs2_sdll_detect(series, seed=0, floor_mult=1.0)
        assert config.count == 1

    def test_unknown_parameter_raises(self):
        series = gen_null(50, 1)
        with pytest.raises(TypeError):
            run_method("wbs", series, 0, {"lam": 1.3})
        with pytest.raises(TypeError):
            run_method("bic", series, 0, {"seed": 3})


class TestRunNullStudy:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="bic, mbic, wbs, wbs2-sdll, binseg"):
            run_null_study(["nope"], [100], 5, 1)

    def test_single_rep_identities(self):
        report = run_null_study(["binseg"], [50], 1, 123)
        row = report.row("binseg", 50)
        assert row.false_positive_rate in (0.0, 1.0)
        est = run_method("binseg", gen_null(50, data_seed(123, 50, 0)),
                         method_seed(123, "binseg", 50, 0))
        assert row.avg_distance == float(est.count)

    def test_determinism(self):
        a = run_null_study(["wbs", "binseg"], [60], 20, 42)
        b = run_null_study(["wbs", "binseg"], [60], 20, 42)
        assert a == b

    def test_row_independent_of_method_list(self):
        solo = run_null_study(["wbs"], [60], 15, 7).row("wbs", 60)
        paired = run_null_study(["binseg", "wbs"], [60], 15, 7).row("wbs", 60)
        assert solo == paired

    def test_distance_at_least_fp_rate(self):
        report = run_null_study(["wbs", "wbs2-sdll", "binseg"], [80], 60, 11)
        for row in report.rows:
            assert row.avg_distance >= row.false_positive_rate

    def test_rejects_detector_constants_before_running(self):
        # the detectors' own checks, run on the study's parameters over the
        # detectors' defaults, before any replication
        bad = [
            ("binseg", {"c": math.nan}), ("wbs", {"c": -1.0}), ("wbs", {"c": math.inf}),
            ("wbs2-sdll", {"lam": math.nan}), ("wbs2-sdll", {"lam": -1.0}),
            ("wbs2-sdll", {"floor_mult": 0.0}), ("wbs2-sdll", {"lam": 1.0, "floor_mult": 2.0}),
        ]
        with mock.patch.object(bench, "_replicate", side_effect=AssertionError("ran")):
            for method, params in bad:
                with pytest.raises(ValueError, match="non-negative|floor_mult"):
                    run_null_study([method], [50], 2, 1, method_params={method: params})
            # a parameter the detector does not take, or a seed besides the one
            # the study passes, once raised only at the first replication
            for method, params in (("wbs", {"lam": 1.3}), ("bic", {"seed": 3}),
                                   ("wbs", {"seed": 3}), ("wbs2-sdll", {"seed": 3}),
                                   ("binseg", {"threshold": 1.0})):
                with pytest.raises(TypeError):
                    run_null_study([method], [50], 2, 1, method_params={method: params})
            # sizes out of range once raised only at the first replication, and
            # non-integral ones inside numpy, with a TypeError naming no parameter
            sizes = [
                ("wbs2-sdll", {"m_stage": 0}), ("wbs", {"m_intervals": -1}),
                ("wbs", {"min_span": 0}), ("bic", {"min_seg": 1}), ("mbic", {"min_seg": 0}),
                ("binseg", {"min_len": 1}), ("wbs", {"m_intervals": 2.5}),
                ("wbs2-sdll", {"m_stage": 2.5}), ("wbs", {"m_intervals": True}),
                ("bic", {"min_seg": 3.0}), ("binseg", {"min_len": "4"}),
                ("wbs", {"min_span": np.float64(2)}),
            ]
            for method, params in sizes:
                name = next(iter(params))
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    run_null_study([method], [50], 2, 1, method_params={method: params})
        good = [
            ("binseg", {}), ("binseg", {"c": 0.0}),
            ("wbs2-sdll", {"lam": 0.0}), ("wbs2-sdll", {"floor_mult": 1.0}),
            ("bic", {"min_seg": 3}), ("mbic", {"min_seg": np.int64(2)}),
            ("wbs", {"m_intervals": 0}), ("wbs", {"m_intervals": np.int32(10), "min_span": 3}),
            ("wbs2-sdll", {"m_stage": 1}), ("binseg", {"min_len": 5}),
        ]
        for method, params in good:
            check_study([method], [50], 2, 1, {method: params})

    def test_rejects_study_sizes_that_are_not_integers(self):
        # n_reps True once ran one replication and wrote "True" as its n_reps;
        # n_reps 2.5 and a length of 50.5 or 12.0 failed in range or numpy
        # with a TypeError naming no parameter; n_jobs 1.5 and True ran
        # serially without a word
        spec = TeethSpec(length=60)
        with mock.patch.object(bench, "_replicate", side_effect=AssertionError("ran")):
            for n_reps, message in ((True, "an integer"), (2.5, "an integer"), (0, "at least 1")):
                with pytest.raises(ValueError, match=f"^n_reps must be {message}"):
                    run_null_study(["binseg"], [50], n_reps, 1)
                with pytest.raises(ValueError, match=f"^n_reps must be {message}"):
                    run_signal_study(spec, ["binseg"], n_reps, 1)
            for n_jobs in (1.5, True):
                with pytest.raises(ValueError, match="^n_jobs must be an integer"):
                    run_null_study(["binseg"], [50], 2, 1, n_jobs=n_jobs)
            for length in (50.5, 12.0, True):
                with pytest.raises(ValueError, match="^length must be an integer"):
                    run_null_study(["binseg"], [length], 2, 1)
        check_study(["binseg"], [np.int64(50)], np.int32(2), np.int64(1))

    def test_rejects_repeated_methods_and_lengths(self):
        # a repeated method or length once reran the same seeds and reported
        # identical rows
        spec = TeethSpec(length=60)
        with mock.patch.object(bench, "_replicate", side_effect=AssertionError("ran")):
            with pytest.raises(ValueError, match="method wbs is given more than once"):
                run_null_study(["wbs", "binseg", "wbs"], [50], 2, 1)
            with pytest.raises(ValueError, match="length 50 is given more than once"):
                run_null_study(["wbs"], [50, 60, 50], 2, 1)
            with pytest.raises(ValueError, match="method binseg"):
                run_signal_study(spec, ["binseg", "binseg"], 2, 1)

    def test_rejects_fewer_than_one_job(self):
        # n_jobs 0 and -4 once ran serially without a word
        spec = TeethSpec(length=60)
        for n_jobs in (0, -4):
            with pytest.raises(ValueError, match="n_jobs"):
                run_null_study(["binseg"], [60], 2, 1, n_jobs=n_jobs)
            with pytest.raises(ValueError, match="n_jobs"):
                run_signal_study(spec, ["binseg"], 2, 1, n_jobs=n_jobs)

    def test_parallel_matches_serial(self):
        # bic and mbic share the RSS table their series keeps, in a worker as
        # in the parent process
        serial = run_null_study(list(VALID_METHODS), [60], 16, 5, n_jobs=1)
        parallel = run_null_study(list(VALID_METHODS), [60], 16, 5, n_jobs=2)
        assert serial == parallel

    def test_replication_computes_per_series_values_once(self, count_calls):
        # the detectors of one replication share its series' centered moments,
        # noise scale and segment-neighbourhood DP; at T=100 the DP builds its
        # cost rows in one block
        counts = {name: count_calls(owner, name) for owner, name in (
            (TimeSeries, "centered_moments"), (core, "mad_sigma"), (penlik, "_cost_rows"),
        )}
        bench._replicate((["bic", "mbic", "wbs", "wbs2-sdll"], 100, None, 0, 5, None))
        assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 1)

    def test_one_pool_with_no_more_workers_than_chunks(self, monkeypatch):
        # a pool starts all its workers at once: a study opens one pool, with
        # no more workers than one length's replications fill chunks, and
        # runs serially when that is one. No real process starts here
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                assert chunksize == 8
                return map(fn, jobs)

        monkeypatch.setattr(bench.concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        for n_jobs, n_reps, want in ((32, 17, [3]), (2, 17, [2]), (32, 3, []), (4, 8, []),
                                     (4, 9, [2])):
            pools.clear()
            report = run_null_study(["binseg"], [30, 40], n_reps, 5, n_jobs=n_jobs)
            assert pools == want, (n_jobs, n_reps)
            assert report == run_null_study(["binseg"], [30, 40], n_reps, 5)

    def test_rep_doubling_stability(self):
        # first half of a doubled run is the same seeds, so the rate moves by
        # at most binomial noise; checked across 20 master seeds
        ok = 0
        n = 60
        params = {"binseg": {"c": 0.9}}
        for master in range(20):
            p1 = run_null_study(["binseg"], [100], n, master, params).row("binseg", 100)
            p2 = run_null_study(["binseg"], [100], 2 * n, master, params).row("binseg", 100)
            rate1, rate2 = p1.false_positive_rate, p2.false_positive_rate
            p = max(rate2, 1.0 / n)  # doubled run anchors the binomial spread
            ok += abs(rate1 - rate2) <= 3.0 * np.sqrt(p * (1 - p) / n)
        assert ok >= 19

    def test_master_seeds_within_monte_carlo_noise(self):
        n = 200
        params = {"binseg": {"c": 1.0}}
        r1 = run_null_study(["binseg"], [100], n, 1, params).row("binseg", 100)
        r2 = run_null_study(["binseg"], [100], n, 2, params).row("binseg", 100)
        half = 1.96 * np.sqrt(0.25 / n)  # widest 95% binomial interval
        assert abs(r1.false_positive_rate - r2.false_positive_rate) <= 2 * half


class TestRunSignalStudy:
    def test_noiseless_teeth_wbs2_recovers(self):
        spec = TeethSpec(length=120, period=20, amplitude=1.0, sigma=0.0)
        report = run_signal_study(spec, ["wbs2-sdll"], 10, 3)
        row = report.row("wbs2-sdll", 120)
        assert row.avg_distance == 0.0

    def test_infinite_threshold_binseg_misses_everything(self):
        spec = TeethSpec(length=120, period=20, amplitude=1.0, sigma=0.2)
        params = {"binseg": {"c": 1e300}}  # a threshold above every contrast
        report = run_signal_study(spec, ["binseg"], 5, 4, method_params=params)
        row = report.row("binseg", 120)
        assert row.false_positive_rate == 0.0
        assert row.avg_distance == 5.0  # five true changepoints, all missed

    def test_determinism(self):
        spec = TeethSpec(length=100, period=20, amplitude=1.0, sigma=0.3)
        a = run_signal_study(spec, ["wbs"], 10, 9)
        b = run_signal_study(spec, ["wbs"], 10, 9)
        assert a == b

    @pytest.mark.parametrize("length, period, sigma", [
        (30, 20, 0.3), (60, 1, 0.3), (60, 20, -1.0), (60, 20, math.nan), (60, 20, math.inf),
        (60.5, 20, 0.3), (60, 10.0, 0.3),
    ])
    def test_spec_rejects_what_the_generator_rejects(self, length, period, sigma):
        with pytest.raises(ValueError) as generator_error:
            gen_teeth(length, period, 1.0, sigma)
        with pytest.raises(ValueError, match=re.escape(str(generator_error.value))):
            TeethSpec(length=length, period=period, sigma=sigma)

    @pytest.mark.parametrize("amplitude", [math.inf, -math.inf, math.nan])
    def test_spec_rejects_the_amplitudes_the_generator_rejects(self, amplitude):
        # an infinite amplitude was not checked: the signal study failed only
        # after the null study had been written
        with pytest.raises(ValueError) as generator_error:
            gen_teeth(60, 20, amplitude, 0.3)
        with pytest.raises(ValueError, match=re.escape(str(generator_error.value))):
            TeethSpec(length=60, period=20, amplitude=amplitude)


class TestReportOutput:
    def test_format_table_layout(self):
        report = run_null_study(["binseg", "wbs"], [50, 60], 5, 2)
        table = format_table(report)
        assert "T=50 FP" in table and "T=60 Dist" in table
        assert "binseg" in table and "wbs" in table

    def test_csv_round(self):
        report = run_null_study(["binseg"], [50], 5, 2)
        lines = bench._csv_text(report).strip().splitlines()
        assert lines[0] == "method,series_length,n_reps,false_positive_rate,avg_distance"
        assert lines[1].startswith("binseg,50,5,")


# a value each setting of a detector rejects
BAD_SETTINGS = {
    "m_intervals": -1, "min_span": 0, "m_stage": 0, "min_len": 1, "min_seg": 1,
    "c": math.nan, "lam": -1.0, "floor_mult": 0.0,
}
DETECTOR_SETTINGS = [(method, name) for method, signature in bench._SIGNATURES.items()
                     for name in signature.parameters if name not in ("series", "seed")]


def test_every_setting_has_one_rule():
    # the detectors' settings, and those the searches, the generators and the
    # study check, are the table's names and no more
    others = {"m_max", "population", "generations", "sigma_hat", "length", "period",
              "amplitude", "sigma", "n_reps", "n_jobs"}
    names = {name for _, name in DETECTOR_SETTINGS}
    assert not names & others
    assert set(core.SETTING_RULES) == names | others
    assert set(BAD_SETTINGS) == names


@pytest.mark.parametrize("method, name", DETECTOR_SETTINGS,
                         ids=[f"{method}-{name}" for method, name in DETECTOR_SETTINGS])
def test_a_bad_setting_fails_alike_in_detector_and_study(method, name):
    with pytest.raises(ValueError) as detector_error:
        bench.METHODS[method](gen_null(50, 1), **{name: BAD_SETTINGS[name]})
    with mock.patch.object(bench, "_replicate", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError) as study_error:
            run_null_study([method], [50], 2, 1, {method: {name: BAD_SETTINGS[name]}})
    assert str(study_error.value) == str(detector_error.value)
    assert re.search(rf"\b{name} must be", str(detector_error.value))
