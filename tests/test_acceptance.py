"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line once its assertions hold, so `pytest -s`
gives a per-criterion checklist. Criterion 1 runs the full benchmark
(1000 replications per cell) and takes a few minutes.
"""

import hashlib
import itertools
import math
import os

import numpy as np
import pytest

from cpdkit import (
    ChangepointConfig,
    TeethSpec,
    TimeSeries,
    binary_segmentation,
    config_distance,
    gen_null,
    gen_teeth,
    max_cusum,
    run_null_study,
    run_signal_study,
    sdll_select,
    segment_rss_table,
    select_bic,
    wbs2_sdll_detect,
    wbs_detect,
)
from cpdkit.binseg import split_recursively
from cpdkit.cli import main
from cpdkit.wbs2 import CandidateEntry, SortedCandidateList

ACCEPTANCE_SEED = 12345  # the CLI default master seed
N_JOBS = min(4, os.cpu_count() or 1)
# SHA-256 of the null_results.csv that `cpdkit bench --table1 --seed 12345`
# writes, with any --jobs: a speed-up must leave every Table-1 row as it is
TABLE1_CSV_SHA256 = "3170aea5eabcd48e40177101752068a5a0ec30a5611a4077214925bcd813c8b8"


def _read_rows(csv_path):
    rows = {}
    for line in csv_path.read_text().strip().splitlines()[1:]:
        method, length, n_reps, fp, dist = line.split(",")
        rows[(method, int(length))] = (float(fp), float(dist))
    return rows


@pytest.fixture(scope="module")
def table1_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("table1")
    code = main(["bench", "--table1", "--seed", str(ACCEPTANCE_SEED),
                 "--out", str(out), "--jobs", str(N_JOBS)])
    assert code == 0
    return out / "null_results.csv"


@pytest.fixture(scope="module")
def table1_rows(table1_csv):
    return _read_rows(table1_csv)


def test_table1_results_are_bit_identical(table1_csv):
    assert hashlib.sha256(table1_csv.read_bytes()).hexdigest() == TABLE1_CSV_SHA256
    print("\nACCEPTANCE 1 (bytes): PASS - null_results.csv as recorded")


def test_criterion_1_table1_bands(table1_rows):
    rows = table1_rows
    bic100, _ = rows[("bic", 100)]
    bic500, _ = rows[("bic", 500)]
    mbic100, _ = rows[("mbic", 100)]
    mbic500, _ = rows[("mbic", 500)]
    wbs100, _ = rows[("wbs", 100)]
    wbs500, _ = rows[("wbs", 500)]
    sdll100, sdll100_dist = rows[("wbs2-sdll", 100)]
    sdll500, _ = rows[("wbs2-sdll", 500)]

    assert bic100 <= 0.02, f"BIC FP at T=100: {bic100}"
    assert bic500 <= 0.01, f"BIC FP at T=500: {bic500}"
    assert 0.005 <= mbic100 <= 0.09, f"mBIC FP at T=100: {mbic100}"
    assert mbic500 <= 0.03, f"mBIC FP at T=500: {mbic500}"
    assert 0.10 <= wbs100 <= 0.30, f"WBS FP at T=100: {wbs100}"
    assert 0.03 <= wbs500 <= 0.15, f"WBS FP at T=500: {wbs500}"
    assert 0.08 <= sdll100 <= 0.30, f"WBS2-SDLL FP at T=100: {sdll100}"
    assert sdll100_dist >= 2.0 * sdll100, (
        f"WBS2-SDLL distance/FP at T=100: {sdll100_dist}/{sdll100}"
    )
    assert bic100 < mbic100 < wbs100, "ordering at T=100"
    assert bic500 <= mbic500 <= sdll500, "ordering at T=500"

    print("\nACCEPTANCE 1: PASS - benchmark bands and orderings "
          f"(BIC {bic100:.3f}/{bic500:.3f}, mBIC {mbic100:.3f}/{mbic500:.3f}, "
          f"WBS {wbs100:.3f}/{wbs500:.3f}, WBS2-SDLL {sdll100:.3f}/{sdll500:.3f}, "
          f"SDLL dist {sdll100_dist:.3f})")


def test_criterion_2_distance_oracle_equivalence():
    rng = np.random.default_rng(202)
    n = 30

    def random_config():
        m = int(rng.integers(0, 7))
        times = rng.choice(np.arange(2, n + 1), size=m, replace=False)
        return ChangepointConfig.from_times(times.tolist(), n)

    for _ in range(1000):
        a, b = random_config(), random_config()
        larger, smaller = (a.times, b.times) if a.count >= b.count else (b.times, a.times)
        if smaller:
            best = min(
                sum(abs(larger[i] - t) for i, t in zip(perm, smaller))
                for perm in itertools.permutations(range(len(larger)), len(smaller))
            )
            expected = abs(a.count - b.count) + best / n
        else:
            expected = float(abs(a.count - b.count))
        assert config_distance(a, b) == expected

    print("\nACCEPTANCE 2: PASS - assignment distance equals brute force on "
          "1000 random pairs (exact)")


def test_criterion_3_bic_exactness():
    rng = np.random.default_rng(303)

    def all_configs(n):
        out = [()]

        def extend(prefix, last_start):
            for t in range(2, n):
                if t - last_start >= 2 and n - t + 1 >= 2:
                    cfg = prefix + (t,)
                    out.append(cfg)
                    extend(cfg, t)

        extend((), 1)
        return out

    def oracle_objective(x, times):
        bounds = [0] + [t - 1 for t in times] + [len(x)]
        rss = sum(
            float(np.sum((x[lo:hi] - x[lo:hi].mean()) ** 2))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        if rss <= 0:
            return -math.inf
        n = len(x)
        return 0.5 * n * math.log(rss / n) + (2 * len(times) + 2) * math.log(n)

    for trial in range(200):
        n = int(rng.integers(12, 15))
        x = rng.standard_normal(n)
        fit = select_bic(TimeSeries(x))
        best = min(oracle_objective(x, cfg) for cfg in all_configs(n))
        assert oracle_objective(x, fit.config.times) == best, f"trial {trial}"

    print("\nACCEPTANCE 3: PASS - select_bic attains the enumerated global "
          "optimum on 200 short series (exact)")


def test_criterion_4_cusum_analytics():
    for n in range(4, 65, 4):
        for delta in (1.0, 2.5):
            x = np.zeros(n)
            x[n // 2 :] = delta
            b, mag = max_cusum(TimeSeries(x), 1, n)
            assert b == n // 2
            assert abs(mag - delta * math.sqrt(n / 4.0)) <= 1e-9 * delta * math.sqrt(n / 4.0)

    # argmax lands on the true break for every position and window size
    for n in range(4, 51):
        for p in range(1, n):
            x = np.zeros(n)
            x[p:] = 1.0
            b, _ = max_cusum(TimeSeries(x), 1, n)
            assert b == p, f"window {n}, break after {p}: argmax {b}"

    print("\nACCEPTANCE 4: PASS - balanced-step magnitude delta*sqrt(n/4) at "
          "1e-9 and exact argmax for every break position")


def test_criterion_5_high_snr_recovery():
    exact = 0
    for rep in range(200):
        series, truth = gen_teeth(200, 20, 1.0, 0.1, seed=51_000 + rep)
        est = wbs2_sdll_detect(series, seed=52_000 + rep)
        if est.times == truth.times:
            assert config_distance(est, truth) <= 0.1
            exact += 1
    assert exact >= 190, f"exact recoveries: {exact}/200"

    print(f"\nACCEPTANCE 5: PASS - teeth signal recovered exactly in {exact}/200 runs")


def test_criterion_6_determinism(tmp_path):
    series = gen_null(150, 61)
    assert binary_segmentation(series).times == binary_segmentation(series).times
    assert wbs_detect(series, seed=6).times == wbs_detect(series, seed=6).times
    assert (
        wbs2_sdll_detect(series, seed=6).times == wbs2_sdll_detect(series, seed=6).times
    )
    assert select_bic(series).config.times == select_bic(series).config.times

    methods = ["bic", "mbic", "wbs", "wbs2-sdll", "binseg"]
    a = run_null_study(methods, [60, 100], 50, 987)
    b = run_null_study(methods, [60, 100], 50, 987)
    assert a == b

    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["bench", "--methods", *methods, "--lengths", "60", "--reps",
                     "25", "--seed", "11", "--out", str(d)]) == 0
    assert (d1 / "null_results.csv").read_bytes() == (d2 / "null_results.csv").read_bytes()
    assert (d1 / "null_table.txt").read_bytes() == (d2 / "null_table.txt").read_bytes()

    print("\nACCEPTANCE 6: PASS - detectors and benchmark bit-identical across runs")


def test_criterion_7_property_suite():
    rng = np.random.default_rng(707)

    # distance symmetry and identity
    def random_config(n=40):
        m = int(rng.integers(0, 6))
        times = rng.choice(np.arange(2, n + 1), size=m, replace=False)
        return ChangepointConfig.from_times(times.tolist(), n)

    for _ in range(300):
        a, b = random_config(), random_config()
        assert config_distance(a, b) == config_distance(b, a)
        assert (config_distance(a, b) == 0.0) == (a.times == b.times)

    # threshold monotonicity for binseg and wbs
    for trial in range(10):
        x = rng.standard_normal(100)
        x[50:] += rng.uniform(0.0, 2.0)
        s = TimeSeries(x)
        grid = (0.2, 0.6, 1.0, 1.5, 2.5)
        counts_bs = [split_recursively(s, c * 3.0).count for c in grid]
        counts_wbs = [wbs_detect(s, c=c, seed=trial).count for c in grid]
        assert counts_bs == sorted(counts_bs, reverse=True)
        assert counts_wbs == sorted(counts_wbs, reverse=True)

    # RSS table monotone in the count
    for trial in range(10):
        s = TimeSeries(rng.standard_normal(70))
        table = segment_rss_table(s, m_max=12)
        for m in range(12):
            assert table.rss[m + 1] <= table.rss[m] + 1e-9 * (1 + table.rss[0])

    # SDLL scale consistency
    for trial in range(50):
        mags = np.sort(rng.exponential(2.0, size=10))[::-1]
        entries = tuple(
            CandidateEntry(start=1, end=50, location=2 + i, magnitude=float(m))
            for i, m in enumerate(mags)
        )
        cands = SortedCandidateList(entries=entries, series_length=50)
        sigma = float(rng.uniform(0.1, 1.5))
        base = sdll_select(cands, sigma).count
        for c in (0.5, 3.0, 50.0):
            scaled_entries = tuple(
                CandidateEntry(start=1, end=50, location=2 + i, magnitude=float(c * m))
                for i, m in enumerate(mags)
            )
            scaled = SortedCandidateList(entries=scaled_entries, series_length=50)
            assert sdll_select(scaled, c * sigma).count == base

    # report invariant: average distance dominates the false-positive rate
    report = run_null_study(["binseg", "wbs", "wbs2-sdll"], [80], 40, 321)
    for row in report.rows:
        assert row.avg_distance >= row.false_positive_rate

    print("\nACCEPTANCE 7: PASS - distance axioms, threshold monotonicity, "
          "RSS monotonicity, SDLL scale consistency, report invariant")


def test_criterion_8_frequent_changepoints():
    # the paper's regime: 49 changes at T=500 (period 10) and 66 at T=2000
    # (period 30), 20 replications each at master seed 7. Recorded average
    # distances: WBS2-SDLL 0.065 and 0.054, WBS 1.264 and 0.055, binseg 45.25
    # and 0.614. bic and mbic get bands once their search reaches more than
    # 25 changepoints.
    methods = ["wbs2-sdll", "wbs", "binseg"]
    dense, wide = (
        {row.method: row.avg_distance
         for row in run_signal_study(TeethSpec(length, period=period), methods, 20, 7).rows}
        for length, period in ((500, 10), (2000, 30))
    )
    assert dense["wbs2-sdll"] <= 0.25, f"WBS2-SDLL at T=500, period 10: {dense}"
    assert dense["wbs"] <= 2.5, f"WBS at T=500, period 10: {dense}"
    assert dense["binseg"] >= 25.0, f"binseg at T=500, period 10: {dense}"
    assert dense["wbs2-sdll"] < dense["wbs"] < dense["binseg"], "ordering at T=500"
    assert wide["wbs2-sdll"] <= 0.25, f"WBS2-SDLL at T=2000, period 30: {wide}"
    assert wide["wbs"] <= 0.25, f"WBS at T=2000, period 30: {wide}"
    assert wide["binseg"] <= 1.5, f"binseg at T=2000, period 30: {wide}"

    print("\nACCEPTANCE 8: PASS - frequent changepoints: distance at T=500/2000 "
          f"WBS2-SDLL {dense['wbs2-sdll']:.3f}/{wide['wbs2-sdll']:.3f}, "
          f"WBS {dense['wbs']:.3f}/{wide['wbs']:.3f}, "
          f"binseg {dense['binseg']:.3f}/{wide['binseg']:.3f}")
