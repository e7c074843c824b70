import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpdkit import ChangepointConfig, CostMatrix, config_distance, min_assignment


def brute_force_distance(times_a, times_b, n):
    """Independent oracle: enumerate every injective matching of the smaller
    configuration into the larger; integer gap sums, one final division."""
    m, k = len(times_a), len(times_b)
    larger, smaller = (times_a, times_b) if m >= k else (times_b, times_a)
    if not smaller:
        return float(abs(m - k))
    best = min(
        sum(abs(larger[i] - t) for i, t in zip(perm, smaller))
        for perm in itertools.permutations(range(len(larger)), len(smaller))
    )
    return abs(m - k) + best / n


class TestMinAssignment:
    def test_single_entry(self):
        res = min_assignment(CostMatrix(np.array([[0.25]]), 100))
        assert res.pairs == ((0, 0),)
        assert res.total_cost == 0.25

    def test_two_by_two(self):
        res = min_assignment(CostMatrix(np.array([[1.0, 2.0], [3.0, 0.0]]), 10))
        assert set(res.pairs) == {(0, 0), (1, 1)}
        assert res.total_cost == 1.0

    def test_dominated_row_unmatched(self):
        # third row is worse everywhere; the 6 possible injections leave it out
        cost = CostMatrix(np.array([[0.1, 0.7], [0.6, 0.05], [0.9, 0.8]]), 10)
        res = min_assignment(cost)
        matched_rows = {i for i, _ in res.pairs}
        assert matched_rows == {0, 1}
        assert res.total_cost == pytest.approx(0.15)

    def test_empty_matrix(self):
        res = min_assignment(CostMatrix(np.empty((0, 0)), 10))
        assert res.pairs == ()
        assert res.total_cost == 0.0

    def test_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            CostMatrix(np.array([[-0.1]]), 10)


class TestConfigDistance:
    def test_identity(self):
        for times in [(), (5,), (5, 10, 15)]:
            cfg = ChangepointConfig(times=times, series_length=100)
            assert config_distance(cfg, cfg) == 0.0

    def test_empty_versus_three(self):
        empty = ChangepointConfig.empty(100)
        three = ChangepointConfig(times=(5, 10, 15), series_length=100)
        assert config_distance(empty, three) == 3.0
        assert config_distance(three, empty) == 3.0

    def test_hand_example(self):
        a = ChangepointConfig(times=(10,), series_length=100)
        b = ChangepointConfig(times=(20, 90), series_length=100)
        assert config_distance(a, b) == pytest.approx(1.1)

    def test_mismatched_lengths_error(self):
        a = ChangepointConfig(times=(10,), series_length=100)
        b = ChangepointConfig(times=(10,), series_length=50)
        with pytest.raises(ValueError):
            config_distance(a, b)

    def test_symmetry_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = 30
            a = _random_config(rng, n)
            b = _random_config(rng, n)
            assert config_distance(a, b) == config_distance(b, a)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            a = _random_config(rng, 30)
            b = _random_config(rng, 30)
            d = config_distance(a, b)
            assert (d == 0.0) == (a.times == b.times)

    def test_oracle_equivalence(self):
        # all configuration shapes with m, k <= 6 over T=30, exact equality
        rng = np.random.default_rng(44)
        for _ in range(1000):
            a = _random_config(rng, 30, max_count=6)
            b = _random_config(rng, 30, max_count=6)
            expected = brute_force_distance(a.times, b.times, 30)
            assert config_distance(a, b) == expected

    def test_distance_to_empty_is_count(self):
        rng = np.random.default_rng(45)
        empty = ChangepointConfig.empty(30)
        for _ in range(100):
            a = _random_config(rng, 30)
            assert config_distance(a, empty) == float(a.count)


def _random_config(rng, n, max_count=6):
    m = int(rng.integers(0, max_count + 1))
    times = rng.choice(np.arange(2, n + 1), size=m, replace=False)
    return ChangepointConfig.from_times(times.tolist(), n)


def test_cli_import_leaves_assignment_solver_unloaded():
    # scipy.optimize dominates the import time of cpdkit.cli, and detection
    # never matches configurations; min_assignment imports it on first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = "import sys, cpdkit.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
