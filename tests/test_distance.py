import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpdkit import ChangepointConfig, config_distance, gen_teeth


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


def hungarian_distance(a, b):
    """Reference: scipy's rectangular Hungarian solver on the integer gaps,
    one final division."""
    from scipy.optimize import linear_sum_assignment

    larger, smaller = (a.times, b.times) if a.count >= b.count else (b.times, a.times)
    if not smaller:
        return float(len(larger))
    gaps = np.abs(np.subtract.outer(np.array(larger), np.array(smaller)))
    rows, cols = linear_sum_assignment(gaps)
    return len(larger) - len(smaller) + int(gaps[rows, cols].sum()) / a.series_length


def test_matches_hungarian_solver_on_long_configurations():
    # crossing matchings are never needed on a line; the order-preserving DP
    # must reach the same exact optimum as a general assignment solver
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(46)
    n = 3000
    teeth = [gen_teeth(n, period=30, seed=s)[1] for s in range(3)]
    assert teeth[0].count == 99
    for trial in range(400):
        b = _random_config(rng, n, max_count=150)
        a = teeth[trial % 3] if trial % 4 == 0 else _random_config(rng, n, max_count=150)
        assert config_distance(a, b) == hungarian_distance(a, b)
        assert config_distance(b, a) == hungarian_distance(b, a)


def test_distance_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        n = draw(st.integers(2, 120))
        shift = draw(st.integers(0, n - 2))
        times = st.sets(st.integers(2, n - shift), max_size=12)
        return n, shift, sorted(draw(times)), sorted(draw(times))

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(pairs())
    def check(pair):
        n, shift, ta, tb = pair
        a, b = ChangepointConfig(tuple(ta), n), ChangepointConfig(tuple(tb), n)
        d = config_distance(a, b)
        assert config_distance(b, a) == d
        moved = [ChangepointConfig(tuple(t + shift for t in ts), n) for ts in (ta, tb)]
        assert config_distance(*moved) == d
        flipped = [ChangepointConfig.from_times([n + 2 - t for t in ts], n) for ts in (ta, tb)]
        assert config_distance(*flipped) == d
        assert config_distance(a, a) == 0.0
        assert (d == 0.0) == (ta == tb)

    check()


def test_cli_import_leaves_assignment_solver_unloaded(tmp_path):
    # the distance needs numpy only: importing the package and the CLI,
    # matching two configurations and a signal study load no scipy module
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = (
        "import sys, cpdkit, cpdkit.cli\n"
        "a = cpdkit.ChangepointConfig((5, 20, 40), 60)\n"
        "b = cpdkit.ChangepointConfig((7, 38), 60)\n"
        "assert cpdkit.config_distance(a, b) == 1 + 4 / 60\n"
        "code = cpdkit.cli.main(['bench', '--methods', 'binseg', '--lengths', '60', '--reps',"
        " '2', '--signal', '--teeth-length', '60', '--out', sys.argv[1]])\n"
        "assert code == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "signal_results.csv").exists()
