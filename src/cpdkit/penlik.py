"""Penalized-likelihood changepoint selection.

Exact segment-neighborhood dynamic programming yields, for each count m, the
configuration of m changepoints minimizing the residual sum of squares with
every segment at least ``min_seg`` long; BIC and mBIC objectives are then
evaluated across counts. A binary-chromosome genetic algorithm optimizes the
same objectives directly, and a refinement step restricts the search to
subsets of an externally supplied candidate list.

With the variance unknown, the likelihood term (T/2) ln(rss/T) diverges as
rss -> 0, so the search space is constrained by ``min_seg`` (default 2) and a
cap on m; perfect fits (rss = 0) are resolved by parsimony: the smallest
count reaching rss = 0 wins and the fit is flagged degenerate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ChangepointConfig, Seed, TimeSeries
from .cusum import prefix_sums
from .wbs2 import SortedCandidateList

M_MAX_CAP = 25
_ZERO_RSS_RTOL = 1e-12

PENALTIES = ("bic", "mbic")


@dataclass(frozen=True)
class PenalizedFit:
    """A configuration with its objective under a named penalty."""

    config: ChangepointConfig
    objective: float
    penalty_name: str
    rss: float
    degenerate: bool = False


@dataclass(frozen=True)
class RssTable:
    """Row m: minimal-RSS configuration with exactly m changepoints."""

    rss: tuple[float, ...]
    configs: tuple[tuple[int, ...], ...]
    series_length: int
    min_seg: int

    @property
    def m_max(self) -> int:
        return len(self.rss) - 1

    def config(self, m: int) -> ChangepointConfig:
        return ChangepointConfig(times=self.configs[m], series_length=self.series_length)


def _prefix_moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums and sums of squares of the centered series; centering
    keeps ss - s^2/n from cancelling catastrophically at large offsets."""
    centered = values - values.mean()
    return prefix_sums(centered), prefix_sums(centered * centered)


def _segment_rss(
    s: np.ndarray, ss: np.ndarray, bounds: np.ndarray, lengths: np.ndarray
) -> float:
    """Summed within-segment RSS for segments (bounds[i], bounds[i+1]] in
    prefix indices, with lengths = np.diff(bounds)."""
    seg_s = s[bounds[1:]] - s[bounds[:-1]]
    seg_ss = ss[bounds[1:]] - ss[bounds[:-1]]
    return float(np.sum(np.maximum(seg_ss - seg_s**2 / lengths, 0.0)))


# columns of the segment-cost matrix built at once; working memory is a few
# (T+1) x _COST_BLOCK float64 arrays
_COST_BLOCK = 128


def _cost_columns(s: np.ndarray, ss: np.ndarray, lo: int, hi: int, min_seg: int) -> np.ndarray:
    """cost[u, t - lo] = RSS of one mean over observations u+1..t (prefix
    indices) for rows u < hi and columns t in [lo, hi), inf where the segment
    is shorter than min_seg (so for every u >= t)."""
    t = np.arange(lo, hi)
    u = np.arange(hi)
    lengths = t[None, :] - u[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = (ss[t][None, :] - ss[u][:, None]) - (s[t][None, :] - s[u][:, None]) ** 2 / lengths
    cost = np.maximum(cost, 0.0)  # guard cancellation on near-perfect fits
    cost[lengths < min_seg] = np.inf
    return cost


def segment_rss_table(series: TimeSeries, m_max: int, min_seg: int = 2) -> RssTable:
    """Exact minimal-RSS configurations for every count m = 0..m_max.

    Segment-neighborhood dynamic programming in O(m_max * T^2) time and
    O(T * _COST_BLOCK) memory: each block of cost columns is built once and
    every level advances across it before the next block, which is valid
    because f_k[t] reads f_{k-1}[u] only for u < t.
    """
    n = len(series)
    if m_max < 0:
        raise ValueError(f"m_max must be non-negative, got {m_max}")
    if min_seg < 2:
        raise ValueError(f"min_seg must be at least 2, got {min_seg}")
    if (m_max + 1) * min_seg > n:
        raise ValueError(
            f"infeasible: {m_max + 1} segments of length >= {min_seg} need "
            f"{(m_max + 1) * min_seg} observations, series has {n}"
        )

    s, ss = _prefix_moments(series.values)
    f = np.empty((m_max + 1, n + 1))  # f[k, t]: best RSS of t obs with k changepoints
    backs = np.empty((m_max, n + 1), dtype=np.int64)
    for lo in range(0, n + 1, _COST_BLOCK):
        hi = min(lo + _COST_BLOCK, n + 1)
        cost = _cost_columns(s, ss, lo, hi, min_seg)
        f[0, lo:hi] = cost[0]  # one segment over the first t observations
        for k in range(1, m_max + 1):
            w = f[k - 1, :hi, None] + cost
            f[k, lo:hi] = np.min(w, axis=0)
            backs[k - 1, lo:hi] = np.argmin(w, axis=0)

    configs: list[tuple[int, ...]] = [()]
    for m in range(1, m_max + 1):
        times = []
        t = n
        for k in range(m, 0, -1):
            u = int(backs[k - 1, t])
            times.append(u + 1)
            t = u
        configs.append(tuple(sorted(times)))

    return RssTable(
        rss=tuple(f[:, n].tolist()), configs=tuple(configs), series_length=n, min_seg=min_seg
    )


def default_m_max(n_obs: int, min_seg: int = 2) -> int:
    return min(n_obs // min_seg - 1, M_MAX_CAP)


def bic_objective(rss: float, n_obs: int, n_changepoints: int) -> float:
    """BIC with 2m+2 parameters (m locations, m+1 means, one variance).

    The penalty enters as (2m+2) ln T against the half-deviance term; this
    scale keeps BIC strictly more conservative than mBIC on pure noise.
    """
    if rss <= 0:
        return -math.inf
    return 0.5 * n_obs * math.log(rss / n_obs) + (2 * n_changepoints + 2) * math.log(n_obs)


def mbic_objective(rss: float, n_obs: int, segment_lengths) -> float:
    """mBIC: 3/2 m ln T plus half the summed log relative segment lengths."""
    if rss <= 0:
        return -math.inf
    m = len(segment_lengths) - 1
    length_term = sum(math.log(l / n_obs) for l in segment_lengths)
    return (
        0.5 * n_obs * math.log(rss / n_obs)
        + 1.5 * m * math.log(n_obs)
        + 0.5 * length_term
    )


def _objective_for(penalty_name: str, rss: float, n_obs: int, segment_lengths) -> float:
    if penalty_name == "bic":
        return bic_objective(rss, n_obs, len(segment_lengths) - 1)
    if penalty_name == "mbic":
        return mbic_objective(rss, n_obs, segment_lengths)
    raise ValueError(f"unknown penalty {penalty_name!r}, expected one of {PENALTIES}")


def evaluate_fit(series: TimeSeries, config: ChangepointConfig, penalty_name: str) -> PenalizedFit:
    """Objective and RSS of a given configuration (no optimization)."""
    s, ss = _prefix_moments(series.values)
    return evaluate_fit_from_moments(s, ss, len(series), config, penalty_name)


def _select_penalized(series: TimeSeries, penalty_name: str, min_seg: int) -> PenalizedFit:
    n = len(series)
    if n < 6:
        raise ValueError(f"need at least 6 observations, got {n}")
    table = segment_rss_table(series, default_m_max(n, min_seg), min_seg)
    zero_tol = _ZERO_RSS_RTOL * max(1.0, table.rss[0])

    best_key = None
    best: PenalizedFit | None = None
    for m in range(table.m_max + 1):
        rss = table.rss[m]
        config = table.config(m)
        degenerate = rss <= zero_tol
        objective = (
            -math.inf
            if degenerate
            else _objective_for(penalty_name, rss, n, config.segment_lengths())
        )
        key = (objective, m)
        if best_key is None or key < best_key:
            best_key = key
            best = PenalizedFit(
                config=config,
                objective=objective,
                penalty_name=penalty_name,
                rss=rss,
                degenerate=degenerate,
            )
    return best


def select_bic(series: TimeSeries, min_seg: int = 2) -> PenalizedFit:
    """Exact BIC-optimal fit over counts 0..m_max via the RSS table."""
    return _select_penalized(series, "bic", min_seg)


def select_mbic(series: TimeSeries, min_seg: int = 2) -> PenalizedFit:
    """mBIC evaluated on each minimal-RSS row; best row wins.

    The segment-length term is scored on the RSS-optimal configuration per
    count, an approximation to the joint search (exact for BIC, whose penalty
    depends on the count alone); :func:`ga_optimize` searches jointly.
    """
    return _select_penalized(series, "mbic", min_seg)


@dataclass(frozen=True)
class GaParams:
    population: int = 50
    generations: int = 200
    crossover_rate: float = 0.8
    mutation_rate: float | None = None  # default 1/(T-1) per bit
    elitism: int = 2
    tournament: int = 3
    init_density: float = 0.5


class _SubsetObjective:
    """Fitness of a bit vector selecting changepoint times from a fixed pool.

    Infeasible selections (a segment shorter than min_seg, or more than m_max
    changepoints) score +inf; perfect fits score -inf and are ranked by
    parsimony through the (objective, count) key.
    """

    def __init__(self, series: TimeSeries, times_pool: np.ndarray, penalty_name: str,
                 min_seg: int = 2):
        if penalty_name not in PENALTIES:
            raise ValueError(f"unknown penalty {penalty_name!r}, expected one of {PENALTIES}")
        self.n = len(series)
        self.pool = times_pool
        self.penalty_name = penalty_name
        self.min_seg = min_seg
        self.m_max = default_m_max(self.n, min_seg)
        self.s, self.ss = _prefix_moments(series.values)

    def key(self, bits: np.ndarray) -> tuple[float, int]:
        times = self.pool[bits.astype(bool)]
        m = times.size
        if m > self.m_max:
            return (math.inf, m)
        bounds = np.concatenate(([0], times - 1, [self.n]))
        lengths = np.diff(bounds)
        if np.any(lengths < self.min_seg):
            return (math.inf, m)
        rss = _segment_rss(self.s, self.ss, bounds, lengths)
        return (_objective_for(self.penalty_name, rss, self.n, lengths.tolist()), m)

    def fit(self, bits: np.ndarray) -> PenalizedFit:
        times = self.pool[bits.astype(bool)]
        config = ChangepointConfig.from_times(times.tolist(), self.n)
        return evaluate_fit_from_moments(
            self.s, self.ss, self.n, config, self.penalty_name
        )


def evaluate_fit_from_moments(
    s: np.ndarray, ss: np.ndarray, n: int, config: ChangepointConfig, penalty_name: str
) -> PenalizedFit:
    bounds = np.array([0] + [t - 1 for t in config.times] + [n])
    lengths = np.diff(bounds)
    rss = _segment_rss(s, ss, bounds, lengths)
    objective = _objective_for(penalty_name, rss, n, lengths.tolist())
    return PenalizedFit(
        config=config,
        objective=objective,
        penalty_name=penalty_name,
        rss=rss,
        degenerate=rss <= 0,
    )


def _ga_minimize(
    objective: _SubsetObjective,
    n_bits: int,
    params: GaParams,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generic binary GA; returns the best bit vector found."""
    pop_size = max(1, params.population)
    mut = params.mutation_rate if params.mutation_rate is not None else 1.0 / max(1, n_bits)

    population = (rng.random((pop_size, n_bits)) < params.init_density).astype(np.int8)
    population[0, :] = 0  # always anchor the null model
    keys = [objective.key(ind) for ind in population]

    best_idx = min(range(pop_size), key=lambda i: keys[i])
    best_bits = population[best_idx].copy()
    best_key = keys[best_idx]

    for _ in range(params.generations):
        order = sorted(range(pop_size), key=lambda i: keys[i])
        elite = [population[i].copy() for i in order[: params.elitism]]

        children = list(elite)
        while len(children) < pop_size:
            parents = []
            for _ in range(2):
                contenders = rng.integers(0, pop_size, size=params.tournament)
                winner = min(contenders, key=lambda i: keys[i])
                parents.append(population[winner])
            c1, c2 = parents[0].copy(), parents[1].copy()
            if n_bits >= 2 and rng.random() < params.crossover_rate:
                lo, hi = np.sort(rng.choice(n_bits, size=2, replace=False))
                c1[lo:hi], c2[lo:hi] = parents[1][lo:hi].copy(), parents[0][lo:hi].copy()
            for child in (c1, c2):
                flips = rng.random(n_bits) < mut
                child[flips] ^= 1
                if len(children) < pop_size:
                    children.append(child)

        population = np.array(children, dtype=np.int8)
        keys = [objective.key(ind) for ind in population]
        gen_best = min(range(pop_size), key=lambda i: keys[i])
        if keys[gen_best] < best_key:
            best_key = keys[gen_best]
            best_bits = population[gen_best].copy()

    return best_bits


def ga_optimize(
    series: TimeSeries,
    penalty_name: str,
    ga_params: GaParams | None = None,
    seed: Seed = 0,
    min_seg: int = 2,
) -> PenalizedFit:
    """Genetic-algorithm search over all admissible changepoint positions.

    One bit per position 2..T; the same objective and feasibility constraints
    as the exact selectors, so the returned objective can never undercut the
    dynamic-programming optimum.
    """
    n = len(series)
    if n < 6:
        raise ValueError(f"need at least 6 observations, got {n}")
    params = ga_params or GaParams()
    pool = np.arange(2, n + 1)
    objective = _SubsetObjective(series, pool, penalty_name, min_seg)
    rng = np.random.default_rng(seed)
    best = _ga_minimize(objective, pool.size, params, rng)
    return objective.fit(best)


EXHAUSTIVE_CANDIDATE_LIMIT = 20


def hybrid_refine(
    series: TimeSeries,
    candidates: SortedCandidateList,
    penalty_name: str,
    seed: Seed = 0,
    ga_params: GaParams | None = None,
    min_seg: int = 2,
) -> PenalizedFit:
    """Best penalized fit over subsets of a candidate list's changepoint times.

    Exhaustive below EXHAUSTIVE_CANDIDATE_LIMIT candidates, genetic search
    above; infeasible subsets are skipped. An empty candidate list yields the
    null fit.
    """
    pool = np.array(sorted({e.changepoint_time for e in candidates.entries}), dtype=np.int64)
    objective = _SubsetObjective(series, pool, penalty_name, min_seg)
    if pool.size == 0:
        return objective.fit(np.zeros(0, dtype=np.int8))

    if pool.size <= EXHAUSTIVE_CANDIDATE_LIMIT:
        best_bits = np.zeros(pool.size, dtype=np.int8)
        best_key = objective.key(best_bits)
        for size in range(1, pool.size + 1):
            for combo in itertools.combinations(range(pool.size), size):
                bits = np.zeros(pool.size, dtype=np.int8)
                bits[list(combo)] = 1
                key = objective.key(bits)
                if key < best_key:
                    best_key = key
                    best_bits = bits
        return objective.fit(best_bits)

    params = ga_params or GaParams()
    rng = np.random.default_rng(seed)
    best = _ga_minimize(objective, pool.size, params, rng)
    return objective.fit(best)
