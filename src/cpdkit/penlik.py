"""Penalized-likelihood changepoint selection.

Exact segment-neighborhood dynamic programming yields, for each count m, the
configuration of m changepoints minimizing the residual sum of squares with
every segment at least ``min_seg`` long; BIC and mBIC objectives are then
evaluated across counts. A binary-chromosome genetic algorithm optimizes the
same objectives directly, as the penalized camp does; it may miss the global
minimum. A refinement step finds the exact optimum over the subsets of an
externally supplied candidate list by a branch and bound, rescoring exactly
each subset within a stated rounding slack of the best.

All of these score changepoint times through one objective, so they share
one BIC/mBIC formula (``_Objective.value``) and one rule for perfect fits.
With the variance unknown, the likelihood term (T/2) ln(rss/T) diverges as
rss -> 0, so the search space is constrained by ``min_seg`` (default 2) and
a cap on m, and a fit whose RSS is within
``_ZERO_RSS_RTOL * null-model RSS`` counts as perfect: its objective is -inf,
it is flagged degenerate, and among perfect fits the smallest count wins. The
rule is relative, so rescaling the series leaves the fit unchanged, and a
constant series (null RSS 0) is a perfect fit at m = 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import ChangepointConfig, Seed, TimeSeries, check_settings
from .wbs2 import SortedCandidateList

M_MAX_CAP = 25
_ZERO_RSS_RTOL = 1e-12

PENALTIES = ("bic", "mbic")


@dataclass(frozen=True)
class PenalizedFit:
    """A configuration with its objective under a named penalty.

    ``degenerate`` marks a perfect fit, one whose RSS is within
    ``_ZERO_RSS_RTOL * null-model RSS``; its objective is -inf.
    """

    config: ChangepointConfig
    objective: float
    penalty_name: str
    rss: float
    degenerate: bool = False


@dataclass(frozen=True)
class RssTable:
    """Row m = 0..m_max: the least RSS of m changepoints and their sorted times."""

    rss: tuple[float, ...]
    configs: tuple[tuple[int, ...], ...]


def _rss_moments(series: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
    """The series' centered moments, or ValueError where a segment RSS could overflow or vanish."""
    s, ss = series.centered_moments
    # T * ss bounds every squared segment sum (s[t] - s[u])^2 an RSS forms, and
    # s is all 0 only where every deviation is
    with np.errstate(over="ignore"):
        if not np.isfinite(ss[-1] * len(series)) or (ss[-1] == 0 and s.any()):
            raise ValueError(
                "a segment RSS needs deviations from the series mean between about "
                f"1e-150 and {1e154 / len(series):.0e} in magnitude at T={len(series)}")
    return s, ss


def _segment_cost(s: np.ndarray, ss: np.ndarray, u, t) -> np.ndarray:
    """RSS of one mean over observations u+1..t (prefix indices), for index
    arrays u and t broadcast against each other."""
    return _rss_from_sums(np.asarray(ss[t] - ss[u]), np.asarray(s[t] - s[u]), t - u)


def _rss_from_sums(sq: np.ndarray, total: np.ndarray, length) -> np.ndarray:
    """sq - total^2 / length: the RSS of one mean over segments with these
    centered sums of squares, sums and lengths, clipped at 0 against
    cancellation on near-perfect fits. Works in place: overwrites sq and
    total, and returns sq."""
    total **= 2
    total /= length
    sq -= total
    return np.maximum(sq, 0.0, out=sq)


# end times of the segment-cost matrix built at once; working memory is a few
# _COST_BLOCK x (T+1) float64 arrays
_COST_BLOCK = 128


def _cost_rows(s: np.ndarray, ss: np.ndarray, lo: int, hi: int, min_seg: int) -> np.ndarray:
    """cost[t - lo, u] = RSS of one mean over observations u+1..t (prefix
    indices) for rows t in [lo, hi) and columns u < hi, inf where the segment
    is shorter than min_seg (so for every u >= t).

    Formed in two (hi - lo) x hi buffers; the lengths t - u are a view of one
    float row (exact below 2^53).
    """
    # lengths[i, u] = lo + i - u
    lengths = np.lib.stride_tricks.sliding_window_view(
        np.arange(hi - 1, lo - hi, -1, dtype=np.float64), hi)[::-1]
    cost = np.subtract.outer(ss[lo:hi], ss[:hi])
    with np.errstate(divide="ignore", invalid="ignore"):
        _rss_from_sums(cost, np.subtract.outer(s[lo:hi], s[:hi]), lengths)
    short = max(lo - min_seg + 1, 0)  # no earlier column is too short for row lo
    np.copyto(cost[:, short:], np.inf, where=lengths[:, short:] < min_seg)
    return cost


def segment_rss_table(series: TimeSeries, m_max: int, min_seg: int = 2) -> RssTable:
    """Exact minimal-RSS configurations for every count m = 0..m_max.

    Segment-neighborhood dynamic programming in O(m_max * T^2) time at worst
    and O(T * (m_max + _COST_BLOCK)) memory (the levels, their back-pointers
    and one block of cost rows): each block of rows, one per end time t, is
    built once, and one loop computes each level k = 1..m_max on all of
    them, valid because f_k[t] reads f_{k-1}[u] only for u < t. A level
    is one add into one contiguous buffer and one argmin along each row;
    argmin keeps the first minimum, so ties go to the smallest u.

    Level k >= 2 reads only the columns u >= band[k]. Where a later block
    exists, the pass that computes level k then advances band[k] over the
    leading run of columns u with f_{k-1}[u] + C(u, t) > f_{k-1}[t] + slack
    at t = hi - min_seg, the first end time whose column the next block
    reads. Since C(u, s) >= C(u, t) + C(t, s) for u < t < s, such a u loses
    to t strictly at every later end time and is never a first minimum, so
    the table is the one the full DP gives (the pruning of PELT and SNIP:
    Killick et al. 2012, Maidstone et al. 2017). Level 1 never prunes: a
    split never raises the RSS. No level depends on m_max, so a smaller
    table is a prefix of a larger one, bit for bit.

    The table is ``rss`` and ``configs``, every count's times read off the
    back pointers in one pass; the series keeps it by (m_max, min_seg), so
    select_bic and select_mbic on it share one DP.
    """
    n = len(series)
    check_settings(m_max=m_max, min_seg=min_seg)
    if (m_max + 1) * min_seg > n:
        raise ValueError(
            f"infeasible: {m_max + 1} segments of length >= {min_seg} need "
            f"{(m_max + 1) * min_seg} observations, series has {n}"
        )
    if (m_max, min_seg) in series._rss_tables:
        return series._rss_tables[m_max, min_seg]

    s, ss = _rss_moments(series)
    # The slack bounds the rounding of the pruning test. With the stored
    # prefix sums the unclipped cost formula D satisfies D(u, s) >= D(u, t) +
    # D(t, s) exactly (the ss terms telescope, and a^2/p + b^2/q >=
    # (a+b)^2/(p+q)), so only rounding breaks the inequality. ss is
    # non-decreasing, so no finite f or cost exceeds about R = ss[T]. A cost
    # is formed within 4 eps R of D, and the clip at 0 lifts it by at most the
    # prefix sums' own rounding, (T + 2 T^1.5 + 1) eps R; a sum of two such
    # values rounds by at most eps R. The test and the two later sums it
    # compares take three costs and four sums, so together they err by under
    # (4 T^1.5 + 2 T + 18) eps R <= 24 T^1.5 eps R. With R = 0 (a constant
    # series) every cost and f is 0, and where f_{k-1}[t] is inf, nothing
    # passes the test.
    slack = 64 * n**1.5 * np.finfo(np.float64).eps * float(ss[-1])
    f = np.empty((m_max + 1, n + 1))  # f[k, t]: best RSS of t obs with k changepoints
    backs = np.empty((m_max, n + 1), dtype=np.int64)
    band = [0] * (m_max + 1)  # band[k]: the first column level k reads
    buf = np.empty(min(_COST_BLOCK, n + 1) * (n + 1))
    for lo in range(0, n + 1, _COST_BLOCK):
        hi = min(lo + _COST_BLOCK, n + 1)
        cost = _cost_rows(s, ss, lo, hi, min_seg)
        f[0, lo:hi] = cost[:, 0]  # one segment over the first t observations
        rows = np.arange(hi - lo)
        t = hi - min_seg  # the first end time whose column the next block reads
        end = t - min_seg + 1  # the columns u <= t - min_seg, which t may follow
        for k in range(1, m_max + 1):
            b = band[k]
            w = buf[: rows.size * (hi - b)].reshape(rows.size, hi - b)
            np.add(f[k - 1, b:hi], cost[:, b:], out=w)
            back = w.argmin(axis=1)
            f[k, lo:hi] = w[rows, back]
            backs[k - 1, lo:hi] = back + b
            if k >= 2 and hi <= n and lo <= t and b < end:
                pruned = f[k - 1, b:end] + cost[t - lo, b:end] > f[k - 1, t] + slack
                band[k] = b + (end - b if pruned.all() else int(np.argmin(pruned)))

    # Backtrack every count at once. Step j moves each count m > j back from
    # level m - j to the last observation before its (m - j)-th changepoint,
    # and writes that changepoint to column m - j - 1, so rows come out sorted.
    times = np.zeros((m_max, m_max), dtype=np.int64)  # row m - 1: count m
    t, col = np.full(m_max, n), np.arange(m_max)
    for j in range(m_max):  # row m - j - 1 of backs is level m - j, for m = j + 1..m_max
        t[j:] = backs[col[: m_max - j], t[j:]]
        times[col[j:], col[: m_max - j]] = t[j:] + 1
    configs = ((), *(tuple(row[:m]) for m, row in enumerate(times.tolist(), 1)))
    table = RssTable(rss=tuple(f[:, n].tolist()), configs=configs)
    series._rss_tables[m_max, min_seg] = table
    return table


def default_m_max(n_obs: int, min_seg: int = 2) -> int:
    # 0 where not even one segment fits, which segment_rss_table then reports
    return max(min(n_obs // min_seg - 1, M_MAX_CAP), 0)


class _Objective:
    """BIC or mBIC of changepoint times on one series, with the zero-RSS
    tolerance every penalized path shares. ``keys``, ``key_and_rss`` and
    ``fit`` sum segment costs in one place, :meth:`_pass`. A search key is
    (objective, count): infeasible times (a segment shorter than min_seg, or
    more than m_max changepoints) score +inf, and perfect fits rank by parsimony.
    """

    def __init__(self, series: TimeSeries, penalty_name: str, min_seg: int = 2):
        if penalty_name not in PENALTIES:
            raise ValueError(f"unknown penalty {penalty_name!r}, expected one of {PENALTIES}")
        check_settings(min_seg=min_seg)
        self.n = len(series)
        self.log_n = math.log(self.n)
        self.penalty_name = penalty_name
        self.min_seg = min_seg
        self.m_max = default_m_max(self.n, min_seg)
        self.s, self.ss = _rss_moments(series)
        self.zero_tol = _ZERO_RSS_RTOL * float(_segment_cost(self.s, self.ss, 0, self.n))
        if penalty_name == "mbic":  # ln(l / T), the mBIC term of a segment of length l
            self.log_rel_len = functools.cache(lambda l, n=self.n: math.log(l / n))

    def value(self, rss, log_sum, count, log=math.log):
        """The objective of ``count`` changepoints at RSS ``rss``, with no
        zero-RSS rule; ``log`` is ``np.log`` over arrays. BIC counts 2m+2
        parameters (m locations, m+1 means, one variance), a scale that keeps
        it strictly more conservative than mBIC on pure noise; mBIC adds 3/2 m
        ln T and half of ``log_sum``, the summed log relative segment lengths.
        """
        half_dev = 0.5 * self.n * log(rss / self.n)
        if self.penalty_name == "bic":
            return half_dev + (2 * count + 2) * self.log_n
        return half_dev + 1.5 * count * self.log_n + 0.5 * log_sum

    def score(self, rss: float, segment_lengths) -> float:
        """The objective of a fit; -inf where the RSS counts as a perfect fit."""
        if rss <= self.zero_tol:
            return -math.inf
        log_sum = (sum(map(self.log_rel_len, segment_lengths))
                   if self.penalty_name == "mbic" else 0.0)
        return self.value(rss, log_sum, len(segment_lengths) - 1)

    def _pass(self, t: np.ndarray, counts: list[int]) -> tuple[list, list]:
        """The key and RSS of each row of changepoint times inside the series:
        ``t`` holds the prefix index ending each segment, row after row, and
        ``counts`` the rows' counts in increasing order. All segments are
        costed at once, and each count's rows are one (rows, m + 1) block
        summed along its rows, to the bits of each row's ``np.sum`` alone."""
        u = np.append(0, t)[:-1]  # the prefix index starting each segment
        u[u == self.n] = 0  # a row starts where the row before it ends, at T
        cost = _segment_cost(self.s, self.ss, u, t)
        lengths = (t - u).tolist()
        keys, rss, start = [], [], 0
        for m, group in itertools.groupby(counts):
            n_rows = len(list(group))
            stop = start + n_rows * (m + 1)
            block = np.sum(cost[start:stop].reshape(n_rows, m + 1), axis=1).tolist()
            for a, rss_j in zip(range(start, stop, m + 1), block):
                row = lengths[a : a + m + 1]
                feasible = m <= self.m_max and min(row) >= self.min_seg
                keys.append((self.score(rss_j, row) if feasible else math.inf, m))
            rss += block
            start = stop
        return keys, rss

    def key_and_rss(self, times) -> tuple[tuple[float, int], float]:
        """The key of one set of times and its RSS, by a one-row pass.
        Infeasible times, among them any outside 2..T or out of order, are
        (inf, count) with RSS nan, and are not costed."""
        edges = (1, *times, self.n + 1)  # each segment's first time, and T + 1
        if len(times) > self.m_max or any(b - a < self.min_seg for a, b in zip(edges, edges[1:])):
            return (math.inf, len(times)), math.nan
        (key,), (rss,) = self._pass(np.subtract(edges[1:], 1), [len(times)])
        return key, rss

    def keys(self, population: np.ndarray) -> list[tuple[float, int]]:
        """The key of each 0/1 row (bit i: time i + 2). A row above m_max is
        (inf, count) uncosted; the others are stably sorted by count and
        their segments laid out flat, row after row, for one :meth:`_pass`.
        """
        counts = population.sum(axis=1)
        keys = [(math.inf, m) for m in counts.tolist()]
        rows = np.flatnonzero(counts <= self.m_max)
        rows = rows[np.argsort(counts[rows], kind="stable")]
        bits = np.ones((rows.size, population.shape[1] + 1), dtype=np.int8)
        bits[:, :-1] = population[rows]  # and a last bit for time T + 1, ending each row
        t = np.nonzero(bits)[1] + 1  # the prefix index ending each segment
        for j, key in zip(rows.tolist(), self._pass(t, counts[rows].tolist())[0]):
            keys[j] = key
        return keys

    def fit(self, times, rss: float | None = None) -> PenalizedFit:
        """The fit of the given times; ``rss`` passes an RSS already known."""
        config = ChangepointConfig.from_times(times, self.n)
        if rss is None:
            rss = self._pass(np.subtract((*config.times, self.n + 1), 1), [config.count])[1][0]
        return PenalizedFit(
            config=config,
            objective=self.score(rss, config.segment_lengths()),
            penalty_name=self.penalty_name,
            rss=rss,
            degenerate=rss <= self.zero_tol,
        )


def _select_penalized(series: TimeSeries, penalty_name: str, min_seg: int) -> PenalizedFit:
    n = len(series)
    if n < 6:
        raise ValueError(f"need at least 6 observations, got {n}")
    objective = _Objective(series, penalty_name, min_seg)
    table = segment_rss_table(series, objective.m_max, min_seg)
    # each count's segment lengths, the ints ChangepointConfig.segment_lengths gives
    lengths = [np.diff((1, *times, n + 1)).tolist() for times in table.configs]
    best = min(range(len(lengths)), key=lambda m: (objective.score(table.rss[m], lengths[m]), m))
    return objective.fit(table.configs[best], table.rss[best])


def select_bic(series: TimeSeries, min_seg: int = 2) -> PenalizedFit:
    """Exact BIC-optimal fit over counts 0..m_max via the RSS table."""
    return _select_penalized(series, "bic", min_seg)


def select_mbic(series: TimeSeries, min_seg: int = 2) -> PenalizedFit:
    """mBIC evaluated on each minimal-RSS row; best row wins.

    The segment-length term is scored on the RSS-optimal configuration per
    count, an approximation to the joint search (exact for BIC, whose penalty
    depends on the count alone). :func:`hybrid_refine` with every time 2..T
    as a candidate is the exact joint search; :func:`ga_optimize` searches
    jointly at random.
    """
    return _select_penalized(series, "mbic", min_seg)


# The GA's fixed settings; only its size (GaParams) is tunable.
_CROSSOVER_RATE = 0.8  # most parent pairs recombine, a few pass on unchanged
_ELITISM = 2  # the best two carry over, so a generation's best never worsens
_TOURNAMENT = 3  # a parent is the best of three draws: mild selection pressure
_INIT_DENSITY = 0.5  # each bit of a random initial individual is set by a coin flip
_MUTATIONS_PER_CHILD = 1.0  # each bit flips with probability 1/(number of bits)


@dataclass(frozen=True)
class GaParams:
    """Size of the genetic search: ``population`` individuals (at least 1)
    evolved for ``generations`` generations (at least 0).

    The rest is fixed: two-point crossover at rate 0.8, the best two kept,
    tournaments of three, initial bits set with probability 0.5 and each bit
    flipped with probability 1/(number of bits).
    """

    population: int = 50
    generations: int = 200

    def __post_init__(self):
        check_settings(population=self.population, generations=self.generations)


def _crossover_cut(rng: np.random.Generator, n_bits: int) -> tuple[int, int]:
    """The sorted pair ``np.sort(rng.choice(n_bits, 2, replace=False))``
    gives, from the same draws at a fraction of the call overhead. numpy's
    Generator draws that pair by Floyd's sampling, a below n_bits - 1, then b
    below n_bits, taking n_bits - 1 if b repeats a, and shuffles the two with
    one draw below 2, which the sort makes moot."""
    a = rng.integers(0, n_bits - 1)
    b = rng.integers(0, n_bits)
    rng.integers(0, 2)  # the shuffle's draw
    if b == a:
        b = n_bits - 1
    return (a, b) if a < b else (b, a)


def ga_optimize(
    series: TimeSeries,
    penalty_name: str,
    ga_params: GaParams | None = None,
    seed: Seed = 0,
    min_seg: int = 2,
) -> PenalizedFit:
    """Genetic-algorithm search over all admissible changepoint positions.

    One bit per position 2..T (bit i stands for time i + 2); the same
    objective and feasibility constraints as the exact selectors, so the
    returned objective can never undercut the dynamic-programming optimum.

    The draws are those of breeding one child at a time, in the same order.
    Each generation first makes its draws pair by pair: the two tournaments
    as one (2, 3) integer draw, the crossover coin, the cut if the coin is
    below the rate (:func:`_crossover_cut`, the draws of ``rng.choice``
    without the call), and the two mutation masks' uniforms as one (2, bits)
    draw, which the generator fills from the stream as it would the two
    draws. An odd population draws its last pair's second child and drops
    it. The whole generation is then bred in array passes: every
    tournament at once, one gather of the parents, the two-point crossovers
    as one mask of swapped columns, and the mutations as one XOR. A
    tournament goes to the first draw of least dense rank, in which equal
    keys share a rank, so ties go to the earlier draw, as a ``min`` over the
    keys has it.

    A generation is scored in one :meth:`_Objective.keys` call: a row held
    by the previous generation takes its key from there, found by its packed
    bits, and the other distinct rows are scored in one flat pass, each to
    the key it gets alone.
    """
    n = len(series)
    if n < 6:
        raise ValueError(f"need at least 6 observations, got {n}")
    objective = _Objective(series, penalty_name, min_seg)
    params = ga_params or GaParams()
    rng = np.random.default_rng(seed)
    size, n_bits = params.population, n - 1
    mutation_rate = _MUTATIONS_PER_CHILD / n_bits
    n_elite = min(_ELITISM, size)
    n_pairs = (size - n_elite + 1) // 2  # an odd size draws a last child it drops
    draws = np.empty((n_pairs, 2, _TOURNAMENT), dtype=np.int64)
    cuts = np.empty((n_pairs, 2), dtype=np.int64)  # [lo, hi): the swapped columns
    noise = np.empty((n_pairs, 2, n_bits))
    columns = np.arange(n_bits)

    def score(population: np.ndarray, previous: dict) -> tuple[list, dict]:
        """The key of each row, and the keys by packed row."""
        packed = [row.tobytes() for row in np.packbits(population, axis=1)]
        known, fresh = {}, {}  # fresh: packed row -> first row index, unscored rows
        for i, bits in enumerate(packed):
            if bits in previous:
                known[bits] = previous[bits]
            else:
                fresh.setdefault(bits, i)
        known.update(zip(fresh, objective.keys(population[list(fresh.values())])))
        return [known[bits] for bits in packed], known

    population = (rng.random((size, n_bits)) < _INIT_DENSITY).astype(np.int8)
    population[0, :] = 0  # always anchor the null model
    keys, known = score(population, {})

    for _ in range(params.generations):
        for q in range(n_pairs):
            draws[q] = rng.integers(0, size, size=(2, _TOURNAMENT))
            cuts[q] = _crossover_cut(rng, n_bits) if rng.random() < _CROSSOVER_RATE else 0
            rng.random(out=noise[q])
        rank_of = {key: r for r, key in enumerate(sorted(set(keys)))}
        rank = np.array([rank_of[key] for key in keys])
        children = np.empty_like(population)
        children[:n_elite] = population[np.argsort(rank, kind="stable")[:n_elite]]
        winners = np.argmin(rank[draws], axis=2)[..., None]
        pairs = population[np.take_along_axis(draws, winners, axis=2)[..., 0]]
        swap = (cuts[:, :1] <= columns) & (columns < cuts[:, 1:])
        pairs = np.where(swap[:, None], pairs[:, ::-1], pairs)
        pairs ^= noise < mutation_rate
        children[n_elite:] = pairs.reshape(-1, n_bits)[: size - n_elite]
        population = children
        keys, known = score(population, known)

    # the elite carry the best forward to row 0, so the last generation's
    # first least key is the best found
    best = min(range(size), key=keys.__getitem__)
    return objective.fit(np.flatnonzero(population[best]) + 2)


def hybrid_refine(
    series: TimeSeries,
    candidates: SortedCandidateList,
    penalty_name: str,
    seed: Seed = 0,
    ga_params: GaParams | None = None,
    min_seg: int = 2,
) -> PenalizedFit:
    """Best penalized fit over subsets of a candidate list's changepoint times:
    the first minimum of the objective in size-then-lexicographic order, exact
    at any candidate count. Infeasible subsets (a segment shorter than
    ``min_seg``, more than ``default_m_max`` changepoints, a time outside
    2..T) are skipped; an empty candidate list yields the null fit.

    A depth-first branch and bound adds one later candidate per step. A suffix
    DP over the candidates' boundaries gives the least RSS and the least log
    segment-length sum of the rest at each further count; BIC and mBIC
    increase in both, so the objective at the sums so far plus these bounds a
    subtree below, and the least-RSS subset of each size bounds the optimum
    above. A subset is rescored exactly when its value from running sums is
    within a slack of 1e-9 (T + |null objective|) of the best known, far above
    the rounding, or its RSS may be a perfect fit, so the fit is the one that
    scoring every subset on its own gives. The final fit takes the RSS of the
    subset that set the best key, so no subset is costed twice.

    ``seed`` and ``ga_params`` are unused, kept for callers that pass them.
    """
    if candidates.series_length != len(series):
        raise ValueError(
            f"candidates are for length {candidates.series_length}, series has {len(series)}"
        )
    objective = _Objective(series, penalty_name, min_seg)
    n = objective.n
    pool = np.array(sorted({e.changepoint_time for e in candidates.entries}), dtype=np.int64)
    pool = pool[(pool >= 2) & (pool <= n)]  # any other time makes a subset infeasible
    k = pool.size
    m_max = min(k, objective.m_max)  # no feasible subset has more changepoints
    if m_max < 1:
        return objective.fit(())  # no candidate, or no room for one changepoint
    best_times, (best_key, best_rss) = (), objective.key_and_rss(())
    if best_key[0] == -math.inf:
        return objective.fit(best_times, best_rss)
    bounds = np.concatenate(([0], pool - 1, [n]))  # prefix index of each boundary
    u, t = bounds[:, None], bounds[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = _segment_cost(objective.s, objective.ss, u, t)  # [a, b]: boundary a to b
        log_len = np.log((t - u) / n)
    cost[t - u < min_seg] = log_len[t - u < min_seg] = np.inf
    # [r, a]: from boundary a to the end through r more changepoints, the least
    # RSS, the least log-length sum and the log sum along a least-RSS path
    rest_rss, rest_log, path_log = np.empty((3, m_max + 1, k + 2))
    rest_rss[0], rest_log[0], path_log[0] = cost[:, -1], log_len[:, -1], log_len[:, -1]
    rows = np.arange(k + 2)
    for r in range(1, m_max + 1):
        via = np.argmin(cost + rest_rss[r - 1], axis=1)
        rest_rss[r] = cost[rows, via] + rest_rss[r - 1, via]
        path_log[r] = log_len[rows, via] + path_log[r - 1, via]
        rest_log[r] = np.min(log_len + rest_log[r - 1], axis=1)
    degenerate_tol = objective.zero_tol * (1 + 1e-9)

    def value(rss, log_sum, count):
        """The objective from running sums; -inf where the RSS may be a perfect fit."""
        with np.errstate(divide="ignore"):
            return np.where(rss <= degenerate_tol, -np.inf,
                            objective.value(rss, log_sum, count, log=np.log))

    # A value from running sums goes through the key's formula in the key's
    # order, so it differs from the key by rounding alone: sums of at most 26
    # RSS or log terms in another order than the key's, and each np.log within
    # 4 ulp of math.log. A non-perfect RSS lies between 1e-12 and 1 times the
    # null RSS, so no term exceeds about 30 T + |null value|, and the error
    # stays below 1e-12 (T + |null value|). The slack is far above twice that,
    # the most a bound and a key can differ by rounding.
    slack = 1e-9 * (n + abs(best_key[0]))
    least = value(rest_rss[:, 0], path_log[:, 0], np.arange(m_max + 1))
    upper = float(np.min(least[rest_rss[:, 0] > degenerate_tol])) + slack

    def visit(a: int, rss: float, log_sum: float, times: tuple[int, ...]) -> None:
        nonlocal best_times, best_key, best_rss
        m = len(times) + 1  # the count of every child
        b = np.arange(a + 1, k + 1)
        child_rss, child_log = rss + cost[a, b], log_sum + log_len[a, b]
        bound = value(  # [r, child]: row 0 is the child's own value
            child_rss + rest_rss[: m_max - m + 1, b],
            child_log + rest_log[: m_max - m + 1, b],
            np.arange(m, m_max + 1)[:, None],
        )
        reach = bound.min(axis=0)
        for j in np.flatnonzero(reach <= min(upper, best_key[0]) + slack):
            if best_key <= (-math.inf, m):
                return  # only a smaller count beats a perfect fit
            limit = min(upper, best_key[0]) + slack
            if reach[j] <= limit:
                child = (*times, int(pool[a + j]))
                if bound[0, j] <= limit and (scored := objective.key_and_rss(child))[0] < best_key:
                    best_times, (best_key, best_rss) = child, scored
                if m < m_max:
                    visit(a + 1 + j, child_rss[j], child_log[j], child)

    visit(0, 0.0, 0.0, ())
    return objective.fit(best_times, best_rss)
