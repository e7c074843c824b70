"""Monte-Carlo harness: run detectors on synthetic null or teeth series and
report per-method false-positive rates and average configuration distances."""

from __future__ import annotations

import concurrent.futures
import contextlib
import inspect
import io
import math
from dataclasses import dataclass

import numpy as np

from .binseg import binary_segmentation
from .core import (
    ChangepointConfig,
    Seed,
    TimeSeries,
    check_settings,
    check_teeth,
    gen_null,
    gen_teeth,
)
from .distance import config_distance
from .penlik import PenalizedFit, select_bic, select_mbic
from .wbs import wbs_detect
from .wbs2 import wbs2_sdll_detect


# The one place a method name meets its detector, which returns a
# ChangepointConfig, or a PenalizedFit for bic/mbic. The detector's signature
# states every setting and its default. The order fixes _METHOD_TAGS, and so
# every study seed.
METHODS = {
    "bic": select_bic,
    "mbic": select_mbic,
    "wbs": wbs_detect,
    "wbs2-sdll": wbs2_sdll_detect,
    "binseg": binary_segmentation,
}
VALID_METHODS = tuple(METHODS)
# read once: the per-call paths only look them up
_SIGNATURES = {name: inspect.signature(detector) for name, detector in METHODS.items()}

# Stable tags feeding the per-replication seed derivation; the data stream is
# shared by every method within a replication (paired comparison), detector
# streams are method-specific.
_DATA_TAG = 0
_METHOD_TAGS = {name: i + 1 for i, name in enumerate(VALID_METHODS)}


def derive_seed(master_seed: Seed, tag: int, series_length: int, rep: int) -> int:
    """Collision-free 64-bit seed for one (stream, length, replication) cell."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(tag, series_length, rep))
    return int(ss.generate_state(1, np.uint64)[0])


def data_seed(master_seed: Seed, series_length: int, rep: int) -> int:
    return derive_seed(master_seed, _DATA_TAG, series_length, rep)


def method_seed(master_seed: Seed, method: str, series_length: int, rep: int) -> int:
    return derive_seed(master_seed, _METHOD_TAGS[method], series_length, rep)


def _unknown_method(method: str) -> ValueError:
    return ValueError(f"unknown method {method!r}; valid methods: {', '.join(VALID_METHODS)}")


def run_method(
    method: str, series: TimeSeries, seed: Seed, params: dict | None = None
) -> ChangepointConfig:
    """Changepoints of the named detector, called with ``params`` as keyword
    arguments plus ``seed`` if it takes one; of a bic/mbic fit, its
    configuration.

    Parameters left out take the detector's own defaults; a parameter the
    detector does not take raises TypeError.
    """
    if method not in METHODS:
        raise _unknown_method(method)
    result = METHODS[method](series, **_seed_kwarg(method, seed), **(params or {}))
    return result.config if isinstance(result, PenalizedFit) else result


def _seed_kwarg(method: str, seed: Seed) -> dict:
    return {"seed": seed} if "seed" in _SIGNATURES[method].parameters else {}


@dataclass(frozen=True)
class TeethSpec:
    """Generator settings for the signal study."""

    length: int
    period: int = 20
    amplitude: float = 1.0
    sigma: float = 0.3

    def __post_init__(self):
        check_teeth(self.length, self.period, self.amplitude, self.sigma)


@dataclass(frozen=True)
class ReportRow:
    method: str
    series_length: int
    n_reps: int
    false_positive_rate: float
    avg_distance: float


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[ReportRow, ...]
    master_seed: int
    study: str  # "null" or "signal"

    def row(self, method: str, series_length: int) -> ReportRow:
        for r in self.rows:
            if r.method == method and r.series_length == series_length:
                return r
        raise KeyError(f"no row for ({method}, {series_length})")


# replications sent to a worker process at a time
_CHUNKSIZE = 8


def _replicate(args) -> dict[str, tuple[int, float]]:
    """Every method on one replication's series: (count, distance to truth).

    ``teeth`` is None for a null series, else the teeth generator settings.
    """
    methods, length, teeth, rep, master_seed, method_params = args
    seed = data_seed(master_seed, length, rep)
    if teeth is None:
        series, truth = gen_null(length, seed), ChangepointConfig.empty(length)
    else:
        series, truth = gen_teeth(length, teeth.period, teeth.amplitude, teeth.sigma, seed=seed)
    out = {}
    for method in methods:
        est = run_method(
            method, series, method_seed(master_seed, method, length, rep),
            (method_params or {}).get(method),
        )
        out[method] = (est.count, config_distance(est, truth))
    return out


def _check_constants(method: str, params: dict) -> None:
    """The call :func:`run_method` makes with ``params``, checked without
    running it: a parameter the detector does not take, or a ``seed`` besides
    the study's, raises TypeError, and a value outside its rule ValueError.
    The defaults the signature fills in keep their rules."""
    _SIGNATURES[method].bind(None, **_seed_kwarg(method, 0), **params)
    check_settings(**params)


def check_study(methods, lengths, n_reps: int, n_jobs: int,
                method_params: dict | None = None) -> None:
    """Raise ValueError unless a study of these methods and lengths, with
    ``n_reps`` replications in ``n_jobs`` processes and the detector
    constants in ``method_params``, can run. A repeated method or length
    would rerun the same seeds, so it is an error."""
    if not methods:
        raise ValueError(f"no methods given; valid methods: {', '.join(VALID_METHODS)}")
    for m in methods:
        if m not in METHODS:
            raise _unknown_method(m)
        _check_constants(m, (method_params or {}).get(m) or {})
    check_settings(n_reps=n_reps, n_jobs=n_jobs)
    for length in lengths:
        check_settings(length=length)
        if length < 10:
            raise ValueError(f"series lengths below 10 are not supported, got {length}")
    for kind, values in (("method", methods), ("length", lengths)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"{kind} {repeated[0]} is given more than once")


def _run_study(study, methods, lengths, teeth, n_reps, master_seed, method_params,
               n_jobs) -> BenchmarkReport:
    """Shared body of the null and signal studies: validate, replicate every
    (length, rep) cell serially or in worker processes, aggregate per method."""
    methods = list(methods)
    check_study(methods, lengths, n_reps, n_jobs, method_params)

    rows: list[ReportRow] = []
    # a pool starts all of its workers at once, so it gets no more workers
    # than one length's replications make chunks
    workers = min(n_jobs, math.ceil(n_reps / _CHUNKSIZE))
    with (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        for length in lengths:
            jobs = [(methods, length, teeth, rep, master_seed, method_params)
                    for rep in range(n_reps)]
            if pool is None:
                per_rep = [_replicate(job) for job in jobs]
            else:
                per_rep = list(pool.map(_replicate, jobs, chunksize=_CHUNKSIZE))
            for method in methods:
                counts = np.array([out[method][0] for out in per_rep])
                dists = np.array([out[method][1] for out in per_rep])
                rows.append(
                    ReportRow(
                        method=method,
                        series_length=length,
                        n_reps=n_reps,
                        false_positive_rate=float(np.mean(counts >= 1)),
                        avg_distance=float(np.mean(dists)),
                    )
                )
    return BenchmarkReport(rows=tuple(rows), master_seed=int(master_seed), study=study)


def run_null_study(
    methods,
    series_lengths,
    n_reps: int,
    master_seed: Seed,
    method_params: dict | None = None,
    n_jobs: int = 1,
) -> BenchmarkReport:
    """False-positive study on pure noise: per (method, length), the share of
    replications detecting anything and the mean distance to the empty truth.

    Fully deterministic given the master seed; replications may run in
    parallel without changing the result.
    """
    return _run_study("null", methods, list(series_lengths), None, n_reps, master_seed,
                      method_params, n_jobs)


def run_signal_study(
    generator_spec: TeethSpec,
    methods,
    n_reps: int,
    master_seed: Seed,
    method_params: dict | None = None,
    n_jobs: int = 1,
) -> BenchmarkReport:
    """Same pipeline against a teeth-signal truth; distances are computed
    against the generator's true configuration."""
    return _run_study("signal", methods, [generator_spec.length], generator_spec, n_reps,
                      master_seed, method_params, n_jobs)


def format_table(report: BenchmarkReport) -> str:
    """Human-readable layout: one row per method, FP and distance per length."""
    lengths = sorted({r.series_length for r in report.rows})
    methods = list(dict.fromkeys(r.method for r in report.rows))
    out = io.StringIO()
    header = f"{'Method':<12}"
    for length in lengths:
        header += f"{f'T={length} FP':>14}{f'T={length} Dist':>14}"
    print(header, file=out)
    print("-" * len(header), file=out)
    for method in methods:
        line = f"{method:<12}"
        for length in lengths:
            row = report.row(method, length)
            line += f"{row.false_positive_rate:>14.3f}{row.avg_distance:>14.3f}"
        print(line, file=out)
    return out.getvalue()


def _csv_text(report: BenchmarkReport) -> str:
    return "method,series_length,n_reps,false_positive_rate,avg_distance\n" + "".join(
        f"{r.method},{r.series_length},{r.n_reps},"
        f"{r.false_positive_rate:.6f},{r.avg_distance:.6f}\n"
        for r in report.rows
    )
