"""In-memory span tracing of cpdkit, installed from the benchmark's side.

Each traced function is replaced where its caller looks it up: the name in
the importing module (``cpdkit.wbs.batch_max_cusum``), or the defining
module's attribute where a function of that module calls it
(``cpdkit.core.mad_sigma`` as called by ``universal_threshold``). Nothing in
``src/`` changes. A span records its id, its parent's id, the call site, the
cycle of the benchmark loop it ran in and its start and end; sites that feed
work counters also keep references to their arguments and result, and the
counters are computed from those after the run, outside every timed region.

A layer's self time is the summed duration of its spans minus the time their
child spans cover. Calls are single-threaded, so children never overlap and
the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("core", "cusum", "binseg", "wbs", "wbs2", "penlik", "distance", "bench", "cli")
HARNESS = "harness"

# float64/int64 arrays of one entry per (interval, split) pair that the flat
# contrast form names: idx, seg, b, n, left_n, right_n, left_mean,
# right_mean, mags, hit. Temporaries are not counted.
CUSUM_BYTES_PER_ENTRY = 10 * 8


@dataclass(frozen=True)
class Site:
    module: str  # module whose attribute is replaced
    name: str  # attribute name
    layer: str  # cpdkit module the function belongs to
    keep: bool = False  # keep arguments and result for work counters

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


SITES = (
    Site("cpdkit.bench", "gen_null", "core"),
    Site("cpdkit.core", "gen_null", "core"),
    Site("cpdkit.core", "gen_teeth", "core"),
    Site("cpdkit.core", "mad_sigma", "core"),  # via universal_threshold
    Site("cpdkit.wbs2", "mad_sigma", "core"),
    Site("cpdkit.cli", "mad_sigma", "core"),
    Site("cpdkit.wbs", "prefix_sums", "cusum"),
    Site("cpdkit.wbs2", "prefix_sums", "cusum"),
    Site("cpdkit.binseg", "prefix_sums", "cusum"),
    Site("cpdkit.wbs", "batch_max_cusum", "cusum", keep=True),
    Site("cpdkit.wbs2", "batch_max_cusum", "cusum", keep=True),
    Site("cpdkit.wbs", "max_cusum_from_sums", "cusum"),
    Site("cpdkit.binseg", "max_cusum_from_sums", "cusum"),
    Site("cpdkit.bench", "binary_segmentation", "binseg"),
    Site("cpdkit.bench", "wbs_detect", "wbs"),
    Site("cpdkit.wbs", "sample_interval_pairs", "wbs"),
    Site("cpdkit.wbs2", "sample_interval_pairs", "wbs"),
    Site("cpdkit.bench", "wbs2_sdll_detect", "wbs2"),
    Site("cpdkit.wbs2", "wbs2_candidates", "wbs2"),
    Site("cpdkit.wbs2", "sdll_select", "wbs2", keep=True),
    Site("cpdkit.bench", "select_bic", "penlik"),
    Site("cpdkit.bench", "select_mbic", "penlik"),
    Site("cpdkit.cli", "select_bic", "penlik"),  # cmd_detect's second DP
    Site("cpdkit.cli", "select_mbic", "penlik"),
    Site("cpdkit.penlik", "segment_rss_table", "penlik", keep=True),
    Site("cpdkit.penlik", "ga_optimize", "penlik", keep=True),
    Site("cpdkit.penlik", "hybrid_refine", "penlik", keep=True),
    Site("cpdkit.bench", "config_distance", "distance"),
    Site("cpdkit.distance", "config_distance", "distance"),
    Site("cpdkit.distance", "min_assignment", "distance"),
    Site("cpdkit.bench", "run_method", "bench"),
    Site("cpdkit.cli", "run_method", "bench"),
    Site("cpdkit.bench", "run_null_study", "bench"),
    Site("cpdkit.cli", "read_series_file", "cli"),
    Site("cpdkit.cli", "main", "cli"),
)


class Tracer:
    """Spans of one process, kept in memory until the run ends.

    A span is ``(id, parent_id, site_index, cycle, t0_ns, t1_ns, payload)``;
    site index -1 is a benchmark cycle.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack = [0]
        self.next_id = 0
        self.cycle = -1
        self.sites: list[Site] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, site_index: int, keep: bool):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            self.next_id += 1
            sid = self.next_id
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, site_index, self.cycle, t0, t1, None))
                raise
            t1 = clock()
            stack.pop()
            payload = (fn, args, kwargs, result) if keep else None
            spans.append((sid, parent, site_index, self.cycle, t0, t1, payload))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Replace every site that exists; return the keys of missing ones."""
        missing = []
        for site in SITES:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                missing.append(site.key)
                continue
            fn = getattr(module, site.name, None)
            if fn is None:
                missing.append(site.key)
                continue
            self.sites.append(site)
            setattr(module, site.name, self.wrap(fn, len(self.sites) - 1, site.keep))
            self._undo.append((module, site.name, fn))
        return missing

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._undo):
            setattr(module, name, fn)
        self._undo.clear()

    @contextlib.contextmanager
    def cycle_span(self, cycle: int):
        """Root span of one benchmark cycle; the benchmark's own glue inside
        it is the harness's self time."""
        self.cycle = cycle
        self.next_id += 1
        sid = self.next_id
        self.stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            t1 = time.perf_counter_ns()
            self.stack.pop()
            self.spans.append((sid, 0, -1, cycle, t0, t1, None))


def span_cost_ns(samples: int = 20000) -> float:
    """Calibrated cost of recording one span: a traced no-op against a bare one."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, 0, False)
    costs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(samples):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(samples):
            traced()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / samples)
        tracer.spans.clear()
    return max(statistics.median(costs), 0.0)


def _bound(payload) -> dict:
    fn, args, kwargs, _ = payload
    sig = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _module_const(module: str, name: str, default):
    return getattr(importlib.import_module(module), name, default)


class _Window:
    """Per-site call counts, total and self times over a set of spans."""

    def __init__(self, tracer: Tracer, cycles: int):
        spans = [s for s in tracer.spans if s[3] < cycles]
        covered: dict[int, int] = {}
        for sid, parent, _, _, t0, t1, _ in spans:
            covered[parent] = covered.get(parent, 0) + (t1 - t0)
        self.sites = tracer.sites
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.layer_self_ns = {layer: 0 for layer in LAYERS + (HARNESS,)}
        self.payloads: dict[str, list] = {}
        self.wall_ns = 0
        self.n_spans = 0
        for sid, _, idx, _, t0, t1, payload in spans:
            own = (t1 - t0) - covered.get(sid, 0)
            if idx < 0:
                self.wall_ns += t1 - t0
                self.layer_self_ns[HARNESS] += own
                continue
            self.n_spans += 1
            site = self.sites[idx]
            key = site.key
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total_ns[key] = self.total_ns.get(key, 0) + (t1 - t0)
            self.self_ns[key] = self.self_ns.get(key, 0) + own
            self.layer_self_ns[site.layer] += own
            if payload is not None:
                self.payloads.setdefault(key, []).append(payload)

    def n(self, *keys) -> int:
        return sum(self.calls.get(k, 0) for k in keys)

    def ms(self, *keys) -> float:
        return sum(self.total_ns.get(k, 0) for k in keys) / 1e6

    def self_ms(self, *keys) -> float:
        return sum(self.self_ns.get(k, 0) for k in keys) / 1e6

    def kept(self, *keys) -> list:
        return [p for k in keys for p in self.payloads.get(k, [])]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int, reps: int, span_ns: float) -> tuple[dict, dict]:
    """Per-layer metrics over the first ``cycles`` cycles, plus details for
    the run record. ``reps`` is the number of series those cycles processed."""
    w = _Window(tracer, cycles)
    batch = ("cpdkit.wbs.batch_max_cusum", "cpdkit.wbs2.batch_max_cusum")
    maxc = ("cpdkit.wbs.max_cusum_from_sums", "cpdkit.binseg.max_cusum_from_sums")
    prefix = ("cpdkit.wbs.prefix_sums", "cpdkit.wbs2.prefix_sums", "cpdkit.binseg.prefix_sums")
    sample = ("cpdkit.wbs.sample_interval_pairs", "cpdkit.wbs2.sample_interval_pairs")
    mad = ("cpdkit.core.mad_sigma", "cpdkit.wbs2.mad_sigma", "cpdkit.cli.mad_sigma")
    gen = ("cpdkit.bench.gen_null", "cpdkit.core.gen_null", "cpdkit.core.gen_teeth")
    select = ("cpdkit.bench.select_bic", "cpdkit.bench.select_mbic",
              "cpdkit.cli.select_bic", "cpdkit.cli.select_mbic")
    dist = ("cpdkit.bench.config_distance", "cpdkit.distance.config_distance")

    flat = distinct = intervals = 0
    kernel_ws = 0
    chunk = _module_const("cpdkit.cusum", "_BATCH_FLAT_LIMIT", 4_000_000)
    for payload in w.kept(*batch):
        _, args, _, _ = payload
        starts = np.asarray(args[1], dtype=np.int64)
        ends = np.asarray(args[2], dtype=np.int64)
        entries = int((ends - starts).sum())
        flat += entries
        intervals += starts.size
        distinct += np.unique(starts * (int(ends.max(initial=0)) + 1) + ends).size
        kernel_ws = max(kernel_ws, min(entries, chunk) * CUSUM_BYTES_PER_ENTRY)

    exhaustive = 0
    for _, args, _, _ in w.kept("cpdkit.wbs2.batch_max_cusum"):
        starts, ends = np.asarray(args[1]), np.asarray(args[2])
        span = int(ends.max()) - int(starts.min())
        if starts.size == span * (span + 1) // 2 and np.unique(
            starts * (int(ends.max()) + 1) + ends
        ).size == starts.size:
            exhaustive += 1

    below = ranked = 0
    for payload in w.kept("cpdkit.wbs2.sdll_select"):
        a = _bound(payload)
        cands = a["candidates"]
        mags = np.array([e.magnitude for e in cands.entries], dtype=np.float64)
        zeta = a["lam"] * math.sqrt(2.0 * math.log(cands.series_length)) * a["sigma_hat"]
        below += int(np.count_nonzero(mags < a["floor_mult"] * zeta))
        ranked += mags.size

    full_max = _module_const("cpdkit.penlik", "_FULL_COST_MAX_N", 2800)
    block = _module_const("cpdkit.penlik", "_COST_BLOCK", 512)
    cells = dp_bytes = dp_ws = 0
    for payload in w.kept("cpdkit.penlik.segment_rss_table"):
        a = _bound(payload)
        n1 = len(a["series"]) + 1
        m_max = int(a["m_max"])
        cells += m_max * n1 * n1
        if n1 - 1 <= full_max:  # cost matrix once, one w matrix per level
            dp_bytes += 8 * n1 * n1 * (1 + m_max)
            dp_ws = max(dp_ws, 2 * 8 * n1 * n1)
        else:  # cost and w recomputed per level, one column block at a time
            dp_bytes += 2 * 8 * n1 * n1 * m_max
            dp_ws = max(dp_ws, 2 * 8 * n1 * min(block, n1))

    exhaustive_limit = _module_const("cpdkit.penlik", "EXHAUSTIVE_CANDIDATE_LIMIT", 20)

    def ga_evals(params) -> int:
        if params is None:
            params = _module_const("cpdkit.penlik", "GaParams", None)()
        return max(1, params.population) * (params.generations + 1)

    evals = 0
    for payload in w.kept("cpdkit.penlik.ga_optimize"):
        evals += ga_evals(_bound(payload)["ga_params"])
    for payload in w.kept("cpdkit.penlik.hybrid_refine"):
        a = _bound(payload)
        k = len({e.changepoint_time for e in a["candidates"].entries})
        if k == 0:
            continue
        evals += 2**k if k <= exhaustive_limit else ga_evals(a["ga_params"])
    ga_ms = w.ms("cpdkit.penlik.ga_optimize")
    hybrid_ms = w.ms("cpdkit.penlik.hybrid_refine")

    wall_ms = w.wall_ns / 1e6
    overhead_ms = w.n_spans * span_ns / 1e6
    metrics = {
        "cusum.batch_calls": w.n(*batch),
        "cusum.batch_ms": w.ms(*batch),
        "cusum.flat_entries": flat,
        "cusum.entries_per_us": _ratio(flat, w.ms(*batch) * 1e3),
        "cusum.bytes_computed": flat * CUSUM_BYTES_PER_ENTRY,
        "cusum.distinct_interval_frac": _ratio(distinct, intervals),
        "cusum.max_calls": w.n(*maxc),
        "cusum.max_ms": w.ms(*maxc),
        "cusum.prefix_calls_per_rep": _ratio(w.n(*prefix), reps),
        "wbs.sample_ms": w.ms(*sample),
        "wbs.segments": w.n("cpdkit.wbs.max_cusum_from_sums"),
        "wbs.self_ms": w.layer_self_ns["wbs"] / 1e6,
        "wbs2.stages": w.n("cpdkit.wbs2.batch_max_cusum"),
        "wbs2.self_ms": w.layer_self_ns["wbs2"] / 1e6,
        "wbs2.exhaustive_stage_frac": _ratio(exhaustive, w.n("cpdkit.wbs2.batch_max_cusum")),
        "wbs2.below_floor_frac": _ratio(below, ranked),
        "wbs2.sdll_ms": w.ms("cpdkit.wbs2.sdll_select"),
        "penlik.rss_table_calls_per_rep": _ratio(w.n("cpdkit.penlik.segment_rss_table"), reps),
        "penlik.rss_table_ms": w.ms("cpdkit.penlik.segment_rss_table"),
        "penlik.dp_cells": cells,
        "penlik.dp_bytes_computed": dp_bytes,
        "penlik.select_self_ms": w.self_ms(*select),
        "penlik.fitness_evals": evals,
        "penlik.us_per_fitness_eval": _ratio((ga_ms + hybrid_ms) * 1e3, evals),
        "penlik.ga_ms": ga_ms,
        "penlik.hybrid_ms": hybrid_ms,
        "distance.calls": w.n(*dist),
        "distance.ms": w.ms(*dist),
        "distance.assign_calls": w.n("cpdkit.distance.min_assignment"),
        # a share, not a time: with no assignments (null truth) it is exactly 0
        "distance.assign_frac": _ratio(w.ms("cpdkit.distance.min_assignment"), w.ms(*dist)),
        "core.gen_ms": w.ms(*gen),
        "core.mad_sigma_calls_per_rep": _ratio(w.n(*mad), reps),
        "core.mad_sigma_ms": w.ms(*mad),
        "cli.read_series_ms": w.ms("cpdkit.cli.read_series_file"),
        "cli.recompute_ms": w.ms("cpdkit.cli.select_bic", "cpdkit.cli.select_mbic"),
        "cli.self_ms": w.layer_self_ns["cli"] / 1e6,
        "bench.self_ms": w.layer_self_ns["bench"] / 1e6,
        "trace.overhead_frac": _ratio(overhead_ms, wall_ms),
    }
    layer_self_ms = {k: v / 1e6 for k, v in w.layer_self_ns.items()}
    details = {
        "window_cycles": cycles,
        "window_reps": reps,
        "window_wall_ms": wall_ms,
        "spans": w.n_spans,
        "span_cost_ns": span_ns,
        "layer_self_ms": layer_self_ms,
        "layer_self_sum_ms": sum(v for k, v in layer_self_ms.items() if k != HARNESS),
        "kernel_working_set_bytes_computed": kernel_ws,
        "dp_working_set_bytes_computed": dp_ws,
    }
    return metrics, details
