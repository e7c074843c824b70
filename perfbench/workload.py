"""One benchmark workload, run in a fresh process started by ``run.py``.

A run is a closed loop with one client: it repeats cycles until ``--seconds``
have passed. A cycle runs one study unit (a seeded ``run_null_study`` call)
if the workload has a study, then one detect unit: ``cpdkit detect`` through
``cpdkit.cli.main`` for binseg, wbs and wbs2-sdll, ``ga_optimize`` and
``hybrid_refine`` through the API, then ``cpdkit detect`` for bic and mbic,
either in every cycle or, where these take far longer than the rest, each
once per run in a fixed cycle. Every output is scored by ``config_distance``
against the generator's truth.

Units come from fixed pools so every output can be checked against a digest
per unit and op, recorded at the commit that defined the benchmark
(``digests.json``); the
``--seed`` picks the order in which a run visits the pool. Rebuild the
digests with ``python3 perfbench/workload.py --record``.

The last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cpdkit  # noqa: E402
from cpdkit import bench, cli, core, distance, penlik, wbs2  # noqa: E402

import tracing  # noqa: E402
from run import THREAD_VARS  # noqa: E402

DIGESTS = HERE / "digests.json"
ERROR = "ERROR"  # output line of an op that raised
OUT = HERE / "out"

# Every detector parameter at the CLI default, passed explicitly so that no
# API default (run_method's lam=0.9) decides what the benchmark measures.
PARAMS = {
    "binseg": {"c": 1.3, "min_len": 2},
    "wbs": {"c": 1.3, "m_intervals": 5000, "min_span": 1},
    "wbs2-sdll": {"m_stage": 100, "lam": 1.3, "floor_mult": 0.3},
    "bic": {"min_seg": 2},
    "mbic": {"min_seg": 2},
}
CLI_FLAGS = (
    "--threshold-c", "1.3", "--intervals", "5000", "--min-span", "1", "--min-len", "2",
    "--m-stage", "100", "--lambda", "1.3", "--floor-mult", "0.3", "--min-seg", "2",
)
M_STAGE = 100
MIN_SEG = 2
PENALTY = "mbic"

TABLE1_METHODS = ("bic", "mbic", "wbs", "wbs2-sdll")
ALL_METHODS = ("bic", "mbic", "wbs", "wbs2-sdll", "binseg")
CUSUM_METHODS = ("binseg", "wbs", "wbs2-sdll")
PENLIK_METHODS = ("bic", "mbic")
TEETH = {"period": 30, "amplitude": 1.0, "sigma": 0.3}
# binseg is the cheapest op by far (tens of ms): several calls a cycle give
# its median more samples for little run time
BINSEG_CALLS = 4


@dataclass(frozen=True)
class StudyPool:
    methods: tuple[str, ...]
    lengths: tuple[int, ...]
    n_reps: int
    size: int

    def ops(self) -> int:
        # one detector call and one distance call per method, length and rep
        return 2 * len(self.methods) * len(self.lengths) * self.n_reps

    def reps(self) -> int:
        return len(self.lengths) * self.n_reps


@dataclass(frozen=True)
class DetectPool:
    teeth: bool
    length: int  # every `cpdkit detect`
    refine_length: int  # ga_optimize, hybrid_refine
    hybrid_top: int  # ranked WBS2 candidates given to hybrid_refine
    # cycle in which each of bic, mbic runs, after the cheaper ops; None: every cycle
    penlik_cycles: tuple[int, ...] | None
    size: int

    def penlik_methods(self, cycle: int) -> tuple[str, ...]:
        if self.penlik_cycles is None:
            return PENLIK_METHODS
        return tuple(m for m, c in zip(PENLIK_METHODS, self.penlik_cycles) if c == cycle)

    def min_cycles(self) -> int:
        return max(self.penlik_cycles) + 1 if self.penlik_cycles else 1


STUDY_POOLS = {
    "null": StudyPool(TABLE1_METHODS, (100, 500), 8, 16),
}
DETECT_POOLS = {
    "null-500": DetectPool(False, 500, 500, 12, None, 8),
    # T=3000 is above the full-matrix limit (2800), so bic/mbic take the
    # column-block DP path; one such detect takes about as long as eight
    # cycles of the other ops, so each runs once per run, after the second
    # and the fourth cycle, and the cheaper cycles fill the rest of the run
    "long": DetectPool(True, 3000, 500, 14, (1, 3), 4),
}


@dataclass(frozen=True)
class Workload:
    study: str | None
    detect: str
    trace_cycles: int  # cycles a traced run counts over


WORKLOADS = {
    "null-table1": Workload("null", "null-500", 4),
    "long-detect": Workload(None, "long", 4),
}


class Capture:
    """Outputs of ``cpdkit.bench.run_method`` in this process: method, series
    length, changepoint times and seconds, in call order. A pooled study runs
    its detectors in worker processes; its outputs are checked through the
    report rows alone."""

    def __init__(self):
        self.calls: list[tuple[str, int, tuple[int, ...], float]] = []
        self._original = None

    def install(self) -> None:
        fn = getattr(bench, "run_method", None)
        if fn is None:
            return
        calls = self.calls

        def captured(method, series, *args, **kwargs):
            t0 = time.perf_counter()
            config = fn(method, series, *args, **kwargs)
            calls.append((method, len(series), config.times, time.perf_counter() - t0))
            return config

        self._original = fn
        bench.run_method = captured

    def uninstall(self):
        if self._original is not None:
            bench.run_method = self._original
            self._original = None


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rows_text(report) -> str:
    """Report rows formatted as in null_results.csv."""
    return "".join(
        f"{r.method},{r.series_length},{r.n_reps},"
        f"{r.false_positive_rate:.6f},{r.avg_distance:.6f}\n"
        for r in report.rows
    )


def times_text(times) -> str:
    return " ".join(str(int(t)) for t in times)


@dataclass
class StudyResult:
    report: object
    calls: list
    seconds: float
    digest: dict


def run_study_unit(pool: StudyPool, k: int, jobs: int, capture: Capture) -> StudyResult:
    master_seed = k + 1
    first = len(capture.calls)
    t0 = time.perf_counter()
    report = bench.run_null_study(
        list(pool.methods), list(pool.lengths), pool.n_reps, master_seed,
        method_params=PARAMS, n_jobs=jobs,
    )
    seconds = time.perf_counter() - t0
    calls = capture.calls[first:]
    digest = {"rows": sha(rows_text(report))}
    if jobs == 1 and calls:  # empty if a pooled study ran the detectors
        digest["changepoints"] = sha(
            "".join(f"{m},{n},{times_text(t)}\n" for m, n, t, _ in calls)
        )
    return StudyResult(report, calls, seconds, digest)


def check_report(pool: StudyPool, report) -> None:
    expected = {(m, n) for m in pool.methods for n in pool.lengths}
    got = {(r.method, r.series_length) for r in report.rows}
    if got != expected or len(report.rows) != len(expected):
        raise ValueError(f"report cells {sorted(got)} != {sorted(expected)}")
    for r in report.rows:
        if r.n_reps != pool.n_reps:
            raise ValueError(f"row {r} has n_reps != {pool.n_reps}")
        if not 0.0 <= r.false_positive_rate <= 1.0:
            raise ValueError(f"row {r} has an FP rate outside [0, 1]")
        if not (math.isfinite(r.avg_distance) and r.avg_distance >= 0.0):
            raise ValueError(f"row {r} has an invalid distance")


def unit_seed(k: int, length: int) -> int:
    return int(np.random.SeedSequence([k, length]).generate_state(1)[0])


def make_series(pool: DetectPool, k: int, length: int):
    seed = unit_seed(k, length)
    if pool.teeth:
        return core.gen_teeth(length, seed=seed, **TEETH)
    return core.gen_null(length, seed), cpdkit.ChangepointConfig.empty(length)


@dataclass
class DetectResult:
    outputs: list[tuple[str, str]]  # op name, changepoint list and distance or ERROR
    timings: dict[str, list[float]]

    def ops(self) -> int:
        return 2 * len(self.outputs)  # a detector call and a distance call per op

    def digest(self) -> dict[str, str]:
        return {name: sha(line) for name, line in self.outputs}


def _check_config(config, length: int):
    if not isinstance(config, cpdkit.ChangepointConfig) or config.series_length != length:
        raise ValueError(f"invalid output {config!r} for length {length}")
    return config


def series_csv(pool: DetectPool, k: int, workdir: Path) -> Path:
    """Unit ``k``'s detect series as the CSV file that `cpdkit detect` reads,
    written on first use. ``run`` writes every unit's file before timing
    starts, as a user's input file exists before the detect runs."""
    path = workdir / f"{'teeth' if pool.teeth else 'null'}-{pool.length}-{k}.csv"
    if not path.exists():
        series, _ = make_series(pool, k, pool.length)
        path.write_text("".join(f"{v!r}\n" for v in series.values.tolist()), encoding="utf-8")
    return path


def run_detect_unit(pool: DetectPool, k: int, workdir: Path,
                    penlik_methods: tuple[str, ...]) -> DetectResult:
    """binseg, wbs, wbs2-sdll, GA and hybrid on unit ``k``, then the given
    bic/mbic detects."""
    data = {length: make_series(pool, k, length)
            for length in sorted({pool.length, pool.refine_length})}
    path = series_csv(pool, k, workdir)

    def cli_detect(method: str, length: int):
        argv = ["detect", str(path), "--method", method, "--seed", str(k), *CLI_FLAGS]
        out = io.StringIO()  # the JSON result, written to standard output
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"cpdkit {' '.join(argv)} exited with {code}")
        result = json.loads(out.getvalue())
        times = result["changepoints"]
        if result["n_obs"] != length or result["n_changepoints"] != len(times):
            raise ValueError(f"inconsistent detect result {result}")
        return seconds, cpdkit.ChangepointConfig(tuple(times), length)

    def ga(length: int):
        t0 = time.perf_counter()
        fit = penlik.ga_optimize(data[length][0], PENALTY, ga_params=penlik.GaParams(),
                                 seed=k, min_seg=MIN_SEG)
        return time.perf_counter() - t0, _check_config(fit.config, length)

    def hybrid(length: int):
        series = data[length][0]
        ranked = wbs2.wbs2_candidates(series, m_stage=M_STAGE, seed=k)
        top = wbs2.SortedCandidateList(entries=ranked.entries[: pool.hybrid_top],
                                       series_length=length)
        t0 = time.perf_counter()
        fit = penlik.hybrid_refine(series, top, PENALTY, seed=k, ga_params=penlik.GaParams(),
                                   min_seg=MIN_SEG)
        seconds = time.perf_counter() - t0
        if not set(_check_config(fit.config, length).times) <= {
            e.changepoint_time for e in top.entries
        }:
            raise ValueError(f"hybrid fit {fit.config.times} leaves its candidate pool")
        return seconds, fit.config

    sequence = [("detect_ms.binseg", functools.partial(cli_detect, "binseg"), pool.length)]
    sequence *= BINSEG_CALLS
    sequence += [(f"detect_ms.{m}", functools.partial(cli_detect, m), pool.length)
                 for m in CUSUM_METHODS if m != "binseg"]
    sequence += [("refine_ms.ga", ga, pool.refine_length),
                 ("refine_ms.hybrid", hybrid, pool.refine_length)]
    sequence += [(f"detect_ms.{m}", functools.partial(cli_detect, m), pool.length)
                 for m in penlik_methods]

    res = DetectResult([], {})
    for name, op, length in sequence:
        try:
            seconds, config = op(length)
            d = distance.config_distance(config, data[length][1])
            res.timings.setdefault(name, []).append(seconds)
            res.outputs.append((name, f"{name},{length},{times_text(config.times)},{d:.6f}\n"))
        except Exception:
            traceback.print_exc()
            res.outputs.append((name, f"{name},{length},{ERROR}\n"))
    return res


def wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion k/n."""
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z / denom * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def study_sidecar(results: list[StudyResult]) -> list[dict]:
    """Per (method, length) cell: FP rate with its Wilson interval, and
    seconds spent in the detector."""
    cells: dict[tuple[str, int], dict] = {}
    for res in results:
        for r in res.report.rows:
            cell = cells.setdefault((r.method, r.series_length),
                                    {"fp": 0, "n": 0, "seconds": 0.0})
            cell["fp"] += round(r.false_positive_rate * r.n_reps)
            cell["n"] += r.n_reps
        for m, n, _, sec in res.calls:
            cells[(m, n)]["seconds"] += sec
    out = []
    for (method, length), c in cells.items():
        lo, hi = wilson(c["fp"], c["n"])
        out.append({
            "method": method, "series_length": length, "n_reps": c["n"],
            "false_positive_rate": c["fp"] / c["n"], "wilson95": [lo, hi],
            "seconds": c["seconds"],
        })
    return out


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def environment() -> dict:
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(d / "level"), _read(d / "type")
        if level and kind:
            name = f"L{level}" + ("" if kind == "Unified" else kind[0].lower())
            caches[name] = _size_bytes(_read(d / "size"))
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def study_mismatches(kind: str, k: int, res: StudyResult, digests: dict) -> list[str]:
    """Digest keys of a study unit that differ from the recorded ones."""
    want = digests["study"][kind][k]
    return [key for key, value in res.digest.items() if want.get(key) != value]


def detect_mismatches(want: dict[str, str], res: DetectResult) -> list[str]:
    """Op name of each output of a detect unit that differs from its
    recorded digest ``want[name]``; a failed op never matches."""
    return [name for name, line in res.outputs if want.get(name) != sha(line)]


def warm_up(workdir: Path, pool: DetectPool, k: int) -> None:
    """First calls load lazily initialised code paths and, at the workload's
    series lengths, pay one-off allocation costs; users of a long-running
    process do not pay them per call. A tiny study runs every method once,
    and unit ``k``'s cheaper ops run once, untimed."""
    bench.run_null_study(list(ALL_METHODS), [30], 1, 0, method_params=PARAMS)
    run_detect_unit(pool, k, workdir, ())


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    study = STUDY_POOLS[wl.study] if wl.study else None
    detect = DETECT_POOLS[wl.detect]
    digests = load_digests()
    rng = np.random.default_rng(seed)
    study_order = rng.permutation(study.size) if study else None
    detect_order = rng.permutation(detect.size)

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for k in range(detect.size):
            series_csv(detect, k, workdir)
        warm_up(workdir, detect, int(detect_order[0]))
        capture = Capture()
        capture.install()
        tracer = span_ns = None
        missing_sites: list[str] = []
        if trace:
            span_ns = tracing.span_cost_ns()
            tracer = tracing.Tracer()
            missing_sites = tracer.install()

        attempted = failed = 0
        mismatches: list[str] = []
        study_results: list[StudyResult] = []
        samples: dict[str, list[float]] = {}
        # per cycle: series processed, study seconds, total seconds, and the
        # seconds that recur in later cycles (all but once-per-run detects)
        cycles: list[dict] = []
        min_cycles = max(wl.trace_cycles if trace else 1, detect.min_cycles())
        deadline = time.perf_counter() + seconds
        # stop before a cycle that, at the last cycle's pace, would end past the deadline
        while len(cycles) < min_cycles or time.perf_counter() + cycles[-1]["next_s"] <= deadline:
            c = len(cycles)
            cyc = {"reps": 0 if study else 1, "study_s": 0.0}
            t0 = time.perf_counter()
            with tracer.cycle_span(c) if tracer else contextlib.nullcontext():
                if study:
                    k = int(study_order[c % study.size])
                    attempted += study.ops()
                    try:
                        res = run_study_unit(study, k, 1, capture)
                        check_report(study, res.report)
                        bad = study_mismatches(wl.study, k, res, digests)
                        if bad:
                            mismatches.append(f"study {wl.study}[{k}]: {', '.join(bad)}")
                            failed += study.ops()
                        study_results.append(res)
                        cyc.update(reps=study.reps(), study_s=res.seconds)
                    except Exception:
                        traceback.print_exc()
                        failed += study.ops()
                k = int(detect_order[c % detect.size])
                dp = detect.penlik_methods(c)
                res = run_detect_unit(detect, k, workdir, dp)
                attempted += res.ops()
                for key, secs in res.timings.items():
                    samples.setdefault(key, []).extend(secs)
                bad = detect_mismatches(digests["detect"][wl.detect][k], res)
                if bad:
                    mismatches.append(f"detect {wl.detect}[{k}]: {', '.join(sorted(set(bad)))}")
                failed += 2 * len(bad)
            cyc["wall_s"] = time.perf_counter() - t0
            cyc["next_s"] = cyc["wall_s"]
            if detect.penlik_cycles is not None:
                cyc["next_s"] -= sum(sum(res.timings.get(f"detect_ms.{m}", [])) for m in dp)
            cycles.append(cyc)
        if tracer:
            tracer.uninstall()
        capture.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details: dict = {"cycles": len(cycles), "digest_mismatches": mismatches,
                     "samples_ms": {key: [x * 1e3 for x in v] for key, v in samples.items()},
                     "study_units": len(study_results),
                     "changepoint_digests": sum("changepoints" in r.digest
                                                for r in study_results)}
    if trace:
        reps = sum(x["reps"] for x in cycles[: wl.trace_cycles])
        metrics, trace_details = tracing.layer_metrics(tracer, wl.trace_cycles, reps, span_ns)
        details.update(trace_details, missing_sites=missing_sites)
    else:
        medians = {key: statistics.median(values) * 1e3 for key, values in samples.items()}
        if study:
            rate = sum(x["reps"] for x in cycles) / sum(x["study_s"] for x in cycles)
        else:  # series through every op, at the median latencies
            rate = 1e3 / sum(medians.values())
        metrics = {"reps_per_s": rate, **medians}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "attempted": attempted, "failed": failed,
        "metrics": metrics, "details": details,
        "study_cells": study_sidecar(study_results),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    record["record_path"] = str(path.relative_to(ROOT))
    return record


def record_digests() -> None:
    """Recompute every pool unit serially and write digests.json."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    capture = Capture()
    capture.install()
    out = {"study": {}, "detect": {}}
    try:
        for kind, pool in STUDY_POOLS.items():
            out["study"][kind] = []
            for k in range(pool.size):
                res = run_study_unit(pool, k, 1, capture)
                check_report(pool, res.report)
                out["study"][kind].append(res.digest)
                print(f"study {kind}[{k}] {res.seconds:.2f} s", file=sys.stderr)
        for key, pool in DETECT_POOLS.items():
            out["detect"][key] = []
            for k in range(pool.size):
                res = run_detect_unit(pool, k, workdir, PENLIK_METHODS)
                digest = res.digest()
                if any(ERROR in line for _, line in res.outputs) or detect_mismatches(digest, res):
                    raise RuntimeError(f"detect {key}[{k}] failed or gave unequal outputs")
                out["detect"][key].append(digest)
                total = sum(sum(v) for v in res.timings.values())
                print(f"detect {key}[{k}] {total:.2f} s", file=sys.stderr)
    finally:
        capture.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true", help="rebuild digests.json")
    args = p.parse_args(argv)
    if args.record:
        record_digests()
        return 0
    if not args.workload:
        p.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
