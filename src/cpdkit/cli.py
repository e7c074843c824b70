"""Command-line interface: detect changepoints in a CSV series, score two
configurations against each other, and run the Monte-Carlo benchmark.

Exit codes: 0 success, 2 unreadable file, 3 bad file content (named line),
4 a usage error, an invalid method or benchmark configuration, or an output
path that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

from .bench import (
    METHODS,
    TeethSpec,
    VALID_METHODS,
    _SIGNATURES,
    _csv_text,
    _unknown_method,
    check_study,
    format_table,
    run_method,
    run_null_study,
    run_signal_study,
)
from .core import ChangepointConfig, TimeSeries, check_settings, segment_means, threshold_level
from .distance import config_distance

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_BAD_CONTENT = 3
EXIT_BAD_CONFIG = 4

DEFAULT_MASTER_SEED = 12345
TABLE1_METHODS = ("bic", "mbic", "wbs", "wbs2-sdll")
TABLE1_LENGTHS = (100, 500)
TABLE1_REPS = 1000
_STUDY_TITLES = {
    "null": "Null study (no true changepoints)",
    "signal": "\nSignal study (teeth truth)",
}

# (flag, detector parameter, help); a flag's default and type are those of
# its parameter in the detectors' signatures
_DETECTOR_FLAGS = (
    ("--threshold-c", "c", "threshold constant for binseg/wbs"),
    ("--intervals", "m_intervals", "random interval count for wbs"),
    ("--min-span", "min_span", "minimum interval span for wbs"),
    ("--min-len", "min_len", "minimum segment length for binseg recursion"),
    ("--m-stage", "m_stage", "per-stage interval draws for wbs2-sdll"),
    ("--lambda", "lam", "steepest-drop gate constant for wbs2-sdll"),
    ("--floor-mult", "floor_mult", "drop-scan floor as a fraction of the gate"),
    ("--min-seg", "min_seg", "minimum segment length for bic/mbic"),
)
# read from the signatures once, at import
_FLAG_DEFAULTS = {name: sig.parameters[name].default for sig in _SIGNATURES.values()
                  for _, name, _ in _DETECTOR_FLAGS if name in sig.parameters}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 4, not argparse's 2."""

    def error(self, message):
        raise CliError(f"{self.format_usage()}{self.prog}: error: {message}", EXIT_BAD_CONFIG)


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_UNREADABLE)


def read_series_file(path: str) -> TimeSeries:
    """One numeric value per line, or comma-separated time,value rows (second
    column used); an optional non-numeric first line is treated as a header."""
    values: list[float] = []
    first_data_line = True
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        cell = cells[1] if len(cells) >= 2 else cells[0]
        try:
            value = float(cell)
        except ValueError:
            if first_data_line:
                first_data_line = False  # header row
                continue
            raise CliError(f"{path}: non-numeric value on line {lineno}: {line!r}",
                           EXIT_BAD_CONTENT)
        first_data_line = False
        if not math.isfinite(value):
            raise CliError(f"{path}: non-finite value on line {lineno}: {line!r}",
                           EXIT_BAD_CONTENT)
        values.append(value)

    try:
        return TimeSeries(values)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}", EXIT_BAD_CONTENT)


def read_changepoint_file(path: str, series_length: int) -> ChangepointConfig:
    """Strictly increasing integer changepoint times in (1, series_length]."""
    times: list[int] = []
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            t = int(line)
        except ValueError:
            raise CliError(f"{path}: non-integer time on line {lineno}: {line!r}",
                           EXIT_BAD_CONTENT)
        if not 2 <= t <= series_length:
            raise CliError(
                f"{path}: time {t} on line {lineno} outside [2, {series_length}]",
                EXIT_BAD_CONTENT,
            )
        times.append(t)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CliError(f"{path}: times must be strictly increasing", EXIT_BAD_CONTENT)
    return ChangepointConfig(times=tuple(times), series_length=series_length)


def _method_params(args) -> dict:
    """Per method, the detector flags' values for the parameters it takes."""
    return {method: {name: getattr(args, name) for name in sig.parameters
                     if name in _FLAG_DEFAULTS}
            for method, sig in _SIGNATURES.items()}


def cmd_detect(args) -> int:
    if args.method not in VALID_METHODS:
        raise _unknown_method(args.method)
    series = read_series_file(args.input)
    params = _method_params(args)[args.method]

    result: dict = {
        "method": args.method,
        "n_obs": len(series),
        "seed": args.seed,
        "sigma_hat": series.sigma_hat,
    }
    if args.method in ("bic", "mbic"):
        fit = METHODS[args.method](series, **params)
        config = fit.config
        # a perfect fit has objective -inf, which JSON cannot carry
        result["objective"] = fit.objective if not fit.degenerate else None
        result["rss"] = fit.rss
        result["degenerate"] = fit.degenerate
    else:
        config = run_method(args.method, series, args.seed, params)
        c = params["lam"] if "lam" in params else params["c"]
        result["threshold"] = threshold_level(c, len(series), result["sigma_hat"])
    result["n_changepoints"] = config.count
    result["changepoints"] = list(config.times)
    result["segment_means"] = segment_means(series, config)

    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_distance(args) -> int:
    check_settings(length=args.length)
    truth = read_changepoint_file(args.truth, args.length)
    estimate = read_changepoint_file(args.estimate, args.length)
    total = config_distance(truth, estimate)
    count_term = abs(truth.count - estimate.count)
    assignment_term = total - count_term
    print(f"count_term: {count_term}")
    print(f"assignment_term: {assignment_term:.6f}")
    print(f"distance: {total:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = list(args.methods) if args.methods else list(TABLE1_METHODS)
    lengths = list(args.lengths) if args.lengths else list(TABLE1_LENGTHS)
    reps = args.reps if args.reps is not None else (TABLE1_REPS if args.table1 else 100)
    teeth = {f.name: getattr(args, f"teeth_{f.name}") for f in fields(TeethSpec)}
    spec = TeethSpec(**teeth) if args.signal else None
    # every study setting is checked before any study runs; settings that
    # only a detector checks fail during the studies, so both run before
    # --out is created. Each study's lengths are checked on their own: the
    # teeth length may equal a null length.
    method_params = _method_params(args)
    check_study(methods, lengths, reps, args.jobs, method_params)
    if spec is not None:
        check_study(methods, [spec.length], reps, args.jobs, method_params)

    reports = [run_null_study(
        methods, lengths, reps, args.seed, method_params=method_params, n_jobs=args.jobs
    )]
    if spec is not None:
        reports.append(run_signal_study(
            spec, methods, reps, args.seed, method_params=method_params, n_jobs=args.jobs
        ))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    opened = []
    try:
        for report in reports:
            table = format_table(report)
            sys.stdout.write(f"{_STUDY_TITLES[report.study]}\n{table}")
            for name, text in (("table.txt", table), ("results.csv", _csv_text(report))):
                path = out_dir / f"{report.study}_{name}"
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    opened.append(path)
                    fh.write(text)
    except OSError:  # a failed write leaves no partial report
        for path in opened:
            path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpdkit",
        description="Changepoint detection, configuration scoring, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="detect changepoints in a CSV series")
    p_detect.add_argument("input", help="CSV file: one value per line or time,value rows")
    p_detect.add_argument("--method", required=True,
                          help=f"one of: {', '.join(VALID_METHODS)}")
    p_detect.add_argument("--out", help="write the JSON result here instead of stdout")
    p_detect.add_argument("--seed", type=int, default=0, help="detector seed")
    _add_detector_flags(p_detect)
    p_detect.set_defaults(func=cmd_detect)

    p_dist = sub.add_parser("distance", help="score two changepoint lists")
    p_dist.add_argument("truth", help="file with one changepoint time per line")
    p_dist.add_argument("estimate", help="file with one changepoint time per line")
    p_dist.add_argument("--length", type=int, required=True,
                        help="series length T both configurations refer to")
    p_dist.set_defaults(func=cmd_distance)

    p_bench = sub.add_parser("bench", help="run the Monte-Carlo benchmark")
    p_bench.add_argument("--table1", action="store_true",
                         help="standard null study: bic, mbic, wbs, wbs2-sdll at "
                              "T=100,500 with 1000 replications")
    p_bench.add_argument("--methods", nargs="+", help="methods to benchmark")
    p_bench.add_argument("--lengths", nargs="+", type=int, help="series lengths")
    p_bench.add_argument("--reps", type=int, help="replications per cell")
    p_bench.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                         help="master seed for the study")
    p_bench.add_argument("--out", default=".", help="output directory for report files")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="parallel worker processes for replications")
    p_bench.add_argument("--signal", action="store_true",
                         help="also run the teeth-signal study")
    for f in fields(TeethSpec):  # TeethSpec.length has no default
        default = 200 if f.name == "length" else f.default
        p_bench.add_argument(f"--teeth-{f.name}", type=type(default), default=default,
                             dest=f"teeth_{f.name}")
    _add_detector_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _add_detector_flags(p) -> None:
    for flag, name, help_text in _DETECTOR_FLAGS:
        default = _FLAG_DEFAULTS[name]
        p.add_argument(flag, type=type(default), default=default, dest=name,
                       metavar=flag[2:].upper().replace("-", "_"), help=help_text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.exit_code
    # the readers turn an unreadable input into CliError, so an OSError here
    # comes from an output path or from the OS
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
