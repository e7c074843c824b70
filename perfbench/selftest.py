"""Self-test of the benchmark's output checks.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs recorded pool units unchanged (their digests must match, a null
study unit also through bench's process pool), then plants wrong changepoint
lists behind the public entry points and checks that each one is caught.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import workload as w
from cpdkit import ChangepointConfig, bench, cli


def planted(fn, edit):
    """``fn`` with its first output changed by ``edit`` (later calls untouched)."""
    state = {"done": False}

    def wrong(method, series, *args, **kwargs):
        config = fn(method, series, *args, **kwargs)
        if state["done"]:
            return config
        times = edit(config.times, len(series))
        if times is None:
            return config
        state["done"] = True
        return ChangepointConfig.from_times(times, len(series))

    return wrong


def add_middle(times, n):
    return sorted(set(times) | {n // 2})


def shift_last(times, n):
    if not times or times[-1] - 1 in times or times[-1] - 1 < 2:
        return None
    return list(times[:-1]) + [times[-1] - 1]


def study_errors(k: int, digests: dict, jobs: int = 1) -> list[str]:
    capture = w.Capture()
    capture.install()
    try:
        res = w.run_study_unit(w.STUDY_POOLS["null"], k, jobs, capture)
    finally:
        capture.uninstall()
    return w.study_mismatches("null", k, res, digests)


def detect_errors(k: int, digests: dict, workdir: Path) -> list[str]:
    res = w.run_detect_unit(w.DETECT_POOLS["null-500"], k, workdir, w.PENLIK_METHODS)
    return w.detect_mismatches(digests["detect"]["null-500"][k], res)


def main() -> int:
    digests = w.load_digests()
    workdir = w.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = max(2, len(os.sched_getaffinity(0)))
    checks = [
        ("clean null study unit matches", study_errors(0, digests) == []),
        (f"null study rows at n_jobs={jobs} equal the serial rows",
         study_errors(0, digests, jobs) == []),
        ("clean detect unit matches", detect_errors(0, digests, workdir) == []),
    ]
    try:
        original = bench.run_method
        for label, edit, want in (
            ("moved changepoint in a null study is caught", shift_last, {"changepoints"}),
            ("extra changepoint in a null study is caught", add_middle,
             {"changepoints", "rows"}),
        ):
            bench.run_method = planted(original, edit)
            try:
                checks.append((label, set(study_errors(0, digests)) == want))
            finally:
                bench.run_method = original

        cli_original = cli.run_method
        cli.run_method = planted(cli_original, add_middle)
        try:
            checks.append(("extra changepoint in cpdkit detect is caught",
                           detect_errors(0, digests, workdir) == ["detect_ms.binseg"]))
        finally:
            cli.run_method = cli_original

        lo, hi = w.wilson(0, 16)
        checks.append(("Wilson interval of 0/16 is [0, 0.1936]",
                       lo == 0.0 and abs(hi - 0.19361) < 1e-4))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
