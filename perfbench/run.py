"""cpdkit benchmark: study throughput, detect latency, and a traced
breakdown per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload null-table1 --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` a
separate traced run reports the per-layer ones. The workload runs in its
own fresh process with one BLAS/OpenMP thread (``workload.py``); this
process measures ``setup_s``, the time a fresh interpreter takes to
``import cpdkit.cli``, as the median of several launches. Human-readable
lines come first; the last line of standard output is the result JSON.
The exit code is 0 only if a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_LAUNCHES = 5
TIME_LIMIT_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def setup_seconds(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cpdkit.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cpdkit benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "cpdkit" / "__init__.py").is_file():
        print(f"no cpdkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env(root)
    setup = [] if args.trace else setup_seconds(env)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        print("workload process exceeded the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    env_info = result["environment"]
    details = result["details"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  cycles {details['cycles']}")
    print(f"machine: nproc {env_info['nproc']}, affinity {env_info['affinity']}, "
          f"{env_info['cpu_model']}, caches {env_info['cache_bytes']}, "
          f"python {env_info['python']}, numpy {env_info['numpy']}, scipy {env_info['scipy']}, "
          f"threads {env_info['threads']}")
    samples = details["samples_ms"]
    for m in wanted:
        name = m["name"]
        note = ""
        if name in samples:
            note = f"  (median of n={len(samples[name])})"
        elif name == "setup_s":
            note = f"  (median of n={len(setup)}: {', '.join(f'{s:.3f}' for s in setup)})"
        print(f"{name}: {measured[name]:.6g} {m['unit']}{note}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"failed_frac: {frac:.6g} ({result['failed']} of {result['attempted']} operations)")
    for line in details["digest_mismatches"]:
        print(f"digest mismatch: {line}")
    if details["changepoint_digests"] < details["study_units"]:
        print(f"changepoint lists checked in {details['changepoint_digests']} of "
              f"{details['study_units']} study units (no calls seen at cpdkit.bench.run_method)")
    if args.trace:
        l3 = env_info["cache_bytes"].get("L3")
        print(f"self time per layer (ms over {details['window_cycles']} cycles, "
              f"{details['window_reps']} series): "
              + ", ".join(f"{k} {v:.1f}" for k, v in details["layer_self_ms"].items()))
        gap = 1 - details["layer_self_sum_ms"] / details["window_wall_ms"]
        overhead = measured["trace.overhead_frac"]
        print(f"layer self times sum to {details['layer_self_sum_ms']:.1f} ms of "
              f"{details['window_wall_ms']:.1f} ms traced wall: gap {gap:.4f} "
              f"{'within' if gap <= overhead else 'beyond'} trace.overhead_frac "
              f"{overhead:.4f} ({details['spans']} spans at {details['span_cost_ns']:.0f} ns)")
        print(f"working set, computed: kernel {details['kernel_working_set_bytes_computed']} B, "
              f"DP {details['dp_working_set_bytes_computed']} B, L3 {l3} B")
        if details["missing_sites"]:
            print(f"sites not traced: {', '.join(details['missing_sites'])}")
    print(f"record: {result['record_path']}")

    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
