"""One workload process: set up, warm up, then run ops in a closed loop.

Started by ``run.py``; prints ``READY`` once set-up (imports, input
generation and one warm-up op) is done, then, unless ``--setup-only``, one
JSON line with the raw measurements. One client issues one op after another.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def mean_over_inputs(stats_by_input: dict[int, dict], key: str):
    """Mean over pool inputs; a count that is the same for every input stays an int."""
    vals = [s.get(key, 0) for s in stats_by_input.values()]
    if all(isinstance(v, int) for v in vals) and len(set(vals)) == 1:
        return vals[0]
    return statistics.fmean(vals)


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    null = tracing.NullTracer()
    warm = wl.op(0, null)
    problems = wl.check(0, warm)
    if problems:
        print(f"warm-up op failed its checks: {problems[0]}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else null
    # Every pool input runs at least once, so per-input numbers cover the pool,
    # and at least 21 ops run, so the tail percentile is never below the median.
    # A traced run runs each input twice in a row, once traced and once not,
    # alternating which goes first; it compares the two for the overhead.
    per_input = 2 if args.trace else 1
    min_ops = max(wl.pool * per_input, 21)
    latencies: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    traced_ops: set[int] = set()
    failed = 0
    messages: list[str] = []
    epe_by_input: dict[int, float] = {}
    stats_by_input: dict[int, dict] = {}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds or i < min_ops:
        j = i // per_input
        traced = bool(args.trace) and (i % 2) != (j % 2)
        t = tracer if traced else null
        if traced:
            traced_ops.add(i)
        t0 = time.perf_counter()
        try:
            with t.op(i):
                out = wl.op(j, t)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            failed += 1
            messages.append(f"op {i}: {type(exc).__name__}: {exc}")
            i += 1
            continue
        dt = time.perf_counter() - t0
        problems = wl.check(j, out)
        if problems:
            failed += 1
            messages.extend(f"op {i}: {p}" for p in problems)
        else:
            latencies.append(dt)
            key = j % wl.pool
            if key not in epe_by_input:
                epe_by_input[key] = wl.epe_px(out)
                stats_by_input[key] = wl.stats(out)
        if args.trace:
            (traced_s if traced else untraced_s).append(dt)
        i += 1

    result = {
        "attempted": i,
        "failed": failed,
        "messages": messages[:10],
        "latencies": latencies,
        "epe_px": wl.summary_epe(epe_by_input) if epe_by_input and not args.trace else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if args.trace:
        self_s, layer_failed, root_s = tracer.self_times(traced_ops)
        keys = sorted({k for s in stats_by_input.values() for k in s})
        result["trace"] = {
            "ops": len(traced_ops),
            "op_s": root_s,
            "self_s": self_s,
            "failed": layer_failed,
            "stats": {k: mean_over_inputs(stats_by_input, k) for k in keys},
            "traced_mean_s": statistics.fmean(traced_s) if traced_s else None,
            "untraced_mean_s": statistics.fmean(untraced_s) if untraced_s else None,
        }
        tracer.write(args.workdir / f"trace-{args.workload}-{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
