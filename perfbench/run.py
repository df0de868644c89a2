"""matchkit benchmark: one workload per invocation, result as a JSON last line.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree (the one holding ``src/matchkit``). The
workload runs in a child process with one BLAS thread. With ``--trace 0`` it
is timed with tracing off and two more processes only measure set-up, so
``setup_s`` is a median of three; with ``--trace 1`` every other op is traced
and the per-layer metrics are reported. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "out"
SETUP_SAMPLES = 3
TIMEOUT_S = 170.0  # the whole run, all processes included


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Every process compiles from source, so set-up samples are alike and
    # the tree gains no bytecode caches.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start one worker; return (seconds to READY, its last stdout line)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", str(WORKDIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready.strip() != "READY":
        raise RuntimeError(f"{args.workload} worker exited with code {code}")
    lines = rest.strip().splitlines()
    return setup, lines[-1] if lines else ""


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, and its value."""
    ordered = sorted(latencies)
    k = max(len(ordered) - 10, 1)
    return 100.0 * k / len(ordered), ordered[k - 1]


def end_to_end(raw: dict, setups: list[float], specs: list[dict]) -> dict:
    lat = raw["latencies"]
    pct, tail_s = tail(lat)
    ok = raw["attempted"] - raw["failed"]
    values = {
        "ops_per_s": ok / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "success_rate": ok / raw["attempted"],
        "epe_px": raw["epe_px"],
    }
    print(
        f"# ops={len(lat)} tail=p{pct:.1f} error_rate={raw['failed'] / raw['attempted']:.4f}"
        f" setup_samples={[round(s, 4) for s in setups]}"
    )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def per_layer(raw: dict, specs: list[dict]) -> dict:
    """Per-layer numbers; a layer or function the workload never calls reads 0."""
    tr = raw["trace"]
    n = tr["ops"]
    values = dict.fromkeys((m["name"] for m in specs), 0)
    self_s = dict(tr["self_s"])
    values["bench.glue_ms"] = 1000.0 * self_s.pop("bench.glue") / n
    values["bench.op_ms"] = 1000.0 * tr["op_s"] / n
    for name, secs in self_s.items():
        layer = name.split(".")[0]
        values[f"{name}.ms"] = 1000.0 * secs / n
        values[f"{layer}.share"] += secs / tr["op_s"]
    for name, count in tr["failed"].items():
        values[f"{name.split('.')[0]}.failed"] += count
    values.update(tr["stats"])
    values["bench.trace_overhead"] = tr["traced_mean_s"] / tr["untraced_mean_s"] - 1.0
    unknown = set(values) - {m["name"] for m in specs}
    if unknown:
        raise RuntimeError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "matchkit" / "__init__.py").is_file():
        print(f"run.py: no matchkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    deadline = time.perf_counter() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(args, deadline, setup_only=True)[0])
    setup, line = run_child(args, deadline, setup_only=False)
    setups.append(setup)
    raw = json.loads(line)
    if not raw["latencies"]:
        print("run.py: no op completed", file=sys.stderr)
        return 1

    print("# env " + json.dumps(raw["env"], sort_keys=True))
    for msg in raw["messages"]:
        print(f"# failure: {msg}")
    if args.trace:
        metrics = per_layer(raw, spec["per_layer"])
    else:
        metrics = end_to_end(raw, setups, spec["end_to_end"])
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": raw["env"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    (WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n"
    )
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
