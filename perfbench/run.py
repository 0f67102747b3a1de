"""The wcell benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload cell-large --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout.  It times ``import wcell.cli`` in
fresh interpreters (``setup_s``), then runs the workload in a fresh worker
process (worker.py), checks every output, and prints each metric by name
with its unit.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``--workload all`` runs every workload of
BENCHMARK.json in turn.  See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

from probe import NOMINAL_LOOP_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
# A run must end within 180 s; this leaves room for set-up and reporting.
WORKER_TIMEOUT_S = 150
# Times `import wcell.cli` in a fresh interpreter, with the reference loop's
# time before and after it.
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, {here!r}); import probe; r0 = probe.loop_s(11); "
    "t = time.perf_counter(); import wcell.cli; dt = time.perf_counter() - t; "
    "print(dt, (r0 + probe.loop_s(11)) / 2)"
)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> tuple[dict, int]:
    """Environment of the timed processes, and their BLAS/OpenMP thread count."""
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.pop("WCELL_ORACLE_MAX", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in _THREAD_VARS:
        env[var] = str(threads)
    return env, threads


def setup_times(env) -> list[tuple[float, float]]:
    """(import seconds, loop seconds) in fresh interpreters, after one untimed import."""
    cmd = [sys.executable, "-c", IMPORT_TIMER.format(here=str(HERE))]
    times = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import wcell.cli failed: {proc.stderr.strip()[-500:]}")
        if i:
            seconds, loop = map(float, proc.stdout.split())
            times.append((seconds, loop))
    return times


def run_worker(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"value": statistics.median(samples), "n": len(samples)}
    if len(samples) >= 20:
        pct = math.floor(100 * (1 - 10 / len(samples)))
        ordered = sorted(samples)
        out[f"p{pct}"] = ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return out


def end_to_end(raw: dict, setup: list[float]) -> dict[str, dict]:
    """Every end-to-end metric that applies to the workload, with its unit."""
    passes = raw["passes"]
    metrics = {
        "setup_s": {**timing([sec * NOMINAL_LOOP_S / loop for sec, loop in setup]), "unit": "s"},
        "setup_wall_s": {**timing([sec for sec, _ in setup]), "unit": "s"},
    }
    for key in ("total_s", "build_s", "verify_s", "oracle_s"):
        if key in passes[0]:
            metrics[key] = {**timing([p[key] for p in passes]), "unit": "s"}
    metrics["total_norm"] = {**timing([p["total_s"] / p["loop_s"] for p in passes]), "unit": "loops"}
    metrics["loop_s"] = {**timing([p["loop_s"] for p in passes]), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"], "unit": "MB"}
    metrics["error_rate"] = {"value": raw["failed"] / raw["attempted"], "unit": "ratio"}
    return metrics


def report(workload: str, seed: int, threads: int, raw: dict, metrics: dict, listed: dict) -> dict:
    """Print the metrics by name and unit; return the result object."""
    traced = f", {raw['traced_passes']} traced" if "traced_passes" in raw else ""
    print(
        f"workload {workload}  seed {seed}  BLAS/OpenMP threads {threads}  "
        f"passes {len(raw['passes'])}{traced} after a {raw['warmup_s']:.3f} s warm-up"
    )
    for name, m in metrics.items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:<44} {m['value']:<14.6g} {m['unit']:<6}{extra}")
    print(f"  ops attempted {raw['attempted']}, failed {raw['failed']}")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in listed.items()
            if name in metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wcell" / "cli.py").is_file():
        print(f"error: no wcell sources under {ROOT / 'src'}; run inside a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    listed = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    env, threads = child_env()
    for name in names:
        try:
            setup = [] if args.trace else setup_times(env)
            raw = run_worker(env, name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = {k: {"value": v, "unit": listed.get(k, "")} for k, v in raw["layers"].items()}
        else:
            metrics = end_to_end(raw, setup)
        print(json.dumps(report(name, args.seed, threads, raw, metrics, listed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
