"""Run one workload in this process and print its raw samples as JSON.

Started by run.py in a fresh interpreter per workload, so that the peak
resident memory belongs to that workload.  Drives the program in-process
through ``wcell.cli.run(argv)``, the code path of ``wcell build|verify|oracle``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from probe import reference_loop  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_op  # noqa: E402

from wcell import cli, hecke  # noqa: E402


# Period of the speed samples taken while a pass runs.
PROBE_PERIOD_S = 0.1


@dataclass
class PassResult:
    total_s: float
    loop_s: float  # mean time of the reference loop during the pass, 0 if not probed
    seconds: dict[str, float]  # summed op time per CLI command
    attempted: int
    failures: list[str] = field(default_factory=list)


class SpeedProbe:
    """Times probe.reference_loop at the start, every PROBE_PERIOD_S and at the end.

    A SIGALRM handler takes the periodic samples, between two bytecodes of
    whatever the program is doing.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each loop

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self.samples.clear()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] outside the samples."""
        return sum(
            max(0.0, min(t1, b0) - max(t0, a1))
            for (_, a1), (b0, _) in zip(self.samples, self.samples[1:])
        )

    def loop_s(self) -> float:
        """Mean loop time, leaving out the fastest and slowest tenth of the samples."""
        times = sorted(b - a for a, b in self.samples)
        cut = len(times) // 10
        return statistics.mean(times[cut : len(times) - cut])


def clear_caches() -> None:
    """Empty kl_table's cache, so that every pass computes the table."""
    fn = hecke.kl_table
    while not hasattr(fn, "cache_clear") and hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()


def run_pass(ops, tracer: Tracer | None = None, probe: SpeedProbe | None = None) -> PassResult:
    """Run the ops once, timing each CLI call, then check every output."""
    clear_caches()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    done = []
    with probe or nullcontext():
        start = time.perf_counter()
        for op in ops:
            before = tracer.snapshot() if tracer is not None else None
            out, err = io.StringIO(), io.StringIO()
            rc = error = None
            t0 = time.perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    rc = cli.run(list(op.argv))
            except Exception:
                error = traceback.format_exc()
            t1 = time.perf_counter()
            moved = tracer.moved(before) if tracer is not None else None
            done.append((op, rc, out.getvalue(), err.getvalue(), error, t0, t1, moved))
        end = time.perf_counter()
    seconds = probe.seconds if probe is not None else lambda a, b: b - a
    result = PassResult(seconds(start, end), probe.loop_s() if probe is not None else 0.0, {}, len(ops))
    for op, rc, stdout, stderr, error, t0, t1, moved in done:
        result.seconds[op.kind] = result.seconds.get(op.kind, 0.0) + seconds(t0, t1)
        reason = check_op(op, rc, stdout, stderr, error, moved)
        if reason is not None:
            result.failures.append(f"{' '.join(op.argv[:3])}: {reason}")
    return result


def measure(ops, seconds: float, trace: bool, spans_path: Path | None = None) -> dict:
    """A warm-up pass, then passes for about ``seconds``.

    With ``trace``, untraced and traced passes alternate; the per-layer
    metrics are medians over the traced passes.  Both kinds of pass sample
    the machine's speed, so that the tracing overhead can be told apart from
    a change of speed.
    """
    warmup = run_pass(ops)
    runs: list[PassResult] = [warmup]
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    tracer = Tracer()
    window = time.perf_counter()
    estimate = warmup.total_s * (2 if trace else 1)
    probe = SpeedProbe()
    while not plain or time.perf_counter() - window + estimate <= seconds:
        plain.append(run_pass(ops, probe=probe))
        if trace:
            tracer.install()
            try:
                traced.append(run_pass(ops, tracer, probe))
                metrics = tracer.metrics(probe.samples)
            finally:
                tracer.uninstall()
            metrics["trace.coverage"] = metrics.pop("trace.layer_self_s") / traced[-1].total_s
            layers.append(metrics)
        estimate = statistics.median(p.total_s for p in plain)
        if trace:
            estimate += statistics.median(p.total_s for p in traced)
    runs += plain + traced
    out = {
        "warmup_s": warmup.total_s,
        "passes": [
            {"total_s": p.total_s, "loop_s": p.loop_s, **{f"{k}_s": v for k, v in p.seconds.items()}}
            for p in plain
        ],
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(len(p.failures) for p in runs),
        "failures": [f for p in runs for f in p.failures][:10],
    }
    if trace:
        # median_low keeps counts whole: they repeat exactly from pass to pass.
        metrics = {key: statistics.median_low(m[key] for m in layers) for key in layers[0]}
        # Traced minus untraced pass time, both at the untraced passes' speed.
        speed = statistics.median(p.loop_s for p in plain)
        metrics["trace.overhead_s"] = speed * (
            statistics.median(p.total_s / p.loop_s for p in traced)
            - statistics.median(p.total_s / p.loop_s for p in plain)
        )
        out["layers"] = metrics
        out["traced_passes"] = len(traced)
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spans_path = None
    if args.trace:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.tsv"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        out = measure(ops, args.seconds, bool(args.trace), spans_path)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
