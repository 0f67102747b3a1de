"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import worker
import workloads
from wcell import builder, knuth, laurent
from wcell import wgraph as wg

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, printed",
    [
        ("sweep-n5", ("setup_s", "total_s", "build_s", "verify_s", "peak_rss_mb", "error_rate")),
        ("oracle-n4", ("setup_s", "total_s", "oracle_s", "peak_rss_mb", "error_rate")),
    ],
)
def test_smoke_prints_every_end_to_end_metric(workload, printed):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    units = {"peak_rss_mb": "MB", "error_rate": "ratio"}
    lines = {line.split()[0]: line.split() for line in proc.stdout.splitlines() if line.startswith("  ")}
    for name in printed:
        assert lines[name][2] == units.get(name, "s")
    assert float(lines["error_rate"][1]) == 0


def traced_counts(seed):
    result = result_of(run_bench("--workload", "sweep-n5", "--seed", str(seed), "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in ("count", "weight")}


def test_traced_counts_match_pins_and_do_not_depend_on_the_seed():
    counts = traced_counts(1)
    shapes = workloads.partitions(5)
    pins = workloads.pins()
    for counter, key in [("graph.vertices", "vertices"), ("graph.weights", "weights"),
                         *((c, k) for c, k in workloads.TRACED_PINS.items())]:
        assert counts[counter] == sum(pins[workloads.shape_text(lam)][key] for lam in shapes)
    assert counts["builder.build_cell_graph.calls"] == len(shapes)
    assert counts == traced_counts(2)


def test_seed_only_shuffles_the_sweep(tmp_path):
    first = workloads.WORKLOADS["sweep-n9"](1, tmp_path)
    second = workloads.WORKLOADS["sweep-n9"](2, tmp_path)
    assert first != second
    assert sorted(first, key=repr) == sorted(second, key=repr)
    assert workloads.WORKLOADS["oracle-n6"](1, tmp_path) == workloads.WORKLOADS["oracle-n6"](2, tmp_path)


def test_corrupted_weight_is_a_failed_op(tmp_path, monkeypatch):
    build = builder.build_cell_graph

    def corrupted(lam):
        g = build(lam)
        if not g.mu:
            return g
        mu = dict(g.mu)
        key = min(mu)
        mu[key] += 1
        return wg.SColoredGraph(g.n, g.tau, mu, g.labels)

    monkeypatch.setattr(builder, "build_cell_graph", corrupted)
    ops = workloads.WORKLOADS["sweep-n5"](1, tmp_path)
    result = worker.run_pass(ops)
    with_weights = [lam for lam in workloads.partitions(5) if workloads.pins()[workloads.shape_text(lam)]["weights"]]
    digest_failures = [f for f in result.failures if f.startswith("build") and "digest" in f]
    assert len(digest_failures) == len(with_weights) > 0
    monkeypatch.undo()
    assert worker.run_pass(ops).failures == []


def test_tracer_restores_originals_and_skips_missing_functions(monkeypatch):
    originals = (builder.mu_probable, laurent.LaurentPolynomial.__mul__, laurent.LaurentPolynomial.__rmul__)
    monkeypatch.delattr(knuth, "favourable_rep")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert builder.mu_probable is not originals[0]
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert "knuth.favourable_rep.calls" not in metrics
    assert "builder.mu_probable.calls" in metrics
    assert not hasattr(knuth, "favourable_rep")
    assert (builder.mu_probable, laurent.LaurentPolynomial.__mul__, laurent.LaurentPolynomial.__rmul__) == originals


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oracle-n6", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_speed_samples_are_left_out_of_pass_and_span_times():
    probe = worker.SpeedProbe()
    probe.samples = [(0.0, 1.0), (2.0, 3.0), (5.0, 6.0)]
    assert probe.seconds(0.5, 5.5) == 3.0
    assert probe.loop_s() == 1.0
    tracer = tracing.Tracer()
    tracer.span_names = ["outer", "inner"]
    tracer.spans += [["outer", 0, 10 * 10**9, -1], ["inner", 4 * 10**9, 7 * 10**9, 0]]
    metrics = tracer.metrics(samples=[(2.0, 3.0), (5.0, 6.0)])
    assert (metrics["outer.s"], metrics["inner.s"], metrics["outer.self_s"]) == (8.0, 2.0, 6.0)
