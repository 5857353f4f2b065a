"""The tracer's self-time algebra, and traced and untraced runs end to end."""
from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH, ROOT
from tracing import PER_LAYER, Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans.extend([
        _span("bench.op", "bench", 0.0, 10.0, -1),
        _span("cli.main", "cli", 1.0, 9.0, 0),
        _span("graphs.build", "graphs", 2.0, 4.0, 1),
        _span("metrics.direct", "metrics", 4.0, 8.0, 1),
        _span("metrics.direct", "metrics", 5.0, 7.0, 3),
    ])
    folded = tracer.fold_round(10.0)
    assert folded["self_by_name"] == {
        "bench.op": 2.0, "cli.main": 2.0, "graphs.build": 2.0, "metrics.direct": 4.0,
    }
    assert sum(folded["self_by_layer"].values()) == 10.0
    assert folded["top_calls"]["metrics.direct"] == 1
    assert tracer.spans == []


def test_wrappers_nest_and_uninstall_restores(mods):
    tracer = Tracer()
    original = mods["metrics"].compute_metrics
    tracer.install(mods)
    try:
        assert mods["metrics"].compute_metrics is not original
        params = mods["params"].GeneralizedParams(2, [(2, 3)])
        mods["metrics"].compute_metrics(mods["graphs"].generalized_core_satellite(params))
        folded = tracer.fold_round(1.0)
    finally:
        tracer.uninstall()
    assert mods["metrics"].compute_metrics is original
    assert folded["top_calls"]["metrics.direct"] == 1
    assert folded["counts"]["metrics.triangle_count"] == 6
    assert folded["calls"]["graphs.build"] == 1


def _run(tmp_root, *args):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=tmp_root, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the sources and the benchmark, as the benchmark is run."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, root / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _traced(checkout, workload, seed):
    proc = _run(checkout, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    trace = json.loads((checkout / "benchmarks" / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return result, trace


def test_traced_self_times_add_up_to_wall_time(checkout):
    result, trace = _traced(checkout, "inspect", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]} == set(PER_LAYER)
    for folded in trace["rounds"]:
        total = sum(folded["self_by_layer"].values())
        program = total - folded["self_by_layer"].get("bench", 0.0)
        # the root spans are the loop's own timings of the operations, so
        # the self times add up to the traced wall, tracing cost included
        assert total == pytest.approx(folded["root_s"], abs=1e-9 * folded["spans"])
        assert folded["root_s"] == pytest.approx(folded["wall_s"], abs=1e-12 * folded["spans"])
        assert 0 < program <= folded["wall_s"]
    # traced and untraced rounds alternate, traced first; the overhead is
    # the difference of their median walls
    traced = [folded["wall_s"] for folded in trace["rounds"]]
    untraced = trace["untraced_round_wall_s"]
    assert len(traced) - len(untraced) in (0, 1) and untraced
    assert metrics["trace.wall_s"] == statistics.median(traced)
    assert metrics["trace.overhead_s"] == statistics.median(traced) - statistics.median(untraced)
    assert metrics["oracle.dense_mb"] == pytest.approx(1510**2 * 8 / 2**20)
    assert metrics["metrics.triangle_count_calls"] == 6 * metrics["metrics.direct_calls"]


def test_triangle_count_calls_repeat_across_seeds(checkout):
    first, _ = _traced(checkout, "inspect", 2)
    second, _ = _traced(checkout, "inspect", 3)
    key = "metrics.triangle_count_calls"
    assert first["metrics"][key]["value"] == second["metrics"][key]["value"] == 30


def test_untraced_run_prints_every_end_to_end_metric(checkout):
    proc = _run(checkout, "--workload", "analytic", "--seed", "4", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the named core-10**12 group fails in every round, nothing else does
    known = len(workloads.KNOWN_FAILING)
    ops_per_round = sum(workloads.ANALYTIC_SETS.values()) + known
    assert result["attempted"] % ops_per_round == 0
    assert result["failed"] * ops_per_round == known * result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
