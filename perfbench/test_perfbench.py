"""Tests of the benchmark itself; run from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench

The smoke runs use tiny cohorts of every workload's shape and check that
each metric BENCHMARK.json declares is printed, with its unit, and nothing
else.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # the traced run is checked against an untraced one
    assert result["attempted"] == 2 if trace else result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["cohort.parse_calls"]["value"] >= 1
        assert result["metrics"]["mdp.validate_calls"]["value"] >= 1
    else:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench_dir / name).write_bytes(
                open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance_raw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fake_package():
    """A two-module stand-in for glyrl; outer does `from .inner import work`."""
    inner = types.ModuleType("glyrl.inner")
    exec("def work(n):\n    return list(range(n))\n", vars(inner))
    outer = types.ModuleType("glyrl.outer")
    outer.work = inner.work
    exec("def run(n):\n    return work(n) + work(n)\n", vars(outer))
    return {"glyrl.inner": inner, "glyrl.outer": outer}


def test_tracer_wraps_from_imports_and_restores():
    modules = _fake_package()
    original = modules["glyrl.inner"].work
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert modules["glyrl.outer"].work is modules["glyrl.inner"].work
    assert modules["glyrl.inner"].work is not original
    modules["glyrl.outer"].run(2)
    modules["glyrl.inner"].work(3)
    tracer.uninstall()
    assert modules["glyrl.inner"].work is original
    assert modules["glyrl.outer"].work is original
    funcs, _ = tracing.span_times(tracer.to_dict())
    assert funcs["inner.work"]["calls"] == 3
    assert funcs["outer.run"]["calls"] == 1
    assert "outer.work" not in funcs  # re-exports are wrapped once


def test_missing_target_reads_zero_and_warns(caplog):
    tracer = tracing.Tracer()
    with caplog.at_level("WARNING", logger="perfbench.tracing"):
        tracer.install(_fake_package())
    assert "cohort.parse_cohort" in tracer.missing
    assert any("cohort.parse_cohort" in r.getMessage() for r in caplog.records)
    metrics = tracing.layer_metrics(tracer.to_dict(), input_rows=10)
    assert metrics["cohort.parse_calls"] == (0, "count")
    assert metrics["cohort.parse_s"] == (0.0, "s")
    assert metrics["cohort.parse_amplification"] == (0.0, "ratio")


def test_self_time_subtracts_direct_children():
    trace = {
        "names": ["pipeline.stage_a", "cohort.parse_cohort",
                  "cohort.impute_series"],
        # [name, start, end, parent]
        "spans": [[0, 0.0, 10.0, -1],
                  [1, 1.0, 4.0, 0],
                  [2, 2.0, 3.0, 1],
                  [1, 5.0, 7.0, 0]],
        "counters": {},
    }
    funcs, mods = tracing.span_times(trace)
    assert funcs["pipeline.stage_a"]["self_s"] == pytest.approx(5.0)
    assert funcs["cohort.parse_cohort"]["time_s"] == pytest.approx(5.0)
    assert funcs["cohort.parse_cohort"]["self_s"] == pytest.approx(4.0)
    assert funcs["cohort.parse_cohort"]["calls"] == 2
    # the nested cohort span is inside an outer cohort span: counted once
    assert mods["cohort"]["time_s"] == pytest.approx(5.0)
    assert mods["cohort"]["self_s"] == pytest.approx(5.0)
