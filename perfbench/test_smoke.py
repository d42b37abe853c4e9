"""Smoke test of the benchmark at tiny sizes: every workload, untraced and
traced, with every check. Outside the tier-1 suite; run it with

    python -m pytest perfbench/test_smoke.py
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["reference", "long_stream", "big_bank"])
def test_workload_runs_and_passes_its_checks(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] > 0
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _bench(str(tmp_path), "--workload", "reference", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_trace_drops_metrics_of_missing_functions(monkeypatch):
    monkeypatch.syspath_prepend(SRC)
    monkeypatch.syspath_prepend(HERE)
    import tracer
    from ostta import cli, metrics  # noqa: F401  (cli imports decision_grid by name)

    monkeypatch.delattr(metrics, "decision_grid")
    spans = tracer.Tracer()
    spans.install()
    try:
        names = spans.metrics()
    finally:
        spans.uninstall()
    assert "metrics.decision_grid_s" not in names
    assert "metrics.grid_points" not in names
    assert "knn.query_calls" in names
