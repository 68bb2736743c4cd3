"""Smoke test of the benchmark harness; it asserts nothing about timing.

    python3 -m pytest benchmarks/tests

Every workload runs at its tiny size, untraced and traced, and the last
line must match the schema BENCHMARK.json promises.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(cwd, workload, trace):
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                  "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_matches_schema(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert not [ln for ln in lines if ln.startswith(("unlisted binding", "listed binding", "absent:"))]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path)
    out = _run(tmp_path, BENCHMARK["workloads"][0]["name"], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def _span(sid, name, parent, t0, t1, fft_calls=0, attr=None):
    return [sid, name, parent, "r", t0, t1, 0, False, fft_calls, 0, 0, fft_calls, 0, 0, attr]


def test_metrics_of_a_removed_name_are_absent_not_zero():
    closed = [_span(0, "GalerkinBasis.project", -1, 0, 2_000_000)]
    summary = {"fft_calls": 0, "fft_calls_at_last_step_exit": 0, "peak_states_in_sweep": 0, "import_s": 0.5}
    merged = spans.layer_metrics(closed, summary, ["GalerkinBasis.project_force_spectra"])
    assert merged["basis.project_ms"] == 2.0
    gone = spans.layer_metrics([], summary, ["GalerkinBasis.project", "GalerkinBasis.project_force_spectra"])
    assert "basis.project_ms" not in gone
    assert gone["basis.gram_ms"] == 0.0  # exists but not called: reads 0
