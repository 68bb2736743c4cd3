"""The benchmark's workloads (``benchmarks/workloads.py``) write run configs
and sweep manifests.  A change to the input format that rejects them would
otherwise show only when the benchmark runs, so every generated input is
parsed here.  The file is loaded, not changed."""

import importlib.util
import os
import sys

import pytest

from qmhd.cli import parse_sweep_manifest
from qmhd.config import parse_config

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("qmhd_benchmark_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_inputs_parse(tmp_path, name):
    workload = WORKLOADS[name]
    workload.prepare(str(tmp_path), seed=0)
    if workload.kind == "run":
        config = parse_config(tmp_path / "run.cfg")
        assert config.points == (workload.points,) * workload.dim
    elif workload.kind == "sweep":
        spec, out, workers = parse_sweep_manifest(tmp_path / "sweep.manifest")
        assert spec.values == workload.ladder
        assert (out, workers) == (os.path.join(str(tmp_path), "out"), 1)
    else:
        assert sorted(os.listdir(tmp_path)) == ["workload.json"]
