"""The package calls every entry point ``perfbench/traced.py --trace`` wraps.

``traced.py`` counts each layer by wrapping names in the ``runner`` and
``config`` modules and the operator callables of the problems they build. A
refactor that moves a call out from under one of those wrappers leaves the
benchmark reading zero for that layer; these runs catch it. A run that fails
must still exit with its own code and leave the result file.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


def _load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CONFIGS = {
    "sfbp": {
        "instance": "sfbp-two-penalty", "mode": "SFBP",
        "schedule": {"family": "polynomial", "r": 0.65, "s": 0.6, "b": 1000},
        "grid": {"kind": "uniform", "h": 1.0, "T": 20},
    },
    "skew-box-tracking": {
        "instance": "skew-box", "mode": "FBF",
        "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1},
        "grid": {"kind": "uniform", "h": 1.0, "T": 20}, "store_every": 5,
        "outputs": {"tracking": True, "path_csv": True},
    },
    "deblur": {
        "instance": {"deblur": {"size": 8, "kernel_size": 3, "sigma": 1.0}},
        "mode": "FBF",
        "schedule": {"family": "polynomial", "r": 0.05, "s": 0.25, "b": 1,
                     "lambda_bar": 0.3},
        "grid": {"kind": "uniform", "h": 1.0, "T": 1e9}, "max_steps": 5,
    },
}


def _run_traced(tmp_path, cfg):
    """Run ``traced.py --trace`` on ``cfg``: (process, path of the result file)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(TRACED), str(config),
                           str(tmp_path / "out"), str(result), "--trace"],
                          env=env, capture_output=True, text=True, timeout=120)
    return proc, result


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_run_counts_every_layer(tmp_path, name):
    proc, result = _run_traced(tmp_path, CONFIGS[name])
    assert proc.returncode == 0, proc.stderr
    metrics = _load_traced().layer_metrics(json.loads(result.read_text()))
    wanted = ["schedules.validate_ms", "dynamics.steps", "problem.d_calls"]
    if name == "skew-box-tracking":
        wanted.append("central_path.points")
    for metric in wanted:
        assert metrics[metric][0] > 0, metric


@pytest.mark.parametrize("name, oracle", [
    ("sfbp", "problem.shifted_resolvent_calls"),
    ("deblur", "operators.resolvent_calls")])
def test_one_backward_step_per_step_and_final_sample(tmp_path, name, oracle):
    # the march calls its one backward-step oracle on each step and once
    # more for the final sample
    proc, result = _run_traced(tmp_path, CONFIGS[name])
    assert proc.returncode == 0, proc.stderr
    metrics = _load_traced().layer_metrics(json.loads(result.read_text()))
    assert metrics[oracle][0] == metrics["dynamics.steps"][0] + 1


def test_traced_failing_run_exits_with_its_code(tmp_path):
    # FB needs a cocoercive D, which skew-box lacks: a precondition error
    proc, result = _run_traced(tmp_path, dict(CONFIGS["skew-box-tracking"], mode="FB"))
    assert proc.returncode == 4, proc.stderr
    assert json.loads(result.read_text())["exit_code"] == 4
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["exit_code"] == 4
