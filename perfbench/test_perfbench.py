"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import workloads
from tracer import CRITERIA, Tracer
from worker import Loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import qatlab.cli  # noqa: E402  (worker put the checkout's src on sys.path)


def _small_config(workload: str) -> dict:
    config = workloads.make_config(workload, seed=3)
    if config["objective"]["kind"] == "mlp":
        config["objective"].update(dim=8, hidden_width=8)
    else:
        config["objective"]["dim"] = 256
    config["train"]["steps"] = 30
    return config


def _qatlab_attributes() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if module is not None and (name == "qatlab" or name.startswith("qatlab."))
            for attr, value in vars(module).items()}


@pytest.mark.parametrize("workload", workloads.TRAIN_WORKLOADS)
def test_traced_run_writes_same_metrics_bytes(tmp_path, workload):
    with open(tmp_path / "config-000.json", "w", encoding="utf-8") as fh:
        json.dump(_small_config(workload), fh)
    loop = Loop(str(tmp_path))
    loop.run(0, traced=False)
    untraced = (tmp_path / "out-0" / "metrics.csv").read_bytes()
    tracer = Tracer()
    with tracer.installed():
        loop.run(0, traced=True)
    assert (tmp_path / "out-0" / "metrics.csv").read_bytes() == untraced
    assert [r["ok"] for r in loop.runs] == [True, True]
    assert {tracer.names[span[0]] for span in tracer.spans} >= {"cli.main", "config.parse_config"}


def test_every_wrapped_attribute_is_restored():
    before = _qatlab_attributes()
    criteria = dict(qatlab.acceptance.CRITERIA)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # Callers that imported a name resolve their own module's attribute.
            assert qatlab.trainer.apply_gains is not before[("qatlab.jacobian", "apply_gains")]
            assert qatlab.vrgrad.grad_est is not before[("qatlab.vrgrad", "grad_est")]
            assert qatlab.cli.main is not before[("qatlab.cli", "main")]
            raise RuntimeError("leave the block early")
    after = _qatlab_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(qatlab.acceptance.CRITERIA[k][1] is criteria[k][1] for k in CRITERIA)


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("outer", outer_body)()
    cols = tracer.arrays()
    outer, child = (cols["name"] == 1), (cols["name"] == 0)
    assert cols["self"][child] == pytest.approx(cols["duration"][child])
    assert cols["self"][outer] == pytest.approx(cols["duration"][outer] - cols["duration"][child])
    assert 0.005 < float(cols["self"][outer][0]) < 0.02


def _run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[key]}
    proc = _run(["--workload", "vr-svrg-probe", "--seed", "5", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "vr-svrg-probe", "--seconds", "1"], str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
