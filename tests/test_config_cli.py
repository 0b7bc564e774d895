from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from qatlab.cli import DIAGNOSE_NAMES, RunManifest, main, run
from qatlab.config import ConfigError, parse_config, parse_config_dict, serialize_config
from qatlab.objectives import Quadratic
from qatlab.rng import substream


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fills_all_defaults(tmp_path):
    path = write_config(tmp_path, {"objective": {"kind": "quadratic"}})
    setup = parse_config(path)
    assert setup.train.ema_rate == 0.9
    assert setup.train.refresh.kind == "interval"
    assert setup.train.refresh.interval == 100
    assert setup.config["quant"]["group_size"] == 128
    assert setup.config["train"]["jac_mode"] == "probe"
    assert setup.seed == 0
    assert isinstance(setup.objective, Quadratic)
    assert setup.weights.dim == 64


def test_unknown_keys_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key 'turbo'"):
        parse_config(write_config(tmp_path, {"turbo": 1}))
    with pytest.raises(ConfigError, match="unknown key 'train.warmup'"):
        parse_config(write_config(tmp_path, {"train": {"warmup": 10}}))


def test_refresh_probability_range_message(tmp_path):
    path = write_config(tmp_path, {"train": {"refresh": {"kind": "probability",
                                                         "probability": 1.5}}})
    with pytest.raises(ConfigError, match=r"refresh probability out of \(0,1\]"):
        parse_config(path)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,\n  "oops }\n')
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(str(path))


def test_round_trip_is_idempotent_over_random_configs(tmp_path):
    rng = substream(123, "cfg")
    kinds = ["quadratic", "pl", "saturating", "linear_regression",
             "logistic_regression", "mlp"]
    for trial in range(50):
        payload = {
            "seed": int(rng.integers(0, 1000)),
            "objective": {
                "kind": kinds[int(rng.integers(0, len(kinds)))],
                "dim": int(rng.integers(4, 40)),
                "n_samples": int(rng.integers(2, 32)),
            },
            "quant": {"group_size": int(rng.integers(1, 16))},
            "train": {
                "stepsize": float(rng.uniform(0.01, 0.5)),
                "steps": int(rng.integers(1, 30)),
                "jac_mode": ["ste", "probe", "probe_ls", "dither"][int(rng.integers(0, 4))],
                "vr_mode": ["plain", "svrg", "saga", "sarah"][int(rng.integers(0, 4))],
            },
        }
        first = parse_config_dict(payload)
        echoed = json.loads(serialize_config(first))
        second = parse_config_dict(echoed)
        assert first.config == second.config
        assert serialize_config(first) == serialize_config(second)


def test_seed_override(tmp_path):
    path = write_config(tmp_path, {"seed": 5, "objective": {"kind": "quadratic"}})
    assert parse_config(path).seed == 5
    assert parse_config(path, seed_override=9).seed == 9


def test_config_echo_reproduces_weights(tmp_path):
    payload = {"seed": 3, "objective": {"kind": "saturating", "dim": 64},
               "quant": {"group_size": 16}}
    a = parse_config_dict(payload)
    b = parse_config_dict(json.loads(serialize_config(a)))
    assert np.array_equal(a.weights.values, b.weights.values)
    assert np.array_equal(a.objective.targets, b.objective.targets)


def test_cli_train_writes_metrics_and_summary(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 4,
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"steps": 30, "loop": "base", "refresh": {"interval": 10}},
    })
    out = tmp_path / "run"
    status = run(RunManifest(command="train", config_path=cfg, output_dir=str(out)))
    assert status == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "loss", "grad_norm", "surrogate_grad_norm", "mean_gain",
                       "min_gain", "max_gain", "frac_saturated", "refresh"]
    assert len(rows) == 31
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] is None
    assert summary["steps_run"] == 30
    assert summary["final_loss"] > 0
    assert summary["config"]["seed"] == 4


def test_cli_same_seed_byte_identical_metrics(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 8,
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"steps": 25, "refresh": {"interval": 5}},
    })
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(RunManifest("train", cfg, str(out1))) == 0
    assert run(RunManifest("train", cfg, str(out2))) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_cli_train_divergence_reports_error(tmp_path):
    cfg = write_config(tmp_path, {
        "objective": {"kind": "pl", "dim": 8, "mu": 1.0, "l_smooth": 1.0,
                      "n_samples": 4, "target_spread": 0.1},
        "quant": {"mode": "identity", "group_size": 8},
        "train": {"steps": 200, "stepsize": 50.0, "jac_mode": "ste",
                  "vr_mode": "plain"},
    })
    out = tmp_path / "div"
    status = run(RunManifest("train", cfg, str(out)))
    assert status == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "divergence" in summary["error"]


def test_cli_sweep(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 2,
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"steps": 10, "loop": "base", "refresh": {"interval": 5}},
        "sweep": {"group_sizes": [8, 16], "jac_modes": ["ste", "probe"]},
    })
    out = tmp_path / "sweep"
    status = run(RunManifest("sweep", cfg, str(out)))
    assert status == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2x2 grid
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == 4 and summary["cells_with_errors"] == 0


def test_cli_diagnose_probe_rate(tmp_path):
    out = tmp_path / "diag"
    status = run(RunManifest("diagnose", output_dir=str(out), harness="probe-rate"))
    assert status == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["criterion"] == "A2"
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["probe_count", "mean_error"]
    assert len(rows) == 5


def test_cli_unknown_harness_exit_code(tmp_path):
    status = run(RunManifest("diagnose", output_dir=str(tmp_path), harness="nope"))
    assert status == 2


def test_cli_missing_config_is_usage_error(tmp_path):
    status = run(RunManifest("train", config_path=None, output_dir=str(tmp_path)))
    assert status == 2
    status = run(RunManifest("train", config_path=str(tmp_path / "absent.json"),
                             output_dir=str(tmp_path)))
    assert status == 2


def test_calibrated_per_group_steps_train_end_to_end(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 6,
        "objective": {"kind": "linear_regression", "dim": 24, "n_samples": 16,
                      "w0_scale": 2.0},
        "quant": {"mode": "generic", "bits": 4, "group_size": 8, "calibrate": True},
        "train": {"steps": 20, "jac_mode": "probe", "vr_mode": "svrg",
                  "refresh": {"interval": 5}},
    })
    setup = parse_config(cfg)
    assert setup.spec.per_group
    assert len(np.asarray(setup.spec.step)) == 3
    out = tmp_path / "cal"
    assert run(RunManifest("train", cfg, str(out))) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps_run"] == 20
    assert len(summary["final_gains"]) == 3


def test_console_script_entry(tmp_path):
    import subprocess
    import sys

    cfg = write_config(tmp_path, {
        "objective": {"kind": "quadratic", "dim": 8, "n_samples": 4},
        "quant": {"group_size": 4, "mode": "identity"},
        "train": {"steps": 3, "jac_mode": "ste", "vr_mode": "plain"},
    })
    proc = subprocess.run(
        [sys.executable, "-m", "qatlab.cli", "train", "--config", cfg,
         "--out", str(tmp_path / "sub")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sub" / "metrics.csv").exists()


def test_main_argv_round_trip(tmp_path):
    cfg = write_config(tmp_path, {
        "objective": {"kind": "quadratic", "dim": 16, "n_samples": 8},
        "quant": {"group_size": 8, "mode": "identity"},
        "train": {"steps": 5, "jac_mode": "ste", "vr_mode": "plain"},
    })
    out = tmp_path / "main_out"
    assert main(["train", "--config", cfg, "--out", str(out), "--seed", "11"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 11
    assert sorted(DIAGNOSE_NAMES) == ["dither-fixed-point", "dominance", "pl-contraction",
                                      "probe-rate", "tracking", "vr-variance", "windows"]


BAD_CONFIGS = [
    ("quant.step", {"quant": {"step": "1"}}),
    ("train.probe_sigma", {"train": {"probe_sigma": -1}}),
    ("train.num_probes", {"train": {"num_probes": 0}}),
    ("seed", {"seed": -1}),
    ("quant.group_size", {"quant": {"group_size": 0}}),
    ("objective.path", {"objective": {"kind": "csv", "path": "nan.csv"}}),
]


@pytest.mark.parametrize("field,payload", BAD_CONFIGS, ids=[f for f, _ in BAD_CONFIGS])
def test_bad_config_fails_at_parse_time(tmp_path, monkeypatch, capsys, field, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.csv").write_text("x,y\n1.0,2.0\nnan,3.0\n")
    config = {"seed": 0, "objective": {"kind": "quadratic", "dim": 8, "n_samples": 4},
              "quant": {}, "train": {"steps": 2}}
    for section, values in payload.items():
        config[section] = {**config[section], **values} if isinstance(values, dict) else values
    path = write_config(tmp_path, config)
    assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
