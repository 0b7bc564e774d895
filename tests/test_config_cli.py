from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qatlab import config as config_module
from qatlab import trainer
from qatlab.cli import DIAGNOSE_NAMES, main
from qatlab.config import ConfigError, parse_config, parse_config_dict
from qatlab.objectives import Quadratic
from qatlab.quant import QuantSpec
from qatlab.rng import substream


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def assert_failing_row(out, summary):
    """A failed run keeps one row per step run, the failing one last.

    That row shows the gains its step ran with (the previous row's, or the
    starting ones) and no refresh. A failure at step 0 writes no row.
    """
    failed_at = int(re.search(r"at step (\d+)", summary["error"]).group(1))
    with open(out / "metrics.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == summary["steps_run"] == failed_at
    if rows:
        gains = [header.index(name) for name in ("mean_gain", "min_gain", "max_gain")]
        ran_with = [rows[-2][i] for i in gains] if len(rows) > 1 else ["1.0"] * 3
        assert rows[-1][header.index("step")] == str(failed_at)
        assert [rows[-1][i] for i in gains] == ran_with
        assert rows[-1][header.index("refresh")] == "0"
    return rows


def test_minimal_config_fills_all_defaults(tmp_path):
    path = write_config(tmp_path, {"objective": {"kind": "quadratic"}})
    setup = parse_config(path)
    assert setup.train.ema_rate == 0.9
    assert setup.train.refresh.kind == "interval"
    assert setup.train.refresh.interval == 100
    assert setup.config["quant"]["group_size"] == 128
    assert setup.config["train"]["jac_mode"] == "probe"
    assert setup.train.seed == 0
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


def test_integer_beyond_the_digit_limit_is_a_parse_error(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"seed": 1' + "0" * 5000 + "}")
    with pytest.raises(ConfigError, match="parse error"):
        parse_config(str(path))


def test_round_trip_is_idempotent_over_random_configs(tmp_path):
    rng = substream(123, "cfg")

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    kinds = ["quadratic", "pl", "saturating", "linear_regression",
             "logistic_regression", "mlp"]
    jac_modes = ["ste", "probe", "probe_ls", "dither"]
    for trial in range(60):
        mode = pick(["w2", "w1", "w1_58", "generic", "identity"])
        payload = {
            "seed": int(rng.integers(0, 1000)),
            "objective": {
                "kind": pick(kinds),
                "dim": int(rng.integers(4, 40)),
                "n_samples": int(rng.integers(2, 32)),
            },
            "quant": {"mode": mode, "group_size": int(rng.integers(1, 16)),
                      "step": float(rng.uniform(0.1, 2.0)),
                      "mid_rise": pick([True, False]), "calibrate": pick([True, False])},
            "train": {
                "stepsize": float(rng.uniform(0.01, 0.5)),
                "steps": int(rng.integers(1, 30)),
                "jac_mode": pick(jac_modes),
                "vr_mode": pick(["plain", "svrg", "saga", "sarah"]),
                "refresh": pick([{"kind": "interval", "interval": int(rng.integers(1, 50))},
                                 {"kind": "probability",
                                  "probability": float(rng.uniform(0.01, 1.0))}]),
                "probe_sigma": pick([None, float(rng.uniform(0.05, 1.0))]),
                "num_probes": int(rng.integers(1, 9)),
                "ema_rate": float(rng.uniform(0.05, 1.0)),
            },
        }
        if mode == "generic":
            payload["quant"]["bits"] = int(rng.integers(2, 9))
        if mode not in ("generic", "w2"):  # mid-rise is defined for these grids only
            payload["quant"]["mid_rise"] = False
        if payload["objective"]["kind"] == "saturating":  # the task brings its own grid
            payload["quant"] = {"group_size": payload["quant"]["group_size"]}
        if pick([True, False]):
            sweep = {"group_sizes": [int(k) for k in rng.integers(1, 16, size=2)],
                     "refresh_intervals": [int(k) for k in rng.integers(1, 50, size=2)],
                     "jac_modes": [pick(jac_modes), pick(jac_modes)]}
            payload["sweep"] = {k: v for k, v in sweep.items() if pick([True, False])}
        first = parse_config_dict(payload)
        echo = json.dumps(first.config, sort_keys=True)
        second = parse_config_dict(json.loads(echo))
        assert json.dumps(second.config, sort_keys=True) == echo
        assert first.config == second.config
        assert np.array_equal(first.weights.values, second.weights.values)
        assert first.weights.group_size == second.weights.group_size
        for field in dataclasses.fields(QuantSpec):
            assert np.array_equal(getattr(first.spec, field.name), getattr(second.spec, field.name))
        assert first.train == second.train
        assert first.sweep == second.sweep


def test_seed_override(tmp_path, capsys):
    path = write_config(tmp_path, {"seed": 5, "objective": {"kind": "quadratic"}})
    assert parse_config(path).train.seed == 5
    assert parse_config(path, seed_override=9).train.seed == 9
    # --seed gets the checks of a seed in the file, so the summary's echo always re-runs
    small = write_config(tmp_path, {"objective": {"kind": "quadratic", "dim": 4, "n_samples": 4},
                                    "quant": {"group_size": 2}, "train": {"steps": 5}},
                         "small.json")
    for command in ("train", "sweep"):
        capsys.readouterr()
        argv = [command, "--config", small, "--out", str(tmp_path / command), "--seed", str(2**63)]
        assert main(argv) == 2
        assert "config error: seed must lie in int64" in capsys.readouterr().err
    out = tmp_path / "largest"
    assert main(["train", "--config", small, "--out", str(out), "--seed", str(2**63 - 1)]) == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo["seed"] == 2**63 - 1
    again = tmp_path / "echo"
    assert main(["train", "--config", write_config(tmp_path, echo, "echo.json"),
                 "--out", str(again)]) == 0
    assert (again / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()


def test_csv_run_summary_states_the_file_sizes(tmp_path, monkeypatch):
    # dim and n_samples given (even as 0) or defaulted, the echo states what the file holds
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text("a,b,y\n1.0,2.0,0.5\n-1.0,0.5,1.5\n0.25,-2.0,-1.0\n")
    for sizes in ({"dim": 7, "n_samples": 99}, {"dim": 0}, {"n_samples": 0}, {}):
        path = write_config(tmp_path, {"objective": {"kind": "csv", "path": "d.csv", **sizes},
                                       "train": {"steps": 3, "batch_size": 2}})
        assert main(["train", "--config", path, "--out", "out"]) == 0
        echo = json.loads((tmp_path / "out" / "summary.json").read_text())["config"]
        assert (echo["objective"]["dim"], echo["objective"]["n_samples"]) == (2, 3)


def test_config_echo_reproduces_weights(tmp_path):
    payload = {"seed": 3, "objective": {"kind": "saturating", "dim": 64},
               "quant": {"group_size": 16}}
    a = parse_config_dict(payload)
    b = parse_config_dict(json.loads(json.dumps(a.config)))
    assert np.array_equal(a.weights.values, b.weights.values)
    assert np.array_equal(a.objective.targets, b.objective.targets)


@pytest.mark.parametrize("key,value", [("mode", "w1"), ("mode", "generic"), ("step", 2.0),
                                       ("mid_rise", True), ("calibrate", True)])
def test_saturating_objective_takes_only_its_own_grid(key, value):
    objective = {"kind": "saturating", "dim": 16, "n_samples": 4}
    quant = {key: value, **({"bits": 3} if value == "generic" else {})}
    with pytest.raises(ConfigError, match=rf"^quant\.{key} must be"):
        parse_config_dict({"objective": objective, "quant": quant})
    own = {"mode": "w2", "step": 1, "mid_rise": False, "calibrate": False, "bits": None}
    setup = parse_config_dict({"objective": objective, "quant": own})
    assert setup.spec == QuantSpec.w2(step=1.0)
    assert parse_config_dict(json.loads(json.dumps(setup.config))).config == setup.config


def test_cli_train_writes_metrics_and_summary(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 4,
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"steps": 30, "loop": "base", "refresh": {"interval": 10}},
    })
    out = tmp_path / "run"
    status = main(["train", "--config", cfg, "--out", str(out)])
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
    assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
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
    status = main(["train", "--config", cfg, "--out", str(out)])
    assert status == 1
    summary = json.loads((out / "summary.json").read_text())
    assert "divergence" in summary["error"]
    assert_failing_row(out, summary)


def test_cli_train_loss_divergence_skips_the_step_refresh(tmp_path, monkeypatch):
    # every step refreshes, and the loss of step 3 exceeds the divergence guard: that step
    # updates no gains and refills no anchor, since nothing would read them
    calls = {"probe_update": 0, "refresh_anchor": 0}

    def counted(name):
        real = getattr(trainer, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(trainer, name, counted(name))
    cfg = write_config(tmp_path, {
        "objective": {"kind": "pl", "dim": 8, "mu": 1.0, "l_smooth": 1.0,
                      "n_samples": 4, "target_spread": 0.1},
        "quant": {"mode": "identity", "group_size": 8},
        "train": {"steps": 200, "stepsize": 50.0, "jac_mode": "probe", "vr_mode": "svrg",
                  "refresh": {"interval": 1}},
    })
    out = tmp_path / "div"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "loss 2.313e+07 exceeded divergence guard at step 3"
    rows = assert_failing_row(out, summary)
    assert [row[-1] for row in rows] == ["1", "1", "0"]
    assert calls == {"probe_update": 2, "refresh_anchor": 2}


@pytest.mark.parametrize("loop", ["base", "vr"])
def test_cli_train_non_finite_weights_end_as_divergence(tmp_path, loop):
    cfg = write_config(tmp_path, {
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 8},
        "quant": {"group_size": 16},
        "train": {"loop": loop, "jac_mode": "ste", "stepsize": 1e308, "steps": 20},
    })
    out = tmp_path / "nonfinite"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1  # no overflow warning
    summary = json.loads((out / "summary.json").read_text())
    assert "non-finite" in summary["error"]
    rows = assert_failing_row(out, summary)
    assert len(rows) >= 1
    assert all(np.isfinite(float(row[1])) for row in rows)


def test_cli_train_non_finite_gradient_norm_ends_as_divergence(tmp_path, monkeypatch):
    # the second step's mean gradient is finite but its norm is out of range; the loss and
    # the weights stay finite, so the recorded norm ends the run
    real, calls = trainer.batch_grad, []

    def overflowing(obj, q, batch):
        loss, v_bar = real(obj, q, batch)
        calls.append(batch)
        return (loss, np.full_like(v_bar, 1.7e308)) if len(calls) == 2 else (loss, v_bar)

    monkeypatch.setattr(trainer, "batch_grad", overflowing)
    cfg = write_config(tmp_path, {
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 8},
        "quant": {"group_size": 16},
        "train": {"vr_mode": "plain", "steps": 5, "refresh": {"interval": 1}},
    })
    out = tmp_path / "norm"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "grad_norm became non-finite (inf) at step 2"
    rows = assert_failing_row(out, summary)
    assert rows[0][-1] == "1" and rows[0][4:7] != ["1.0"] * 3  # step 1 moved the gains


@pytest.mark.parametrize("objective,error", [
    # the gradient's norm overflows a plain sum of squares but is finite: it is recorded
    # rescaled, and the loss stays finite
    ({"kind": "mlp", "dim": 1, "n_samples": 1}, None),
    # the anchor and the loss overflow
    ({"kind": "linear_regression", "dim": 2, "n_samples": 3},
     r"loss inf exceeded divergence guard at step 1"),
], ids=["mlp", "linear_regression"])
def test_cli_train_extreme_initial_weights(tmp_path, objective, error):
    cfg = write_config(tmp_path, {"objective": {**objective, "w0_scale": 1e300},
                                  "quant": {"calibrate": True}, "train": {"steps": 1}})
    out = tmp_path / "extreme"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", cfg, "--out", str(out)]) == (0 if error is None else 1)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == summary["steps_run"] + 1 == 2
    if error is not None:
        assert re.fullmatch(error, summary["error"])
        assert_failing_row(out, summary)
        return
    assert summary["error"] is None and summary["final_loss"] == pytest.approx(4.65e-4, rel=1e-3)
    assert all(np.isfinite(float(value)) for value in rows[1])
    grad_norm = float(rows[1][rows[0].index("grad_norm")])
    assert grad_norm == pytest.approx(2.130501014704727e+299, rel=1e-12)


@pytest.mark.parametrize("objective,quant,train,error", [
    ({}, {}, {"jac_mode": "probe_ls", "probe_sigma": 1e-300},
     "gain update failed at step 1: zero excitation"),
    ({}, {}, {"jac_mode": "probe", "probe_sigma": 1e308},  # the probes overflow
     "gain update failed at step 1: non-finite weight"),
    # the default probe_sigma, half of 1e308, overflows the probe energies: inf / inf
    ({}, {"step": 1e308}, {"vr_mode": "svrg"},
     "gain update failed at step 1: non-finite gain estimate"),
    ({}, {"step": 1e308}, {"vr_mode": "saga"},
     "gain update failed at step 1: non-finite gain estimate"),
    ({"kind": "pl", "l_smooth": 1e308}, {}, {"vr_mode": "svrg"},
     "estimator setup failed at step 0: reference gradient must be finite"),
    # a dithered update's inputs w +- 1e308 + r stay finite; its slope sums overflow, with a
    # fixed forward dither and with per-probe dither rows alike
    ({}, {}, {"loop": "base", "jac_mode": "dither", "probe_sigma": 1e308},
     "gain update failed at step 1: non-finite gain estimate"),
    ({}, {}, {"jac_mode": "dither", "vr_mode": "plain", "probe_sigma": 1e308},
     "gain update failed at step 1: non-finite gain estimate"),
], ids=["probe_ls_zero_excitation", "probe_overflow", "svrg_anchor", "saga_nan_gains",
        "svrg_setup", "base_dither_overflow", "per_probe_dither_overflow"])
def test_cli_train_numerical_failures_end_as_divergence(tmp_path, objective, quant, train, error):
    cfg = write_config(tmp_path, {
        "objective": {"dim": 40, "n_samples": 5, **objective}, "quant": quant,
        "train": {"steps": 3, "refresh": {"interval": 1}, **train},
    })
    out = tmp_path / "failure"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == error
    assert_failing_row(out, summary)


def test_cli_train_unallocatable_gain_update_ends_as_divergence(tmp_path, monkeypatch, capsys):
    # the gain update's (2, n_groups, num_probes) buffer fails as numpy fails on a size the
    # machine cannot hold; the failure is raised in its place, so nothing is allocated
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 TiB for an array")

    monkeypatch.setattr(trainer, "probe_update", unallocatable)
    cfg = write_config(tmp_path, {
        "objective": {"kind": "pl", "dim": 8, "n_samples": 8}, "quant": {"group_size": 4},
        "train": {"steps": 2, "refresh": {"kind": "interval", "interval": 1}},
    })
    out = tmp_path / "unallocatable"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == ("gain update failed at step 1: "
                                "Unable to allocate 2.00 TiB for an array")
    assert_failing_row(out, summary)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_train_failing_anchor_refresh_ends_as_divergence(tmp_path, monkeypatch):
    # the second refresh's gain update succeeds and its anchor refill fails: the failing row
    # still shows the gains of the first refresh, which the step ran with
    real, calls = trainer.refresh_anchor, []

    def failing_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("reference gradient must be finite")
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "refresh_anchor", failing_second)
    cfg = write_config(tmp_path, {
        "objective": {"kind": "pl", "dim": 8, "n_samples": 8}, "quant": {"group_size": 4},
        "train": {"vr_mode": "svrg", "steps": 3, "refresh": {"kind": "interval", "interval": 1}},
    })
    out = tmp_path / "anchor"
    assert main(["train", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "anchor refresh failed at step 2: reference gradient must be finite"
    rows = assert_failing_row(out, summary)
    assert rows[0][-1] == "1" and rows[0][4:7] != ["1.0"] * 3  # step 1 moved the gains


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_codes_that_overflow_give_a_finite_final_loss_without_a_warning(tmp_path, command):
    # w / 1e-320 overflows to +/-inf, which clips to +/-c by design: the final loss too
    cfg = write_config(tmp_path, {"objective": {"kind": "pl", "dim": 4},
                                  "quant": {"step": 1e-320}, "train": {"steps": 3}})
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    if command == "train":
        loss = json.loads((out / "summary.json").read_text())["final_loss"]
    else:
        with open(out / "sweep.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == ""
        loss = float(row["final_loss"])
    assert np.isfinite(loss)


def test_cli_sweep(tmp_path):
    cfg = write_config(tmp_path, {
        "seed": 2,
        "objective": {"kind": "saturating", "dim": 64, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"steps": 10, "loop": "base", "refresh": {"interval": 5}},
        "sweep": {"group_sizes": [8, 16], "jac_modes": ["ste", "probe"]},
    })
    out = tmp_path / "sweep"
    status = main(["sweep", "--config", cfg, "--out", str(out)])
    assert status == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2x2 grid
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cells"] == 4 and summary["cells_with_errors"] == 0


def test_cli_sweep_runs_the_configured_refresh_policy(tmp_path):
    # without sweep.refresh_intervals every cell runs train.refresh, and the echo says so
    payload = {
        "objective": {"kind": "saturating", "dim": 32, "n_samples": 8},
        "quant": {"group_size": 16},
        "train": {"steps": 3, "loop": "base",
                  "refresh": {"kind": "probability", "probability": 0.5}},
        "sweep": {"jac_modes": ["ste", "probe"]},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["refresh_kind"], r["refresh_value"]) for r in rows] == [("probability", "0.5")] * 2
    echo = json.loads((out / "summary.json").read_text())["config"]
    assert echo["sweep"]["refresh_intervals"] is None
    again = tmp_path / "again"
    assert main(["sweep", "--config", write_config(tmp_path, echo, "echo.json"),
                 "--out", str(again)]) == 0
    assert (again / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()
    # with no sweep section the one cell runs the configured interval too
    payload["train"]["refresh"] = {"interval": 7}
    del payload["sweep"]
    cfg = write_config(tmp_path, payload, "plain.json")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
    with open(tmp_path / "plain" / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["refresh_kind"], r["refresh_value"]) for r in rows] == [("interval", "7")]


def test_cli_sweep_jobs_open_at_most_one_worker_per_cell(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs the cells in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    payload = {
        "objective": {"kind": "saturating", "dim": 32, "n_samples": 8},
        "quant": {"group_size": 16},
        "train": {"steps": 3, "loop": "base"},
        "sweep": {"group_sizes": [8, 16], "jac_modes": ["ste"]},
    }
    two = write_config(tmp_path, payload, "two.json")
    payload["sweep"]["group_sizes"] = [16]
    one = write_config(tmp_path, payload, "one.json")
    assert main(["sweep", "--config", two, "--out", str(tmp_path / "a"), "--jobs", "64"]) == 0
    assert sizes == [2]
    assert main(["sweep", "--config", one, "--out", str(tmp_path / "b"), "--jobs", "64"]) == 0
    assert sizes == [2]  # one cell runs in this process, with no pool
    for jobs in ("0", "-3"):
        assert main(["sweep", "--config", two, "--out", str(tmp_path / "c"), "--jobs", jobs]) == 2
        assert f"config error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert sizes == [2] and not (tmp_path / "c").exists()


def test_cli_diagnose_probe_rate(tmp_path):
    out = tmp_path / "diag"
    status = main(["diagnose", "probe-rate", "--out", str(out)])
    assert status == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["criterion"] == "A2"
    with open(out / "table.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["probe_count", "mean_error"]
    assert len(rows) == 5


def test_cli_unknown_harness_exit_code(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["diagnose", "nope", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_missing_config_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path)])
    assert exc.value.code == 2
    status = main(["train", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert status == 2


def test_cli_path_errors_exit_2_without_traceback(tmp_path, capsys):
    cfg = write_config(tmp_path, {"objective": {"kind": "quadratic", "dim": 8, "n_samples": 4},
                                  "train": {"steps": 2}})
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("train", "sweep"):
        for argv in (["--config", str(tmp_path), "--out", str(tmp_path / "out")],  # a directory
                     ["--config", cfg, "--out", str(taken)]):  # an existing file
            assert main([command, *argv]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists() and taken.read_text() == ""


@pytest.mark.parametrize("argv", [
    ["train", "--config", "x.json", "--jobs", "2"],
    ["verify-all", "--config", "x.json"],
    ["verify-all", "--jobs", "-4", "--seed", "3", "--config", "nope.json"],
    ["diagnose", "probe-rate", "--seed", "1"],
])
def test_cli_flag_of_another_command_is_usage_error(tmp_path, capsys, argv):
    # each command takes only the flags it reads; argparse rejects the rest before any work
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
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


def bad(field, payload, case=""):
    """One bad config: the field its error must name, the payload, and a stable unique id.

    The id is the field followed by ``case``; the rows written before ids
    were explicit keep the names pytest gave them (the field, numbered when
    it repeats), so no test was renamed.
    """
    return pytest.param(field, payload, id=field + case)


BAD_CONFIGS = [
    bad("quant.step", {"quant": {"step": "1"}}),
    bad("train.probe_sigma", {"train": {"probe_sigma": -1}}),
    bad("train.num_probes", {"train": {"num_probes": 0}}),
    bad("train.ema_rate", {"train": {"ema_rate": 0}}, "0"),
    bad("train.ema_rate", {"train": {"ema_rate": 1.5}}, "1"),
    bad("seed", {"seed": -1}),
    bad("quant.group_size", {"quant": {"group_size": 0}}, "0"),
    bad("objective.path", {"objective": {"kind": "csv", "path": "nan.csv"}}, "0"),
    bad("objective.path", {"objective": {"kind": "csv", "path": "absent.csv"}}, "1"),
    bad("objective.path", {"objective": {"kind": "csv", "path": "."}}, "2"),  # a directory
    bad("objective.noise", {"objective": {"kind": "linear_regression", "noise": "abc"}}, "0"),
    bad("objective.hidden_width", {"objective": {"kind": "mlp", "hidden_width": 0}}),
    bad("objective.w0_scale", {"objective": {"w0_scale": -1}}, "0"),
    bad("objective.frac_beyond_clip", {"objective": {"kind": "saturating", "frac_beyond_clip": 2}}),
    bad("objective.mu", {"objective": {"kind": "pl", "dim": 1}}),
    bad("train.batch_size", {"train": {"batch_size": 2.7}}),
    bad("train.stepsize", {"train": {"stepsize": "0.1"}}, "0"),
    bad("train.stepsize", {"train": {"stepsize": float("inf")}}, "1"),
    bad("objective.noise", {"objective": {"kind": "linear_regression", "noise": float("nan")}},
        "1"),
    bad("train.steps", {"train": {"steps": True}}),
    bad("train.refresh", {"train": {"refresh": {"kind": "probability", "probability": 0}}}),
    bad("sweep.jac_modes", {"sweep": {"jac_modes": ["bogus"]}}),
    bad("sweep.group_sizes", {"sweep": {"group_sizes": []}}),
    bad("quant.bits", {"quant": {"mode": "w2", "bits": 7}}, "0"),
    bad("quant.bits", {"quant": {"mode": "generic"}}, "1"),
    bad("quant.mid_rise", {"quant": {"mode": "w1", "mid_rise": True}}, "0"),
    bad("quant.mid_rise", {"quant": {"mode": "w1_58", "mid_rise": True}}, "1"),
    bad("quant.mid_rise", {"quant": {"mode": "identity", "mid_rise": True}}, "2"),
    bad("quant.mode", {"objective": {"kind": "saturating"},
                       "quant": {"mode": "bogus", "step": -1, "calibrate": True}}),
    bad("quant.calibrate", {"objective": {"kind": "saturating"}, "quant": {"calibrate": True}}),
    bad("objective.w0_scale", {"objective": {"w0_scale": 1e308}}, "1"),  # overflows to inf
    bad("objective.w0_scale", {"objective": {"kind": "saturating", "w0_scale": 5.0}}, "2"),
    bad("objective.noise", {"objective": {"kind": "saturating", "noise": -1.0}}, "2"),
    bad("objective.noise", {"objective": {"kind": "linear_regression", "noise": -0.1}}, "3"),
    bad("objective.noise", {"objective": {"kind": "mlp", "noise": -0.1}}, "4"),
    # an integer outside int64 overflows numpy; bits above 53 make an inexact clip level
    bad("quant.group_size", {"quant": {"group_size": 10**30}}, "1"),
    bad("quant.bits", {"quant": {"mode": "generic", "bits": 1025}}, "2"),
    bad("quant.bits", {"quant": {"mode": "generic", "bits": 10**30}}, "3"),
    # a scale whose targets overflow: a config error, not a numpy warning
    bad("objective.target_spread",
        {"objective": {"kind": "pl", "dim": 40, "n_samples": 5, "target_spread": 1e308}}, "0"),
    bad("objective.noise",
        {"objective": {"kind": "saturating", "dim": 64, "n_samples": 5, "noise": 1e308}}, "5"),
    # arrays over numpy's 2**63 - 1 bytes, refused before any is built, by the field that sizes them
    bad("objective.dim", {"objective": {"kind": "pl", "dim": 2**61}}),
    bad("objective.n_samples", {"objective": {"n_samples": 2**61}}),
    bad("objective.hidden_width", {"objective": {"kind": "mlp", "hidden_width": 2**61}}, "1"),
    bad("train.num_probes",
        {"quant": {"group_size": 4}, "train": {"num_probes": 2**62, "refresh": {"interval": 1}}},
        "1"),
    bad("train.num_probes",  # one group of 8 fits; the sweep's groups of 1 do not
        {"quant": {"group_size": 8}, "train": {"num_probes": 2**58},
         "sweep": {"group_sizes": [8, 1]}}, "2"),
]


def test_bad_config_ids_are_unique_and_name_their_field():
    ids = [row.id for row in BAD_CONFIGS]
    assert len(set(ids)) == len(ids)
    assert all(row.id.startswith(row.values[0]) for row in BAD_CONFIGS)


@pytest.mark.parametrize("field,payload", BAD_CONFIGS)
def test_bad_config_fails_at_parse_time(tmp_path, monkeypatch, capsys, field, payload):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.csv").write_text("x,y\n1.0,2.0\nnan,3.0\n")
    config = {"seed": 0, "objective": {"kind": "quadratic", "dim": 8, "n_samples": 4},
              "quant": {}, "train": {"steps": 2}}
    for section, values in payload.items():
        config[section] = ({**config.get(section, {}), **values} if isinstance(values, dict)
                           else values)
    path = write_config(tmp_path, config)
    for command in ("train", "sweep"):
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,sizes", [
    ("pl", "objective.n_samples and objective.dim"),
    ("mlp", "objective.n_samples, objective.dim and objective.hidden_width"),
])
def test_objective_that_cannot_be_allocated_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                              kind, sizes):
    # indexable sizes that this machine still cannot allocate; the builder only pretends to try
    def unallocatable(*args):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(config_module, "_build_objective", unallocatable)
    path = write_config(tmp_path, {"objective": {"kind": kind, "n_samples": 2**40}})
    assert main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {sizes} make an objective too large to allocate: Unable to allocate")
    assert not (tmp_path / "out").exists()


def test_value_error_without_a_key_names_its_section(monkeypatch):
    def keyless(*args):
        raise ValueError("curvature must be a (d,) diagonal of the (n, d) targets")

    monkeypatch.setattr(config_module, "_build_objective", keyless)
    with pytest.raises(ConfigError) as err:
        parse_config_dict({"objective": {"kind": "pl"}})
    assert str(err.value) == "objective: curvature must be a (d,) diagonal of the (n, d) targets"


# -- schema-driven fuzz: no config value gives a traceback ---------------------------

def schema_fields(defaults: dict, prefix: str = ""):
    """(dotted field, default) of every leaf of a defaults table."""
    for key, default in defaults.items():
        if isinstance(default, dict):
            yield from schema_fields(default, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", default


FIELDS = dict(schema_fields(config_module._DEFAULTS))
# what an error may name: a field, a nested section such as train.refresh, or the sweep grid
NAMES = {*FIELDS, *(f.rsplit(".", 1)[0] for f in FIELDS if f.count(".") > 1),
         "sweep.group_sizes"}
# Each type's edge set; objective sizes and run lengths stay small, so each run is quick.
EDGES = {int: (0, -1, 1, 2, 3, 10**30), float: (0.0, -1.0, 1e-300, 1e300, 1e308, 0.5, 2.0),
         bool: (False, True)}
SMALL = {"objective.dim": (1, 2, 5), "objective.n_samples": (1, 2, 5), "train.steps": (1, 3)}
CHOICES = {
    "objective.kind": config_module._KINDS + ("bogus",),
    "objective.path": ("data.csv", "absent.csv", "."),  # under the run's directory
    "quant.mode": tuple(config_module._QUANT_MODES) + ("bogus",),
    "train.loop": ("vr", "base", "bogus"),
    "train.jac_mode": trainer._JAC_MODES + ("bogus",),
    "train.vr_mode": trainer._VR_MODES + ("bogus",),
    "train.refresh.kind": ("interval", "probability", "bogus"),
}
SUMMARY_KEYS = {"command", "config", "seed", "error", "final_loss", "steps_run", "wall_time_s",
                "outputs"}


def edge_values(field: str, default) -> tuple:
    values = SMALL.get(field) or CHOICES.get(field)
    if values is None:
        values = EDGES[config_module._NULLABLE.get(field, type(default))]
    return values + ((None,) if field in config_module._NULLABLE else ())


@st.composite
def fuzz_configs(draw) -> dict:
    """A config whose objective kind, sizes and about one field in eight come from the edge sets."""
    cfg: dict = {}
    for field, default in FIELDS.items():
        if field in SMALL or field == "objective.kind" or draw(st.integers(0, 7)) == 0:
            *sections, key = field.split(".")
            node = cfg
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = draw(st.sampled_from(edge_values(field, default)))
    if draw(st.booleans()):  # a two-cell sweep grid
        cfg["sweep"] = {"group_sizes": [draw(st.sampled_from(EDGES[int])) for _ in range(2)]}
    return cfg


def run_cli(command: str, cfg: dict, root: str) -> tuple[int, str, str]:
    if cfg.get("objective", {}).get("path") is not None:
        cfg["objective"]["path"] = os.path.join(root, cfg["objective"]["path"])
    path = os.path.join(root, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out = os.path.join(root, command)
    err = io.StringIO()
    # The CLI prints a warning and goes on, where the tests' filter would raise it. Only
    # numpy's floating-point warnings on extreme values (overflow to inf, inf - inf) may
    # appear.
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        status = main([command, "--config", path, "--out", out])
    for w in caught:
        assert w.category is RuntimeWarning and re.match(
            r"(overflow|invalid value) encountered", str(w.message)), w
    return status, err.getvalue(), out


@settings(max_examples=80, deadline=None)
@given(fuzz_configs())
def test_no_config_value_gives_a_traceback(cfg):
    # main never raises; exit 2 names a schema field, exit 0 or 1 leaves complete outputs
    with tempfile.TemporaryDirectory() as root:
        with open(os.path.join(root, "data.csv"), "w", encoding="utf-8") as fh:
            fh.write("x1,x2,y\n1.0,2.0,0.5\n-1.0,0.5,1.5\n0.25,-2.0,-1.0\n")
        command = "sweep" if "sweep" in cfg else "train"
        status, err, out = run_cli(command, cfg, root)
        assert status in (0, 1, 2)
        if status == 2:
            named = re.match(r"config error: ([a-z0-9_.]+)", err)
            assert named and named.group(1).rstrip(".:") in NAMES, err
            return
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if command == "sweep":
            assert summary["cells"] == 2 and summary["cells_with_errors"] == len(summary["errors"])
            with open(os.path.join(out, "sweep.csv"), newline="", encoding="utf-8") as fh:
                assert len(list(csv.reader(fh))) == 3
            assert status == (1 if summary["errors"] else 0)
            return
        assert SUMMARY_KEYS <= summary.keys()
        assert (status == 1) == isinstance(summary["error"], str)
        assert ("final_gains" in summary) == (status == 0)
        with open(os.path.join(out, "metrics.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == summary["steps_run"] + 1
        if status == 0:  # a run that ends ok recorded only finite numbers
            assert all(np.isfinite(float(value)) for row in rows[1:] for value in row)
