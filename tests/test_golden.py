"""Golden digests: small `qatlab train` runs must reproduce their committed bytes.

Each config runs through ``cli.main``; the test hashes ``metrics.csv`` and
``summary.json`` without its ``wall_time_s`` field. Together the configs
cover a short last group, calibrated per-group steps, mid-rise, w1 and
ternary grids, every ``jac_mode``, every ``vr_mode``, both loops, and
eight or more probes (numpy's pairwise summation of probe means). SARAH
runs twice: on a w1 sign grid, where consecutive quantized points mostly
coincide, and on a 4-bit grid, where its recursive difference shows in
the bytes. SVRG runs three times: within one row block, on one weight
(numpy sums its 37-row batches pairwise) and on 6000 weights (each batch
and anchor pass spans several row blocks).

The base-loop configs in ``BASE_CONFIGS`` pin the paths the plain loop
takes apart from the variance-reduced one: no gain update (``ste``), a
scheduled ``probe_ls`` update and a non-default ``vr_mode`` that the base
loop ignores. Their digests are in ``golden/base_digests.json``.

A digest may change only with a CHANGES.md entry naming which bytes
changed and why; on a mismatch the test prints the new digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from qatlab.cli import main

DIGESTS_PATH = Path(__file__).parent / "golden" / "digests.json"
BASE_DIGESTS_PATH = Path(__file__).parent / "golden" / "base_digests.json"

CONFIGS = {
    "svrg-probe-short-group": {
        "seed": 1,
        "objective": {"kind": "pl", "dim": 50, "n_samples": 16},
        "quant": {"mode": "w2", "group_size": 16},
        "train": {"loop": "vr", "vr_mode": "svrg", "jac_mode": "probe", "num_probes": 8,
                  "steps": 40, "refresh": {"interval": 5}},
    },
    "base-dither-calibrated": {
        "seed": 2,
        "objective": {"kind": "linear_regression", "dim": 40, "n_samples": 16,
                      "w0_scale": 2.0},
        "quant": {"mode": "generic", "bits": 4, "group_size": 12, "calibrate": True},
        "train": {"loop": "base", "jac_mode": "dither", "num_probes": 3, "steps": 30,
                  "stepsize": 0.02},
    },
    "saga-probe-ls-mid-rise": {
        "seed": 3,
        "objective": {"kind": "quadratic", "dim": 32, "n_samples": 16},
        "quant": {"mode": "w2", "mid_rise": True, "group_size": 8},
        "train": {"loop": "vr", "vr_mode": "saga", "jac_mode": "probe_ls", "num_probes": 12,
                  "steps": 30, "refresh": {"interval": 4}},
    },
    "sarah-dither-w1": {
        "seed": 4,
        "objective": {"kind": "logistic_regression", "dim": 24, "n_samples": 16},
        "quant": {"mode": "w1", "group_size": 8, "step": 0.5},
        "train": {"loop": "vr", "vr_mode": "sarah", "jac_mode": "dither", "num_probes": 2,
                  "steps": 30, "refresh": {"kind": "probability", "probability": 0.3}},
    },
    "plain-ste-ternary-mlp": {
        "seed": 5,
        "objective": {"kind": "mlp", "dim": 6, "hidden_width": 4, "n_samples": 16},
        "quant": {"mode": "w1_58", "group_size": 10, "step": 0.5},
        "train": {"loop": "vr", "vr_mode": "plain", "jac_mode": "ste", "steps": 20},
    },
    "base-probe-saturating": {
        "seed": 6,
        "objective": {"kind": "saturating", "dim": 70, "n_samples": 16},
        "quant": {"group_size": 16},
        "train": {"loop": "base", "jac_mode": "probe", "num_probes": 8, "steps": 30,
                  "refresh": {"interval": 5}},
    },
    "saga-dither-calibrated": {
        "seed": 8,
        "objective": {"kind": "linear_regression", "dim": 30, "n_samples": 8},
        "quant": {"mode": "generic", "bits": 2, "group_size": 7, "calibrate": True},
        "train": {"loop": "vr", "vr_mode": "saga", "jac_mode": "dither", "num_probes": 9,
                  "steps": 25, "refresh": {"interval": 2}},
    },
    "sarah-probe-generic4": {
        "seed": 12,
        "objective": {"kind": "linear_regression", "dim": 30, "n_samples": 16},
        "quant": {"mode": "generic", "bits": 4, "group_size": 10, "step": 0.25},
        "train": {"loop": "vr", "vr_mode": "sarah", "jac_mode": "probe", "num_probes": 2,
                  "steps": 30, "refresh": {"interval": 10}},
    },
    "svrg-width1-pairwise": {
        "seed": 13,
        "objective": {"kind": "quadratic", "dim": 1, "n_samples": 300},
        "quant": {"mode": "generic", "bits": 4, "group_size": 1, "step": 0.25},
        "train": {"loop": "vr", "vr_mode": "svrg", "jac_mode": "probe", "num_probes": 2,
                  "batch_size": 37, "steps": 30, "refresh": {"interval": 7}},
    },
    "svrg-multi-block-logistic": {
        "seed": 14,
        "objective": {"kind": "logistic_regression", "dim": 6000, "n_samples": 12},
        "quant": {"mode": "w2", "group_size": 1000, "step": 0.5},
        "train": {"loop": "vr", "vr_mode": "svrg", "jac_mode": "probe", "num_probes": 2,
                  "batch_size": 5, "steps": 20, "refresh": {"interval": 6}},
    },
}

BASE_CONFIGS = {
    "base-ste-regression-calibrated": {
        "seed": 9,
        "objective": {"kind": "linear_regression", "dim": 20, "n_samples": 12},
        "quant": {"mode": "generic", "bits": 3, "group_size": 6, "calibrate": True},
        "train": {"loop": "base", "jac_mode": "ste", "steps": 25, "batch_size": 4,
                  "refresh": {"interval": 3}},
    },
    "base-probe-ls-logistic": {
        "seed": 10,
        "objective": {"kind": "logistic_regression", "dim": 24, "n_samples": 16},
        "quant": {"mode": "w2", "group_size": 8, "step": 0.5},
        "train": {"loop": "base", "jac_mode": "probe_ls", "num_probes": 4, "steps": 25,
                  "refresh": {"kind": "probability", "probability": 0.4}},
    },
    "base-saga-ignored-mlp": {
        "seed": 11,
        "objective": {"kind": "mlp", "dim": 5, "hidden_width": 3, "n_samples": 12},
        "quant": {"mode": "generic", "bits": 3, "group_size": 6, "calibrate": True},
        "train": {"loop": "base", "vr_mode": "saga", "jac_mode": "probe", "num_probes": 3,
                  "steps": 20, "batch_size": 4, "refresh": {"interval": 3}},
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_digests(name: str, config: dict) -> dict:
    Path(f"{name}.json").write_text(json.dumps(config))
    assert main(["train", "--config", f"{name}.json", "--out", name]) == 0
    summary = json.loads(Path(name, "summary.json").read_text())
    del summary["wall_time_s"]
    return {
        "metrics.csv": _sha256(Path(name, "metrics.csv").read_bytes()),
        "summary.json": _sha256(json.dumps(summary, indent=2, sort_keys=True).encode()),
    }


def test_golden_digests(tmp_path, monkeypatch):
    # relative output paths keep summary.json free of the temp directory
    monkeypatch.chdir(tmp_path)
    got = {name: _run_digests(name, config) for name, config in CONFIGS.items()}
    expected = json.loads(DIGESTS_PATH.read_text())
    assert got == expected, "golden digests changed; new digests:\n" + json.dumps(
        got, indent=2, sort_keys=True)


def test_golden_digests_base_loop(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {name: _run_digests(name, config) for name, config in BASE_CONFIGS.items()}
    expected = json.loads(BASE_DIGESTS_PATH.read_text())
    assert got == expected, "base-loop golden digests changed; new digests:\n" + json.dumps(
        got, indent=2, sort_keys=True)
