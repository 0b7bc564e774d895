"""Counting test: gradient rows and quantize calls per step, per refresh and at init.

A counting objective records every row ``loss_and_grad_batch`` evaluates.
The counts pin the work each variance-reduction mode does, so duplicate or
unread gradient work cannot come back unnoticed (b = batch size, n = data
size):

    mode    per step                        per refresh   at init
    plain   b                               0             0
    svrg    2b                              n             n
    saga    2b                              0             n
    sarah   2b (b right after a refresh)    n             n

The loop quantizes each point once: once at init and once per step.
"""

from __future__ import annotations

import numpy as np
import pytest

import qatlab.trainer
from qatlab.objectives import LinearRegression, make_regression_task
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.trainer import RefreshPolicy, TrainConfig, train_base, train_vr
from qatlab.vrgrad import init_vr_state, refresh_anchor

N, B, STEPS, INTERVAL = 12, 3, 40, 5
ROWS = {"plain": (B, 0, 0), "svrg": (2 * B, N, N), "saga": (2 * B, 0, N), "sarah": (2 * B, N, N)}


class CountingRegression(LinearRegression):
    rows = 0

    def loss_and_grad_batch(self, q, idx):
        losses, grads = super().loss_and_grad_batch(q, idx)
        self.rows += losses.size
        return losses, grads


def counted_problem(monkeypatch):
    obj = CountingRegression(make_regression_task(8, N, seed=2).data)
    weights = GroupedWeights(np.linspace(-1.0, 1.0, 8), group_size=3)
    spec = QuantSpec.generic(bits=3, step=0.25)
    calls = []

    def counting_quantize(w, s):
        calls.append(w)
        return quantize(w, s)

    monkeypatch.setattr(qatlab.trainer, "quantize", counting_quantize)
    return obj, weights, spec, calls


def config(mode: str, jac_mode: str = "probe") -> TrainConfig:
    return TrainConfig(stepsize=0.01, batch_size=B, steps=STEPS, jac_mode=jac_mode,
                       vr_mode=mode, refresh=RefreshPolicy("interval", interval=INTERVAL),
                       num_probes=2, seed=1)


@pytest.mark.parametrize("mode", ROWS)
def test_rows_at_init_and_per_refresh(mode, monkeypatch):
    obj, weights, spec, _ = counted_problem(monkeypatch)
    q, scale = quantize(weights, spec), np.ones(weights.dim)
    state = init_vr_state(mode, q, scale, obj)
    assert obj.rows == ROWS[mode][2]
    obj.rows = 0
    refresh_anchor(state, q, scale, obj)
    assert obj.rows == ROWS[mode][1]


@pytest.mark.parametrize("mode", ROWS)
def test_rows_and_quantize_calls_per_vr_run(mode, monkeypatch):
    obj, weights, spec, calls = counted_problem(monkeypatch)
    result = train_vr(obj, weights, spec, config(mode))
    refreshes = sum(r.refresh for r in result.metrics)
    assert refreshes == STEPS // INTERVAL
    per_step, per_refresh, at_init = ROWS[mode]
    expected = at_init + STEPS * per_step + refreshes * per_refresh
    if mode == "sarah":  # the first step and each step after a refresh reuse the anchor gradient
        expected -= B * (1 + (STEPS - 1) // INTERVAL)
    assert obj.rows == expected
    assert len(calls) == 1 + STEPS


@pytest.mark.parametrize("jac_mode,quantize_calls", [("probe", 1 + STEPS), ("dither", 0)])
def test_base_loop_rows_ignore_vr_mode(jac_mode, quantize_calls, monkeypatch):
    obj, weights, spec, calls = counted_problem(monkeypatch)
    train_base(obj, weights, spec, config("saga", jac_mode))
    assert obj.rows == STEPS * B
    assert len(calls) == quantize_calls
