"""Counting test: gradient rows, gradient calls and quantize calls per step.

A counting objective records every row ``loss_and_grad_batch`` evaluates and
every call to it. The counts pin the work each variance-reduction mode does,
so duplicate or unread gradient work cannot come back unnoticed (b = batch
size, n = data size):

    mode    rows per step                  calls per step   rows per refresh   rows at init
    plain   b                              1                0                  0
    svrg    b                              1                n                  n
    saga    2b                             2                0                  n
    sarah   2b (b right after a refresh)   2 (1 after it)   n                  n

A minibatch takes one call whatever its width: the calls are counted with
row blocks of one row, so a full-data pass takes n calls and a minibatch
split into blocks would show.

SVRG reads its control rows from the table its last refresh filled at the
anchor. The last step updates no estimator memory, which nothing reads after it:
SAGA's last step evaluates b rows, and a refresh at the last step none.
The loop quantizes each point it steps from once: once at init and once
per step but the last, whose point only ``final_loss`` quantizes.
"""

from __future__ import annotations

import numpy as np
import pytest

import qatlab.trainer
from qatlab import quant
from qatlab.objectives import LinearRegression, make_regression_task
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.trainer import RefreshPolicy, TrainConfig, train_base, train_vr
from qatlab.vrgrad import init_vr_state, refresh_anchor

N, B, STEPS, INTERVAL = 12, 3, 40, 5
ROWS = {"plain": (B, 0, 0), "svrg": (B, N, N), "saga": (2 * B, 0, N), "sarah": (2 * B, N, N)}
CALLS = {"plain": 1, "svrg": 1, "saga": 2, "sarah": 2}


class CountingRegression(LinearRegression):
    rows = 0
    calls = 0

    def loss_and_grad_batch(self, q, idx):
        losses, grads = super().loss_and_grad_batch(q, idx)
        self.rows += losses.size
        self.calls += 1
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
    # the last step is a refresh step (STEPS % INTERVAL == 0) that refreshes no anchor
    expected = at_init + STEPS * per_step + (refreshes - 1) * per_refresh
    if mode == "saga":  # the last step writes no table rows
        expected -= B
    if mode == "sarah":  # the first step and each step after a refresh reuse the anchor gradient
        expected -= B * (1 + (STEPS - 1) // INTERVAL)
    assert obj.rows == expected
    assert len(calls) == STEPS


@pytest.mark.parametrize("jac_mode,quantize_calls", [("probe", STEPS), ("dither", 0)])
def test_base_loop_rows_ignore_vr_mode(jac_mode, quantize_calls, monkeypatch):
    obj, weights, spec, calls = counted_problem(monkeypatch)
    train_base(obj, weights, spec, config("saga", jac_mode))
    assert obj.rows == STEPS * B
    assert len(calls) == quantize_calls


@pytest.mark.parametrize("mode", CALLS)
def test_gradient_calls_per_step_with_one_row_blocks(mode, monkeypatch):
    obj, weights, spec, _ = counted_problem(monkeypatch)
    monkeypatch.setattr(quant, "_BLOCK_ELEMS", obj.dim)  # one row per block
    q, scale = quantize(weights, spec), np.ones(weights.dim)
    state = init_vr_state(mode, q, scale, obj)
    at_init = obj.calls
    refresh_anchor(state, q, scale, obj)
    per_refresh = obj.calls - at_init
    # a full-data pass takes one call per row; SAGA's table starts from one call
    assert (at_init, per_refresh) == {"plain": (0, 0), "saga": (1, 0)}.get(mode, (N, N))
    obj.calls = 0
    result = train_vr(obj, weights, spec, config(mode))
    refreshes = sum(r.refresh for r in result.metrics)
    # as in the rows count: the last step is a refresh step that refreshes no anchor
    expected = at_init + STEPS * CALLS[mode] + (refreshes - 1) * per_refresh
    if mode == "saga":  # the last step writes no table rows
        expected -= 1
    if mode == "sarah":  # the first step and each step after a refresh reuse the anchor gradient
        expected -= 1 + (STEPS - 1) // INTERVAL
    assert obj.calls == expected
    obj.calls = 0
    train_base(obj, weights, spec, config(mode))
    assert obj.calls == STEPS
