"""Variance-reduced estimators over diagonally scaled minibatch gradients.

Every function takes the quantized point q that gradients are taken at and
a (dim,) per-weight backward ``scale``, a diagonal; the caller quantizes and
lays its gains over the weights. The scaled gradient of a batch is
scale * v̄, with v̄ the batch's mean raw gradient at q. Estimators: plain
minibatch mean, SVRG-style anchor differences, SAGA-style per-index table,
and a SARAH-style recursive difference. All share one control-variate form

    g = scale * v̄ - c + r,

where c is the batch's control term and r the reference. For SVRG,
c = scale_c * ū with ū the mean of the batch's rows in a table of raw
per-sample gradients at the anchor, and r is the anchor's full gradient.
For SAGA, c is the mean of the batch's table rows, each scaled where it was
written, and r the table mean. For SARAH, c = scale_c * ū with ū the
batch's mean raw gradient at the previous step's point, and r the previous
estimate. Plain has neither. SVRG and SAGA both hold n × d floats.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .objectives import Objective, batch_grad, checked_indices, full_grad
from .quant import carried_sum, row_blocks
from .rng import substream

__all__ = [
    "VRState",
    "init_vr_state",
    "grad_est",
    "ctrl_update",
    "refresh_anchor",
    "estimator_variance",
    "surrogate_per_sample",
    "surrogate_batch",
]

_MODES = ("plain", "svrg", "saga", "sarah")


def surrogate_per_sample(q: np.ndarray, scale: np.ndarray, obj: Objective, i: int) -> np.ndarray:
    """F_i = scale * grad of sample i at the quantized point q."""
    return surrogate_batch(q, scale, obj, [i])


def surrogate_batch(q: np.ndarray, scale: np.ndarray, obj: Objective,
                    batch: np.ndarray) -> np.ndarray:
    """The mean scaled gradient over a batch at q: scale * v̄."""
    return scale * batch_grad(obj, q, batch)[1]


@dataclass(frozen=True)
class VRState:
    """Estimator memory: a reference, a per-sample table, SARAH's control point.

    ``reference`` is the anchor's full gradient (SVRG), the table mean
    (SAGA) or the previous estimate (SARAH). ``table`` holds one gradient
    row per sample: SVRG's raw rows at its anchor, read times the anchor's
    per-weight ``table_scale``, or SAGA's rows, scaled where they were
    written. ``control`` is SARAH's (quantized control point, its per-weight
    scale), None right after a refresh (its estimate is then the reference).
    ``ctrl_update`` moves SAGA's table and reference in place, and
    ``refresh_anchor`` refills SVRG's table in place. A plain state holds nothing.
    """

    mode: str
    control: tuple[np.ndarray, np.ndarray] | None = None
    reference: np.ndarray | None = None
    table: np.ndarray | None = None
    table_scale: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown VR mode {self.mode!r}")
        if self.mode != "plain" and self.reference is None:
            raise ValueError(f"{self.mode.upper()} state needs its reference gradient")
        if self.mode == "svrg" and (self.table is None or self.table_scale is None):
            raise ValueError("SVRG state needs its anchor table and its scale")
        if self.mode == "saga" and self.table is None:
            raise ValueError("SAGA state needs its per-index table")
        if self.mode in ("svrg", "sarah") and not np.all(np.isfinite(self.reference)):
            raise ValueError("reference gradient must be finite")


def init_vr_state(mode: str, q: np.ndarray, scale: np.ndarray, obj: Objective) -> VRState:
    """Anchor at the quantized point q; a table starts from the gradient rows there.

    The SVRG and SARAH reference is the mean scaled gradient over the full data.
    """
    if mode not in ("svrg", "sarah", "saga"):
        return VRState(mode)  # plain holds nothing; VRState rejects an unknown mode
    if mode == "saga":
        table = obj.loss_and_grad_batch(q, np.arange(obj.n))[1]  # fresh rows: scaled in place
        table *= scale
        return VRState(mode, reference=table.mean(axis=0), table=table)
    if mode == "svrg":
        return _anchor_svrg(np.empty((obj.n, obj.dim)), q, scale, obj)
    return VRState(mode, reference=scale * full_grad(obj, q))


def _anchor_svrg(table: np.ndarray, q: np.ndarray, scale: np.ndarray,
                 obj: Objective) -> VRState:
    """SVRG anchored at q: ``table`` refilled in place with the raw rows there, block by block.

    The column sum has the bits of ``full_grad``.
    """
    for rows in row_blocks(obj.n, obj.dim):
        table[rows] = obj.loss_and_grad_batch(q, np.arange(rows.start, rows.stop))[1]
    return VRState("svrg", reference=scale * (table.sum(axis=0) / obj.n), table=table,
                   table_scale=scale)


def grad_est(v_bar: np.ndarray, scale: np.ndarray, state: VRState, obj: Objective,
             batch: np.ndarray) -> np.ndarray:
    """Control-variate gradient estimate for one minibatch.

    ``v_bar`` is the batch's mean raw gradient at the step's quantized
    point, the only thing the estimate reads of that point.
    """
    if state.mode == "sarah" and state.control is None:
        return state.reference.copy()  # right after a refresh
    g = scale * v_bar
    if state.mode == "plain":
        return g
    if state.mode == "sarah":
        q_c, scale_c = state.control
        control = scale_c * batch_grad(obj, q_c, batch)[1]
    else:
        # indices checked as loss_and_grad_batch checks them: a negative one must not wrap
        idx = checked_indices(batch, state.table.shape[0])
        control = state.table[idx].sum(axis=0)  # then divided in place: np.mean's bits
        control /= idx.size
        if state.mode == "svrg":
            control *= state.table_scale
    g -= control
    g += state.reference
    return g


def ctrl_update(state: VRState, q: np.ndarray, scale: np.ndarray, batch: np.ndarray,
                obj: Objective, grad: np.ndarray | None = None) -> VRState:
    """Refresh the estimator memory after a step.

    SARAH keeps the step's quantized point q and scale as its control point
    and the step's estimate ``grad`` as its reference, so q is the point the
    estimate was taken at, not the updated one. SAGA writes the touched
    table rows at q and adds their differences to the running mean in
    batch order, in place: the state it returns is the one it was given,
    and the old table and mean are gone. Its batch indices must be
    distinct. Plain and SVRG states are returned unchanged.
    """
    if state.mode in ("plain", "svrg"):
        return state
    if state.mode == "sarah":
        if grad is None:
            raise ValueError("SARAH update needs the current gradient estimate")
        return VRState("sarah", control=(q, scale), reference=np.asarray(grad, dtype=float))
    # The table is refreshed at the updated point, at b more gradient rows per step than
    # textbook SAGA, which stores the rows the step computed at its own point: that
    # variant raised vr-saga-mlp's final loss by about 22 % (geometric mean, seeds 0-5).
    batch = np.asarray(batch, dtype=int)
    if len(set(batch.tolist())) < batch.size:  # the trainer draws without replacement
        raise ValueError("SAGA update needs distinct batch indices")
    fresh = obj.loss_and_grad_batch(q, batch)[1]  # fresh rows: scaled in place
    fresh *= scale
    diff = state.table[batch]  # a gathered copy, turned into (fresh - old) / n in place
    np.subtract(fresh, diff, out=diff)
    diff /= state.table.shape[0]
    reference = state.reference
    if diff.shape[1] > 1:  # batch order fixes the rounding: one carried sum, row by row
        reference[...] = carried_sum(diff, reference)
    else:  # numpy sums a single column pairwise; a running sum keeps batch order
        diff[0] += reference
        reference[...] = np.add.accumulate(diff)[-1]
    state.table[batch] = fresh
    return state


def refresh_anchor(state: VRState, q: np.ndarray, scale: np.ndarray,
                   obj: Objective) -> VRState:
    """Synchronize the anchor to the quantized point q: SVRG and SARAH start afresh there.

    SVRG refills its table in place, so the state it was given is spent.
    Plain and SAGA states have no anchor and are returned unchanged.
    """
    if state.mode in ("plain", "saga"):
        return state
    if state.mode == "svrg":
        return _anchor_svrg(state.table, q, scale, obj)
    return init_vr_state(state.mode, q, scale, obj)


def estimator_variance(states: Sequence[VRState], q: np.ndarray, scale: np.ndarray,
                       obj: Objective, batch_size: int, trials: int,
                       seed: int = 0) -> list[float]:
    """Each state's mean squared deviation from the full-batch scaled gradient at q.

    Measured empirically over independent minibatch draws (without
    replacement within a batch); every state sees the same draws.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    g_full = scale * full_grad(obj, q)
    totals = [0.0] * len(states)
    for t in range(trials):
        rng = substream(seed, "minibatch", t)
        batch = rng.choice(obj.n, size=batch_size, replace=False)
        v_bar = batch_grad(obj, q, batch)[1]
        for k, state in enumerate(states):
            diff = grad_est(v_bar, scale, state, obj, batch) - g_full
            totals[k] += float(diff @ diff)
    return [total / trials for total in totals]
