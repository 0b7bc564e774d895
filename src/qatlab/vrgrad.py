"""Variance-reduced estimators over gain-modulated minibatch gradients.

The modulated gradient of a batch is apply_gains(B, v̄), with v̄ the
batch's mean raw gradient at the quantized point. Estimators: plain
minibatch mean, SVRG-style anchor differences, SAGA-style per-index table,
and a SARAH-style recursive difference. All share one control-variate form

    g = apply_gains(B, v̄) - c + r,

where c is the batch's control term and r the reference: for SVRG and
SARAH c = apply_gains(B_c, ū) with ū the batch's mean raw gradient at the
quantized control point, and r is the anchor's full gradient (SVRG) or the
previous estimate (SARAH); for SAGA c is the mean of the batch's table rows
and r the table mean; plain has neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import apply_gains
from .objectives import Objective, batch_grad
from .quant import GroupedWeights, QuantSpec, quantize
from .rng import substream

__all__ = [
    "VRState",
    "init_vr_state",
    "ref_grad",
    "grad_est",
    "ctrl_update",
    "refresh_anchor",
    "estimator_variance",
    "surrogate_per_sample",
    "surrogate_batch",
]

_MODES = ("plain", "svrg", "saga", "sarah")


def surrogate_per_sample(weights: GroupedWeights, gains: np.ndarray, obj: Objective,
                         spec: QuantSpec, i: int, q: np.ndarray | None = None) -> np.ndarray:
    """F_i(W) = gains * grad of sample i at the quantized point."""
    return surrogate_batch(weights, gains, obj, spec, [i], q=q)[2]


def surrogate_batch(weights: GroupedWeights, gains: np.ndarray, obj: Objective,
                    spec: QuantSpec, batch: np.ndarray, q: np.ndarray | None = None,
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean raw gradient and mean modulated gradient over a batch."""
    loss, v_bar = batch_grad(obj, quantize(weights, spec) if q is None else q, batch)
    return loss, v_bar, apply_gains(gains, v_bar, weights)


@dataclass(frozen=True)
class VRState:
    """Estimator memory: a quantized control point, a reference, SAGA's table.

    ``control`` is (quantized control point, its gains): the anchor for
    SVRG, the previous step for SARAH, and None for SARAH right after a
    refresh (its estimate is then the reference). ``reference`` is the
    anchor gradient (SVRG), the previous estimate (SARAH) or the table mean
    (SAGA), which ``ctrl_update`` moves in place along with ``saga_table``.
    A plain state holds nothing.
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


def ref_grad(anchor_weights: GroupedWeights, anchor_gains: np.ndarray, obj: Objective,
             spec: QuantSpec, q: np.ndarray | None = None) -> np.ndarray:
    """Reference gradient: mean modulated gradient at the anchor over the full data."""
    return surrogate_batch(anchor_weights, anchor_gains, obj, spec, np.arange(obj.n), q=q)[2]


def init_vr_state(mode: str, weights: GroupedWeights, gains: np.ndarray, obj: Objective,
                  spec: QuantSpec, q: np.ndarray | None = None) -> VRState:
    """Anchor at the given point; SAGA's table starts from the modulated gradients there.

    ``q`` is the quantized point of ``weights`` when the caller has it.
    """
    if mode not in ("svrg", "sarah", "saga"):
        return VRState(mode)  # plain holds nothing; VRState rejects an unknown mode
    q = quantize(weights, spec) if q is None else q
    if mode == "saga":
        rows = obj.loss_and_grad_batch(q, np.arange(obj.n))[1]  # fresh: scaled in place
        table = apply_gains(gains, rows, weights, out=rows)
        return VRState(mode, reference=table.mean(axis=0), saga_table=table)
    return VRState(mode, control=(q, gains) if mode == "svrg" else None,
                   reference=ref_grad(weights, gains, obj, spec, q=q))


def grad_est(weights: GroupedWeights, gains: np.ndarray, state: VRState, obj: Objective,
             spec: QuantSpec, batch: np.ndarray, v_bar: np.ndarray | None = None) -> np.ndarray:
    """Control-variate gradient estimate for one minibatch.

    ``v_bar`` is the batch's mean raw gradient at the quantized ``weights``;
    it is computed here unless the caller has it.
    """
    if state.mode == "sarah" and state.control is None:
        return state.reference.copy()  # right after a refresh
    batch = np.asarray(batch, dtype=int)
    if v_bar is None:
        v_bar = batch_grad(obj, quantize(weights, spec), batch)[1]
    g = apply_gains(gains, v_bar, weights)
    if state.mode == "plain":
        return g
    if state.mode == "saga":
        control = np.mean(state.saga_table[batch], axis=0)
    else:
        q_c, gains_c = state.control
        control = apply_gains(gains_c, batch_grad(obj, q_c, batch)[1], weights)
    return g - control + state.reference


def ctrl_update(state: VRState, weights: GroupedWeights, batch: np.ndarray, obj: Objective,
                spec: QuantSpec, gains: np.ndarray | None = None,
                grad: np.ndarray | None = None, q: np.ndarray | None = None) -> VRState:
    """Refresh the estimator memory after a step; ``q`` is the quantized ``weights`` if known.

    SARAH keeps the step's quantized point and gains as its control point
    and the step's estimate ``grad`` as its reference, so ``weights`` is the
    point the estimate was taken at, not the updated one. SAGA writes the
    touched table rows at ``weights`` and adjusts the running mean row by
    row, in place: the state it returns is the one it was given, and the
    old table and mean are gone. Its batch indices must be distinct. Plain
    and SVRG states are returned unchanged.
    """
    if state.mode in ("plain", "svrg"):
        return state
    if gains is None:
        raise ValueError(f"{state.mode.upper()} update needs the current gains")
    q = quantize(weights, spec) if q is None else q
    if state.mode == "sarah":
        if grad is None:
            raise ValueError("SARAH update needs the current gradient estimate")
        return VRState("sarah", control=(q, gains), reference=np.asarray(grad, dtype=float))
    # The table is refreshed at the updated point, at b more gradient rows per step than
    # textbook SAGA, which stores the rows the step computed at its own point: that
    # variant raised vr-saga-mlp's final loss by about 22 % (geometric mean, seeds 0-5).
    batch = np.asarray(batch, dtype=int)
    if len(set(batch.tolist())) < batch.size:  # the trainer draws without replacement
        raise ValueError("SAGA update needs distinct batch indices")
    fresh = obj.loss_and_grad_batch(q, batch)[1]  # fresh rows: scaled in place
    apply_gains(gains, fresh, weights, out=fresh)
    diff = state.saga_table[batch]  # a gathered copy, turned into (fresh - old) / n in place
    np.subtract(fresh, diff, out=diff)
    diff /= state.saga_table.shape[0]
    reference = state.reference
    for row in diff:  # batch order fixes the rounding
        reference += row
    state.saga_table[batch] = fresh
    return state


def refresh_anchor(state: VRState, weights: GroupedWeights, gains: np.ndarray,
                   obj: Objective, spec: QuantSpec, q: np.ndarray | None = None) -> VRState:
    """Synchronize the anchor to the given point: SVRG and SARAH start afresh there.

    ``q`` is the quantized point of ``weights`` when the caller has it.
    Plain and SAGA states have no anchor and are returned unchanged.
    """
    if state.mode in ("plain", "saga"):
        return state
    return init_vr_state(state.mode, weights, gains, obj, spec, q=q)


def estimator_variance(state: VRState, weights: GroupedWeights, gains: np.ndarray,
                       obj: Objective, spec: QuantSpec, batch_size: int, trials: int,
                       seed: int = 0) -> float:
    """Mean squared deviation of the estimator from the full-batch modulated gradient.

    Measured empirically over independent minibatch draws (without
    replacement within a batch).
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    _, _, g_full = surrogate_batch(weights, gains, obj, spec, np.arange(obj.n))
    total = 0.0
    for t in range(trials):
        rng = substream(seed, "minibatch", t)
        batch = rng.choice(obj.n, size=batch_size, replace=False)
        g = grad_est(weights, gains, state, obj, spec, batch)
        diff = g - g_full
        total += float(diff @ diff)
    return total / trials
