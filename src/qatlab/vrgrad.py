"""Variance-reduced estimators over gain-modulated per-sample gradients.

The modulated per-sample gradient is F_i(W) = apply_gains(B, v_i) with
v_i evaluated at the quantized point. Estimators: plain minibatch mean,
SVRG-style anchor differences, SAGA-style per-index table, and a
SARAH-style recursive difference. All share the control-variate form

    g = mean_{i in S} (F_i(W) - h_i(state)) + reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .jacobian import SurrogateJacobian, apply_gains
from .objectives import Objective
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


def surrogate_per_sample(weights: GroupedWeights, jac: SurrogateJacobian, obj: Objective,
                         spec: QuantSpec, i: int, q: np.ndarray | None = None) -> np.ndarray:
    """F_i(W) = gains * grad of sample i at the quantized point."""
    return surrogate_batch(weights, jac, obj, spec, [i], q=q)[2]


def surrogate_batch(weights: GroupedWeights, jac: SurrogateJacobian, obj: Objective,
                    spec: QuantSpec, batch: np.ndarray, q: np.ndarray | None = None,
                    ) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean loss, mean raw gradient and mean modulated gradient over a batch."""
    q = quantize(weights, spec) if q is None else q
    losses, grads = obj.loss_and_grad_batch(q, batch)
    v_bar = np.mean(grads, axis=0)
    return float(np.mean(losses)), v_bar, apply_gains(jac, v_bar, weights.group_bounds)


@dataclass(frozen=True)
class VRState:
    """Anchor state plus mode-specific memory; each mode holds only what it reads.

    SVRG and SARAH hold the reference gradient; SAGA's table and mean are
    updated in place by ``ctrl_update``. ``control_q`` caches (weights, spec,
    quantized weights), read only while those are the control point's objects.
    """

    mode: str
    anchor_weights: GroupedWeights
    anchor_gains: SurrogateJacobian
    anchor_grad: np.ndarray | None = None
    saga_table: np.ndarray | None = None
    saga_mean: np.ndarray | None = None
    sarah_prev: tuple[GroupedWeights, SurrogateJacobian, np.ndarray] | None = None
    ref_set: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    control_q: tuple[GroupedWeights, QuantSpec, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown VR mode {self.mode!r}")
        if self.anchor_grad is None and self.mode in ("svrg", "sarah"):
            raise ValueError(f"{self.mode.upper()} state needs its anchor gradient")
        if self.anchor_grad is not None and not np.all(np.isfinite(self.anchor_grad)):
            raise ValueError("anchor gradient must be finite")


def ref_grad(anchor_weights: GroupedWeights, anchor_gains: SurrogateJacobian, obj: Objective,
             spec: QuantSpec, ref_set: np.ndarray | None = None,
             q: np.ndarray | None = None) -> np.ndarray:
    """Reference gradient: mean modulated gradient at the anchor (full data by default)."""
    ref_set = np.arange(obj.n) if ref_set is None else ref_set
    return surrogate_batch(anchor_weights, anchor_gains, obj, spec, ref_set, q=q)[2]


def init_vr_state(mode: str, weights: GroupedWeights, jac: SurrogateJacobian, obj: Objective,
                  spec: QuantSpec, ref_set: np.ndarray | None = None,
                  q: np.ndarray | None = None) -> VRState:
    """Anchor at the given point; SAGA's table starts from the modulated gradients there.

    ``q`` is the quantized point of ``weights`` when the caller has it.
    """
    ref_set = np.arange(obj.n) if ref_set is None else np.asarray(ref_set, dtype=int)
    if mode != "saga":
        return VRState(mode=mode, **_anchor_fields(mode, weights, jac, obj, spec, ref_set, q))
    q = quantize(weights, spec) if q is None else q
    table = apply_gains(jac, obj.loss_and_grad_batch(q, np.arange(obj.n))[1], weights.group_bounds)
    return VRState(mode=mode, anchor_weights=weights, anchor_gains=jac, saga_table=table,
                   saga_mean=table.mean(axis=0), ref_set=ref_set)


def grad_est(weights: GroupedWeights, jac: SurrogateJacobian, state: VRState, obj: Objective,
             spec: QuantSpec, batch: np.ndarray, grads: np.ndarray | None = None) -> np.ndarray:
    """Control-variate gradient estimate for one minibatch.

    ``grads`` are the batch's raw gradient rows at the quantized ``weights``;
    they are computed here unless the caller has them.
    """
    if state.mode == "sarah" and state.sarah_prev is None:
        return state.anchor_grad.copy()  # right after a refresh
    batch = np.asarray(batch, dtype=int)
    if grads is None:
        grads = obj.loss_and_grad_batch(quantize(weights, spec), batch)[1]
    if state.mode == "plain":
        return apply_gains(jac, np.mean(grads, axis=0), weights.group_bounds)
    if state.mode == "saga":
        if state.saga_table is None or state.saga_mean is None:
            raise ValueError("SAGA state missing its per-index table")
        control, reference = state.saga_table[batch], state.saga_mean
    else:
        point, gains, reference = (state.sarah_prev if state.mode == "sarah" else
                                   (state.anchor_weights, state.anchor_gains, state.anchor_grad))
        cached = state.control_q
        hit = cached is not None and cached[0] is point and cached[1] is spec
        q_control = cached[2] if hit else quantize(point, spec)
        control = apply_gains(gains, obj.loss_and_grad_batch(q_control, batch)[1],
                              weights.group_bounds)
    return np.mean(apply_gains(jac, grads, weights.group_bounds) - control, axis=0) + reference


def ctrl_update(state: VRState, weights: GroupedWeights, batch: np.ndarray, obj: Objective,
                spec: QuantSpec, jac: SurrogateJacobian | None = None,
                grad: np.ndarray | None = None, q: np.ndarray | None = None) -> VRState:
    """Refresh the estimator memory after a step; ``q`` is the quantized ``weights`` if known.

    SAGA writes the touched table rows and adjusts the running mean row by
    row, in place: the state it returns is the one it was given, and the
    old table and mean are gone. SARAH stores the step's (weights, gains,
    estimate), so ``weights`` is the point the estimate was taken at, not
    the updated one, and caches its quantized point; plain and SVRG states
    are returned unchanged.
    """
    if state.mode in ("plain", "svrg"):
        return state
    if jac is None:
        raise ValueError(f"{state.mode.upper()} update needs the current gains")
    q = quantize(weights, spec) if q is None else q
    if state.mode == "sarah":
        if grad is None:
            raise ValueError("SARAH update needs the current gradient estimate")
        return replace(state, sarah_prev=(weights, jac, np.asarray(grad, dtype=float)),
                       control_q=(weights, spec, q))
    if state.saga_table is None or state.saga_mean is None:
        raise ValueError("SAGA state missing its per-index table")
    batch = np.asarray(batch, dtype=int)
    fresh = apply_gains(jac, obj.loss_and_grad_batch(q, batch)[1], weights.group_bounds)
    # a repeated index meets the row its first occurrence wrote, which is its own fresh row
    first = np.zeros(batch.size, dtype=bool)
    first[np.unique(batch, return_index=True)[1]] = True
    old = np.where(first[:, None], state.saga_table[batch], fresh)
    steps = np.vstack([state.saga_mean, (fresh - old) / state.saga_table.shape[0]])
    state.saga_mean[:] = np.add.accumulate(steps, axis=0)[-1]
    state.saga_table[batch] = fresh
    return state


def refresh_anchor(state: VRState, weights: GroupedWeights, jac: SurrogateJacobian,
                   obj: Objective, spec: QuantSpec, ref_set: np.ndarray | None = None,
                   q: np.ndarray | None = None) -> VRState:
    """Synchronize the anchor to the given point; SVRG and SARAH recompute the reference gradient.

    ``q`` is the quantized point of ``weights`` when the caller has it.
    """
    if ref_set is None:
        ref_set = state.ref_set if state.ref_set.size else np.arange(obj.n)
    ref_set = np.asarray(ref_set, dtype=int)
    return replace(state, **_anchor_fields(state.mode, weights, jac, obj, spec, ref_set, q))


def _anchor_fields(mode: str, weights: GroupedWeights, jac: SurrogateJacobian, obj: Objective,
                   spec: QuantSpec, ref_set: np.ndarray, q: np.ndarray | None) -> dict:
    """State fields of an anchor at ``weights``; SVRG and SARAH get the reference gradient."""
    anchor_grad = None
    if mode in ("svrg", "sarah"):
        q = quantize(weights, spec) if q is None else q
        anchor_grad = ref_grad(weights, jac, obj, spec, ref_set, q=q)
    return dict(anchor_weights=weights, anchor_gains=jac, anchor_grad=anchor_grad,
                sarah_prev=None, ref_set=ref_set,
                control_q=None if q is None else (weights, spec, q))


def estimator_variance(state: VRState, weights: GroupedWeights, jac: SurrogateJacobian,
                       obj: Objective, spec: QuantSpec, batch_size: int, trials: int,
                       seed: int = 0) -> float:
    """Mean squared deviation of the estimator from the full-batch modulated gradient.

    Measured empirically over independent minibatch draws (without
    replacement within a batch).
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    _, _, g_full = surrogate_batch(weights, jac, obj, spec, np.arange(obj.n))
    total = 0.0
    for t in range(trials):
        rng = substream(seed, "minibatch", t)
        batch = rng.choice(obj.n, size=batch_size, replace=False)
        g = grad_est(weights, jac, state, obj, spec, batch)
        diff = g - g_full
        total += float(diff @ diff)
    return total / trials
