from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from qatlab.objectives import batch_grad, make_regression_task
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.vrgrad import (
    VRState,
    ctrl_update,
    estimator_variance,
    grad_est,
    init_vr_state,
    refresh_anchor,
    surrogate_batch,
    surrogate_per_sample,
)


def setup(n=8, d=6, seed=0, gains=None):
    obj = make_regression_task(d, n, seed=seed)
    weights = GroupedWeights(np.linspace(-1.0, 1.0, d), group_size=3)
    spec = QuantSpec.generic(bits=4, step=0.25)
    gains = np.ones(weights.n_groups) if gains is None else np.asarray(gains, dtype=float)
    return obj, weights, spec, gains


def at(weights, spec, gains):
    """The quantized point and per-weight scale that the estimators take."""
    return quantize(weights, spec), weights.per_weight(gains)


def full_surrogate(obj, q, scale):
    return surrogate_batch(q, scale, obj, np.arange(obj.n))


def estimate(obj, q, scale, state, batch):
    """grad_est with the batch's mean raw gradient at q."""
    batch = np.asarray(batch)
    return grad_est(batch_grad(obj, q, batch)[1], scale, state, obj, batch)


def test_ref_grad_single_sample_and_identity_gains():
    obj, weights, spec, gains = setup(n=1)
    q, scale = at(weights, spec, gains)
    g = init_vr_state("svrg", q, scale, obj).reference
    assert np.array_equal(g, surrogate_per_sample(q, scale, obj, 0))


def test_ref_grad_matches_direct_summation():
    obj, weights, spec, gains = setup(n=8, gains=[0.5, 1.0])
    q, scale = at(weights, spec, gains)
    g = init_vr_state("svrg", q, scale, obj).reference
    total = np.zeros(weights.dim)
    for i in range(obj.n):
        total = total + surrogate_per_sample(q, scale, obj, i)
    np.testing.assert_allclose(g, total / obj.n, rtol=1e-13)


def test_plain_full_batch_is_full_surrogate_gradient():
    obj, weights, spec, gains = setup(gains=[0.7, 0.9])
    q, scale = at(weights, spec, gains)
    state = init_vr_state("plain", q, scale, obj)
    g = estimate(obj, q, scale, state, np.arange(obj.n))
    np.testing.assert_allclose(g, full_surrogate(obj, q, scale), rtol=1e-14)


def test_svrg_at_anchor_returns_reference_bit_exactly():
    obj, weights, spec, gains = setup()
    q, scale = at(weights, spec, gains)
    state = init_vr_state("svrg", q, scale, obj)
    g = estimate(obj, q, scale, state, np.array([2, 5, 1]))
    assert np.array_equal(g, state.reference)


@pytest.mark.parametrize("mode,n,batch", [("svrg", 4, 1), ("svrg", 6, 2),
                                          ("saga", 4, 1), ("saga", 6, 2)])
def test_exhaustive_minibatch_unbiasedness(mode, n, batch):
    # Enumerate every equiprobable minibatch; the average estimate must
    # equal the full-batch modulated gradient to 1e-12.
    obj, weights, spec, gains = setup(n=n, gains=[0.6, 1.0])
    q, scale = at(weights, spec, gains)
    state = init_vr_state(mode, q, scale, obj)
    # displace both the point and (for saga) the table to break symmetry
    moved = quantize(weights.with_values(weights.values + 0.2), spec)
    if mode == "saga":
        state = ctrl_update(state, quantize(weights.with_values(weights.values - 0.1), spec),
                            scale, np.array([0, 1]), obj)
    batches = list(combinations(range(n), batch))
    acc = np.zeros(weights.dim)
    for b in batches:
        acc = acc + estimate(obj, moved, scale, state, b)
    mean_est = acc / len(batches)
    target = full_surrogate(obj, moved, scale)
    assert np.max(np.abs(mean_est - target)) <= 1e-12


def test_saga_running_mean_invariant_after_updates():
    obj, weights, spec, gains = setup(n=8)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("saga", q, scale, obj)
    rng = np.random.default_rng(4)
    for t in range(10):
        point = quantize(weights.with_values(weights.values + rng.normal(0, 0.3, weights.dim)), spec)
        state = ctrl_update(state, point, scale, rng.choice(8, size=3, replace=False), obj)
        assert np.max(np.abs(state.reference - state.table.mean(axis=0))) <= 1e-10


def test_saga_full_update_sets_mean_to_fresh_gradients():
    obj, weights, spec, gains = setup(n=6)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("saga", q, scale, obj)
    point = quantize(weights.with_values(weights.values * 0.5), spec)
    state = ctrl_update(state, point, scale, np.arange(6), obj)
    np.testing.assert_allclose(state.reference, full_surrogate(obj, point, scale), atol=1e-12)


def test_svrg_ctrl_update_is_identity():
    obj, weights, spec, gains = setup()
    q, scale = at(weights, spec, gains)
    state = init_vr_state("svrg", q, scale, obj)
    after = ctrl_update(state, quantize(weights.with_values(weights.values + 1.0), spec),
                        scale, np.array([0]), obj)
    assert after is state


def test_saga_update_rejects_a_repeated_index():
    obj, weights, spec, gains = setup(n=6)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("saga", q, scale, obj)
    table, mean = state.table.copy(), state.reference.copy()
    with pytest.raises(ValueError, match="distinct batch indices"):
        ctrl_update(state, quantize(weights.with_values(weights.values + 0.3), spec), scale,
                    np.array([2, 4, 2]), obj)
    assert np.array_equal(state.table, table) and np.array_equal(state.reference, mean)


def test_missing_saga_table_rejected():
    with pytest.raises(ValueError, match="table"):
        VRState(mode="saga", reference=np.zeros(6))


def test_sarah_refresh_then_recursive_difference():
    obj, weights, spec, gains = setup(n=6)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("sarah", q, scale, obj)
    # right after (implicit) refresh: estimate equals the anchor gradient
    g0 = estimate(obj, q, scale, state, np.array([1, 3]))
    assert np.array_equal(g0, state.reference)
    state = ctrl_update(state, q, scale, np.array([1, 3]), obj, grad=g0)
    moved = quantize(weights.with_values(weights.values + 0.4), spec)
    batch = np.array([0, 2])
    g1 = estimate(obj, moved, scale, state, batch)
    expected = np.zeros(weights.dim)
    for i in batch:
        expected = expected + (surrogate_per_sample(moved, scale, obj, int(i))
                               - surrogate_per_sample(q, scale, obj, int(i)))
    expected = expected / batch.size + g0
    np.testing.assert_allclose(g1, expected, rtol=1e-13)
    # refresh clears the recursive memory
    state = refresh_anchor(state, moved, scale, obj)
    assert state.control is None
    g2 = estimate(obj, moved, scale, state, np.array([4]))
    assert np.array_equal(g2, state.reference)


def test_refresh_anchor_idempotent_and_matches_recomputation():
    obj, weights, spec, gains = setup()
    q, scale = at(weights, spec, gains)
    state = init_vr_state("svrg", q, scale, obj)
    moved = quantize(weights.with_values(weights.values - 0.3), spec)
    once = refresh_anchor(state, moved, scale, obj)
    twice = refresh_anchor(once, moved, scale, obj)
    assert np.array_equal(once.reference, twice.reference)
    np.testing.assert_allclose(once.reference, full_surrogate(obj, moved, scale), rtol=1e-14)
    g = estimate(obj, moved, scale, once, np.array([0, 1]))
    assert np.array_equal(g, once.reference)


def test_estimator_variance_full_batch_is_zero():
    obj, weights, spec, gains = setup(n=6)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("plain", q, scale, obj)
    # full batch in permuted order: only accumulation round-off remains
    [v] = estimator_variance([state], q, scale, obj, batch_size=6, trials=5)
    assert v <= 1e-28


def test_estimator_variance_svrg_zero_at_anchor():
    obj, weights, spec, gains = setup(n=8)
    q, scale = at(weights, spec, gains)
    state = init_vr_state("svrg", q, scale, obj)
    [v] = estimator_variance([state], q, scale, obj, batch_size=2, trials=10)
    assert v <= 1e-24


def test_svrg_variance_below_plain_near_anchor():
    obj, weights, spec, gains = setup(n=32, d=8)
    q, scale = at(weights, spec, gains)
    state_svrg = init_vr_state("svrg", q, scale, obj)
    state_plain = init_vr_state("plain", q, scale, obj)
    moved = quantize(weights.with_values(weights.values * (1.0 + 0.05)), spec)
    v_svrg, v_plain = estimator_variance([state_svrg, state_plain], moved, scale, obj,
                                         batch_size=4, trials=200)
    assert v_svrg <= v_plain


def test_hand_built_svrg_state_matches_init():
    obj, weights, spec, gains = setup(gains=[0.6, 1.1])
    q, scale = at(weights, spec, gains)
    made = init_vr_state("svrg", q, scale, obj)
    hand = VRState(mode="svrg", reference=full_surrogate(obj, q, scale),
                   table=obj.loss_and_grad_batch(q, np.arange(obj.n))[1], table_scale=scale)
    moved = quantize(weights.with_values(weights.values + 0.35), spec)
    batch = np.array([0, 3, 5])
    g = estimate(obj, moved, scale, hand, batch)
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, estimate(obj, moved, scale, made, batch))


def test_svrg_refill_matches_a_fresh_anchor():
    # refresh_anchor overwrites the old table: it must take the new point and the new scale
    obj, weights, spec, gains = setup(gains=[0.6, 1.1])
    q, scale = at(weights, spec, gains)
    moved = quantize(weights.with_values(weights.values + 0.35), spec)
    after = refresh_anchor(init_vr_state("svrg", q, scale, obj), moved, 0.5 * scale, obj)
    fresh = init_vr_state("svrg", moved, 0.5 * scale, obj)
    assert np.array_equal(after.table, fresh.table)
    assert np.array_equal(after.reference, fresh.reference)
    assert np.array_equal(after.table_scale, fresh.table_scale)


@pytest.mark.parametrize("mode", ["svrg", "saga"])
def test_table_read_is_range_checked(mode):
    obj, weights, spec, gains = setup(n=5)
    q, scale = at(weights, spec, gains)
    state = init_vr_state(mode, q, scale, obj)
    v_bar = batch_grad(obj, q, [0])[1]
    for bad in ([-1], [0, 5], [2, -5]):
        with pytest.raises(IndexError, match="out of range"):
            grad_est(v_bar, scale, state, obj, np.array(bad))
    with pytest.raises(ValueError, match="empty batch"):
        grad_est(v_bar, scale, state, obj, np.array([], dtype=int))


def test_hand_built_sarah_state_matches_ctrl_update():
    obj, weights, spec, gains = setup(n=6, gains=[0.9, 0.7])
    q, scale = at(weights, spec, gains)
    state = init_vr_state("sarah", q, scale, obj)
    g0 = state.reference
    made = ctrl_update(state, q, scale, np.array([1, 3]), obj, grad=g0)
    hand = VRState(mode="sarah", control=(quantize(weights, spec), weights.per_weight(gains)),
                   reference=g0)
    moved = quantize(weights.with_values(weights.values + 0.4), spec)
    batch = np.array([0, 2, 5])
    assert np.array_equal(estimate(obj, moved, scale, hand, batch),
                          estimate(obj, moved, scale, made, batch))


@pytest.mark.parametrize("mode", ["svrg", "sarah"])
def test_state_without_anchor_gradient_rejected(mode):
    obj, weights, spec, gains = setup()
    q, scale = at(weights, spec, gains)
    table = obj.loss_and_grad_batch(q, np.arange(obj.n))[1]
    held = {"table": table, "table_scale": scale} if mode == "svrg" else {"control": (q, scale)}
    with pytest.raises(ValueError, match="reference gradient"):
        VRState(mode=mode, **held)
    if mode == "svrg":  # SARAH has no control point right after a refresh, SVRG always a table
        for missing in ("table", "table_scale"):
            with pytest.raises(ValueError, match="anchor table"):
                VRState(mode=mode, reference=np.zeros(weights.dim),
                        **{**held, missing: None})
