from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from qatlab.objectives import make_regression_task
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.vrgrad import (
    VRState,
    ctrl_update,
    estimator_variance,
    grad_est,
    init_vr_state,
    ref_grad,
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


def full_surrogate(obj, weights, spec, gains):
    _, _, g = surrogate_batch(weights, gains, obj, spec, np.arange(obj.n))
    return g


def test_ref_grad_single_sample_and_identity_gains():
    obj, weights, spec, gains = setup(n=1)
    g = ref_grad(weights, gains, obj, spec)
    assert np.array_equal(g, surrogate_per_sample(weights, gains, obj, spec, 0))


def test_ref_grad_matches_direct_summation():
    obj, weights, spec, gains = setup(n=8, gains=[0.5, 1.0])
    g = ref_grad(weights, gains, obj, spec)
    total = np.zeros(weights.dim)
    for i in range(obj.n):
        total = total + surrogate_per_sample(weights, gains, obj, spec, i)
    np.testing.assert_allclose(g, total / obj.n, rtol=1e-13)


def test_plain_full_batch_is_full_surrogate_gradient():
    obj, weights, spec, gains = setup(gains=[0.7, 0.9])
    state = init_vr_state("plain", weights, gains, obj, spec)
    g = grad_est(weights, gains, state, obj, spec, np.arange(obj.n))
    np.testing.assert_allclose(g, full_surrogate(obj, weights, spec, gains), rtol=1e-14)


def test_svrg_at_anchor_returns_reference_bit_exactly():
    obj, weights, spec, gains = setup()
    state = init_vr_state("svrg", weights, gains, obj, spec)
    g = grad_est(weights, gains, state, obj, spec, np.array([2, 5, 1]))
    assert np.array_equal(g, state.reference)


@pytest.mark.parametrize("mode,n,batch", [("svrg", 4, 1), ("svrg", 6, 2),
                                          ("saga", 4, 1), ("saga", 6, 2)])
def test_exhaustive_minibatch_unbiasedness(mode, n, batch):
    # Enumerate every equiprobable minibatch; the average estimate must
    # equal the full-batch modulated gradient to 1e-12.
    obj, weights, spec, gains = setup(n=n, gains=[0.6, 1.0])
    state = init_vr_state(mode, weights, gains, obj, spec)
    # displace both the point and (for saga) the table to break symmetry
    moved = weights.with_values(weights.values + 0.2)
    if mode == "saga":
        state = ctrl_update(state, weights.with_values(weights.values - 0.1),
                            np.array([0, 1]), obj, spec, gains=gains)
    batches = list(combinations(range(n), batch))
    acc = np.zeros(weights.dim)
    for b in batches:
        acc = acc + grad_est(moved, gains, state, obj, spec, np.array(b))
    mean_est = acc / len(batches)
    target = full_surrogate(obj, moved, spec, gains)
    assert np.max(np.abs(mean_est - target)) <= 1e-12


def test_saga_running_mean_invariant_after_updates():
    obj, weights, spec, gains = setup(n=8)
    state = init_vr_state("saga", weights, gains, obj, spec)
    rng = np.random.default_rng(4)
    for t in range(10):
        point = weights.with_values(weights.values + rng.normal(0, 0.3, weights.dim))
        state = ctrl_update(state, point, rng.choice(8, size=3, replace=False), obj, spec, gains=gains)
        assert np.max(np.abs(state.reference - state.saga_table.mean(axis=0))) <= 1e-10


def test_saga_full_update_sets_mean_to_fresh_gradients():
    obj, weights, spec, gains = setup(n=6)
    state = init_vr_state("saga", weights, gains, obj, spec)
    point = weights.with_values(weights.values * 0.5)
    state = ctrl_update(state, point, np.arange(6), obj, spec, gains=gains)
    np.testing.assert_allclose(state.reference, full_surrogate(obj, point, spec, gains), atol=1e-12)


def test_svrg_ctrl_update_is_identity():
    obj, weights, spec, gains = setup()
    state = init_vr_state("svrg", weights, gains, obj, spec)
    after = ctrl_update(state, weights.with_values(weights.values + 1.0),
                        np.array([0]), obj, spec, gains=gains)
    assert after is state


def test_saga_update_rejects_a_repeated_index():
    obj, weights, spec, gains = setup(n=6)
    state = init_vr_state("saga", weights, gains, obj, spec)
    table, mean = state.saga_table.copy(), state.reference.copy()
    with pytest.raises(ValueError, match="distinct batch indices"):
        ctrl_update(state, weights.with_values(weights.values + 0.3), np.array([2, 4, 2]),
                    obj, spec, gains=gains)
    assert np.array_equal(state.saga_table, table) and np.array_equal(state.reference, mean)


def test_missing_saga_table_rejected():
    with pytest.raises(ValueError, match="table"):
        VRState(mode="saga", reference=np.zeros(6))


def test_sarah_refresh_then_recursive_difference():
    obj, weights, spec, gains = setup(n=6)
    state = init_vr_state("sarah", weights, gains, obj, spec)
    # right after (implicit) refresh: estimate equals the anchor gradient
    g0 = grad_est(weights, gains, state, obj, spec, np.array([1, 3]))
    assert np.array_equal(g0, state.reference)
    state = ctrl_update(state, weights, np.array([1, 3]), obj, spec, gains=gains, grad=g0)
    moved = weights.with_values(weights.values + 0.4)
    batch = np.array([0, 2])
    g1 = grad_est(moved, gains, state, obj, spec, batch)
    expected = np.zeros(weights.dim)
    for i in batch:
        expected = expected + (surrogate_per_sample(moved, gains, obj, spec, int(i))
                               - surrogate_per_sample(weights, gains, obj, spec, int(i)))
    expected = expected / batch.size + g0
    np.testing.assert_allclose(g1, expected, rtol=1e-13)
    # refresh clears the recursive memory
    state = refresh_anchor(state, moved, gains, obj, spec)
    assert state.control is None
    g2 = grad_est(moved, gains, state, obj, spec, np.array([4]))
    assert np.array_equal(g2, state.reference)


def test_refresh_anchor_idempotent_and_matches_recomputation():
    obj, weights, spec, gains = setup()
    state = init_vr_state("svrg", weights, gains, obj, spec)
    moved = weights.with_values(weights.values - 0.3)
    once = refresh_anchor(state, moved, gains, obj, spec)
    twice = refresh_anchor(once, moved, gains, obj, spec)
    assert np.array_equal(once.reference, twice.reference)
    np.testing.assert_allclose(once.reference, full_surrogate(obj, moved, spec, gains), rtol=1e-14)
    g = grad_est(moved, gains, once, obj, spec, np.array([0, 1]))
    assert np.array_equal(g, once.reference)


def test_estimator_variance_full_batch_is_zero():
    obj, weights, spec, gains = setup(n=6)
    state = init_vr_state("plain", weights, gains, obj, spec)
    # full batch in permuted order: only accumulation round-off remains
    v = estimator_variance(state, weights, gains, obj, spec, batch_size=6, trials=5)
    assert v <= 1e-28


def test_estimator_variance_svrg_zero_at_anchor():
    obj, weights, spec, gains = setup(n=8)
    state = init_vr_state("svrg", weights, gains, obj, spec)
    v = estimator_variance(state, weights, gains, obj, spec, batch_size=2, trials=10)
    assert v <= 1e-24


def test_svrg_variance_below_plain_near_anchor():
    obj, weights, spec, gains = setup(n=32, d=8)
    state_svrg = init_vr_state("svrg", weights, gains, obj, spec)
    state_plain = init_vr_state("plain", weights, gains, obj, spec)
    moved = weights.with_values(weights.values * (1.0 + 0.05))
    v_svrg = estimator_variance(state_svrg, moved, gains, obj, spec, batch_size=4, trials=200)
    v_plain = estimator_variance(state_plain, moved, gains, obj, spec, batch_size=4, trials=200)
    assert v_svrg <= v_plain


def test_hand_built_svrg_state_matches_init():
    obj, weights, spec, gains = setup(gains=[0.6, 1.1])
    made = init_vr_state("svrg", weights, gains, obj, spec)
    hand = VRState(mode="svrg", control=(quantize(weights, spec), gains),
                   reference=ref_grad(weights, gains, obj, spec))
    moved = weights.with_values(weights.values + 0.35)
    batch = np.array([0, 3, 5])
    g = grad_est(moved, gains, hand, obj, spec, batch)
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, grad_est(moved, gains, made, obj, spec, batch))


def test_hand_built_sarah_state_matches_ctrl_update():
    obj, weights, spec, gains = setup(n=6, gains=[0.9, 0.7])
    state = init_vr_state("sarah", weights, gains, obj, spec)
    g0 = state.reference
    made = ctrl_update(state, weights, np.array([1, 3]), obj, spec, gains=gains, grad=g0)
    hand = VRState(mode="sarah", control=(quantize(weights, spec), gains), reference=g0)
    moved = weights.with_values(weights.values + 0.4)
    batch = np.array([0, 2, 5])
    assert np.array_equal(grad_est(moved, gains, hand, obj, spec, batch),
                          grad_est(moved, gains, made, obj, spec, batch))


@pytest.mark.parametrize("mode", ["svrg", "sarah"])
def test_state_without_anchor_gradient_rejected(mode):
    _, weights, spec, gains = setup()
    with pytest.raises(ValueError, match="reference gradient"):
        VRState(mode=mode, control=(quantize(weights, spec), gains))
    if mode == "svrg":  # SARAH has no control point right after a refresh, SVRG always has one
        with pytest.raises(ValueError, match="anchor point"):
            VRState(mode=mode, reference=np.zeros(weights.dim))
