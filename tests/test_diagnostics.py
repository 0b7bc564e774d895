from __future__ import annotations

import numpy as np
import pytest

from qatlab.diagnostics import (
    bias_report,
    fd_mismatch_variance,
    fd_reference,
    pl_contraction_harness,
    probe_rate_harness,
    tracking_harness,
    window_composition_harness,
)
from qatlab.jacobian import ProbeConfig, probe_update
from qatlab.objectives import make_mlp_task
from qatlab.quant import GroupedWeights, QuantSpec, mean_field_sensitivity
from qatlab.rng import substream
from qatlab.trainer import RefreshPolicy, TrainConfig, train_vr


def mixed_weights(seed=0, n_interior=24, n_sat=24, group_size=12, step=1.0):
    rng = substream(seed, "w")
    vals = np.concatenate([
        rng.uniform(-0.25, 0.25, n_interior) * step,
        rng.choice((-1.0, 1.0), n_sat) * rng.uniform(1.8, 2.6, n_sat) * step,
    ])
    return GroupedWeights(vals, group_size=group_size)


def oracle_group_gains(w, spec):
    oracle = mean_field_sensitivity(w, spec)
    return np.clip(np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds]), 0, 1)


def test_target_gradient_interior_recovers_upstream():
    spec = QuantSpec.w2(step=1.0)
    rng = substream(1, "v")
    w = GroupedWeights(rng.uniform(-0.3, 0.3, 16), group_size=8)
    v = rng.normal(0, 1, 16)
    g = mean_field_sensitivity(w, spec) * v
    assert g.tobytes() == v.tobytes()  # every window lies inside the box: a slope of exactly 1


def test_target_gradient_saturated_vanishes():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(8, 5.0), group_size=8)
    v = np.ones(8)
    g = mean_field_sensitivity(w, spec) * v
    assert np.array_equal(g, np.zeros(8))


def test_bias_report_oracle_gains_have_near_zero_bias():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=6)
    # groups here are purely interior or purely saturated, so the group
    # gain reproduces the per-coordinate sensitivity exactly
    v = substream(8, "v").normal(0, 1, w.dim)
    rep = bias_report(w, oracle_group_gains(w, spec), v, spec)
    ste = bias_report(w, np.ones(w.n_groups), v, spec)
    assert rep.bias == 0.0
    assert rep.bias < ste.bias
    assert rep.bound_holds and ste.bound_holds


def test_bias_report_all_ones_gains_give_the_straight_through_bias_and_bound():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=9)
    v = substream(10, "v").normal(0, 1, w.dim)
    j = mean_field_sensitivity(w, spec)
    rep = bias_report(w, np.ones(w.n_groups), v, spec)
    assert rep.bias == float(np.linalg.norm(v - j * v))  # |v - J*v|, bit for bit
    assert rep.bound == float(np.max(np.abs(1.0 - j))) * float(np.linalg.norm(v))  # max|1-J| |v|


def test_dominance_when_gains_beat_identity_margin():
    # Whenever max_g |b_g - J_bar_g| <= gamma - 0.05, with gamma = max_i |1 - J_i|,
    # the learned-rule bias must not exceed the straight-through bias.
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=12)
    oracle = mean_field_sensitivity(w, spec)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    gamma = float(np.max(np.abs(1.0 - oracle)))
    rng = substream(14, "b")
    for _ in range(5):
        gains = np.clip(group_means + rng.uniform(-0.2, 0.2, w.n_groups), 0, 1)
        v = rng.normal(0, 1, w.dim)
        rep = bias_report(w, gains, v, spec)
        ste = bias_report(w, np.ones(w.n_groups), v, spec)
        margin = float(np.max(np.abs(w.per_weight(gains) - rep.j_hat)))
        if margin <= gamma - 0.05:
            assert rep.bias <= ste.bias + 1e-6


def test_fd_reference_values_are_zero_or_one_jump():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.array([0.2, 0.48, 5.0, -0.52]), group_size=4)
    fd = fd_reference(w, spec)  # eps = step/10
    assert fd.shape == (4,)
    assert fd[0] == 0.0           # interior, far from a boundary
    assert fd[1] == pytest.approx(5.0)  # boundary 0.5 within eps: step/(2 eps)
    assert fd[2] == 0.0           # deep saturation
    assert fd[3] == pytest.approx(5.0)


def test_fd_reference_sparsity_matches_boundary_hit_probability():
    spec = QuantSpec.generic(bits=8, step=1.0)
    c = spec.clip_codes
    rng = substream(15, "w")
    n = 100_000
    vals = rng.uniform(-(c - 1), c - 1, n)
    w = GroupedWeights(vals, group_size=n)
    eps = 0.1  # step/10
    fd = fd_reference(w, spec)
    frac = float(np.mean(fd != 0.0))
    p = 2 * eps / 1.0
    sd = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * sd


def test_fd_mismatch_variance_zero_upstream_gradient():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=16)
    for gains in (oracle_group_gains(w, spec), np.ones(w.n_groups)):
        assert fd_mismatch_variance([(w, gains, np.zeros(w.dim))], spec) == 0.0


def test_fd_mismatch_variance_oracle_gains_dominate_ste():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=17)
    gains = oracle_group_gains(w, spec)
    rng = substream(19, "v")
    vs = [rng.normal(0, 1, w.dim) for _ in range(10)]
    var_jq = fd_mismatch_variance([(w, gains, v) for v in vs], spec)
    var_ste = fd_mismatch_variance([(w, np.ones(w.n_groups), v) for v in vs], spec)
    assert var_jq <= var_ste


def fd_mismatch_variance_by_concatenation(trace, spec):
    """Reference: per-step mismatch lists, concatenated, then one variance."""
    mism = []
    for weights, gains, v_bar in trace:
        v = np.asarray(v_bar, dtype=float)
        mism.append(weights.per_weight(gains) * v - fd_reference(weights, spec) * v)
    return float(np.var(np.concatenate(mism)))


@pytest.mark.parametrize("steps", [1, 2, 7, 100])
@pytest.mark.parametrize("spec", [QuantSpec.w2(step=1.0), QuantSpec.generic(3, step=0.4),
                                  QuantSpec.w2(step=np.array([0.5, 1.0, 1.5, 2.0]))],
                         ids=["w2", "generic3", "per_group_step"])
def test_fd_mismatch_variance_matches_concatenated_lists_bit_for_bit(steps, spec):
    # a per-group step gives each group its own offset step/10
    rng = substream(20, "trace", steps)
    w = mixed_weights(seed=21)
    trace = [(w.with_values(w.values + rng.normal(0, 0.3, w.dim)),
              rng.uniform(0, 1, w.n_groups), rng.normal(0, 1, w.dim)) for _ in range(steps)]
    got = fd_mismatch_variance(trace, spec)
    want = fd_mismatch_variance_by_concatenation(trace, spec)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_probe_rate_identity_quantizer_zero_error():
    res = probe_rate_harness(QuantSpec.identity(), group_dim=8, sigma=0.3,
                             probe_counts=[4, 16, 64], trials=10, seed=0)
    assert np.all(res.mean_errors <= 1e-12)
    assert res.slope == float("-inf")


def test_probe_rate_slope_near_half_and_sigma_invariant():
    spec = QuantSpec.generic(bits=4, step=1.0)
    res = probe_rate_harness(spec, group_dim=16, sigma=0.6,
                             probe_counts=[16, 64, 256], trials=80, seed=1)
    assert -0.65 <= res.slope <= -0.35
    res2 = probe_rate_harness(spec, group_dim=16, sigma=1.2,
                              probe_counts=[16, 64, 256], trials=80, seed=1)
    assert -0.65 <= res2.slope <= -0.35


@pytest.mark.parametrize("count", [0, -1])
def test_probe_rate_refuses_a_probe_count_below_one(count):
    with pytest.raises(ValueError, match=f"probe count must be >= 1, got {count}$"):
        probe_rate_harness(QuantSpec.generic(bits=4), group_dim=8, sigma=0.5,
                           probe_counts=[count, 4, 16], trials=2)


def test_tracking_static_and_drift_ordering():
    spec = QuantSpec.w2(step=1.0)
    static = tracking_harness(spec, group_dim=48, drift_per_step=0.0, ema_rate=0.1,
                              steps=120, sigma=0.25, num_probes=16, seed=2)
    assert static.terminal_error <= 0.05
    total = 1.6
    fast = tracking_harness(spec, group_dim=48, drift_per_step=total / 60, ema_rate=0.1,
                            steps=60, sigma=0.25, num_probes=16, seed=2)
    slow = tracking_harness(spec, group_dim=48, drift_per_step=total / 360, ema_rate=0.1,
                            steps=360, sigma=0.25, num_probes=16, seed=2)
    assert slow.terminal_error < fast.terminal_error
    # slow drift settles to a plateau below the straight-through gain of one's error
    assert slow.terminal_error < np.mean(np.abs(1.0 - slow.oracle))


TRACKING = dict(group_dim=48, ema_rate=0.1, sigma=0.25, num_probes=16, seed=2)


@pytest.mark.parametrize("steps", [1, 9, 10, 25, 120])
def test_tracking_calls_the_oracle_only_in_the_terminal_window(monkeypatch, steps):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return mean_field_sensitivity(*args, **kwargs)

    monkeypatch.setattr("qatlab.diagnostics.mean_field_sensitivity", counted)
    res = tracking_harness(QuantSpec.w2(step=1.0), drift_per_step=0.01, steps=steps,
                           **TRACKING)
    tail = max(1, steps // 10)
    assert len(calls) == tail
    assert res.gains.shape == (steps,)
    assert res.oracle.shape == res.errors.shape == (tail,)


def test_tracking_rejects_an_empty_run():
    with pytest.raises(ValueError, match="steps must be >= 1"):
        tracking_harness(QuantSpec.w2(step=1.0), drift_per_step=0.0, steps=0, **TRACKING)


def every_step_tracking(spec, group_dim, drift_per_step, ema_rate, steps, sigma,
                        num_probes, seed):
    """Reference loop: the oracle at every step, the error averaged over the last tenth."""
    step = float(spec.step)
    start = substream(seed, "layout").uniform(-1.3, 0.9, group_dim) * step * spec.clip_codes
    weights = GroupedWeights(start, group_size=group_dim)
    gain = np.ones(1)
    gains, oracle, errors = np.empty(steps), np.empty(steps), np.empty(steps)
    offset = 0.0
    for t in range(steps):
        offset += drift_per_step * step
        weights = weights.with_values(start + offset)
        gain = probe_update(weights, spec, gain,
                            ProbeConfig(probe_sigma=sigma, num_probes=num_probes, seed=seed,
                                        ema_rate=ema_rate),
                            draw_key=t)
        oracle[t] = float(np.mean(mean_field_sensitivity(weights, spec, probe_eps=step / 10.0)))
        gains[t] = float(gain[0])
        errors[t] = abs(gains[t] - oracle[t])
    tail = max(1, steps // 10)
    return gains, oracle[-tail:], errors[-tail:], float(np.mean(errors[-tail:]))


@pytest.mark.parametrize("drift,steps", [(0.0, 120), (1.6 / 60, 60), (1.6 / 360, 360)],
                         ids=["static", "fast", "slow"])
def test_tracking_matches_an_every_step_oracle_bit_for_bit(drift, steps):
    spec = QuantSpec.w2(step=1.0)
    res = tracking_harness(spec, drift_per_step=drift, steps=steps, **TRACKING)
    gains, oracle, errors, terminal = every_step_tracking(
        spec, drift_per_step=drift, steps=steps, **TRACKING)
    assert res.gains.tobytes() == gains.tobytes()
    assert res.oracle.tobytes() == oracle.tobytes()
    assert res.errors.tobytes() == errors.tobytes()
    assert np.float64(res.terminal_error).tobytes() == np.float64(terminal).tobytes()


def test_tracking_no_smoothing_matches_single_probe_noise():
    spec = QuantSpec.w2(step=1.0)
    res = tracking_harness(spec, group_dim=48, drift_per_step=0.0, ema_rate=1.0,
                           steps=60, sigma=0.25, num_probes=1, seed=3)
    # beta = 1 keeps no memory: the error trace is raw single-probe noise
    raw_std = np.std(res.gains)
    assert raw_std > 0.05
    assert res.terminal_error <= 4 * raw_std + 0.1


def test_pl_contraction_holds_and_floor_tracks_gain_error():
    clean = pl_contraction_harness(mu=0.1, l_smooth=1.0, eta=0.5, jac_err=0.0, seed=4)
    noisy = pl_contraction_harness(mu=0.1, l_smooth=1.0, eta=0.5, jac_err=0.2, seed=4)
    assert clean.contraction_holds and noisy.contraction_holds
    assert clean.worst_ratio <= 1 - 0.5 * 0.1 + 1e-3
    assert clean.floor < noisy.floor


def test_window_composition_zero_shift_equals_long_run():
    chained = window_composition_harness(np.zeros(4), steps_per_window=30, seed=5)
    single = window_composition_harness(np.zeros(1), steps_per_window=120, seed=5)
    assert chained.final_gap == pytest.approx(single.final_gap, rel=1e-9, abs=1e-300)


def test_window_composition_decaying_beats_constant_shift():
    decaying = window_composition_harness(0.1 * 0.5 ** np.arange(6), steps_per_window=40, seed=6)
    constant = window_composition_harness(np.full(6, 0.1), steps_per_window=40, seed=6)
    assert decaying.final_gap < constant.final_gap
    small = window_composition_harness(np.full(6, 0.01), steps_per_window=40, seed=6)
    assert small.final_gap < constant.final_gap


def test_grad_norm_trend_decreases_with_horizon():
    obj = make_mlp_task(3, 4, 32, seed=7)
    w0 = GroupedWeights(substream(8, "w0").normal(0, 0.5, obj.dim), group_size=obj.dim)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=200,
                      refresh=RefreshPolicy("interval", interval=10 ** 9),
                      jac_mode="ste", vr_mode="plain", seed=9)
    # the best upstream-gradient norm seen within the first T steps, per horizon T
    norms = np.array([rec.grad_norm for rec in train_vr(obj, w0, spec, cfg).metrics])
    trend = {h: float(np.min(norms[:h])) for h in (50, 200)}
    assert trend[200] < trend[50]
    assert trend[200] > 0.0  # residual floor reported, not assumed zero
