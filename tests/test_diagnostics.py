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


def test_target_gradient_interior_recovers_upstream():
    spec = QuantSpec.w2(step=1.0)
    rng = substream(1, "v")
    w = GroupedWeights(rng.uniform(-0.3, 0.3, 16), group_size=8)
    v = rng.normal(0, 1, 16)
    g = mean_field_sensitivity(w, spec, n_samples=20_000, seed=2) * v
    _, sem = mean_field_sensitivity(w, spec, n_samples=20_000, seed=2, return_sem=True)
    assert np.all(np.abs(g - v) <= (4.0 * sem + 1e-9) * np.maximum(np.abs(v), 1e-9))


def test_target_gradient_saturated_vanishes():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(8, 5.0), group_size=8)
    v = np.ones(8)
    g = mean_field_sensitivity(w, spec, n_samples=2000, seed=3) * v
    assert np.max(np.abs(g)) <= 1e-9


def test_target_gradient_mixed_matches_fresh_seed_recomputation():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=4)
    v = substream(5, "v").normal(0, 1, w.dim)
    g1 = mean_field_sensitivity(w, spec, n_samples=30_000, seed=11) * v
    j2, sem2 = mean_field_sensitivity(w, spec, n_samples=30_000, seed=99, return_sem=True)
    tol = 4.0 * sem2 * np.abs(v) + 1e-9
    assert np.all(np.abs(g1 - j2 * v) <= tol + 4.0 * sem2 * np.abs(v))


def test_bias_report_oracle_gains_have_near_zero_bias():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=6)
    oracle = mean_field_sensitivity(w, spec, n_samples=30_000, seed=7)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    # groups here are purely interior or purely saturated, so the group
    # gain reproduces the per-coordinate sensitivity almost exactly
    v = substream(8, "v").normal(0, 1, w.dim)
    rep = bias_report(w, group_means, v, spec, n_samples=30_000, seed=7)
    assert rep.bias_jacquant <= 0.05 * np.linalg.norm(v)
    assert rep.bias_jacquant < rep.bias_ste
    assert rep.jacquant_bound_holds and rep.ste_bound_holds


def test_bias_report_identity_gains_match_ste_exactly():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=9)
    v = substream(10, "v").normal(0, 1, w.dim)
    rep = bias_report(w, np.ones(w.n_groups), v, spec, n_samples=5000, seed=1)
    assert rep.bias_jacquant == rep.bias_ste
    assert rep.epsilon_sup == pytest.approx(rep.gamma * np.linalg.norm(v))


def test_dominance_when_gains_beat_identity_margin():
    # Whenever max_g |b_g - J_bar_g| <= gamma - 0.05, the learned-rule bias
    # must not exceed the straight-through bias (up to MC noise).
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=12)
    oracle = mean_field_sensitivity(w, spec, n_samples=30_000, seed=13)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    rng = substream(14, "b")
    for _ in range(5):
        gains = np.clip(group_means + rng.uniform(-0.2, 0.2, w.n_groups), 0, 1)
        v = rng.normal(0, 1, w.dim)
        rep = bias_report(w, gains, v, spec, n_samples=30_000, seed=13)
        margin = float(np.max(np.abs(w.per_weight(gains) - rep.j_hat)))
        if margin <= rep.gamma - 0.05:
            assert rep.bias_jacquant <= rep.bias_ste + 1e-6


def test_fd_reference_values_are_zero_or_one_jump():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.array([0.2, 0.48, 5.0, -0.52]), group_size=4)
    coords, fd = fd_reference(w, spec, eps=0.05)
    assert np.array_equal(coords, np.arange(4))
    assert fd[0] == 0.0           # interior, far from a boundary
    assert fd[1] == pytest.approx(10.0)  # boundary 0.5 within eps: step/(2 eps)
    assert fd[2] == 0.0           # deep saturation
    assert fd[3] == pytest.approx(10.0)


def test_fd_reference_sparsity_matches_boundary_hit_probability():
    spec = QuantSpec.generic(bits=8, step=1.0)
    c = spec.clip_codes
    rng = substream(15, "w")
    n = 100_000
    vals = rng.uniform(-(c - 1), c - 1, n)
    w = GroupedWeights(vals, group_size=n)
    eps = 0.1
    _, fd = fd_reference(w, spec, eps=eps)
    frac = float(np.mean(fd != 0.0))
    p = 2 * eps / 1.0
    sd = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) <= 3 * sd


def test_fd_mismatch_variance_zero_upstream_gradient():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=16)
    var_jq, var_ste = fd_mismatch_variance([(w, np.ones(w.n_groups), np.zeros(w.dim))], spec)
    assert var_jq == 0.0 and var_ste == 0.0


def test_fd_mismatch_variance_oracle_gains_dominate_ste():
    spec = QuantSpec.w2(step=1.0)
    w = mixed_weights(seed=17)
    oracle = mean_field_sensitivity(w, spec, n_samples=20_000, seed=18)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    gains = np.clip(group_means, 0, 1)
    rng = substream(19, "v")
    trace = [(w, gains, rng.normal(0, 1, w.dim)) for _ in range(10)]
    var_jq, var_ste = fd_mismatch_variance(trace, spec)
    assert var_jq <= var_ste


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


def test_tracking_static_and_drift_ordering():
    spec = QuantSpec.w2(step=1.0)
    static = tracking_harness(spec, group_dim=48, drift_per_step=0.0, ema_rates=0.1,
                              steps=120, sigma=0.25, num_probes=16, seed=2,
                              oracle_samples=1500)
    assert static.terminal_error <= 0.05
    total = 1.6
    fast = tracking_harness(spec, group_dim=48, drift_per_step=total / 60, ema_rates=0.1,
                            steps=60, sigma=0.25, num_probes=16, seed=2,
                            oracle_samples=1500)
    slow = tracking_harness(spec, group_dim=48, drift_per_step=total / 360, ema_rates=0.1,
                            steps=360, sigma=0.25, num_probes=16, seed=2,
                            oracle_samples=1500)
    assert slow.terminal_error < fast.terminal_error
    # slow drift settles to a plateau below the straight-through gain of one's error
    assert slow.terminal_error < np.mean(np.abs(1.0 - slow.oracle))


TRACKING = dict(group_dim=48, ema_rates=0.1, sigma=0.25, num_probes=16, seed=2)


@pytest.mark.parametrize("steps", [1, 9, 10, 25, 120])
def test_tracking_calls_the_oracle_only_in_the_terminal_window(monkeypatch, steps):
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return mean_field_sensitivity(*args, **kwargs)

    monkeypatch.setattr("qatlab.diagnostics.mean_field_sensitivity", counted)
    res = tracking_harness(QuantSpec.w2(step=1.0), drift_per_step=0.01, steps=steps,
                           oracle_samples=50, **TRACKING)
    tail = max(1, steps // 10)
    assert len(calls) == tail
    assert res.gains.shape == (steps,)
    assert res.oracle.shape == res.errors.shape == (tail,)


def test_tracking_rejects_an_empty_run():
    with pytest.raises(ValueError, match="steps must be >= 1"):
        tracking_harness(QuantSpec.w2(step=1.0), drift_per_step=0.0, steps=0, **TRACKING)


def every_step_tracking(spec, group_dim, drift_per_step, ema_rates, steps, sigma,
                        num_probes, seed, oracle_samples):
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
                            ProbeConfig(sigma=sigma, num_probes=num_probes, seed_tag=seed,
                                        ema_rate=ema_rates),
                            draw_key=t)
        oracle[t] = float(np.mean(mean_field_sensitivity(
            weights, spec, probe_eps=step / 10.0, n_samples=oracle_samples, seed=seed + 7)))
        gains[t] = float(gain[0])
        errors[t] = abs(gains[t] - oracle[t])
    tail = max(1, steps // 10)
    return gains, oracle[-tail:], errors[-tail:], float(np.mean(errors[-tail:]))


@pytest.mark.parametrize("drift,steps", [(0.0, 120), (1.6 / 60, 60), (1.6 / 360, 360)],
                         ids=["static", "fast", "slow"])
def test_tracking_matches_an_every_step_oracle_bit_for_bit(drift, steps):
    spec = QuantSpec.w2(step=1.0)
    res = tracking_harness(spec, drift_per_step=drift, steps=steps, oracle_samples=300,
                           **TRACKING)
    gains, oracle, errors, terminal = every_step_tracking(
        spec, drift_per_step=drift, steps=steps, oracle_samples=300, **TRACKING)
    assert res.gains.tobytes() == gains.tobytes()
    assert res.oracle.tobytes() == oracle.tobytes()
    assert res.errors.tobytes() == errors.tobytes()
    assert np.float64(res.terminal_error).tobytes() == np.float64(terminal).tobytes()


def test_tracking_no_smoothing_matches_single_probe_noise():
    spec = QuantSpec.w2(step=1.0)
    res = tracking_harness(spec, group_dim=48, drift_per_step=0.0, ema_rates=1.0,
                           steps=60, sigma=0.25, num_probes=1, seed=3,
                           oracle_samples=1500)
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
