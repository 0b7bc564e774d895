from __future__ import annotations

import numpy as np
import pytest

import qatlab.jacobian as jacobian_mod
from qatlab.jacobian import (
    ProbeConfig,
    apply_gains,
    dither_update,
    probe_ls_update,
    probe_slope_samples,
    probe_update,
)
from qatlab.quant import GroupedWeights, QuantSpec, mean_field_sensitivity
from qatlab.rng import substream


def smoothed_sensitivity(w: np.ndarray, spec: QuantSpec, sigma: float) -> np.ndarray:
    """Oracle: Gaussian-smoothed quantizer slope via the boundary-density sum.

    For a clipped mid-tread grid the quantizer jumps by one step at each
    boundary (k + 1/2) * step with |k| < clip_codes, plus the two clip
    knees are absent; smoothing by N(0, sigma^2) turns each jump into a
    Gaussian bump of mass step at the boundary.
    """
    step = float(spec.step)
    c = spec.clip_codes
    boundaries = [(k + 0.5) * step for k in range(-c, c)]
    out = np.zeros_like(w, dtype=float)
    for b in boundaries:
        z = (b - w) / sigma
        out += step * np.exp(-0.5 * z * z) / (sigma * np.sqrt(2 * np.pi))
    return out


def test_identity_quantizer_probe_slope_is_one():
    spec = QuantSpec.identity()
    w = GroupedWeights(np.linspace(-1, 1, 16), group_size=16)
    cfg = ProbeConfig(sigma=0.3, seed_tag=0, ema_rate=1.0)
    out = probe_update(w, spec, np.ones(1), cfg)
    # slope fit of the identity map: |delta|^2 / (|delta|^2 + eps)
    assert out[0] == pytest.approx(1.0, abs=1e-6)
    out_ls = probe_ls_update(w, spec, np.ones(1), cfg)
    assert out_ls[0] == 1.0  # exact: no regularizer on the LS path


def test_small_probe_inside_bin_gives_zero_slope():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(8, 0.1), group_size=8)
    out = probe_update(w, spec, np.ones(1), ProbeConfig(sigma=1e-4, seed_tag=1, ema_rate=0.9))
    assert out[0] == pytest.approx(0.1)  # EMA pulls 1.0 toward the 0 estimate


def test_probe_mean_matches_gaussian_smoothed_sensitivity():
    # Group of 128 uniform weights inside the bin, sigma = step / 2.
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(5)
    vals = rng.uniform(-0.5, 0.5, size=128)
    w = GroupedWeights(vals, group_size=128)
    cross, energy = probe_slope_samples(vals, spec, 1.0, 0.5, 10_000, substream(42, "probe"))
    estimates = cross / (energy + 1e-8)
    expected = float(np.mean(smoothed_sensitivity(vals, spec, 0.5)))
    sem = float(np.std(estimates) / np.sqrt(estimates.size))
    assert abs(float(np.mean(estimates)) - expected) <= 4 * sem + 0.01


def test_probe_ls_error_shrinks_with_probe_count():
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.uniform(-0.2, 0.2, 8), rng.choice((-1, 1), 8) * rng.uniform(2.0, 3.0, 8)])
    w_flat = vals
    target = float(np.mean(smoothed_sensitivity(w_flat, spec, 0.25)))
    errors = []
    for m in (8, 128):
        trials = []
        for t in range(64):
            cross, energy = probe_slope_samples(w_flat, spec, 1.0, 0.25, m, substream(t, "probe"))
            trials.append(abs(cross.sum() / energy.sum() - target))
        errors.append(np.mean(trials))
    assert errors[1] < 0.6 * errors[0]


def test_dither_update_interior_group_near_one():
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(3)
    w = GroupedWeights(rng.uniform(-0.4, 0.4, 64), group_size=64)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(sigma=0.25, num_probes=200, seed_tag=2, ema_rate=1.0),
                        dither_seed=7)
    assert out[0] == pytest.approx(1.0, abs=0.05)


def test_dither_update_saturated_group_zero():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(32, 4.0), group_size=32)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(sigma=0.2, num_probes=8, seed_tag=3, ema_rate=1.0),
                        dither_seed=9)
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_dither_update_mixed_group_matches_sensitivity_mean():
    # Half interior / half saturated: slope-fit mean tracks the group-mean
    # of the measured sensitivity within 0.05.
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(19)
    vals = np.concatenate([rng.uniform(-0.3, 0.3, 32),
                           rng.choice((-1.0, 1.0), 32) * rng.uniform(1.8, 2.6, 32)])
    w = GroupedWeights(vals, group_size=64)
    oracle = mean_field_sensitivity(w, spec, n_samples=20_000, seed=31)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(sigma=0.25, num_probes=400, seed_tag=4, ema_rate=1.0),
                        dither_seed=11)
    assert abs(out[0] - float(np.mean(oracle))) <= 0.05


def test_dither_iteration_reaches_fixed_point_on_frozen_weights():
    # One mostly-interior, one saturated and one half-saturated group;
    # estimates are averaged over probes before the clip so the EMA can
    # settle within 0.05 of the group-mean sensitivity.
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(23)
    sat = rng.choice((-1.0, 1.0), 36) * rng.uniform(1.8, 2.6, 36)
    vals = np.concatenate([rng.uniform(-0.2, 0.2, 24), sat[:24],
                           np.concatenate([rng.uniform(-0.2, 0.2, 12), sat[24:]])])
    w = GroupedWeights(vals, group_size=24)
    oracle = mean_field_sensitivity(w, spec, n_samples=20_000, seed=5)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    gains = np.ones(w.n_groups)
    cfg = ProbeConfig(sigma=0.3, num_probes=32, seed_tag=6, ema_rate=0.03)
    for t in range(300):
        gains = dither_update(w, spec, gains, cfg, dither_seed=13, draw_key=t)
    assert np.all(np.abs(gains - group_means) <= 0.05)


def test_gain_bounds_hold_after_updates():
    # every start lies outside the clip interval [0, 1]; none may leak through an update
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(29)
    w = GroupedWeights(rng.normal(0, 2, 64), group_size=16)
    gains = np.array([1.5, -0.5, 3.0, -2.0])
    for t in range(10):
        gains = probe_update(w, spec, gains, ProbeConfig(sigma=0.5, seed_tag=t, ema_rate=0.9),
                             draw_key=t)
        assert np.all(gains >= 0.0) and np.all(gains <= 1.0)


def test_update_rejects_bad_gains():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.linspace(-1, 1, 8), group_size=4)
    cfg = ProbeConfig(sigma=0.5)
    with pytest.raises(ValueError, match="gain count"):
        probe_update(w, spec, np.ones(3), cfg)
    with pytest.raises(ValueError, match="finite"):
        probe_update(w, spec, np.array([1.0, np.nan]), cfg)


def test_apply_gains_scales_by_group():
    out = apply_gains(np.array([0.5, 1.0]), np.array([2.0, 2.0, 3.0, 3.0]),
                      GroupedWeights(np.zeros(4), 2))
    assert out == pytest.approx([1.0, 1.0, 3.0, 3.0])


def test_apply_gains_identity_and_zero():
    layout = GroupedWeights(np.zeros(5), 3)
    v = np.array([1.0, -2.0, 3.0, 4.0, -5.0])
    assert np.array_equal(apply_gains(np.ones(2), v, layout), v)
    assert np.all(apply_gains(np.zeros(2), v, layout) == 0.0)


def test_apply_gains_length_mismatch_raises():
    with pytest.raises(ValueError, match="length"):
        apply_gains(np.ones(2), np.ones(3), GroupedWeights(np.zeros(4), 2))
    with pytest.raises(ValueError, match="length"):
        apply_gains(np.ones(3), np.ones(4), GroupedWeights(np.zeros(4), 2))


def test_apply_gains_contraction():
    rng = np.random.default_rng(37)
    gains = rng.uniform(0, 1, 4)
    layout = GroupedWeights(np.zeros(16), 4)
    for _ in range(20):
        v = rng.normal(size=16)
        assert np.linalg.norm(apply_gains(gains, v, layout)) <= 1.0 * np.linalg.norm(v) + 1e-12


def test_zero_excitation_raises(monkeypatch):
    class ZeroRng:
        def normal(self, loc, scale, size):
            return np.zeros(size)

    monkeypatch.setattr(jacobian_mod, "substream", lambda *a, **k: ZeroRng())
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.zeros(4), group_size=4)
    with pytest.raises(ValueError, match="zero excitation"):
        probe_ls_update(w, spec, np.ones(1), ProbeConfig(sigma=0.5))


def test_single_probe_ls_equals_probe_update_up_to_regularizer(monkeypatch):
    monkeypatch.setattr(jacobian_mod, "_REG_EPS", 0.0)
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(41)
    w = GroupedWeights(rng.uniform(-0.5, 0.5, 32), group_size=32)
    cfg = ProbeConfig(sigma=0.4, num_probes=1, seed_tag=9, ema_rate=1.0)
    a = probe_update(w, spec, np.ones(1), cfg)
    b = probe_ls_update(w, spec, np.ones(1), cfg)
    assert a[0] == pytest.approx(b[0], abs=1e-12)


def test_probe_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(sigma=0.0)
    with pytest.raises(ValueError):
        ProbeConfig(sigma=1.0, num_probes=0)
    for rate in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="ema_rate"):
            ProbeConfig(sigma=1.0, ema_rate=rate)
    spec = QuantSpec.w2(step=0.5)
    assert ProbeConfig.for_spec(spec).sigma == pytest.approx(0.25)
    assert ProbeConfig.for_spec(spec, ema_rate=0.3).ema_rate == 0.3
