from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qatlab.quant import (
    GroupedWeights,
    QuantSpec,
    calibrate_step,
    dither_quantize,
    draw_dither,
    mean_field,
    mean_field_sensitivity,
    quantize,
    quantize_array,
)


def grouped(values, group_size=4):
    return GroupedWeights(np.asarray(values, dtype=float), group_size)


def test_w2_midtread_rounds_inside_bin():
    spec = QuantSpec.w2(step=1.0)
    assert quantize(grouped([0.4]), spec) == pytest.approx([0.0])


def test_w2_midtread_clips_to_max_code():
    spec = QuantSpec.w2(step=1.0)
    assert quantize(grouped([3.7]), spec) == pytest.approx([1.0])


def test_ternary_matches_grid_enumeration():
    # Oracle: nearest point of the explicit grid {-0.5, 0, 0.5}.
    spec = QuantSpec.ternary(step=0.5)
    grid = np.array([-0.5, 0.0, 0.5])
    for w in (-0.6, -0.2, 0.1, 0.3, 0.74, -10.0):
        expected = grid[np.argmin(np.abs(grid - w))]
        assert quantize(grouped([w]), spec)[0] == pytest.approx(expected)
    assert quantize(grouped([-0.6]), spec)[0] == pytest.approx(-0.5)


def test_w1_is_pure_sign_with_positive_zero():
    spec = QuantSpec.w1(step=0.7)
    out = quantize(grouped([-0.3, 0.0, 2.0, -5.0]), spec)
    assert out == pytest.approx([-0.7, 0.7, 0.7, -0.7])


def test_mid_rise_w2_uses_four_half_step_levels():
    spec = QuantSpec.w2(step=1.0, mid_rise=True)
    out = quantize(grouped([-9.0, -0.7, 0.2, 0.8, 9.0]), spec)
    assert out == pytest.approx([-1.5, -0.5, 0.5, 0.5, 1.5])


def test_generic_bits_sets_clip_codes():
    spec = QuantSpec.generic(bits=4, step=0.25)
    assert spec.clip_codes == 7
    assert quantize(grouped([100.0]), spec)[0] == pytest.approx(7 * 0.25)


def test_round_half_away_from_zero():
    spec = QuantSpec.generic(bits=4, step=1.0)
    out = quantize(grouped([0.5, 1.5, 2.5, -0.5, -1.5]), spec)
    assert out == pytest.approx([1.0, 2.0, 3.0, -1.0, -2.0])


def test_non_finite_weight_rejected():
    spec = QuantSpec.w2(step=1.0)
    with pytest.raises(ValueError, match="non-finite weight"):
        quantize(grouped([np.nan]), spec)


def test_grid_membership_idempotence_monotonicity():
    rng = np.random.default_rng(7)
    for spec in (QuantSpec.w2(step=0.5), QuantSpec.generic(bits=3, step=0.3),
                 QuantSpec.w1(step=0.4), QuantSpec.w2(step=0.5, mid_rise=True),
                 QuantSpec.ternary(step=1.2)):
        w = np.sort(rng.uniform(-5, 5, size=257))
        step = float(spec.step)
        q = quantize_array(w, spec, step)
        if spec.mode == "w1":
            levels = {-step, step}
            assert set(np.round(q, 12)).issubset(levels)
        elif spec.mid_rise:
            codes = q / step - 0.5
            assert np.allclose(codes, np.round(codes))
            assert np.all(codes >= -spec.clip_codes - 1) and np.all(codes <= spec.clip_codes)
        else:
            codes = q / step
            assert np.allclose(codes, np.round(codes))
            assert np.all(np.abs(codes) <= spec.clip_codes + 1e-12)
        assert np.array_equal(quantize_array(q, spec, step), q)
        assert np.all(np.diff(q) >= 0)


def test_quantize_deterministic_bit_identical():
    spec = QuantSpec.generic(bits=3, step=0.37)
    w = grouped(np.random.default_rng(3).normal(size=64), group_size=16)
    a = quantize(w, spec)
    b = quantize(w, spec)
    assert np.array_equal(a, b)
    m1, sem1 = mean_field(w, spec, n_samples=500, seed=11)
    m2, sem2 = mean_field(w, spec, n_samples=500, seed=11)
    assert np.array_equal(m1, m2) and np.array_equal(sem1, sem2)


def test_dither_zero_reduces_to_quantize():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([0.2, -0.8, 1.4])
    assert np.array_equal(dither_quantize(w, np.zeros(3), spec), quantize(w, spec))


def test_dither_deep_saturation_returns_clip_minus_dither():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([10.0, 10.0, 10.0])
    for seed in range(3):
        r = draw_dither(w, spec, seed=seed)
        assert r.shape == (3,)
        assert dither_quantize(w, r, spec) == pytest.approx(1.0 - r)


def test_dither_out_of_range_rejected():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([0.2, 0.3])
    with pytest.raises(ValueError, match="invalid dither"):
        dither_quantize(w, np.array([0.0, 0.9]), spec)


# a scalar, one entry or a block whose last axis only broadcasts against the 16 weights,
# and a last axis of another length
@pytest.mark.parametrize("shape", [(), (1,), (3, 1), (15,)])
def test_dither_that_only_broadcasts_is_rejected(shape):
    w = grouped(np.linspace(-1.0, 1.0, 16), group_size=8)
    with pytest.raises(ValueError, match="invalid dither"):
        dither_quantize(w, np.full(shape, 0.1), QuantSpec.w2(step=1.0))


def test_dither_block_maps_each_row_as_its_own_dither():
    spec = QuantSpec.w2(step=1.0)
    w = grouped(np.linspace(-2.0, 2.0, 16), group_size=8)
    block = np.stack([draw_dither(w, spec, seed=0, draw_key=k) for k in range(3)])
    rows = [dither_quantize(w, r, spec) for r in block]
    assert np.array_equal(dither_quantize(w, block, spec), np.stack(rows))


def test_dither_draw_stays_in_half_step_interval():
    spec = QuantSpec.generic(bits=3, step=0.25)
    w = grouped(np.zeros(100), group_size=32)
    r = draw_dither(w, spec, seed=5)
    assert r.shape == (100,)
    assert np.all(np.abs(r) <= 0.125)


def test_dither_interior_unbiasedness_within_mc_tolerance():
    # Interior coordinates (|w| <= (c-1)*step) are reproduced in mean.
    spec = QuantSpec.generic(bits=3, step=1.0)  # c = 3
    w_vals = np.array([-2.0, -1.3, -0.4, 0.0, 0.7, 1.9])
    w = grouped(w_vals, group_size=6)
    mean, sem = mean_field(w, spec, n_samples=10_000, seed=21)
    assert np.all(np.abs(mean - w_vals) <= 4.0 * sem + 1e-12)


def test_mean_field_saturates_at_clip_level():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([25.0, -25.0])
    mean, sem = mean_field(w, spec, n_samples=20_000, seed=3)
    assert np.all(np.abs(mean - [1.0, -1.0]) <= 4.0 * sem + 1e-12)


def test_mean_field_zero_by_symmetry():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([0.0])
    mean, sem = mean_field(w, spec, n_samples=20_000, seed=9)
    assert abs(mean[0]) <= 4.0 * sem[0] + 1e-12


@pytest.mark.parametrize("dim,group_size,n_samples", [(144, 48, 50_000), (4, 1, 200_000),
                                                     (10, 3, 200_000)])
def test_mean_field_holds_one_row_block(dim, group_size, n_samples):
    # one row block bounds memory whatever the layout; a per-group chunk would hold
    # 7.6 and 6.2 MiB for the groups of 1 and of 3 (a width-1 group sums its chunk whole)
    spec = QuantSpec.w2(step=1.0)
    w = grouped(np.random.default_rng(23).uniform(-2.6, 2.6, size=dim), group_size=group_size)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        mean_field(w, spec, n_samples=n_samples, seed=17)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_sensitivity_interior_saturated_and_knee():
    spec = QuantSpec.w2(step=1.0)
    w = grouped([0.2, 5.0, 1.0])  # interior, deep saturation, clipping knee
    j = mean_field_sensitivity(w, spec)
    assert j[0] == 1.0 and j[1] == 0.0
    # knee oracle: numeric integral of the dithered map around w = c*step
    eps = 0.01
    r = (np.arange(200_000) + 0.5) / 200_000 - 0.5  # midpoint rule over [-1/2, 1/2)
    m_hi = np.mean(quantize_array(1.0 + eps + r, spec, 1.0) - r)
    m_lo = np.mean(quantize_array(1.0 - eps + r, spec, 1.0) - r)
    knee_slope = (m_hi - m_lo) / (2 * eps)
    assert knee_slope == pytest.approx(0.5, abs=0.01)
    assert j[2] == pytest.approx(0.5, abs=1e-12)


def test_sensitivity_errors_keep_their_order():
    spec = QuantSpec.w2(step=0.5)
    bad = grouped([3.0, np.nan, 0.8])
    with pytest.raises(ValueError, match="non-finite weight"):
        mean_field_sensitivity(bad, spec, probe_eps=0.0)
    for eps in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="probe_eps must be positive"):
            mean_field_sensitivity(grouped([3.0, -2.0, 0.8]), spec, probe_eps=eps)
    # step / 100 of the smallest positive step is 0: no offset to take
    with pytest.raises(ValueError, match="probe_eps must be positive"):
        mean_field_sensitivity(grouped([0.0]), QuantSpec.w2(step=5e-324))


def test_sensitivity_range_for_clipped_midtread():
    spec = QuantSpec.generic(bits=3, step=0.5)
    rng = np.random.default_rng(17)
    w = grouped(rng.uniform(-3, 3, size=48), group_size=16)
    j = mean_field_sensitivity(w, spec)
    assert np.all((j >= 0.0) & (j <= 1.0))


def test_sensitivity_of_windows_that_overflow():
    # window ends and clip levels that overflow to inf give the box's shares, with no warning
    w = grouped([1.7e308, -1.7e308, 0.0])
    j = mean_field_sensitivity(w, QuantSpec.w1(step=2e307), probe_eps=5e307)
    assert j.tobytes() == np.array([0.0, 0.0, 2.0 * 2e307 / 1e308]).tobytes()
    for eps in (1e305, 1e308):  # a clip level of inf: every window lies inside the box
        j = mean_field_sensitivity(w, QuantSpec.generic(8, step=1e307), probe_eps=eps)
        assert j.tobytes() == np.ones(3).tobytes()
    j = mean_field_sensitivity(w, QuantSpec.w2(step=1.0), probe_eps=np.inf)
    assert j.tobytes() == np.zeros(3).tobytes()


def test_identity_mode_passthrough():
    spec = QuantSpec.identity()
    w = grouped([0.123, -4.5, 6.7])
    assert np.array_equal(quantize(w, spec), w.values)
    assert mean_field_sensitivity(w, spec).tobytes() == np.ones(3).tobytes()


def test_grouped_weights_validation():
    for bad in (np.zeros(0), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="non-empty flat vector"):
            GroupedWeights(values=bad, group_size=4)
    with pytest.raises(ValueError, match="group_size"):
        GroupedWeights(values=np.zeros(4), group_size=0)
    w = GroupedWeights(np.zeros(10), group_size=4)
    assert w.group_bounds == ((0, 4), (4, 8), (8, 10))
    assert w.n_groups == 3
    assert np.array_equal(w.per_weight(np.arange(3)), [0, 0, 0, 0, 1, 1, 1, 1, 2, 2])


def test_with_values_checks_only_the_new_values():
    w = GroupedWeights(np.zeros(10), group_size=4)
    for bad in (np.zeros(9), np.zeros(11), np.zeros((2, 5)), np.zeros((10, 1))):
        with pytest.raises(ValueError, match="flat vector"):
            w.with_values(bad)
    moved = w.with_values([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert moved.group_size == w.group_size
    assert moved.values.dtype == float and np.array_equal(moved.values, np.arange(1.0, 11.0))


def test_quant_spec_validation():
    with pytest.raises(ValueError):
        QuantSpec(step=-1.0)
    with pytest.raises(ValueError):
        QuantSpec(step=1.0, clip_codes=0)
    with pytest.raises(ValueError):
        QuantSpec(step=1.0, clip_codes=3, mode="w1_58")
    with pytest.raises(ValueError):
        QuantSpec.generic(bits=1)


def test_calibrate_step_per_group_maxabs():
    spec = QuantSpec.generic(bits=3, step=1.0)  # c = 3
    w = GroupedWeights(np.array([0.3, -6.0, 1.5, 1.5]), group_size=2)
    cal = calibrate_step(w, spec)
    assert cal.per_group
    assert cal.step == pytest.approx([2.0, 0.5])
    q = quantize(w, cal)
    assert q[1] == pytest.approx(-6.0)  # peak is representable exactly
    assert q[2] == pytest.approx(1.5)


def test_per_group_step_dither_bounds():
    spec = QuantSpec.generic(bits=3, step=1.0)
    w = GroupedWeights(np.array([0.3, -6.0, 1.5, 1.5]), group_size=2)
    cal = calibrate_step(w, spec)
    r = draw_dither(w, cal, seed=1)
    assert np.all(np.abs(r[:2]) <= 1.0)
    assert np.all(np.abs(r[2:]) <= 0.25)
    out = dither_quantize(w, r, cal)
    assert out.shape == (4,)
