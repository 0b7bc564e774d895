from __future__ import annotations

import warnings
from unittest.mock import patch

import numpy as np
import pytest

import qatlab.diagnostics as diagnostics_mod
import qatlab.jacobian as jacobian_mod
import qatlab.quant as quant_mod
from qatlab.jacobian import (
    ProbeConfig,
    apply_gains,
    dither_update,
    probe_ls_update,
    probe_slope_samples,
    probe_update,
)
from qatlab.quant import (
    GroupedWeights,
    QuantSpec,
    dither_quantize,
    draw_dither,
    mean_field_sensitivity,
    quantize_array,
)
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
    cfg = ProbeConfig(probe_sigma=0.3, seed=0, ema_rate=1.0)
    out = probe_update(w, spec, np.ones(1), cfg)
    # slope fit of the identity map: |delta|^2 / (|delta|^2 + eps)
    assert out[0] == pytest.approx(1.0, abs=1e-6)
    out_ls = probe_ls_update(w, spec, np.ones(1), cfg)
    assert out_ls[0] == 1.0  # exact: no regularizer on the LS path


def test_small_probe_inside_bin_gives_zero_slope():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(8, 0.1), group_size=8)
    out = probe_update(w, spec, np.ones(1), ProbeConfig(probe_sigma=1e-4, seed=1, ema_rate=0.9))
    assert out[0] == pytest.approx(0.1)  # EMA pulls 1.0 toward the 0 estimate


def test_probe_mean_matches_gaussian_smoothed_sensitivity():
    # Group of 128 uniform weights inside the bin, sigma = step / 2.
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(5)
    vals = rng.uniform(-0.5, 0.5, size=128)
    w = GroupedWeights(vals, group_size=128)
    cross, energy = probe_slope_samples(w, spec, 0.5, 10_000, substream(42, "probe"))
    estimates = cross / (energy + 1e-8)
    expected = float(np.mean(smoothed_sensitivity(vals, spec, 0.5)))
    sem = float(np.std(estimates) / np.sqrt(estimates.size))
    assert abs(float(np.mean(estimates)) - expected) <= 4 * sem + 0.01


def test_probe_ls_error_shrinks_with_probe_count():
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(11)
    vals = np.concatenate([rng.uniform(-0.2, 0.2, 8), rng.choice((-1, 1), 8) * rng.uniform(2.0, 3.0, 8)])
    w = GroupedWeights(vals, group_size=16)
    target = float(np.mean(smoothed_sensitivity(vals, spec, 0.25)))
    errors = []
    for m in (8, 128):
        trials = []
        for t in range(64):
            cross, energy = probe_slope_samples(w, spec, 0.25, m, substream(t, "probe"))
            trials.append(abs(cross.sum() / energy.sum() - target))
        errors.append(np.mean(trials))
    assert errors[1] < 0.6 * errors[0]


def test_dither_update_interior_group_near_one():
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(3)
    w = GroupedWeights(rng.uniform(-0.4, 0.4, 64), group_size=64)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(probe_sigma=0.25, num_probes=200, seed=2, ema_rate=1.0),
                        dither_seed=7)
    assert out[0] == pytest.approx(1.0, abs=0.05)


def test_dither_update_saturated_group_zero():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.full(32, 4.0), group_size=32)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(probe_sigma=0.2, num_probes=8, seed=3, ema_rate=1.0),
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
    oracle = mean_field_sensitivity(w, spec)
    out = dither_update(w, spec, np.ones(1),
                        ProbeConfig(probe_sigma=0.25, num_probes=400, seed=4, ema_rate=1.0),
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
    oracle = mean_field_sensitivity(w, spec)
    group_means = np.array([np.mean(oracle[lo:hi]) for lo, hi in w.group_bounds])
    gains = np.ones(w.n_groups)
    cfg = ProbeConfig(probe_sigma=0.3, num_probes=32, seed=6, ema_rate=0.03)
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
        gains = probe_update(w, spec, gains, ProbeConfig(probe_sigma=0.5, seed=t, ema_rate=0.9),
                             draw_key=t)
        assert np.all(gains >= 0.0) and np.all(gains <= 1.0)


def test_update_rejects_bad_gains():
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.linspace(-1, 1, 8), group_size=4)
    cfg = ProbeConfig(probe_sigma=0.5)
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
        def standard_normal(self, out):
            out[...] = 0.0
            return out

    monkeypatch.setattr(jacobian_mod, "substream", lambda *a, **k: ZeroRng())
    spec = QuantSpec.w2(step=1.0)
    w = GroupedWeights(np.zeros(4), group_size=4)
    with pytest.raises(ValueError, match="zero excitation"):
        probe_ls_update(w, spec, np.ones(1), ProbeConfig(probe_sigma=0.5))


OVERFLOWING_UPDATES = {
    "probe": probe_update,
    "probe_ls": probe_ls_update,
    "dither": lambda *a, **k: dither_update(*a, dither_seed=4, **k),
    "fixed_dither": lambda w, spec, *a, **k: dither_update(
        w, spec, *a, dither_seed=4, fixed_dither=np.zeros(w.dim), **k),
    "slope_samples": lambda w, spec, gains, cfg, draw_key: probe_slope_samples(
        w, spec, cfg.probe_sigma, cfg.num_probes, substream(cfg.seed, "probe", draw_key)),
}
# Gaussian probes at 1e308 overflow to inf, a non-finite weight; a dithered update's
# inputs w +- sigma + r stay finite, and its slope sums overflow instead, to an inf / inf
# estimate
OVERFLOW_MESSAGES = {"probe": "non-finite weight", "probe_ls": "non-finite weight",
                     "dither": "non-finite gain estimate",
                     "fixed_dither": "non-finite gain estimate",
                     "slope_samples": "non-finite weight"}


@pytest.mark.parametrize("name", OVERFLOWING_UPDATES)
def test_overflowing_probes_are_refused_without_a_warning(name):
    # normal(0, 1e308) overflows silently; the in-place scale must too, outside any errstate
    w = GroupedWeights(np.linspace(-1.0, 1.0, 40), group_size=8)
    cfg = ProbeConfig(probe_sigma=1e308, num_probes=4, seed=6)
    assert np.abs(substream(6, "probe", 1).standard_normal((4, 40))).max() > 2.0  # 2e308 is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW_MESSAGES[name]):
            OVERFLOWING_UPDATES[name](w, QuantSpec.w2(step=1.0), np.ones(w.n_groups), cfg,
                                      draw_key=1)


@pytest.mark.parametrize("name", ["probe", "probe_ls", "dither", "fixed_dither"])
def test_slope_sums_that_overflow_are_refused_without_a_warning(name):
    # finite probes of 5e307 whose cross and energy sums overflow: inf / inf is no estimate
    w = GroupedWeights(np.linspace(-1.0, 1.0, 40), group_size=8)
    cfg = ProbeConfig(probe_sigma=5e307, num_probes=4, seed=6)
    assert np.abs(substream(6, "probe", 1).standard_normal((4, 40))).max() < 3.5  # no inf probe
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite gain estimate"):
            OVERFLOWING_UPDATES[name](w, QuantSpec.w2(step=1.0), np.ones(w.n_groups), cfg,
                                      draw_key=1)


def test_single_probe_ls_equals_probe_update_up_to_regularizer(monkeypatch):
    monkeypatch.setattr(jacobian_mod, "_REG_EPS", 0.0)
    spec = QuantSpec.w2(step=1.0)
    rng = np.random.default_rng(41)
    w = GroupedWeights(rng.uniform(-0.5, 0.5, 32), group_size=32)
    cfg = ProbeConfig(probe_sigma=0.4, num_probes=1, seed=9, ema_rate=1.0)
    a = probe_update(w, spec, np.ones(1), cfg)
    b = probe_ls_update(w, spec, np.ones(1), cfg)
    assert a[0] == pytest.approx(b[0], abs=1e-12)


def test_probe_config_validation():
    with pytest.raises(ValueError, match="probe_sigma"):
        ProbeConfig(probe_sigma=0.0)
    with pytest.raises(ValueError, match="num_probes"):
        ProbeConfig(probe_sigma=1.0, num_probes=0)
    for rate in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="ema_rate"):
            ProbeConfig(probe_sigma=1.0, ema_rate=rate)


@pytest.mark.parametrize("update", [probe_update, probe_ls_update,
                                    lambda *a, **k: dither_update(*a, dither_seed=4, **k)],
                         ids=["probe", "probe_ls", "dither"])
def test_default_probe_sigma_is_half_the_smallest_group_step(update):
    w = GroupedWeights(np.linspace(-1.5, 1.5, 12), group_size=4)
    spec = QuantSpec.w2(step=np.array([0.9, 0.5, 0.7]))
    gains = np.full(3, 0.5)
    unset = update(w, spec, gains, ProbeConfig(num_probes=3, seed=8), draw_key=2)
    halved = update(w, spec, gains, ProbeConfig(probe_sigma=0.25, num_probes=3, seed=8),
                    draw_key=2)
    assert unset.tobytes() == halved.tobytes()


def test_default_probe_sigma_that_underflows_is_refused():
    w = GroupedWeights(np.zeros(4), group_size=4)
    with pytest.raises(ValueError, match="probe_sigma"):
        probe_update(w, QuantSpec.w2(step=5e-324), np.ones(1), ProbeConfig())


def refuse_any_probe(*args, **kwargs):
    raise AssertionError("a probe was drawn")


# a dither the forward pass would refuse: beyond half a step, a group's own step
# (0.3 > 0.2 / 2 in the second group only), far beyond half of a tiny step, or a shape
# that only broadcasts to (dim,)
@pytest.mark.parametrize("fixed, step", [
    (np.full(16, 10.0), np.array([1.0, 0.2])),
    (np.r_[np.zeros(8), np.full(8, 0.3)], np.array([1.0, 0.2])),
    (np.r_[np.full(8, 1e-16), np.full(8, -1e-16)], 1e-300),
    (np.full(1, 0.1), np.array([1.0, 0.2])),
    (np.zeros((2, 16)), np.array([1.0, 0.2])),
], ids=["ten-steps", "own-group-step", "tiny-step", "one-entry", "block"])
def test_dither_update_refuses_a_fixed_dither_the_forward_refuses(fixed, step, monkeypatch):
    w = GroupedWeights(np.linspace(-1.0, 1.0, 16), group_size=8)
    spec = QuantSpec.w2(step=step)
    if fixed.shape == (16,):
        with pytest.raises(ValueError, match="invalid dither"):
            dither_quantize(w, fixed, spec)
    monkeypatch.setattr(jacobian_mod, "probe_slope_samples", refuse_any_probe)
    with pytest.raises(ValueError, match="invalid dither"):
        dither_update(w, spec, np.ones(w.n_groups), ProbeConfig(probe_sigma=0.1, num_probes=2),
                      dither_seed=0, fixed_dither=fixed)


def test_every_gain_update_and_the_probe_rate_harness_run_the_one_kernel(monkeypatch):
    calls = []
    kernel = jacobian_mod.probe_slope_samples

    def spy(*args):
        calls.append(args[3])  # the probe count
        return kernel(*args)

    for module in (jacobian_mod, diagnostics_mod):  # the harness holds its own reference
        monkeypatch.setattr(module, "probe_slope_samples", spy)
    w = GroupedWeights(np.linspace(-1.0, 1.0, 40), group_size=8)
    spec = QuantSpec.w2(step=0.5)
    cfg = ProbeConfig(probe_sigma=0.2, num_probes=3, seed=1)
    fixed = draw_dither(w, spec, seed=4)
    updates = [probe_update, probe_ls_update,
               lambda *a, **k: dither_update(*a, dither_seed=2, **k),
               lambda *a, **k: dither_update(*a, dither_seed=2, fixed_dither=fixed, **k)]
    for n, update in enumerate(updates, 1):
        update(w, spec, np.ones(w.n_groups), cfg, draw_key=n)
        assert calls == [3] * n
    diagnostics_mod.probe_rate_harness(QuantSpec.generic(bits=4), group_dim=8, sigma=0.5,
                                       probe_counts=[2, 4, 8], trials=2)
    assert calls[4:] == [2, 2, 4, 4, 8, 8]  # one call per trial


UPDATES = {
    "probe": probe_update,
    "probe_ls": probe_ls_update,
    "per_probe_dither": lambda *a, **k: dither_update(*a, dither_seed=2, **k),
    "fixed_dither": lambda w, spec, *a, **k: dither_update(
        w, spec, *a, dither_seed=2, fixed_dither=draw_dither(w, spec, seed=4), **k),
}


@pytest.mark.parametrize("num_probes", [1, 8, 64])
@pytest.mark.parametrize("name", UPDATES)
def test_each_dither_row_costs_two_quantizer_rows(name, num_probes, monkeypatch):
    # 4 rows of 4096 weights fill a block: the hard updates quantize their base point and
    # each (rows, dim) probe block, a per-probe dither update each (rows, dim) dither block
    # at w + sigma and at w - sigma, and a fixed dither update its one row, at any probe count
    w = GroupedWeights(substream(1, "w").normal(0.0, 1.0, 4096), group_size=32)
    shapes = []

    def spy(x, spec, step):
        shapes.append(np.shape(x))
        return quantize_array(x, spec, step)

    monkeypatch.setattr(jacobian_mod, "quantize_array", spy)
    UPDATES[name](w, QuantSpec.w2(step=0.5), np.ones(w.n_groups),
                  ProbeConfig(probe_sigma=0.2, num_probes=num_probes, seed=1), draw_key=3)
    blocks = [(min(4, num_probes - a), 4096) for a in range(0, num_probes, 4)]
    expected = {"probe": [(4096,), *blocks], "probe_ls": [(4096,), *blocks],
                "per_probe_dither": [s for block in blocks for s in (block, block)],
                "fixed_dither": [(1, 4096)] * 2}
    assert shapes == expected[name]


@pytest.mark.parametrize("name", UPDATES)
def test_a_dithered_update_never_draws_from_the_probe_stream(name, monkeypatch):
    # the central difference has no probes: only the hard updates make a ("probe", key)
    # stream, and only the per-probe dither update a ("dither_block", key) one
    labels = []

    def spy(seed, label, *key):
        labels.append((label, *key))
        return substream(seed, label, *key)

    # the fixed dither is drawn by quant, not through this module's streams
    w = GroupedWeights(np.linspace(-1.0, 1.0, 40), group_size=8)
    monkeypatch.setattr(jacobian_mod, "substream", spy)
    UPDATES[name](w, QuantSpec.w2(step=0.5), np.ones(w.n_groups),
                  ProbeConfig(probe_sigma=0.2, num_probes=3), draw_key=3)
    expected = {"probe": [("probe", 3)], "probe_ls": [("probe", 3)],
                "per_probe_dither": [("dither_block", 3)], "fixed_dither": []}
    assert labels == expected[name]


# 70 weights in groups of 32: the last group is a short one of 6
FIXED_DITHER_SPECS = {
    "w2": QuantSpec.w2(step=0.5),
    "w1": QuantSpec.w1(step=0.5),
    "identity": QuantSpec.identity(),
    "mid_rise_generic": QuantSpec.generic(bits=4, step=np.array([0.3, 0.1, 0.7]), mid_rise=True),
}


@pytest.mark.parametrize("rows_per_block", [3, None], ids=["split", "one-block"])
@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.7])
@pytest.mark.parametrize("name", FIXED_DITHER_SPECS)
def test_a_fixed_dither_is_the_one_row_case_of_the_per_probe_form(name, sigma, rows_per_block):
    # a training step's forward dither is the first row of the per-probe stream of its seed
    # and key, so the fixed form's one column is the per-probe form's first, bit for bit,
    # at any probe count and with the per-probe rows in blocks of 3 or in one block; the
    # energy of every column is the same
    spec = FIXED_DITHER_SPECS[name]
    for seed in range(20):
        w = GroupedWeights(substream(seed, "w").normal(0.0, 1.0, 70), group_size=32)
        fixed = probe_slope_samples(w, spec, sigma, 8, None, draw_dither(w, spec, seed=seed))
        assert fixed[0].shape == fixed[1].shape == (w.n_groups, 1)
        for m in (1, 8):
            with patch.object(quant_mod, "_BLOCK_ELEMS", (rows_per_block or m) * w.dim):
                cross, energy = probe_slope_samples(
                    w, spec, sigma, m, None, dither_rng=substream(seed, "dither_block", 0))
            assert cross.shape == energy.shape == (w.n_groups, m)
            assert cross[:, :1].tobytes() == fixed[0].tobytes()
            assert energy.tobytes() == np.repeat(fixed[1], m, axis=1).tobytes()


# rows that fill a row block exactly or not; all but 4096 end on a short group
@pytest.mark.parametrize("dim", [144, 4096, 4100, 70, 65, 40])
@pytest.mark.parametrize("sigma", [5e-324, 1e-300, 0.3, 1e154])
def test_a_dithered_energy_is_the_group_sums_of_one_sigma_row(dim, sigma):
    # every column of either dithered form has the energy of one (1, dim) row of sigma
    w = GroupedWeights(substream(dim, "w").normal(0.0, 1.0, dim), group_size=32)
    spec = QuantSpec.w2(step=0.5)
    row = np.full((1, dim), sigma)
    row_sums = jacobian_mod._group_sums(row, row, 32)
    _, energy = probe_slope_samples(w, spec, sigma, 6, None,
                                    dither_rng=substream(dim, "dither_block"))
    assert energy.tobytes() == np.repeat(row_sums, 6, axis=1).tobytes()
    _, energy = probe_slope_samples(w, spec, sigma, 6, None, draw_dither(w, spec, seed=dim))
    assert energy.tobytes() == row_sums.tobytes()


@pytest.mark.parametrize("num_probes", [1, 8, 64])
@pytest.mark.parametrize("name", UPDATES)
def test_a_fixed_dither_update_sums_one_row_per_group_sum(name, num_probes, monkeypatch):
    # the hard updates draw and sum each (rows, dim) block of 4 probe rows; a dithered one
    # draws no probes and sums one sigma row against each block of central differences,
    # one row for a fixed dither, and then against itself for the energy: only on the first
    # update of a (sigma, dim, group_size), whose energy is kept for the next ones
    w = GroupedWeights(substream(1, "w").normal(0.0, 1.0, 4096), group_size=32)
    spec, cfg = QuantSpec.w2(step=0.5), ProbeConfig(probe_sigma=0.2, num_probes=num_probes, seed=1)
    calls = []

    def spying(name, function):
        def spy(*args):
            calls.append((name, *(np.shape(a) for a in args if isinstance(a, np.ndarray))))
            return function(*args)
        return spy

    for function in ("_draw_probes", "_group_sums"):
        monkeypatch.setattr(jacobian_mod, function,
                            spying(function, getattr(jacobian_mod, function)))
    row = (1, 4096)
    blocks = [(min(4, num_probes - a), 4096) for a in range(0, num_probes, 4)]
    hard = [c for b in blocks for c in (("_draw_probes", b), ("_group_sums", b, b),
                                        ("_group_sums", b, b))]
    expected = {"probe": hard, "probe_ls": hard,
                "per_probe_dither": [("_group_sums", row, b) for b in blocks],
                "fixed_dither": [("_group_sums", row, row)]}[name]
    dithered = name.endswith("dither")
    jacobian_mod._sigma_energy.cache_clear()
    for first in (True, False):
        calls.clear()
        gains = UPDATES[name](w, spec, np.ones(w.n_groups), cfg, draw_key=3)
        assert calls == expected + [("_group_sums", row, row)] * (dithered and first)
        if first:
            first_gains = gains
    assert gains.tobytes() == first_gains.tobytes()
    if dithered:  # each call's energy is its own array: writing into one leaves the next alone
        def energy():
            source = ({"dither": draw_dither(w, spec, seed=4)} if name == "fixed_dither"
                      else {"dither_rng": substream(2, "dither_block", 3)})
            return probe_slope_samples(w, spec, 0.2, num_probes, **source)[1]

        kept = energy()
        reference = kept.copy()
        kept[:] = 7.0
        assert energy().tobytes() == reference.tobytes()


def test_per_probe_central_differences_average_to_the_sensitivity_oracle():
    # each dither row's estimate cross / (energy + eps) is one draw whose mean over the
    # dither is the group mean of mean_field_sensitivity(probe_eps=sigma). Groups of 24:
    # interior weights, weights within 1.5 sigma outside the box edge, saturated ones
    spec, sigma = QuantSpec.w2(step=1.0), 0.25
    rng = substream(3, "mixed")
    groups = []
    for inside in (4, 12, 20):
        groups += [rng.uniform(-0.7, 0.7, inside),
                   rng.choice((-1.0, 1.0), 4) * rng.uniform(1.0, 1.0 + 1.5 * sigma, 4),
                   rng.choice((-1.0, 1.0), 20 - inside) * rng.uniform(1.5, 4.0, 20 - inside)]
    w = GroupedWeights(np.concatenate(groups), group_size=24)
    oracle = mean_field_sensitivity(w, spec, probe_eps=sigma)
    target = np.array([oracle[lo:hi].mean() for lo, hi in w.group_bounds])
    cross, energy = probe_slope_samples(w, spec, sigma, 20_000, None,
                                        dither_rng=substream(5, "dither_block"))
    estimates = cross / (energy + 1e-8)
    sem = estimates.std(axis=1, ddof=1) / np.sqrt(estimates.shape[1])
    assert np.all(sem > 0)
    assert np.all(np.abs(estimates.mean(axis=1) - target) <= 4 * sem)
