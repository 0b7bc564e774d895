"""Property tests: group-axis array ops against per-group loop references.

The loop references below restate the per-group definitions one group at
a time. The array versions must match them bit for bit over random
contiguous layouts, including empty groups and a short last group. The
grid rule and the Monte-Carlo oracles are checked the same way against a
plain restatement that evaluates each chunk in one go with fresh arrays.
"""

from __future__ import annotations

import warnings
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qatlab.jacobian import (
    ProbeConfig,
    SurrogateJacobian,
    apply_gains,
    dither_update,
    probe_ls_update,
    probe_slope_samples,
    probe_update,
)
from qatlab import quant
from qatlab.quant import (
    GroupedWeights,
    QuantSpec,
    calibrate_step,
    draw_dither,
    mean_field,
    mean_field_sensitivity,
    quantize_array,
)
from qatlab.rng import substream

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def layouts(draw) -> GroupedWeights:
    """Weights on random contiguous bounds; groups may be empty or short."""
    sizes = draw(st.lists(st.integers(0, 7), min_size=1, max_size=8))
    edges = np.concatenate(([0], np.cumsum(sizes)))
    bounds = tuple(zip(edges[:-1].tolist(), edges[1:].tolist()))
    rng = substream(draw(st.integers(0, 2**16)), "layout")
    values = rng.normal(0.0, draw(st.sampled_from([0.3, 1.0, 3.0])), size=int(edges[-1]))
    return GroupedWeights(values=values, group_bounds=bounds)


@st.composite
def specs(draw, weights: GroupedWeights) -> QuantSpec:
    step = draw(st.sampled_from([0.25, 0.5, 1.0]))
    spec = draw(st.sampled_from([
        QuantSpec.w2(step=step),
        QuantSpec.generic(3, step=step, mid_rise=True),
        QuantSpec.w1(step=step),
        QuantSpec.ternary(step=step),
    ]))
    return calibrate_step(weights, spec) if draw(st.booleans()) else spec


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# -- per-group loop references -------------------------------------------------

def loop_group_index(bounds):
    idx = np.empty(bounds[-1][1], dtype=int)
    for g, (lo, hi) in enumerate(bounds):
        idx[lo:hi] = g
    return idx


def loop_step_per_weight(spec, bounds):
    out = np.empty(bounds[-1][1])
    for g, (lo, hi) in enumerate(bounds):
        out[lo:hi] = spec.step_for_group(g)
    return out


def loop_apply_gains(gains, v, bounds):
    out = np.empty_like(v)
    for g, (lo, hi) in enumerate(bounds):
        out[lo:hi] = gains[g] * v[lo:hi]
    return out


def loop_calibrate_step(weights, spec, floor=1e-12):
    steps = np.empty(weights.n_groups)
    for g in range(weights.n_groups):
        w_g = weights.group(g)
        peak = float(np.max(np.abs(w_g))) if w_g.size else 0.0
        steps[g] = max(peak / spec.clip_codes, floor)
    return steps


def plain_quantize(x, spec, step):
    if spec.mode == "w1":
        return np.where(x >= 0, 1.0, -1.0) * step
    c = spec.clip_codes
    if spec.mid_rise:
        return (np.clip(np.floor(x / step), -c - 1, c) + 0.5) * step
    codes = x / step
    return np.clip(np.sign(codes) * np.floor(np.abs(codes) + 0.5), -c, c) * step


def loop_mc(weights, spec, n_samples, seed, sample):
    """Mean and SEM of sample(w, r, step), one whole (n_samples, size) draw per group."""
    total, total_sq = np.zeros(weights.dim), np.zeros(weights.dim)
    for g, (lo, hi) in enumerate(weights.group_bounds):
        if hi == lo:
            continue
        step = spec.step_for_group(g)
        r = substream(seed, "dither", g).uniform(-0.5 * step, 0.5 * step, size=(n_samples, hi - lo))
        s = sample(weights.values[lo:hi][None, :], r, step)
        total[lo:hi] += s.sum(axis=0)
        total_sq[lo:hi] += (s * s).sum(axis=0)
    mean = total / n_samples
    return mean, np.sqrt(np.maximum(total_sq / n_samples - mean * mean, 0.0) / n_samples)


def loop_slope_samples(w, spec, step, sigma, m, rng, dither=None):
    deltas = rng.normal(0.0, sigma, size=(m, w.size))
    if dither is None:
        base = quantize_array(w, spec, step=step)[None, :]
        shifted = quantize_array(w[None, :] + deltas, spec, step=step)
    else:
        dither = np.atleast_2d(dither)
        base = quantize_array(w[None, :] + dither, spec, step=step) - dither
        shifted = quantize_array(w[None, :] + deltas + dither, spec, step=step) - dither
    dq = shifted - base
    return np.einsum("ij,ij->i", dq, deltas), np.einsum("ij,ij->i", deltas, deltas)


def loop_update(weights, spec, jac, cfg, draw_key, least_squares=False,
                dither_seed=None, fixed_dither=None):
    estimates = np.zeros(weights.n_groups)
    mask = np.zeros(weights.n_groups, dtype=bool)
    for g, (lo, hi) in enumerate(weights.group_bounds):
        if hi == lo:
            continue
        step_g = spec.step_for_group(g)
        dither = None
        if fixed_dither is not None:
            dither = fixed_dither.r[lo:hi]
        elif dither_seed is not None:
            dither = substream(dither_seed, "dither", draw_key, g).uniform(
                -0.5 * step_g, 0.5 * step_g, size=(cfg.num_probes, hi - lo))
        args = (weights.values[lo:hi], spec, step_g, cfg.sigma, cfg.num_probes)
        cross, energy = probe_slope_samples(
            *args, substream(cfg.seed_tag, "probe", draw_key, g), dither=dither)
        direct = loop_slope_samples(
            *args, substream(cfg.seed_tag, "probe", draw_key, g), dither=dither)
        assert_same_bits(cross, direct[0])
        assert_same_bits(energy, direct[1])
        if least_squares:
            estimates[g] = float(cross.sum()) / float(energy.sum())
        else:
            estimates[g] = float(np.mean(cross / (energy + jac.reg_eps)))
        mask[g] = True
    return jac._ema(estimates, mask)


# -- properties ------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_group_layout_ops_match_loops(data):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    bounds = weights.group_bounds
    gains = substream(weights.dim, "gains").uniform(0.0, 1.0, weights.n_groups)
    v = substream(weights.dim, "v").normal(0.0, 1.0, weights.dim)
    assert_same_bits(weights.group_index(), loop_group_index(bounds))
    assert_same_bits(spec.step_per_weight(bounds), loop_step_per_weight(spec, bounds))
    assert_same_bits(apply_gains(SurrogateJacobian(gains=gains), v, bounds),
                     loop_apply_gains(gains, v, bounds))
    assert_same_bits(calibrate_step(weights, spec).step, loop_calibrate_step(weights, spec))


@SETTINGS
@given(st.data(), st.sampled_from([1, 2, 8, 9]), st.integers(0, 50))
def test_gain_updates_match_per_group_probe_loop(data, num_probes, draw_key):
    weights = data.draw(layouts().filter(lambda w: w.dim > 0))
    spec = data.draw(specs(weights))
    cfg = ProbeConfig(sigma=0.3, num_probes=num_probes, seed_tag=draw_key + 1)
    jac = SurrogateJacobian.identity(weights.n_groups, ema_rate=0.7)
    fixed = draw_dither(weights, spec, seed=3, seed_tag=draw_key)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        pairs = [
            (probe_update(weights, spec, jac, cfg, draw_key=draw_key),
             loop_update(weights, spec, jac, cfg, draw_key)),
            (probe_ls_update(weights, spec, jac, cfg, draw_key=draw_key),
             loop_update(weights, spec, jac, cfg, draw_key, least_squares=True)),
            (dither_update(weights, spec, jac, cfg, dither_seed=5, draw_key=draw_key),
             loop_update(weights, spec, jac, cfg, draw_key, dither_seed=5)),
            (dither_update(weights, spec, jac, cfg, dither_seed=5, draw_key=draw_key,
                           fixed_dither=fixed),
             loop_update(weights, spec, jac, cfg, draw_key, fixed_dither=fixed)),
        ]
    for got, expected in pairs:
        assert_same_bits(got.gains, expected.gains)


GRID_SPECS = [QuantSpec.w2(step=0.5), QuantSpec.generic(3, step=0.3),
              QuantSpec.generic(3, step=0.5, mid_rise=True), QuantSpec.ternary(step=1.0),
              QuantSpec.w1(step=0.5)]


@SETTINGS
@given(st.sampled_from(GRID_SPECS),
       st.lists(st.floats(-4.0, 4.0) | st.sampled_from([-0.0, 0.0, 0.25, -0.25, 0.75, -0.75]),
                min_size=1, max_size=40))
def test_quantize_array_matches_plain_rule(spec, values):
    x = np.array(values)
    assert_same_bits(quantize_array(x, spec), plain_quantize(x, spec, float(spec.step)))
    scalar = quantize_array(values[0], spec)
    assert isinstance(scalar, np.float64)
    assert_same_bits(scalar, plain_quantize(np.float64(values[0]), spec, float(spec.step)))


@SETTINGS
@given(st.data(), st.integers(1, 40), st.integers(1, 120))
def test_mc_oracles_match_whole_chunk_reference(data, block, n_samples):
    weights = data.draw(layouts().filter(lambda w: w.dim > 0))
    spec = data.draw(specs(weights))
    eps = 0.05

    def dedithered(w, r, step):
        return plain_quantize(w + r, spec, step) - r

    def slope(w, r, step):
        return (plain_quantize(w + eps + r, spec, step)
                - plain_quantize(w - eps + r, spec, step)) / (2.0 * eps)

    # Row blocks of `block` elements: many blocks per chunk, most with a short last one.
    with patch.object(quant, "_MC_BLOCK_ELEMS", block):
        got = [mean_field(weights, spec, n_samples, seed=4, return_sem=True),
               mean_field_sensitivity(weights, spec, probe_eps=eps, n_samples=n_samples,
                                      seed=4, return_sem=True)]
    expected = [loop_mc(weights, spec, n_samples, 4, dedithered),
                loop_mc(weights, spec, n_samples, 4, slope)]
    for (mean, sem), (mean_ref, sem_ref) in zip(got, expected):
        assert_same_bits(mean, mean_ref)
        assert_same_bits(sem, sem_ref)


@SETTINGS
@given(layouts(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_apply_gains_is_linear_in_v(weights, a, b):
    bounds = weights.group_bounds
    jac = SurrogateJacobian(gains=substream(weights.dim, "gains").uniform(0, 1, weights.n_groups))
    v1 = substream(weights.dim, "v1").normal(0.0, 1.0, weights.dim)
    v2 = substream(weights.dim, "v2").normal(0.0, 1.0, weights.dim)
    combined = apply_gains(jac, a * v1 + b * v2, bounds)
    separate = a * apply_gains(jac, v1, bounds) + b * apply_gains(jac, v2, bounds)
    assert np.allclose(combined, separate, rtol=1e-12, atol=1e-12)
