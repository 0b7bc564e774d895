"""Property tests: group-axis array ops against per-group loop references.

The loop references below restate the per-group definitions one group at
a time, walking the groups of group_size from the start of the vector.
The array versions must match them bit for bit over random layouts
(dim, group_size), including a single short group, groups that divide
dim exactly and groups of one weight. The grid rule and the Monte-Carlo
oracles are checked the same way against a plain restatement that
evaluates each chunk in one go with fresh arrays. Each gain update or
dither draw is one block from one stream, so the draws must not depend
on the group layout, and the dither stays within half of each group's
step. A gain update drawn and used in blocks of probe rows must match the
one-block loop reference bit for bit. A failing property, run under this
repo's pytest settings, reports its falsifying example.
"""

from __future__ import annotations

import subprocess
import sys
from itertools import product
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qatlab import jacobian
from qatlab.jacobian import (
    ProbeConfig,
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
    dither_quantize,
    draw_dither,
    mean_field,
    mean_field_sensitivity,
    next_dither,
    quantize_array,
)
from qatlab.rng import substream

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def layouts(draw) -> GroupedWeights:
    """Weights of dim in [1, 40] in groups of group_size in [1, 12].

    Each draw first picks a kind, so that besides the general case the
    examples of a run include dim < group_size (one short group),
    dim % group_size == 0 (no short group) and group_size 1.
    """
    kind = draw(st.sampled_from(["any", "one short group", "no short group", "size one"]))
    if kind == "size one":
        group_size, dim = 1, draw(st.integers(1, 40))
    elif kind == "one short group":
        group_size = draw(st.integers(2, 12))
        dim = draw(st.integers(1, group_size - 1))
    elif kind == "no short group":
        group_size = draw(st.integers(1, 12))
        dim = group_size * draw(st.integers(1, 40 // group_size))
    else:
        group_size, dim = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    rng = substream(draw(st.integers(0, 2**16)), "layout")
    values = rng.normal(0.0, draw(st.sampled_from([0.3, 1.0, 3.0])), size=dim)
    return GroupedWeights(values, group_size)


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


@st.composite
def layouts_with_specs(draw) -> tuple[GroupedWeights, QuantSpec]:
    weights = draw(layouts())
    return weights, draw(specs(weights))


def assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# -- per-group loop references -------------------------------------------------

def loop_bounds(dim, group_size):
    bounds, lo = [], 0
    while lo < dim:
        bounds.append((lo, min(lo + group_size, dim)))
        lo += group_size
    return tuple(bounds)


def loop_step_per_weight(spec, weights):
    out = np.empty(weights.dim)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        out[lo:hi] = spec.step_for_group(g)
    return out


def loop_apply_gains(gains, v, weights):
    out = np.empty_like(v)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        out[lo:hi] = gains[g] * v[lo:hi]
    return out


def loop_calibrate_step(weights, spec, floor=1e-12):
    bounds = loop_bounds(weights.dim, weights.group_size)
    steps = np.empty(len(bounds))
    for g, (lo, hi) in enumerate(bounds):
        steps[g] = max(float(np.max(np.abs(weights.values[lo:hi]))) / spec.clip_codes, floor)
    return steps


def loop_group_sums(a, b, group_size):
    return np.array([np.einsum("ms,ms->m", a[:, lo:hi], b[:, lo:hi])
                     for lo, hi in loop_bounds(a.shape[1], group_size)])


def plain_quantize(x, spec, step):
    if spec.mode == "w1":
        return np.where(x >= 0, 1.0, -1.0) * step
    c = spec.clip_codes
    if spec.mid_rise:
        return (np.clip(np.floor(x / step), -c - 1, c) + 0.5) * step
    codes = x / step
    return np.clip(np.sign(codes) * np.floor(np.abs(codes) + 0.5), -c, c) * step


def loop_mc(weights, spec, n_samples, seed, sample, chunk_elems):
    """Mean and SEM of sample(w, r, step), one whole draw and sum per chunk of each group.

    A chunk holds max(1, chunk_elems // size) samples, the last one short.
    """
    total, total_sq = np.zeros(weights.dim), np.zeros(weights.dim)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        step = spec.step_for_group(g)
        rng = substream(seed, "dither", g)
        rows = max(1, chunk_elems // (hi - lo))
        for done in range(0, n_samples, rows):
            r = rng.uniform(-0.5 * step, 0.5 * step, size=(min(rows, n_samples - done), hi - lo))
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


class BlockColumns:
    """Stands in for a generator: hands out one group's columns of a drawn block."""

    def __init__(self, columns):
        self.columns = columns

    def normal(self, loc, scale, size):
        assert size == self.columns.shape
        return self.columns


def loop_update(weights, spec, gains, cfg, draw_key, least_squares=False,
                dither_seed=None, fixed_dither=None):
    """Gain update one group at a time; group g takes its columns of each (m, d) block."""
    shape = (cfg.num_probes, weights.dim)
    probes = substream(cfg.seed_tag, "probe", draw_key).normal(0.0, cfg.sigma, size=shape)
    estimates = np.zeros(weights.n_groups)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        step_g = spec.step_for_group(g)
        dither = None
        if fixed_dither is not None:
            dither = fixed_dither[lo:hi]
        elif dither_seed is not None:
            dither = substream(dither_seed, "dither_block", draw_key).uniform(
                -0.5 * step_g, 0.5 * step_g, size=shape)[:, lo:hi]
        args = (weights.values[lo:hi], spec, step_g, cfg.sigma, cfg.num_probes)
        cross, energy = probe_slope_samples(*args, BlockColumns(probes[:, lo:hi]), dither=dither)
        direct = loop_slope_samples(*args, BlockColumns(probes[:, lo:hi]), dither=dither)
        assert_same_bits(cross, direct[0])
        assert_same_bits(energy, direct[1])
        if least_squares:
            estimates[g] = float(cross.sum()) / float(energy.sum())
        else:
            estimates[g] = float(np.mean(cross / (energy + 1e-8)))
    rate = cfg.ema_rate
    return np.clip((1.0 - rate) * gains + rate * np.clip(estimates, 0.0, 1.0), 0.0, 1.0)


# -- properties ------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_group_layout_ops_match_loops(data):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    gains = substream(weights.dim, "gains").uniform(0.0, 1.0, weights.n_groups)
    v = substream(weights.dim, "v").normal(0.0, 1.0, weights.dim)
    assert weights.group_bounds == loop_bounds(weights.dim, weights.group_size)
    assert weights.n_groups == len(weights.group_bounds)
    assert_same_bits(weights.per_weight(spec.step), loop_step_per_weight(spec, weights))
    assert_same_bits(apply_gains(gains, v, weights),
                     loop_apply_gains(gains, v, weights))
    assert_same_bits(calibrate_step(weights, spec).step, loop_calibrate_step(weights, spec))


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 9), st.integers(0, 2**16))
@example(dim=5, group_size=8, m=3, seed=0)  # one short group
@example(dim=24, group_size=8, m=9, seed=1)  # no short group
@example(dim=7, group_size=1, m=2, seed=2)  # groups of one
def test_group_sums_match_one_einsum_per_group(dim, group_size, m, seed):
    a = substream(seed, "a").normal(0.0, 1.0, size=(m, dim))
    b = substream(seed, "b").normal(0.0, 1.0, size=(m, dim))
    for x, y in ((a, b), (b, b)):  # the cross and the energy sums of a gain update
        got = jacobian._group_sums(x, y, group_size)
        assert_same_bits(got, loop_group_sums(x, y, group_size))
        assert got.flags.c_contiguous  # the mean over probes rounds by memory order


@SETTINGS
@given(st.data(), st.sampled_from([1, 2, 8, 9]), st.integers(0, 50))
def test_gain_updates_match_per_group_probe_loop(data, num_probes, draw_key):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    cfg = ProbeConfig(sigma=0.3, num_probes=num_probes, seed_tag=draw_key + 1, ema_rate=0.7)
    gains = np.ones(weights.n_groups)
    fixed = draw_dither(weights, spec, seed=3, seed_tag=draw_key)
    pairs = [
        (probe_update(weights, spec, gains, cfg, draw_key=draw_key),
         loop_update(weights, spec, gains, cfg, draw_key)),
        (probe_ls_update(weights, spec, gains, cfg, draw_key=draw_key),
         loop_update(weights, spec, gains, cfg, draw_key, least_squares=True)),
        (dither_update(weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key),
         loop_update(weights, spec, gains, cfg, draw_key, dither_seed=5)),
        (dither_update(weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key,
                       fixed_dither=fixed),
         loop_update(weights, spec, gains, cfg, draw_key, fixed_dither=fixed)),
    ]
    for got, expected in pairs:
        assert_same_bits(got, expected)


@SETTINGS
@given(layouts_with_specs(), st.integers(1, 40), st.sampled_from([1, 2, 3, 7, 9]),
       st.integers(0, 50))
@example(layout=(GroupedWeights(np.array([0.4]), 1), QuantSpec.w2(step=0.5)), block=2,
         num_probes=7, draw_key=3)  # one weight: all 7 probes in one block
def test_gain_updates_in_probe_blocks_match_one_block(layout, block, num_probes, draw_key):
    # blocks of `block` elements: block // dim probe rows each (one when dim >= block),
    # most with a short last block
    weights, spec = layout
    cfg = ProbeConfig(sigma=0.3, num_probes=num_probes, seed_tag=draw_key + 1, ema_rate=0.7)
    gains = np.ones(weights.n_groups)
    fixed = draw_dither(weights, spec, seed=3, seed_tag=draw_key)
    with patch.object(quant, "_BLOCK_ELEMS", block):
        got = [probe_update(weights, spec, gains, cfg, draw_key=draw_key),
               probe_ls_update(weights, spec, gains, cfg, draw_key=draw_key),
               dither_update(weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key),
               dither_update(weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key,
                             fixed_dither=fixed)]
    expected = [loop_update(weights, spec, gains, cfg, draw_key),
                loop_update(weights, spec, gains, cfg, draw_key, least_squares=True),
                loop_update(weights, spec, gains, cfg, draw_key, dither_seed=5),
                loop_update(weights, spec, gains, cfg, draw_key, fixed_dither=fixed)]
    for a, b in zip(got, expected, strict=True):
        assert_same_bits(a, b)


def probe_block_of(weights, spec, cfg, draw_key):
    """The (m, d) probe block one probe_update hands to the slope kernel."""
    seen = []
    kernel = jacobian._slope_sums

    def spy(values, spec, step, deltas, *rest):
        seen.append(deltas)
        return kernel(values, spec, step, deltas, *rest)

    with patch.object(jacobian, "_slope_sums", spy):
        probe_update(weights, spec, np.ones(weights.n_groups), cfg, draw_key)
    return np.concatenate(seen)


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**16),
       st.integers(1, 4), st.booleans())
def test_draws_do_not_depend_on_group_size(dim, size_a, size_b, seed, num_probes, calibrated):
    values = substream(seed, "layout").normal(0.0, 1.0, dim)
    cfg = ProbeConfig(sigma=0.3, num_probes=num_probes, seed_tag=seed)
    blocks, units = [], []
    for size in (size_a, size_b):
        weights = GroupedWeights(values, size)
        spec = QuantSpec.w2(step=0.5)
        spec = calibrate_step(weights, spec) if calibrated else spec
        half = 0.5 * weights.per_weight(spec.step)
        blocks.append(probe_block_of(weights, spec, cfg, draw_key=seed % 7))
        units.append(next_dither(weights, spec, substream(seed, "dither_block", seed % 7),
                                 (num_probes,)) / half)
    assert_same_bits(blocks[0], blocks[1])
    assert units[0].shape == (num_probes, dim)
    # r = -h + 2h * u rounds relative to h, so only a calibrated (per-group) h moves r / h
    tolerance = 4 * np.finfo(float).eps if calibrated else 0.0
    assert np.all(np.abs(units[0] - units[1]) <= tolerance)


@SETTINGS
@given(st.data(), st.integers(0, 2**16), st.sampled_from([(), (1,), (3,)]))
def test_dither_lies_within_half_of_its_group_step(data, seed, rows):
    weights = data.draw(layouts())
    spec = calibrate_step(weights, data.draw(specs(weights)))
    r = next_dither(weights, spec, substream(seed, "dither_block", seed % 5), rows)
    assert r.shape == (*rows, weights.dim)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        assert np.all(np.abs(r[..., lo:hi]) <= 0.5 * spec.step_for_group(g))
    dither_quantize(weights, draw_dither(weights, spec, seed, seed_tag=seed % 5), spec)


def test_training_dither_is_not_the_oracle_stream():
    # the forward dither of step g must not replay the MC oracle's ("dither", g) stream
    weights = GroupedWeights(substream(3, "w").normal(0.0, 1.0, 24), group_size=24)
    spec = QuantSpec.w2(step=0.5)
    for seed, g in product((0, 1, 9), (0, 1, 2, 5)):
        forward = draw_dither(weights, spec, seed, seed_tag=g)
        oracle = substream(seed, "dither", g).uniform(-0.25, 0.25, size=(1, weights.dim))[0]
        assert not np.any(forward == oracle)


@SETTINGS
@given(st.integers(0, 2**16), st.integers(1, 40), st.integers(1, 9),
       st.sampled_from(["probe", "probe_ls", "dither"]), st.sampled_from([0.3, 0.9, 1.0]),
       st.sampled_from(["ones", "spread", "outside"]))
def test_gains_stay_within_clip_range_after_updates(seed, dim, size, kind, rate, start_kind):
    weights = GroupedWeights(substream(seed, "w").normal(0.0, 2.0, dim), size)
    spec = QuantSpec.w2(step=1.0)
    rng = substream(seed, "start")
    # "spread" straddles the clip interval [0, 1]; "outside" lies wholly beyond it
    gains = {"ones": np.ones(weights.n_groups),
             "spread": rng.uniform(-0.5, 1.5, weights.n_groups),
             "outside": rng.choice((-1.0, 1.0), weights.n_groups)
             * rng.uniform(1.01, 3.0, weights.n_groups)}[start_kind]
    update = {"probe": probe_update, "probe_ls": probe_ls_update,
              "dither": lambda *a, **k: dither_update(*a, dither_seed=seed, **k)}[kind]
    cfg = ProbeConfig(sigma=0.5, seed_tag=seed, ema_rate=rate)
    for t in range(3):
        gains = update(weights, spec, gains, cfg, draw_key=t)
        assert np.all(gains >= 0.0) and np.all(gains <= 1.0)


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
@given(st.data(), st.integers(1, 40), st.integers(1, 64), st.integers(1, 120))
def test_mc_oracles_match_whole_chunk_reference(data, block, chunk, n_samples):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    eps = 0.05

    def dedithered(w, r, step):
        return plain_quantize(w + r, spec, step) - r

    def slope(w, r, step):
        return (plain_quantize(w + eps + r, spec, step)
                - plain_quantize(w - eps + r, spec, step)) / (2.0 * eps)

    # Row blocks of `block` elements within chunks of `chunk` elements: several chunks,
    # most with a short last block and many with a short last chunk; a width-1 group
    # sums each chunk whole.
    with (patch.object(quant, "_BLOCK_ELEMS", block),
          patch.object(quant, "_MC_CHUNK_ELEMS", chunk)):
        got = [mean_field(weights, spec, n_samples, seed=4, return_sem=True),
               mean_field_sensitivity(weights, spec, probe_eps=eps, n_samples=n_samples,
                                      seed=4, return_sem=True)]
    expected = [loop_mc(weights, spec, n_samples, 4, dedithered, chunk),
                loop_mc(weights, spec, n_samples, 4, slope, chunk)]
    for (mean, sem), (mean_ref, sem_ref) in zip(got, expected):
        assert_same_bits(mean, mean_ref)
        assert_same_bits(sem, sem_ref)


def slope_reference(spec, eps):
    """The slope sample in plain arithmetic; eps None is each group's step / 100."""
    def slope(w, r, step):
        e = step / 100.0 if eps is None else eps
        return (plain_quantize(w + e + r, spec, step)
                - plain_quantize(w - e + r, spec, step)) / (2.0 * e)
    return slope


def with_drawn_groups(call):
    """``call()``'s result and the groups g whose ("dither", g) stream it opened, in order."""
    drawn = []

    def counted(seed, label, *key):
        if label == "dither":
            drawn.append(*key)
        return substream(seed, label, *key)

    with patch.object(quant, "substream", counted):
        return call(), drawn


W1_CALIBRATED = [1.0, -0.9, 0.8, 0.1, 0.2, -0.05, 0.0]

# (values, group_size, spec, probe_eps, groups drawn). A w2 weight of step 0.5 with
# eps 0.07 is frozen from |w| >= 0.57 on; the w1 ones of step s from |w| > s / 2 + eps.
# eps 0.07 makes slope samples whose sums round, so a sum in another order shows.
FROZEN_CASES = [
    pytest.param([2.0, 0.1, -3.0, 1.5], 4, QuantSpec.w2(step=0.5), 0.07, [0],
                 id="one-live-weight-padded"),
    pytest.param([0.1, 0.2, 2.0, -2.0, 0.0, 0.3], 2, QuantSpec.w2(step=0.5), 0.07, [0, 2],
                 id="group-without-live-weight"),
    pytest.param([0.1, 5.0, -0.2], 1, QuantSpec.w2(step=0.5), 0.07, [0, 2],
                 id="saturated-group-of-one"),
    # w = c * step = 0.9 reads both sides of the last threshold: live, beside a frozen 5.0
    pytest.param([0.9, 5.0, -0.9, -5.0], 2, QuantSpec.generic(3, step=0.3), None, [0, 1],
                 id="clip-knee-stays-live"),
    # codes saturate at x >= 1.5 and x < -1.5; the ends reach 0.32 further
    pytest.param([3.0, -3.0, 0.2, 2.6, -2.6, 2.7, 1.7, -1.9, 1.6], 3,
                 QuantSpec.generic(3, step=0.5, mid_rise=True), 0.07, [0, 2],
                 id="mid-rise-at-saturation"),
    pytest.param([1.0, -0.7, 0.1, 0.9, -2.0], 2, QuantSpec.w1(step=0.5), 0.07, [1],
                 id="w1-at-saturation"),
    # steps 1.0, 0.2 and the 1e-12 floor: the first group is frozen whole
    pytest.param(W1_CALIBRATED, 3, calibrate_step(GroupedWeights(np.array(W1_CALIBRATED), 3),
                                                  QuantSpec.w1()), None, [1, 2],
                 id="calibrated-per-group-steps"),
]


@pytest.mark.parametrize("values,group_size,spec,eps,drawn", FROZEN_CASES)
def test_frozen_weights_keep_the_whole_chunk_reference_bits(values, group_size, spec, eps, drawn):
    weights = GroupedWeights(np.array(values), group_size)
    # blocks of 64 elements in chunks of 256: several chunks of several blocks, and blocks
    # of 8 rows or more, which numpy would sum pairwise as one column
    with (patch.object(quant, "_BLOCK_ELEMS", 64),
          patch.object(quant, "_MC_CHUNK_ELEMS", 256)):
        (mean, sem), groups = with_drawn_groups(lambda: mean_field_sensitivity(
            weights, spec, probe_eps=eps, n_samples=600, seed=4, return_sem=True))
    mean_ref, sem_ref = loop_mc(weights, spec, 600, 4, slope_reference(spec, eps), 256)
    assert groups == drawn
    assert_same_bits(mean, mean_ref)
    assert_same_bits(sem, sem_ref)


def test_an_all_frozen_layout_draws_no_dither():
    weights = GroupedWeights(np.array([3.0, -2.0, 0.8, -5.0, 1.2]), 2)
    spec = QuantSpec.w2(step=0.5)
    (mean, sem), groups = with_drawn_groups(lambda: mean_field_sensitivity(
        weights, spec, probe_eps=0.05, n_samples=30, seed=4, return_sem=True))
    assert groups == []
    mean_ref, sem_ref = loop_mc(weights, spec, 30, 4, slope_reference(spec, 0.05),
                                quant._MC_CHUNK_ELEMS)
    for got, ref in ((mean, mean_ref), (sem, sem_ref)):
        assert_same_bits(got, np.zeros(5))
        assert_same_bits(got, ref)


def test_a_weight_whose_dither_ends_overflow_is_sampled():
    # (w + eps) + step / 2 overflows for w = 1.7e308 and step 2e307 (the low end for -w):
    # the weight stays live, so a draw that overflows raises as any sampled weight does
    spec = QuantSpec.w1(step=2e307)
    for w in (1.7e308, -1.7e308):
        weights = GroupedWeights(np.array([w]), 1)
        with np.errstate(over="ignore"):
            # five draws that stay finite: the reference's bits
            mean, sem = mean_field_sensitivity(weights, spec, probe_eps=0.05, n_samples=5,
                                               seed=4, return_sem=True)
            mean_ref, sem_ref = loop_mc(weights, spec, 5, 4, slope_reference(spec, 0.05),
                                        quant._MC_CHUNK_ELEMS)
            with pytest.raises(ValueError, match="non-finite weight"):
                mean_field_sensitivity(weights, spec, probe_eps=0.05, n_samples=1000, seed=4)
        assert_same_bits(mean, mean_ref)
        assert_same_bits(sem, sem_ref)


@SETTINGS
@given(layouts(), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_apply_gains_is_linear_in_v(weights, a, b):
    gains = substream(weights.dim, "gains").uniform(0, 1, weights.n_groups)
    v1 = substream(weights.dim, "v1").normal(0.0, 1.0, weights.dim)
    v2 = substream(weights.dim, "v2").normal(0.0, 1.0, weights.dim)
    combined = apply_gains(gains, a * v1 + b * v2, weights)
    separate = a * apply_gains(gains, v1, weights) + b * apply_gains(gains, v2, weights)
    assert np.allclose(combined, separate, rtol=1e-12, atol=1e-12)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(database=None, derandomize=True)
@given(st.integers(0, 100))
def test_fails(x):
    assert x < 50
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # with warnings as errors, a deprecation raised while Hypothesis reports a failure
    # would abort the session (exit 3) before the example is printed
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config), "--rootdir",
                          str(tmp_path), "-p", "no:cacheprovider", "-q", "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
