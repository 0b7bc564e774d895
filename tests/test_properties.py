"""Property tests: group-axis array ops against per-group loop references.

The loop references below restate the per-group definitions one group at
a time, walking the groups of group_size from the start of the vector.
The array versions must match them bit for bit over random layouts
(dim, group_size), including a single short group, groups that divide
dim exactly and groups of one weight. The grid rule and the Monte-Carlo
mean-field map are checked the same way against a plain restatement that
draws and sums all samples in one go with fresh arrays, and the closed-form
sensitivity against a midpoint-rule average of its slope samples. Each
gain update or dither draw is one block from one stream, so the draws
must not depend on the group layout, and the dither stays within half of
each group's step. A gain update drawn and used in blocks of probe or dither rows must match the
one-block loop reference bit for bit, at probe scales from 5e-324 to 1e300. A hard
update's probe rows must be normal(0, sigma)'s, up to the sign of a zero; a dithered
one draws no probes, takes a central difference per dither row, and its mean slope
is unbiased for the closed-form central-difference oracle. A failing property, run under this repo's pytest settings, reports its
falsifying example.
"""

from __future__ import annotations

import dataclasses
import functools
import subprocess
import sys
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
        out[lo:hi] = float(spec.step[g]) if spec.per_group else float(spec.step)
    return out


def loop_apply_gains(gains, v, weights):
    out = np.empty_like(v)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        out[lo:hi] = gains[g] * v[lo:hi]
    return out


def loop_calibrate_step(weights, spec):
    bounds = loop_bounds(weights.dim, weights.group_size)
    steps = np.empty(len(bounds))
    for g, (lo, hi) in enumerate(bounds):
        steps[g] = max(float(np.max(np.abs(weights.values[lo:hi]))) / spec.clip_codes, 1e-12)
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


def one_draw_mc(weights, spec, n_samples, seed):
    """Mean and SEM of the de-dithered proxy over one (n_samples, dim) draw of ("dither",)."""
    step = loop_step_per_weight(spec, weights)
    r = substream(seed, "dither").uniform(-0.5 * step, 0.5 * step, size=(n_samples, weights.dim))
    s = plain_quantize(weights.values + r, spec, step) - r
    mean = s.sum(axis=0) / n_samples
    return mean, np.sqrt(np.maximum((s * s).sum(axis=0) / n_samples - mean * mean, 0.0) / n_samples)


def loop_slope_samples(w, spec, step, deltas):
    base = quantize_array(w, spec, step=step)[None, :]
    shifted = quantize_array(w[None, :] + deltas, spec, step=step)
    dq = shifted - base
    return np.einsum("ij,ij->i", dq, deltas), np.einsum("ij,ij->i", deltas, deltas)


def loop_central_differences(w, spec, step, dither, sigma):
    """One group's dithered slope sums, one per (rows, n) dither row r.

    cross is sum sigma * (Q(w + sigma + r) - Q(w - sigma + r)) / 2 and energy sum sigma^2,
    the mean of a +-sigma sign probe's sums given r.
    """
    dq = (quantize_array((w + sigma)[None, :] + dither, spec, step=step)
          - quantize_array((w - sigma)[None, :] + dither, spec, step=step))
    sigmas = np.full(dq.shape, sigma)
    return np.einsum("ij,ij->i", sigmas, dq) * 0.5, np.einsum("ij,ij->i", sigmas[:1], sigmas[:1])


class BlockColumns:
    """Stands in for a generator: hands out one group's columns of the stream's standard
    normals, which the code under test scales itself."""

    def __init__(self, unit):
        self.unit = unit

    def standard_normal(self, out):
        out[...] = self.unit
        return out


def loop_update(weights, spec, gains, cfg, draw_key, least_squares=False,
                dither_seed=None, fixed_dither=None):
    """Gain update one group at a time; group g takes its columns of each (m, d) block.

    A hard update's probes are drawn with normal(0, sigma); sigma is the config's or
    half the smallest group step. A dithered one's slope sums are
    ``loop_central_differences`` of its dither rows: the (m, d) block of the
    (dither_seed, "dither_block", draw_key) stream, or the one fixed row.
    A zero least-squares denominator raises.
    """
    shape = (cfg.num_probes, weights.dim)
    sigma = 0.5 * float(np.min(spec.step)) if cfg.probe_sigma is None else cfg.probe_sigma
    dithered = dither_seed is not None or fixed_dither is not None
    if not dithered:
        probes = substream(cfg.seed, "probe", draw_key).normal(0.0, sigma, size=shape)
        unit = substream(cfg.seed, "probe", draw_key).standard_normal(shape)
    estimates = np.zeros(weights.n_groups)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        step_g = float(spec.step[g]) if spec.per_group else float(spec.step)
        if fixed_dither is not None:
            dither = fixed_dither[None, lo:hi]
        elif dither_seed is not None:
            dither = substream(dither_seed, "dither_block", draw_key).uniform(
                -0.5 * step_g, 0.5 * step_g, size=shape)[:, lo:hi]
        if dithered:
            cross, energy = loop_central_differences(weights.values[lo:hi], spec, step_g,
                                                     dither, sigma)
        else:
            cross, energy = loop_slope_samples(weights.values[lo:hi], spec, step_g,
                                               probes[:, lo:hi])
            # the kernel on this group alone draws the same columns
            group = GroupedWeights(weights.values[lo:hi], hi - lo)
            kernel = probe_slope_samples(group, dataclasses.replace(spec, step=step_g), sigma,
                                         cfg.num_probes, BlockColumns(unit[:, lo:hi]))
            assert_same_bits(kernel[0][0], cross)
            assert_same_bits(kernel[1][0], energy)
        if least_squares:
            if float(energy.sum()) == 0.0:
                raise ValueError("zero excitation")
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
    row = b[:1]  # one row meets every row of the other block, as m copies of it would
    for x, y, expected in ((a, b, loop_group_sums(a, b, group_size)),  # a gain update's cross
                           (b, b, loop_group_sums(b, b, group_size)),  # and energy sums
                           (a, row, loop_group_sums(a, np.repeat(row, m, axis=0), group_size)),
                           (row, row, loop_group_sums(row, row, group_size))):
        got = jacobian._group_sums(x, y, group_size)
        assert_same_bits(got, expected)
        assert got.flags.c_contiguous  # the mean over probes rounds by memory order


@SETTINGS
@given(st.data(), st.sampled_from([1, 2, 8, 9]), st.integers(0, 50))
def test_gain_updates_match_per_group_probe_loop(data, num_probes, draw_key):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    cfg = ProbeConfig(probe_sigma=0.3, num_probes=num_probes, seed=draw_key + 1, ema_rate=0.7)
    gains = np.ones(weights.n_groups)
    fixed = draw_dither(weights, spec, seed=3, draw_key=draw_key)
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


def assert_normal_bits_up_to_zero_signs(block, reference):
    """``block`` has ``reference``'s bits, except that a -0.0 may stand for a +0.0."""
    differ = block.view(np.uint64) != reference.view(np.uint64)
    assert np.all((block[differ] == 0.0) & np.signbit(block[differ]))
    assert np.all(reference[differ].view(np.uint64) == 0)  # +0.0
    return differ


def outcome(update, *args, **kwargs):
    """An update's gains as bytes, or the message of the ValueError it raises."""
    try:
        return update(*args, **kwargs).tobytes()
    except ValueError as exc:
        return str(exc)


# The probe block is sigma * z, scaled in place, where normal(0, sigma) computes
# 0.0 + sigma * z: the two differ only where sigma * z is -0.0, which the sum makes
# +0.0. Such a signed zero cannot reach the gains. Where a probe entry is a zero,
# values + delta differs from the reference's input at most in the sign
# of a zero, which no grid level depends on (the identity grid maps a zero to
# itself), so dq there is a zero too. The entry then enters the gains only through
# delta * dq and delta * delta, zeros that the group sums add to einsum's +0.0
# start without changing a bit; nothing divides by a probe entry.
# 5e-324 makes most products round to a zero; None is half the smallest step.
PROBE_SIGMAS = [5e-324, 1e-300, 0.3, 1e300, None]


@SETTINGS
@given(layouts_with_specs(), st.integers(1, 40), st.sampled_from([1, 2, 3, 7, 9]),
       st.integers(0, 50), st.integers(0, 2**16), st.sampled_from(PROBE_SIGMAS))
@example(layout=(GroupedWeights(np.array([0.4]), 1), QuantSpec.w2(step=0.5)), block=2,
         num_probes=7, draw_key=3, seed=4, sigma=0.3)  # one weight: all 7 probes in one block
@example(layout=(GroupedWeights(substream(5, "w").normal(0.0, 1.0, 40), 8), QuantSpec.w2(0.5)),
         block=40, num_probes=9, draw_key=2, seed=3, sigma=5e-324)  # nine one-row blocks
def test_gain_updates_in_probe_blocks_match_one_block(layout, block, num_probes, draw_key, seed,
                                                      sigma):
    # blocks of `block` elements: block // dim probe rows each (one when dim >= block),
    # most with a short last block; the drawn rows are normal(0, sigma)'s, zero signs aside
    weights, spec = layout
    cfg = ProbeConfig(probe_sigma=sigma, num_probes=num_probes, seed=seed, ema_rate=0.7)
    gains = substream(seed, "start").uniform(0.0, 1.0, weights.n_groups)
    fixed = draw_dither(weights, spec, seed=3, draw_key=draw_key)
    with patch.object(quant, "_BLOCK_ELEMS", block):
        drawn = probe_block_of(weights, spec, cfg, draw_key)
        got = [outcome(probe_update, weights, spec, gains, cfg, draw_key=draw_key),
               outcome(probe_ls_update, weights, spec, gains, cfg, draw_key=draw_key),
               outcome(dither_update, weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key),
               outcome(dither_update, weights, spec, gains, cfg, dither_seed=5, draw_key=draw_key,
                       fixed_dither=fixed)]
    scale = 0.5 * float(np.min(spec.step)) if sigma is None else sigma
    reference = substream(seed, "probe", draw_key).normal(0.0, scale, (num_probes, weights.dim))
    differ = assert_normal_bits_up_to_zero_signs(drawn, reference)
    if sigma == 5e-324 and drawn.size >= 128:  # each entry is a -0.0 with probability 0.19
        assert differ.any()  # the exception is taken, not only allowed
    expected = [outcome(loop_update, weights, spec, gains, cfg, draw_key),
                outcome(loop_update, weights, spec, gains, cfg, draw_key, least_squares=True),
                outcome(loop_update, weights, spec, gains, cfg, draw_key, dither_seed=5),
                outcome(loop_update, weights, spec, gains, cfg, draw_key, fixed_dither=fixed)]
    assert got == expected


def probe_block_of(weights, spec, cfg, draw_key):
    """The (m, d) probe block one hard update draws, block by block."""
    seen = []
    draw_probes = jacobian._draw_probes

    def probes_spy(rng, sigma, out):
        seen.append(draw_probes(rng, sigma, out).copy())  # each block reuses one buffer
        return out

    with patch.object(jacobian, "_draw_probes", probes_spy):
        probe_update(weights, spec, np.ones(weights.n_groups), cfg, draw_key=draw_key)
    return np.concatenate(seen)


def per_probe_dither(*args, **kwargs):
    return dither_update(*args, dither_seed=5, **kwargs)


# groups of 64: dims with a short last group of 4 or 1, or none
@pytest.mark.parametrize("dim", [4100, 4096, 65])
@pytest.mark.parametrize("rows_per_block", [1, 3, 8])
@pytest.mark.parametrize("sigma", [5e-324, 0.3, 1e300])
def test_dither_rows_in_row_blocks_match_one_block(dim, rows_per_block, sigma):
    # 8 dither rows in blocks of 1, 3 (3 + 3 + 2) or all 8: consecutive draws give one
    # whole block's rows, and each row's central difference is its own column, so split
    # blocks give the one-block loop reference's gains bit for bit
    weights = GroupedWeights(substream(dim, "w").normal(0.0, 1.0, dim), 64)
    spec = QuantSpec.w2(step=0.5)
    cfg = ProbeConfig(probe_sigma=sigma, num_probes=8, seed=7, ema_rate=0.7)
    gains = substream(dim, "start").uniform(0.0, 1.0, weights.n_groups)
    drawn = []

    def dither_spy(*args):
        drawn.append(next_dither(*args))
        return drawn[-1]

    with (patch.object(quant, "_BLOCK_ELEMS", rows_per_block * dim),
          patch.object(jacobian, "next_dither", dither_spy)):
        got = per_probe_dither(weights, spec, gains, cfg, draw_key=2)
    assert [len(rows) for rows in drawn] == [len(range(8)[a:a + rows_per_block])
                                             for a in range(0, 8, rows_per_block)]
    one_draw = next_dither(weights, spec, substream(5, "dither_block", 2), (8,))
    assert_same_bits(np.concatenate(drawn), one_draw)
    assert_same_bits(got, loop_update(weights, spec, gains, cfg, 2, dither_seed=5))


@pytest.mark.parametrize("num_probes", [1, 8, 300])
def test_a_fixed_dither_update_does_not_read_num_probes(num_probes):
    # one fixed row is one central difference: any probe count, in blocks of 7 rows or one
    # block, gives the loop reference's one-row gains bit for bit. 70 w1 weights in groups
    # of 32 end on a short group of 6
    weights = GroupedWeights(substream(70, "w").normal(0.0, 1.0, 70), 32)
    spec = QuantSpec.w1(step=0.5)
    gains = substream(70, "start").uniform(0.0, 1.0, weights.n_groups)
    fixed = draw_dither(weights, spec, seed=3, draw_key=1)
    expected = loop_update(weights, spec, gains, ProbeConfig(probe_sigma=0.3, seed=2,
                                                             ema_rate=0.7), 1, fixed_dither=fixed)
    cfg = ProbeConfig(probe_sigma=0.3, num_probes=num_probes, seed=2, ema_rate=0.7)
    for rows in (7, num_probes):
        with patch.object(quant, "_BLOCK_ELEMS", rows * weights.dim):
            got = per_probe_dither(weights, spec, gains, cfg, draw_key=1, fixed_dither=fixed)
        assert_same_bits(got, expected)


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**16),
       st.integers(1, 4), st.booleans())
def test_draws_do_not_depend_on_group_size(dim, size_a, size_b, seed, num_probes, calibrated):
    values = substream(seed, "layout").normal(0.0, 1.0, dim)
    cfg = ProbeConfig(probe_sigma=0.3, num_probes=num_probes, seed=seed)
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


def estimates_before_clip(update, weights, spec, cfg, draw_key):
    """An update's per-group estimates, the mean of its per-column slope fits, unclipped.

    A fixed dither's kernel returns one column.
    """
    sums = []
    kernel = jacobian.probe_slope_samples

    def spy(*args):
        sums.append(kernel(*args))
        return sums[-1]

    with patch.object(jacobian, "probe_slope_samples", spy):
        update(weights, spec, np.ones(weights.n_groups), cfg, draw_key=draw_key)
    (cross, energy), = sums
    return (cross / (energy + jacobian._REG_EPS)).sum(axis=1) / cross.shape[1]


def mixed_groups(spec, sigma, insides, seed):
    """Groups of 24 weights: ``inside`` deep in the box of ``mean_field_sensitivity``,
    12 just outside its edge, within 1.5 sigma, the rest saturated.

    Near the edge the central difference of the dither-smoothed map reads less
    than a Gaussian smoothing of it would: 0 from sigma outward, where a
    Gaussian-probe estimate still reads 0.16 of the box height.
    """
    step = float(spec.step)
    a = 0.5 * step if spec.mode == "w1" else step * spec.clip_codes
    rng = substream(seed, "mixed")
    groups = []
    for inside in insides:
        outside = 12 - inside
        groups += [rng.uniform(-(a - sigma), a - sigma, inside),
                   rng.choice((-1.0, 1.0), 12) * rng.uniform(a, a + 1.5 * sigma, 12),
                   rng.choice((-1.0, 1.0), outside) * rng.uniform(a + sigma, a + 4 * step, outside)]
    return GroupedWeights(np.concatenate(groups), 24)


# the w1 box has height 2, so its groups hold fewer interior weights
@pytest.mark.parametrize("spec,sigma,insides", [(QuantSpec.w2(step=1.0), 0.25, (2, 6, 10)),
                                                (QuantSpec.w1(step=0.5), 0.1, (1, 3, 5))],
                         ids=["w2", "w1"])
@pytest.mark.parametrize("fixed", [False, True], ids=["per-probe-dither", "fixed-dither"])
def test_dithered_estimate_is_unbiased_for_the_central_difference_oracle(spec, sigma, insides,
                                                                         fixed):
    # over the dither, a row's central difference has the mean
    # (Qbar(w + sigma) - Qbar(w - sigma)) / (2 sigma): mean_field_sensitivity(probe_eps=sigma)
    weights = mixed_groups(spec, sigma, insides, seed=1)
    oracle = mean_field_sensitivity(weights, spec, probe_eps=sigma)
    target = np.array([oracle[lo:hi].mean() for lo, hi in weights.group_bounds])
    assert np.all((target > 0.1) & (target < 0.9))  # inside the gains' range [0, 1]
    cfg = ProbeConfig(probe_sigma=sigma, num_probes=4, seed=2)
    draws = []
    for t in range(1024):  # a fresh forward dither per draw key, as a training step draws it
        kwargs = {"fixed_dither": draw_dither(weights, spec, 3, draw_key=t)} if fixed else {}
        draws.append(estimates_before_clip(functools.partial(per_probe_dither, **kwargs),
                                           weights, spec, cfg, t))
    draws = np.array(draws)
    sem = draws.std(axis=0, ddof=1) / np.sqrt(len(draws))
    assert np.all(np.abs(draws.mean(axis=0) - target) <= 4 * sem)


@SETTINGS
@given(st.data(), st.integers(0, 2**16), st.sampled_from([(), (1,), (3,)]))
def test_dither_lies_within_half_of_its_group_step(data, seed, rows):
    weights = data.draw(layouts())
    spec = calibrate_step(weights, data.draw(specs(weights)))
    r = next_dither(weights, spec, substream(seed, "dither_block", seed % 5), rows)
    assert r.shape == (*rows, weights.dim)
    for g, (lo, hi) in enumerate(loop_bounds(weights.dim, weights.group_size)):
        step = float(spec.step[g]) if spec.per_group else float(spec.step)
        assert np.all(np.abs(r[..., lo:hi]) <= 0.5 * step)
    dither_quantize(weights, draw_dither(weights, spec, seed, draw_key=seed % 5), spec)


def test_training_dither_is_not_the_oracle_stream():
    # no step's forward dither may replay the MC oracle's ("dither",) stream
    weights = GroupedWeights(substream(3, "w").normal(0.0, 1.0, 24), group_size=24)
    spec = QuantSpec.w2(step=0.5)
    for seed in (0, 1, 9):
        oracle = next_dither(weights, spec, substream(seed, "dither"), ())
        for step in (0, 1, 2, 5):
            assert not np.any(draw_dither(weights, spec, seed, draw_key=step) == oracle)


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
    cfg = ProbeConfig(probe_sigma=0.5, seed=seed, ema_rate=rate)
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
    assert_same_bits(quantize_array(x, spec, spec.step), plain_quantize(x, spec, float(spec.step)))
    scalar = quantize_array(values[0], spec, spec.step)
    assert isinstance(scalar, np.float64)
    assert_same_bits(scalar, plain_quantize(np.float64(values[0]), spec, float(spec.step)))


@SETTINGS
@given(st.data(), st.integers(1, 40), st.integers(1, 120))
def test_mean_field_matches_one_draw_reference(data, block, n_samples):
    weights = data.draw(layouts())
    spec = data.draw(specs(weights))
    # row blocks of `block` elements: most passes end on a short block, and width 1 sums whole
    with patch.object(quant, "_BLOCK_ELEMS", block):
        mean, sem = mean_field(weights, spec, n_samples, seed=4)
    mean_ref, sem_ref = one_draw_mc(weights, spec, n_samples, 4)
    assert_same_bits(mean, mean_ref)
    assert_same_bits(sem, sem_ref)


@SETTINGS
@given(layouts(), st.sampled_from(GRID_SPECS), st.integers(1, 12), st.integers(1, 120))
def test_mean_field_bits_do_not_depend_on_group_size(weights, spec, group_size, n_samples):
    # with one scalar step the group layout changes no draw and no sample
    regrouped = GroupedWeights(weights.values, group_size)
    for got, expected in zip(mean_field(regrouped, spec, n_samples, seed=6),
                             mean_field(weights, spec, n_samples, seed=6)):
        assert_same_bits(got, expected)


# Midpoint grid of the exactness reference. Over r in (-step/2, step/2) the slope
# sample (Q(w + eps + r) - Q(w - eps + r)) / (2 eps) is a step function of r: each Q
# term crosses at most one threshold, since thresholds lie a step apart, and a jump
# is at most h * step / (2 eps). The cell holding a jump misses its exact mean by at
# most the jump / MIDPOINTS, rounding at the threshold included, so the grid average
# misses the exact mean by at most h * step / (eps * MIDPOINTS).
MIDPOINTS = 2**16


def midpoint_slope(w, spec, step, eps):
    """The slope sample's mean over the midpoint grid of dither values."""
    r = ((np.arange(MIDPOINTS) + 0.5) / MIDPOINTS - 0.5) * step
    q = (lambda x: x) if spec.mode == "identity" else (lambda x: plain_quantize(x, spec, step))
    return float(np.mean((q(w + eps + r) - q(w - eps + r)) / (2.0 * eps)))


def box(spec, step):
    """(height h, half-width a) of the dither-smoothed slope; identity has no edge."""
    if spec.mode == "identity":
        return 1.0, np.inf
    if spec.mode == "w1":
        return 2.0, 0.5 * step
    return 1.0, step * (spec.clip_codes + 0.5 * spec.mid_rise)


EXACT_SPECS = [QuantSpec.w2(step=0.5), QuantSpec.w2(step=0.5, mid_rise=True),
               QuantSpec.generic(3, step=0.3), QuantSpec.generic(3, step=0.3, mid_rise=True),
               QuantSpec.ternary(step=1.0), QuantSpec.w1(step=0.5), QuantSpec.identity(),
               QuantSpec.generic(3, step=np.array([0.5, 0.8, 1.1] * 2)),
               QuantSpec.w1(step=np.array([1.0, 0.2] * 3))]


@pytest.mark.parametrize(
    "spec", EXACT_SPECS, ids=lambda s: s.mode + "-mid-rise" * s.mid_rise + "-per-group" * s.per_group)
@pytest.mark.parametrize("eps_steps", [None, 0.1, 0.7, 2.5],
                         ids=["default-eps", "tenth-step", "above-half-step", "wide"])
def test_sensitivity_is_the_midpoint_mean_of_its_slope_samples(spec, eps_steps):
    # eps_steps scales the smallest step into one probe_eps; None is step/100 per weight
    probe_eps = None if eps_steps is None else eps_steps * float(np.min(spec.step))
    # six groups of three around the box edge a: +/-0, the knee +/-a, windows across it,
    # one that only touches it, and deep saturation
    values = []
    for g in range(6):
        step = float(spec.step[g]) if spec.per_group else float(spec.step)
        _, a = box(spec, step)
        a = 3.0 * step if a == np.inf else a
        e = step / 100.0 if probe_eps is None else probe_eps
        values += [[0.0, -0.0, 0.3 * a], [a, -a, a - e / 2], [a + e / 2, -a - e / 2, a - e],
                   [a + e, -a - e, 0.5 * a], [4.0 * a + 3 * e, -5.0 * a - 3 * e, 0.9 * a],
                   [a + 2 * e, -(a - e / 3), -0.0]][g]
    weights = GroupedWeights(np.array(values), 3)
    got = mean_field_sensitivity(weights, spec, probe_eps=probe_eps)
    for w, step, j in zip(weights.values, weights.per_weight(spec.step), got):
        e = step / 100.0 if probe_eps is None else probe_eps
        h, a = box(spec, step)
        assert abs(j - midpoint_slope(w, spec, step, e)) <= h * step / (e * MIDPOINTS) + 1e-12
        if abs(w) + e <= a:  # a window inside the box: exactly h
            assert j == h
        elif abs(w) - e >= a:  # one outside it: exactly +0.0
            assert np.float64(j).tobytes() == np.float64(0.0).tobytes()


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
