"""Property tests of the hard quantizer over every mode, mid-rise and per-group steps.

For each spec and random weights: every output lies on its weight's grid
(code in range), quantizing twice changes nothing, the map is monotone
for a fixed step, and it is odd, q(-x) = -q(x), except at 0 for the sign
grid (sign(0) = +1) and at exact bin edges of a mid-rise grid, where
floor() sends both signs to the upper bin. The multi-level grids also
give the bits of their rule written out, signed zeros included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qatlab.quant import GroupedWeights, QuantSpec, calibrate_step, quantize, quantize_array

SETTINGS = settings(max_examples=60, deadline=None)

VALUES = st.floats(-6.0, 6.0) | st.sampled_from([-0.0, 0.0, 0.25, -0.25, 0.5, -0.5, 1.5, -1.5])


@st.composite
def cases(draw) -> tuple[GroupedWeights, QuantSpec]:
    """Weights with a spec of any mode; steps scalar, calibrated or random per group."""
    values = np.array(draw(st.lists(VALUES, min_size=1, max_size=30)))
    size = draw(st.integers(1, 8))
    weights = GroupedWeights(values, size)
    step = draw(st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    mid_rise = draw(st.booleans())
    spec = draw(st.sampled_from([
        QuantSpec.generic(draw(st.integers(2, 5)), step=step, mid_rise=mid_rise),
        QuantSpec.w2(step=step, mid_rise=mid_rise),
        QuantSpec.ternary(step=step),
        QuantSpec.w1(step=step),
        QuantSpec.identity(step=step),
    ]))
    steps = draw(st.sampled_from(["scalar", "calibrated", "random"]))
    if steps == "calibrated":
        spec = calibrate_step(weights, spec)
    elif steps == "random":
        spec = QuantSpec(step=np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.7, 2.0]),
                                                     min_size=weights.n_groups,
                                                     max_size=weights.n_groups))),
                         clip_codes=spec.clip_codes, mode=spec.mode,
                         mid_rise=spec.mid_rise)
    return weights, spec


def on_grid(q: np.ndarray, x: np.ndarray, spec: QuantSpec, step: np.ndarray) -> np.ndarray:
    """Whether each output is a representable level of its weight's grid."""
    c = spec.clip_codes
    if spec.mode == "identity":
        return q == x
    if spec.mode == "w1":
        return np.abs(q) == step
    if spec.mid_rise:
        k = np.round(q / step - 0.5)
        return (q == (k + 0.5) * step) & (k >= -c - 1) & (k <= c)
    k = np.round(q / step)
    return (q == k * step) & (np.abs(k) <= c)


@SETTINGS
@given(cases())
def test_outputs_lie_on_the_grid(case):
    weights, spec = case
    step = weights.per_weight(spec.step)
    q = quantize(weights, spec)
    assert np.all(on_grid(q, weights.values, spec, step))


@SETTINGS
@given(cases())
def test_quantize_is_idempotent(case):
    weights, spec = case
    q = quantize(weights, spec)
    assert np.array_equal(quantize(weights.with_values(q), spec), q)


@SETTINGS
@given(cases(), st.data())
def test_quantize_is_monotone(case, data):
    weights, spec = case
    other = np.array(data.draw(st.lists(VALUES, min_size=weights.dim, max_size=weights.dim)))
    lo, hi = np.minimum(weights.values, other), np.maximum(weights.values, other)
    step = weights.per_weight(spec.step)
    assert np.all(quantize_array(lo, spec, step=step) <= quantize_array(hi, spec, step=step))


@SETTINGS
@given(cases())
def test_quantize_is_odd(case):
    weights, spec = case
    x = weights.values
    step = weights.per_weight(spec.step)
    skip = np.zeros(x.size, dtype=bool)
    if spec.mode == "w1":
        skip = x == 0.0
    elif spec.mid_rise:
        skip = (x / step) == np.floor(x / step)
    q, q_neg = quantize(weights, spec), quantize(weights.with_values(-x), spec)
    assert np.array_equal(q_neg[~skip], -q[~skip])


def written_out_rule(x: np.ndarray, spec: QuantSpec, step: np.ndarray) -> np.ndarray:
    """sign * floor(|x / s| + 0.5) clipped to +/-c (mid-tread), or floor(x / s) clipped
    to [-c - 1, c] plus a half (mid-rise); times s."""
    c, codes = spec.clip_codes, x / step
    if spec.mid_rise:
        return (np.clip(np.floor(codes), -c - 1, c) + 0.5) * step
    return np.clip(np.sign(codes) * np.floor(np.abs(codes) + 0.5), -c, c) * step


# What each weight is drawn as, in units of its own step s (c: the spec's clip codes).
KINDS = ("any", "+0.0", "-0.0", "tiny negative", "half step", "+c step", "-c step")


@st.composite
def multi_level_cases(draw) -> tuple[np.ndarray, QuantSpec, np.ndarray, list[str]]:
    """Values, a generic/w2/ternary spec, each value's step and each value's kind."""
    dim = draw(st.integers(1, 30))
    group_size = draw(st.integers(1, 8))
    mid_rise = draw(st.booleans())
    spec = draw(st.sampled_from([
        QuantSpec.generic(draw(st.integers(2, 5)), mid_rise=mid_rise),
        QuantSpec.w2(mid_rise=mid_rise),
        QuantSpec.ternary(),
    ]))
    n_groups = -(-dim // group_size)
    if draw(st.booleans()):  # one step per group
        step = np.array(draw(st.lists(st.sampled_from([0.1, 0.25, 0.3, 0.7, 2.0]),
                                      min_size=n_groups, max_size=n_groups)))
    else:
        step = draw(st.sampled_from([0.25, 0.3, 1.0]))
    spec = QuantSpec(step=step, clip_codes=spec.clip_codes, mode=spec.mode, mid_rise=spec.mid_rise)
    per_weight = GroupedWeights(np.zeros(dim), group_size).per_weight(spec.step)
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=dim, max_size=dim))
    c = spec.clip_codes
    values = np.empty(dim)
    for i, (kind, s) in enumerate(zip(kinds, per_weight)):
        values[i] = {
            "any": lambda: draw(st.floats(-6.0, 6.0)),
            "+0.0": lambda: 0.0,
            "-0.0": lambda: -0.0,
            "tiny negative": lambda: draw(st.sampled_from([-1e-320, -1e-300, -1e-17])),
            "half step": lambda: (draw(st.integers(-c - 2, c + 1)) + 0.5) * s,
            "+c step": lambda: c * s,
            "-c step": lambda: -c * s,
        }[kind]()
    return values, spec, per_weight, kinds


@SETTINGS
@given(multi_level_cases())
def test_multi_level_grids_give_the_written_out_rule_bit_for_bit(case):
    x, spec, step, kinds = case
    q = quantize_array(x, spec, step=step)
    assert np.array_equal(q.view(np.uint64), written_out_rule(x, spec, step).view(np.uint64))
    if not spec.mid_rise:  # sign(-0.0) is +0.0, and a tiny negative rounds to a signed zero
        bits = q.view(np.uint64)
        for i, kind in enumerate(kinds):
            if kind in ("+0.0", "-0.0"):
                assert bits[i] == np.float64(0.0).view(np.uint64)
            elif kind == "tiny negative":
                assert bits[i] == np.float64(-0.0).view(np.uint64)
