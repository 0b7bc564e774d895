"""Property tests of the hard quantizer over every mode, mid-rise and per-group steps.

For each spec and random weights: every output lies on its weight's grid
(code in range), quantizing twice changes nothing, the map is monotone
for a fixed step, and it is odd, q(-x) = -q(x), except at 0 for the sign
grid (sign(0) = +1) and at exact bin edges of a mid-rise grid, where
floor() sends both signs to the upper bin.
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
                         mid_rise=spec.mid_rise, bits=spec.bits)
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
