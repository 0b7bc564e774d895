"""Learned surrogate Jacobian: one backward gain per quantization group.

The gains are one float per group, a (n_groups,) array that replaces the
identity a straight-through backward pass would use. They are estimated
from the quantizer's measured response to random perturbations (probe
slope fit, probe least squares, or a dithered common-random-number slope
fit), clipped to [0, 1], and smoothed by an EMA. Every update measures the
response with one kernel, ``probe_slope_samples``. The hard modes probe with
Gaussian perturbations, whose smoothing of the staircase stands in for a
dither; the dithered fit probes with +-sigma signs, so its mean is the
central difference of the dither-smoothed map. The straight-through
rule is the special case of all-ones gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import (GroupedWeights, QuantSpec, checked_dither, next_dither, quantize_array,
                    row_blocks)
from .rng import substream

__all__ = [
    "ProbeConfig",
    "probe_update",
    "probe_ls_update",
    "dither_update",
    "apply_gains",
    "probe_slope_samples",
]

_REG_EPS = 1e-8  # regulariser of the per-probe slope fit's denominator


@dataclass(frozen=True, kw_only=True)
class ProbeConfig:
    """Gain-update settings: probe scale, probe count, master seed, EMA rate.

    ``probe_sigma`` is in weight units; None is half the smallest group step
    of the spec an update is given.
    """

    probe_sigma: float | None = None
    num_probes: int = 1
    seed: int = 0
    ema_rate: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in (0, 1]")
        if self.probe_sigma is not None and not self.probe_sigma > 0:
            raise ValueError("probe_sigma must be positive or null")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")


def _group_sums(a: np.ndarray, b: np.ndarray, group_size: int) -> np.ndarray:
    """Per-group, per-row inner products of two (m, d) blocks, shape (n_groups, m).

    One einsum over the (m, k, group_size) full groups and one over the
    (m, 1, tail) short last group round exactly like one einsum per group;
    np.add.reduceat would not. The result is C-ordered, so that a reduction
    over probes sums each row the same way.
    """
    m, d = a.shape
    k, tail = divmod(d, group_size)
    full = d - tail
    out = np.empty((k + (tail > 0), m))
    shape = (m, k, group_size)
    out[:k] = np.einsum("mks,mks->km", a[:, :full].reshape(shape), b[:, :full].reshape(shape))
    if tail:
        shape = (m, 1, tail)
        out[k:] = np.einsum("mks,mks->km", a[:, full:].reshape(shape), b[:, full:].reshape(shape))
    return out


def _draw_probes(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """The next probe rows of ``rng``, standard normals scaled by sigma in place in ``out``.

    These are the bits of ``rng.normal(0.0, sigma, out.shape)``, whose own map
    is 0.0 + sigma * z, except that a product of exactly -0.0 keeps its sign
    where that sum makes it +0.0. A product that overflows is an inf, silently
    as in ``normal``; the quantizer then refuses it as a non-finite weight.
    """
    rng.standard_normal(out=out)
    with np.errstate(over="ignore"):
        out *= sigma
    return out


def _draw_signs(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """The next probe rows of ``rng`` as +-sigma signs, (2b - 1) * sigma, in ``out``.

    Each row takes ceil(dim / 64) raw uint64 words of the bit generator, one
    bit b per entry, low bit first; a row's surplus bits go unused. So a run
    of blocks gives the signs of one whole draw, at any dim. The signs are
    exact and finite at any finite sigma.
    """
    rows, dim = out.shape
    words = rng.bit_generator.random_raw((rows, -(-dim // 64))).astype("<u8", copy=False)
    bits = np.unpackbits(words.view(np.uint8), axis=1, count=dim, bitorder="little")
    return np.multiply(2 * bits.view(np.int8) - 1, sigma, out=out)


def _response(x: np.ndarray, spec: QuantSpec, step: float | np.ndarray,
              dither: np.ndarray | None, work: np.ndarray | None = None) -> np.ndarray:
    """Quantizer response at x: quantize(x), or the de-dithered quantize(x + r) - r.

    x + r is built in ``work``, a buffer of its shape (x itself may be it), or
    in a fresh array when ``work`` is None.
    """
    if dither is None:
        return quantize_array(x, spec, step=step)
    out = quantize_array(np.add(x, dither, out=work), spec, step=step)
    out -= dither
    return out


def probe_slope_samples(weights: GroupedWeights, spec: QuantSpec, sigma: float, m: int,
                        probes: np.random.Generator, dither: np.ndarray | None = None,
                        dither_rng: np.random.Generator | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-group slope-fit sums of m probes: (cross, energy), each (n_groups, m), C-ordered.

    cross[g, k] is <dq_k, delta_k> and energy[g, k] is |delta_k|^2 over group g's
    columns, for probe row k of the ``probes`` stream and the response change dq_k.
    This is the one probe kernel: every gain update and the probe-rate harness run it.
    The (m, dim) block is drawn and used in blocks of probe rows (``row_blocks``), by
    consecutive draws of the stream, in one reused buffer, the perturbed input in a
    second. Hard probes are standard normals scaled by sigma in place, with the bits
    of ``normal(0, sigma)`` (``_draw_probes``); dithered ones are +-sigma signs
    (``_draw_signs``). The response is de-dithered by ``dither``, one (dim,) dither
    shared by every probe, or by each probe's own row of ``dither_rng`` (``next_dither``).
    """
    if m < 1:
        raise ValueError(f"the probe count must be >= 1, got {m}")
    values = weights.values
    step = weights.broadcast(spec.step)
    draw = _draw_probes if dither is None and dither_rng is None else _draw_signs
    base = None if dither_rng is not None else _response(values, spec, step, dither)
    cross, energy = np.empty((2, weights.n_groups, m))
    # the probe block and the perturbed input, as many rows as the first (longest) block
    buffers = np.empty((2, next(row_blocks(m, weights.dim)).stop, weights.dim))
    for rows in row_blocks(m, weights.dim):
        deltas, work = buffers[:, :rows.stop - rows.start]
        draw(probes, sigma, deltas)
        if dither_rng is not None:
            dither = next_dither(weights, spec, dither_rng, deltas.shape[:1])
            base = _response(values, spec, step, dither, work)
        dq = _response(np.add(values, deltas, out=work), spec, step, dither, work)
        dq -= base
        cross[:, rows] = _group_sums(dq, deltas, weights.group_size)
        energy[:, rows] = _group_sums(deltas, deltas, weights.group_size)
    return cross, energy


def _update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray, cfg: ProbeConfig,
            draw_key: int, least_squares: bool, dither: np.ndarray | None = None,
            dither_rng: np.random.Generator | None = None) -> np.ndarray:
    """One gain update of every group from the slope-fit sums of ``probe_slope_samples``.

    Its probes come from the (seed, "probe", draw_key) stream. The per-group
    estimate is the mean of the per-probe slope fits, or the least-squares fit
    over all probes; a non-finite one raises ValueError. Estimates are clipped to
    [0, 1] and mixed into ``gains`` at ``cfg.ema_rate``; the result is clipped
    again, so a start outside [0, 1] cannot leak through.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size != weights.n_groups:
        raise ValueError("gain count does not match group count")
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")
    sigma = 0.5 * float(np.min(spec.step)) if cfg.probe_sigma is None else cfg.probe_sigma
    if not sigma > 0:
        raise ValueError("the default probe_sigma, half the smallest group step, is 0")
    cross, energy = probe_slope_samples(weights, spec, sigma, cfg.num_probes,
                                        substream(cfg.seed, "probe", draw_key), dither, dither_rng)
    # sums that overflow (sigma near the float maximum) make an inf / inf, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if least_squares:
            denom = energy.sum(axis=1)
            if (denom == 0.0).any():
                raise ValueError("zero excitation")
            estimates = cross.sum(axis=1) / denom
        else:
            estimates = (cross / (energy + _REG_EPS)).sum(axis=1) / cfg.num_probes  # np.mean's bits
    if not np.isfinite(estimates).all():
        raise ValueError("non-finite gain estimate")
    rate = cfg.ema_rate
    # the clip ufunc keeps a -0.0 estimate's sign, as np.clip does
    return ((1.0 - rate) * gains + rate * estimates.clip(0.0, 1.0)).clip(0.0, 1.0)


def probe_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                 cfg: ProbeConfig, draw_key: int = 0) -> np.ndarray:
    """One-step slope fit per group: <dq, delta> / (|delta|^2 + eps), then clip + EMA.

    With num_probes > 1 the raw estimates are averaged before clipping.
    """
    return _update(weights, spec, gains, cfg, draw_key, least_squares=False)


def probe_ls_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                    cfg: ProbeConfig, draw_key: int = 0) -> np.ndarray:
    """Scalar least-squares over the probe batch: sum<dq,delta> / sum|delta|^2."""
    return _update(weights, spec, gains, cfg, draw_key, least_squares=True)


def dither_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                  cfg: ProbeConfig, dither_seed: int, draw_key: int = 0,
                  fixed_dither: np.ndarray | None = None) -> np.ndarray:
    """Slope fit on the de-dithered proxy, common dither across both evaluations.

    The probes are +-sigma signs (SPSA's symmetric Bernoulli perturbations).
    Each probe draws its own dither row from one (num_probes, dim) block of
    the (dither_seed, "dither_block", draw_key) stream, shared by that
    probe's base and perturbed evaluation.
    ``fixed_dither`` reuses an externally drawn (dim,) dither (e.g. the
    forward dither of a training step) for every probe instead; one of
    another shape, or beyond half a step, is refused before any probe is
    drawn. Over the signs and the dither, a probe's slope then has the mean
    (Qbar(w + sigma) - Qbar(w - sigma)) / (2 sigma) of the dither-smoothed
    map Qbar, per weight: ``mean_field_sensitivity(probe_eps=sigma)``.
    """
    if fixed_dither is not None:
        if np.ndim(fixed_dither) != 1:
            raise ValueError("invalid dither")
        fixed_dither = checked_dither(fixed_dither, weights.broadcast(spec.step), weights.dim)
        return _update(weights, spec, gains, cfg, draw_key, least_squares=False,
                       dither=fixed_dither)
    return _update(weights, spec, gains, cfg, draw_key, least_squares=False,
                   dither_rng=substream(dither_seed, "dither_block", draw_key))


def apply_gains(gains: np.ndarray, v: np.ndarray, layout: GroupedWeights) -> np.ndarray:
    """Scale an upstream gradient (or each row of a (b, d) block) by its group's gain.

    ``layout`` is any weight vector with the gradient's group layout; its
    values are not read.
    """
    v = np.asarray(v, dtype=float)
    if layout.n_groups != np.size(gains) or layout.dim != v.shape[-1]:
        raise ValueError("gradient length does not match the group layout")
    return layout.per_weight(gains) * v
