"""Learned surrogate Jacobian: one backward gain per quantization group.

The gains are one float per group, a (n_groups,) array that replaces the
identity a straight-through backward pass would use. They are estimated
from the quantizer's measured response to random perturbations (probe
slope fit, probe least squares, or a dithered common-random-number slope
fit), clipped to [0, 1], and smoothed by an EMA. Every update measures the
response with one kernel, ``probe_slope_samples``. The hard modes probe with
Gaussian perturbations, whose smoothing of the staircase stands in for a
dither; the dithered fit probes with +-sigma signs, so its mean is the
central difference of the dither-smoothed map. With one fixed dither
(a training step's forward dither) each weight has only two perturbed
responses, so such an update quantizes three (dim,) rows and reads each
weight's signs only as its count of +sigma ones, at any probe count.
The straight-through rule is the special case of all-ones gains.
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

    Either block may be one (1, d) row, which meets every row of the other.
    One einsum over the (m, k, group_size) full groups and one over the
    (m, 1, tail) short last group round exactly like one einsum per group;
    np.add.reduceat would not. The result is C-ordered, so that a reduction
    over probes sums each row the same way.
    """
    d = a.shape[1]
    k, tail = divmod(d, group_size)
    full = d - tail
    out = np.empty((k + (tail > 0), max(len(a), len(b))))
    out[:k] = np.einsum("mks,mks->km", a[:, :full].reshape(len(a), k, group_size),
                        b[:, :full].reshape(len(b), k, group_size))
    if tail:
        out[k:] = np.einsum("mks,mks->km", a[:, full:].reshape(len(a), 1, tail),
                            b[:, full:].reshape(len(b), 1, tail))
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


def _sign_bits(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """The next (rows, dim) probe sign bits of ``rng`` as uint8, 1 for +sigma and 0 for -sigma.

    Each row takes ceil(dim / 64) raw uint64 words of the bit generator, one
    bit per entry, low bit first; a row's surplus bits go unused. So a run
    of blocks gives the bits of one whole draw, at any dim.
    """
    words = rng.bit_generator.random_raw((rows, -(-dim // 64))).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), axis=1, count=dim, bitorder="little")


def _draw_signs(rng: np.random.Generator, sigma: float, out: np.ndarray) -> np.ndarray:
    """The next probe rows of ``rng`` as +-sigma signs, (2b - 1) * sigma, in ``out``.

    b are the rows' ``_sign_bits``. The signs are exact and finite at any finite sigma.
    """
    bits = _sign_bits(rng, *out.shape)
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
    The (m, dim) block is drawn in blocks of probe rows (``row_blocks``), by
    consecutive draws of the stream. Hard probes are standard normals scaled by sigma
    in place, with the bits of ``normal(0, sigma)`` (``_draw_probes``). Dithered ones
    are +-sigma signs, one bit of the stream each (``_sign_bits``); as delta * delta
    is sigma * sigma, every sign probe's energy is the group sums of one sigma row.
    The hard and per-probe dither blocks are used one (rows, dim) block at a time in
    one reused buffer, their perturbed responses built in a second; the per-probe
    dither is each probe's own row of ``dither_rng`` (``next_dither``).

    A fixed ``dither``, one (dim,) row shared by every probe, returns one column each,
    (n_groups, 1): cross summed over the m probes, and the energy that every probe
    has; the mean of the per-probe slope fits is then cross / (energy + eps) / m. Each
    sign probe meets one of two responses per weight, up = Qbar(w + sigma) - Qbar(w) or
    down = Qbar(w - sigma) - Qbar(w). So such a call quantizes three rows and counts
    each weight's P +sigma signs, at any m: sum_k delta_k * dq_k = sigma * (P * up -
    (m - P) * down), one group sum of one row.
    """
    if m < 1:
        raise ValueError(f"the probe count must be >= 1, got {m}")
    values = weights.values
    size = weights.group_size
    step = weights.broadcast(spec.step)
    # a sign probe's |delta| per weight
    sigmas = None if dither is None and dither_rng is None else np.full((1, weights.dim), sigma)
    if dither is not None:
        # each weight's count of +sigma signs: fewer than 256 probes count in a byte
        plus = np.zeros(weights.dim, np.uint8 if m < 256 else np.uint64)
        for rows in row_blocks(m, weights.dim):
            bits = _sign_bits(probes, rows.stop - rows.start, weights.dim)
            plus += bits.sum(axis=0, dtype=plus.dtype)
        base = _response(values, spec, step, dither)
        # an input that overflows is refused by the quantizer as a non-finite weight, and
        # sums that overflow by the gain update as a non-finite estimate
        with np.errstate(over="ignore", invalid="ignore"):
            up = _response(values + sigma, spec, step, dither)
            down = _response(values - sigma, spec, step, dither)
            up -= base
            down -= base
            up *= plus
            down *= m - plus
            up -= down
            return _group_sums(sigmas, up[None], size), _group_sums(sigmas, sigmas, size)
    cross, energy = np.empty((2, weights.n_groups, m))
    if dither_rng is not None:
        energy[:] = _group_sums(sigmas, sigmas, size)
    draw = _draw_probes if dither_rng is None else _draw_signs
    base = None if dither_rng is not None else quantize_array(values, spec, step=step)
    first = next(row_blocks(m, weights.dim)).stop  # the rows of the first (longest) block
    # the probe block and the perturbed input
    buffers = np.empty((2, first, weights.dim))
    for rows in row_blocks(m, weights.dim):
        deltas, work = buffers[:, :rows.stop - rows.start]
        draw(probes, sigma, deltas)
        if dither_rng is not None:
            dither = next_dither(weights, spec, dither_rng, deltas.shape[:1])
            base = _response(values, spec, step, dither, work)
        dq = _response(np.add(values, deltas, out=work), spec, step, dither, work)
        dq -= base
        cross[:, rows] = _group_sums(dq, deltas, size)
        if dither_rng is None:
            energy[:, rows] = _group_sums(deltas, deltas, size)
    return cross, energy


def _update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray, cfg: ProbeConfig,
            draw_key: int, least_squares: bool, dither: np.ndarray | None = None,
            dither_rng: np.random.Generator | None = None) -> np.ndarray:
    """One gain update of every group from the slope-fit sums of ``probe_slope_samples``.

    Its probes come from the (seed, "probe", draw_key) stream. The per-group
    estimate is the mean of the per-probe slope fits, or the least-squares fit
    over all probes; a non-finite one raises ValueError. A fixed dither's one
    column of probe totals gives that mean as total / (energy + eps) / m; no
    update fits it by least squares. Estimates are clipped to [0, 1] and mixed
    into ``gains`` at ``cfg.ema_rate``; the result is clipped again, so a start
    outside [0, 1] cannot leak through.
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
    drawn. Such an update quantizes three (dim,) rows, at w and w +- sigma,
    and counts each weight's P +sigma signs, whatever num_probes is: its
    probes' slope sums add up to one group sum of sigma * (P * up - (m - P) *
    down), where up and down are the responses at w +- sigma less that at w.
    Over the signs and the dither, a probe's slope then has the mean
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
