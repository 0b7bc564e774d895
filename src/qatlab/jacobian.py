"""Learned surrogate Jacobian: one backward gain per quantization group.

The gains are one float per group, a (n_groups,) array that replaces the
identity a straight-through backward pass would use. They are estimated
from the quantizer's measured response to random perturbations (probe
slope fit, probe least squares, or a dithered common-random-number slope
fit), clipped to [0, 1], and smoothed by an EMA. The straight-through
rule is the special case of all-ones gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import GroupedWeights, QuantSpec, next_dither, quantize_array, row_blocks
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


@dataclass(frozen=True)
class ProbeConfig:
    """Gain-update settings: probe scale (weight units), count, stream id, EMA rate."""

    sigma: float
    num_probes: int = 1
    seed_tag: int = 0
    ema_rate: float = 0.9

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")
        if not 0.0 < self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in (0, 1]")

    @classmethod
    def for_spec(cls, spec: QuantSpec, num_probes: int = 1, seed_tag: int = 0,
                 ema_rate: float = 0.9) -> "ProbeConfig":
        """Default probe scale: half the smallest group step."""
        return cls(sigma=0.5 * float(np.min(spec.step)), num_probes=num_probes,
                   seed_tag=seed_tag, ema_rate=ema_rate)


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


def _response(x: np.ndarray, spec: QuantSpec, step: float | np.ndarray,
              dither: np.ndarray | None) -> np.ndarray:
    """Quantizer response at x: quantize(x), or the de-dithered quantize(x + r) - r."""
    if dither is None:
        return quantize_array(x, spec, step=step)
    out = quantize_array(x + dither, spec, step=step)
    out -= dither
    return out


def _slope_sums(values: np.ndarray, spec: QuantSpec, step: float | np.ndarray,
                deltas: np.ndarray, dither: np.ndarray | None, group_size: int,
                base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group cross <dq_k, delta_k> and energy |delta_k|^2, each (n_groups, m).

    ``base`` is the unperturbed response, ``_response(values, ..., dither)``.
    """
    dq = _response(values + deltas, spec, step, dither)
    dq -= base
    return _group_sums(dq, deltas, group_size), _group_sums(deltas, deltas, group_size)


def probe_slope_samples(w_group: np.ndarray, spec: QuantSpec, step: float,
                        sigma: float, m: int, rng: np.random.Generator,
                        dither: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Slope-fit ingredients for one group and m probes.

    Returns (cross, energy): per-probe inner products <dq_k, delta_k> and
    probe energies |delta_k|^2. When ``dither`` is given, each probe's two
    quantizer evaluations share the same dither draw (common random
    numbers), so the fit targets the dither-smoothed sensitivity. A 1-D
    dither is shared across probes; a (m, group) array is per-probe.
    """
    deltas = rng.normal(0.0, sigma, size=(m, w_group.size))
    dither = None if dither is None else np.atleast_2d(dither)
    base = _response(w_group, spec, step, dither)
    cross, energy = _slope_sums(w_group, spec, step, deltas, dither, w_group.size, base)
    return cross[0], energy[0]


def _update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray, cfg: ProbeConfig,
            draw_key: int, least_squares: bool, dither: np.ndarray | None = None,
            dither_rng: np.random.Generator | None = None) -> np.ndarray:
    """One gain update of every group from one (num_probes, dim) probe block.

    The block comes from the (seed_tag, "probe", draw_key) stream; group g
    takes its columns. It is drawn and used in blocks of probe rows
    (``row_blocks``), by consecutive draws of that stream, so an update holds
    one block at a time. ``dither`` is one (dim,) dither shared by every
    probe; with ``dither_rng`` each probe draws its own dither row from it,
    block by block (``next_dither``). The per-group estimate is the mean of
    the per-probe slope fits, or the least-squares fit over all probes.
    Estimates are clipped to [0, 1] and mixed into ``gains`` at
    ``cfg.ema_rate``; the result is clipped again, so a start outside
    [0, 1] cannot leak through.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size != weights.n_groups:
        raise ValueError("gain count does not match group count")
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")
    values, m = weights.values, cfg.num_probes
    step = weights.broadcast(spec.step)
    probes = substream(cfg.seed_tag, "probe", draw_key)
    base = None if dither_rng is not None else _response(values, spec, step, dither)
    cross, energy = np.empty((2, weights.n_groups, m))  # C-ordered: each row sums alike
    for rows in row_blocks(m, weights.dim):
        deltas = probes.normal(0.0, cfg.sigma, size=(rows.stop - rows.start, weights.dim))
        if dither_rng is not None:
            dither = next_dither(weights, spec, dither_rng, deltas.shape[:1])
            base = _response(values, spec, step, dither)
        cross[:, rows], energy[:, rows] = _slope_sums(values, spec, step, deltas, dither,
                                                      weights.group_size, base)
    if least_squares:
        denom = energy.sum(axis=1)
        if np.any(denom == 0.0):
            raise ValueError("zero excitation")
        estimates = cross.sum(axis=1) / denom
    else:
        estimates = np.mean(cross / (energy + _REG_EPS), axis=1)
    rate = cfg.ema_rate
    return np.clip((1.0 - rate) * gains + rate * np.clip(estimates, 0.0, 1.0), 0.0, 1.0)


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

    Each probe draws its own dither row from one (num_probes, dim) block of
    the (dither_seed, "dither_block", draw_key) stream, shared by that
    probe's base and perturbed evaluation.
    ``fixed_dither`` reuses an externally drawn (dim,) dither (e.g. the
    forward dither of a training step) for every probe instead.
    """
    if fixed_dither is not None:
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
