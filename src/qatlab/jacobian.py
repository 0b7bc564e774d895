"""Learned surrogate Jacobian: one backward gain per quantization group.

The gain vector replaces the identity that a straight-through backward
pass would use. Gains are estimated from the quantizer's measured
response to random perturbations (probe slope fit, probe least squares,
or a dithered common-random-number slope fit), clipped, and smoothed by
an EMA. The straight-through rule is the special case of all-ones gains.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .quant import (DitherDraw, GroupedWeights, QuantSpec, dither_block, draw_per_group, group_sizes,
                    per_weight, quantize_array)
from .rng import substream

__all__ = [
    "SurrogateJacobian",
    "ProbeConfig",
    "probe_update",
    "probe_ls_update",
    "dither_update",
    "apply_gains",
    "probe_slope_samples",
]


@dataclass(frozen=True)
class SurrogateJacobian:
    """Per-group scalar gains with EMA smoothing state."""

    gains: np.ndarray
    ema_rate: float = 0.9
    clip_lo: float = 0.0
    clip_hi: float = 1.0
    reg_eps: float = 1e-8

    def __post_init__(self) -> None:
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "gains", gains)
        if not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite")
        if not 0.0 < self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in (0, 1]")
        if self.clip_lo > self.clip_hi:
            raise ValueError("clip_lo must not exceed clip_hi")

    @classmethod
    def identity(cls, n_groups: int, ema_rate: float = 0.9, clip_lo: float = 0.0,
                 clip_hi: float = 1.0, reg_eps: float = 1e-8) -> "SurrogateJacobian":
        """All-ones gains: the straight-through starting point."""
        return cls(gains=np.ones(n_groups), ema_rate=ema_rate, clip_lo=clip_lo,
                   clip_hi=clip_hi, reg_eps=reg_eps)

    def with_gains(self, gains: np.ndarray) -> "SurrogateJacobian":
        return replace(self, gains=np.asarray(gains, dtype=float))

    def _ema(self, estimates: np.ndarray, mask: np.ndarray) -> "SurrogateJacobian":
        clipped = np.clip(estimates, self.clip_lo, self.clip_hi)
        new = self.gains.copy()
        new[mask] = (1.0 - self.ema_rate) * self.gains[mask] + self.ema_rate * clipped[mask]
        return self.with_gains(new)


@dataclass(frozen=True)
class ProbeConfig:
    """Gaussian probe settings: scale (weight units), count, stream id."""

    sigma: float
    num_probes: int = 1
    seed_tag: int = 0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")

    @classmethod
    def for_spec(cls, spec: QuantSpec, num_probes: int = 1, seed_tag: int = 0) -> "ProbeConfig":
        """Default probe scale: half the quantizer step."""
        return cls(sigma=0.5 * float(np.min(spec.step)), num_probes=num_probes, seed_tag=seed_tag)


def _group_sums(a: np.ndarray, b: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per-group, per-row inner products of two (m, d) blocks, shape (n_groups, m).

    One einsum per run of k equal-size groups, reshaped to (m, k, s), rounds
    exactly like one einsum per group; np.add.reduceat would not.
    """
    m = a.shape[0]
    out = np.empty((sizes.size, m))
    edges = np.concatenate(([0], np.cumsum(sizes)))
    runs = np.flatnonzero(np.diff(sizes, prepend=-1))
    for g0, g1 in zip(runs, [*runs[1:], sizes.size]):
        lo, hi, shape = edges[g0], edges[g1], (m, g1 - g0, sizes[g0])
        out[g0:g1] = np.einsum("mks,mks->km", a[:, lo:hi].reshape(shape), b[:, lo:hi].reshape(shape))
    return out


def _slope_sums(values: np.ndarray, spec: QuantSpec, step: float | np.ndarray,
                deltas: np.ndarray, dither: np.ndarray | None,
                sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group cross <dq_k, delta_k> and energy |delta_k|^2, each (n_groups, m)."""
    if dither is None:
        base = quantize_array(values, spec, step=step)[None, :]
        shifted = quantize_array(values[None, :] + deltas, spec, step=step)
    else:
        base = quantize_array(values[None, :] + dither, spec, step=step) - dither
        shifted = quantize_array(values[None, :] + deltas + dither, spec, step=step) - dither
    dq = shifted - base
    return _group_sums(dq, deltas, sizes), _group_sums(deltas, deltas, sizes)


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
    cross, energy = _slope_sums(w_group, spec, step, deltas, dither, np.array([w_group.size]))
    return cross[0], energy[0]


def _update(weights: GroupedWeights, spec: QuantSpec, jac: SurrogateJacobian, cfg: ProbeConfig,
            draw_key: int, least_squares: bool,
            dither: np.ndarray | None = None) -> SurrogateJacobian:
    """One gain update of every group from the per-group probe substreams.

    Group g draws its probes from (seed_tag, "probe", draw_key, g). The
    per-group estimate is the mean of the per-probe slope fits, or the
    least-squares fit over all probes; empty groups keep their gain.
    """
    sizes = group_sizes(weights.group_bounds)
    if jac.gains.size != sizes.size:
        raise ValueError("gain count does not match group count")
    filled = sizes > 0
    if not filled.all():
        warnings.warn(f"empty group {np.flatnonzero(~filled).tolist()} skipped", stacklevel=3)
    deltas = draw_per_group(weights, (cfg.num_probes,), lambda g, shape: substream(
        cfg.seed_tag, "probe", draw_key, g).normal(0.0, cfg.sigma, size=shape))
    cross, energy = _slope_sums(weights.values, spec, spec.step_per_weight(weights.group_bounds),
                                deltas, dither, sizes)
    cross, energy = cross[filled], energy[filled]
    estimates = np.zeros(sizes.size)
    if least_squares:
        denom = energy.sum(axis=1)
        if np.any(denom == 0.0):
            raise ValueError("zero excitation")
        estimates[filled] = cross.sum(axis=1) / denom
    else:
        estimates[filled] = np.mean(cross / (energy + jac.reg_eps), axis=1)
    return jac._ema(estimates, filled)


def probe_update(weights: GroupedWeights, spec: QuantSpec, jac: SurrogateJacobian,
                 cfg: ProbeConfig, draw_key: int = 0) -> SurrogateJacobian:
    """One-step slope fit per group: <dq, delta> / (|delta|^2 + eps), then clip + EMA.

    With num_probes > 1 the raw estimates are averaged before clipping.
    """
    return _update(weights, spec, jac, cfg, draw_key, least_squares=False)


def probe_ls_update(weights: GroupedWeights, spec: QuantSpec, jac: SurrogateJacobian,
                    cfg: ProbeConfig, draw_key: int = 0) -> SurrogateJacobian:
    """Scalar least-squares over the probe batch: sum<dq,delta> / sum|delta|^2."""
    return _update(weights, spec, jac, cfg, draw_key, least_squares=True)


def dither_update(weights: GroupedWeights, spec: QuantSpec, jac: SurrogateJacobian,
                  cfg: ProbeConfig, dither_seed: int, draw_key: int = 0,
                  fixed_dither: DitherDraw | None = None) -> SurrogateJacobian:
    """Slope fit on the de-dithered proxy, common dither across both evaluations.

    Each probe draws its own dither from (dither_seed, "dither", draw_key,
    g), shared by that probe's base and perturbed evaluation.
    ``fixed_dither`` reuses an externally drawn dither (e.g. the forward
    dither of a training step) for every probe instead.
    """
    dither = (fixed_dither.r[None, :] if fixed_dither is not None
              else dither_block(weights, spec, dither_seed, draw_key, (cfg.num_probes,)))
    return _update(weights, spec, jac, cfg, draw_key, least_squares=False, dither=dither)


def apply_gains(jac: SurrogateJacobian, v: np.ndarray,
                group_bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Scale an upstream gradient by its group's gain: out_i = b_{group(i)} * v_i."""
    v = np.asarray(v, dtype=float)
    if len(group_bounds) != jac.gains.size or (group_bounds and group_bounds[-1][1] != v.size):
        raise ValueError("gradient length does not match group bounds")
    return per_weight(jac.gains, group_bounds) * v
