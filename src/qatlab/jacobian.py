"""Learned surrogate Jacobian: one backward gain per quantization group.

The gains are one float per group, a (n_groups,) array that replaces the
identity a straight-through backward pass would use. They are estimated
from the quantizer's measured response to random perturbations (probe
slope fit, probe least squares, or a dithered common-random-number slope
fit), clipped to [0, 1], and smoothed by an EMA. Every update measures the
response with one kernel, ``probe_slope_samples``. The hard modes probe with
Gaussian perturbations, whose smoothing of the staircase stands in for a
dither. The dithered fit takes a central difference per dither row, the
mean of +-sigma sign probes given that row, so its mean is the central
difference of the dither-smoothed map; each row costs two quantizer rows,
and one fixed dither (a training step's forward dither) is one row at any
probe count.
The straight-through rule is the special case of all-ones gains.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=16, typed=True)
def _sigma_energy(sigma: float, dim: int, group_size: int) -> np.ndarray:
    """The (n_groups, 1) group sums of one (1, dim) row of sigma against itself, read-only.

    The energy of every dithered column; it depends on nothing else, so it is summed
    once per (sigma, dim, group_size). The row is not kept.
    """
    row = np.full((1, dim), sigma)
    energy = _group_sums(row, row, group_size)
    energy.flags.writeable = False
    return energy


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


def probe_slope_samples(weights: GroupedWeights, spec: QuantSpec, sigma: float, m: int,
                        probes: np.random.Generator | None = None,
                        dither: np.ndarray | None = None,
                        dither_rng: np.random.Generator | None = None,
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-group slope-fit sums (cross, energy), each (n_groups, columns), C-ordered.

    This is the one probe kernel: every gain update and the probe-rate harness run it.
    Column k is one perturbation delta_k and the response change dq_k it makes:
    cross[g, k] is <dq_k, delta_k> and energy[g, k] is |delta_k|^2 over group g's columns.

    With neither dither, the m columns are Gaussian probe rows of the ``probes`` stream
    against the hard quantizer at w: standard normals scaled by sigma in place, with the
    bits of ``normal(0, sigma)`` (``_draw_probes``). They are drawn and used one block of
    rows (``row_blocks``) at a time, by consecutive draws of the stream, in one reused
    buffer, their perturbed inputs built in a second.

    A dithered column is one dither row r, and its sums are the mean over +-sigma sign
    probes given r: cross is sigma * (Q(w + sigma + r) - Q(w - sigma + r)) / 2 and energy
    sigma * sigma, summed over the group. r cancels in the difference, and each row costs
    two quantizer rows. A fixed ``dither``, one (dim,) row, gives one column at any m;
    with ``dither_rng`` the m columns are that stream's next m rows (``next_dither``),
    drawn in blocks of rows. ``probes`` is not read. The sigma * sigma group sums are
    made once per (sigma, dim, group_size) and kept, n_groups floats, in a small cache;
    each call copies them into its own fresh ``energy``.
    """
    if m < 1:
        raise ValueError(f"the probe count must be >= 1, got {m}")
    values = weights.values
    size = weights.group_size
    step = weights.broadcast(spec.step)
    if dither is None and dither_rng is None:
        cross, energy = np.empty((2, weights.n_groups, m))
        base = quantize_array(values, spec, step=step)
        first = next(row_blocks(m, weights.dim)).stop  # the rows of the first (longest) block
        # the probe block and the perturbed input
        buffers = np.empty((2, first, weights.dim))
        for rows in row_blocks(m, weights.dim):
            deltas, work = buffers[:, :rows.stop - rows.start]
            _draw_probes(probes, sigma, deltas)
            dq = quantize_array(np.add(values, deltas, out=work), spec, step=step)
            dq -= base
            cross[:, rows] = _group_sums(dq, deltas, size)
            energy[:, rows] = _group_sums(deltas, deltas, size)
        return cross, energy
    if dither is not None:
        blocks = [(slice(0, 1), dither[None])]
    else:
        blocks = ((rows, next_dither(weights, spec, dither_rng, (rows.stop - rows.start,)))
                  for rows in row_blocks(m, weights.dim))
    sigmas = np.full((1, weights.dim), sigma)
    cross, energy = np.empty((2, weights.n_groups, 1 if dither is not None else m))
    # an input that overflows is refused by the quantizer as a non-finite weight, and
    # sums that overflow by the gain update as a non-finite estimate
    with np.errstate(over="ignore", invalid="ignore"):
        up, down = values + sigma, values - sigma
        for rows, r in blocks:
            dq = quantize_array(up + r, spec, step=step)
            dq -= quantize_array(down + r, spec, step=step)
            cross[:, rows] = _group_sums(sigmas, dq, size)
        cross *= 0.5
        energy[:] = _sigma_energy(sigma, weights.dim, size)
    return cross, energy


def _update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray, cfg: ProbeConfig,
            least_squares: bool, probes: np.random.Generator | None = None,
            dither: np.ndarray | None = None,
            dither_rng: np.random.Generator | None = None) -> np.ndarray:
    """One gain update of every group from the slope-fit sums of ``probe_slope_samples``.

    The kernel measures with ``probes``, a Gaussian probe stream, or with a
    dither. The per-group estimate is the mean of the per-column slope fits
    cross / (energy + eps) over the columns the kernel returns, or the
    least-squares fit over all of them; a non-finite one raises ValueError.
    Estimates are clipped to [0, 1] and mixed into ``gains`` at
    ``cfg.ema_rate``; the result is clipped again, so a start outside [0, 1]
    cannot leak through.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.size != weights.n_groups:
        raise ValueError("gain count does not match group count")
    if not np.isfinite(gains).all():
        raise ValueError("gains must be finite")
    sigma = 0.5 * float(np.min(spec.step)) if cfg.probe_sigma is None else cfg.probe_sigma
    if not sigma > 0:
        raise ValueError("the default probe_sigma, half the smallest group step, is 0")
    cross, energy = probe_slope_samples(weights, spec, sigma, cfg.num_probes, probes, dither,
                                        dither_rng)
    # sums that overflow (sigma near the float maximum) make an inf / inf, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if least_squares:
            denom = energy.sum(axis=1)
            if (denom == 0.0).any():
                raise ValueError("zero excitation")
            estimates = cross.sum(axis=1) / denom
        else:  # np.mean's bits
            estimates = (cross / (energy + _REG_EPS)).sum(axis=1) / cross.shape[1]
    if not np.isfinite(estimates).all():
        raise ValueError("non-finite gain estimate")
    rate = cfg.ema_rate
    # the clip ufunc keeps a -0.0 estimate's sign, as np.clip does
    return ((1.0 - rate) * gains + rate * estimates.clip(0.0, 1.0)).clip(0.0, 1.0)


def probe_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                 cfg: ProbeConfig, draw_key: int = 0) -> np.ndarray:
    """One-step slope fit per group: <dq, delta> / (|delta|^2 + eps), then clip + EMA.

    The probes come from the (seed, "probe", draw_key) stream. With
    num_probes > 1 the raw estimates are averaged before clipping.
    """
    return _update(weights, spec, gains, cfg, least_squares=False,
                   probes=substream(cfg.seed, "probe", draw_key))


def probe_ls_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                    cfg: ProbeConfig, draw_key: int = 0) -> np.ndarray:
    """Scalar least-squares over the probe batch: sum<dq,delta> / sum|delta|^2."""
    return _update(weights, spec, gains, cfg, least_squares=True,
                   probes=substream(cfg.seed, "probe", draw_key))


def dither_update(weights: GroupedWeights, spec: QuantSpec, gains: np.ndarray,
                  cfg: ProbeConfig, dither_seed: int, draw_key: int = 0,
                  fixed_dither: np.ndarray | None = None) -> np.ndarray:
    """Central-difference slope fit on the de-dithered proxy, one dither row per fit.

    Per dither row r and group, the estimate is sum sigma * (Q(w + sigma + r) -
    Q(w - sigma + r)) / 2 / (sum sigma^2 + eps): the mean of SPSA's +-sigma
    sign probes given r, so no sign is drawn. Its mean over r is the central
    difference (Qbar(w + sigma) - Qbar(w - sigma)) / (2 sigma) of the
    dither-smoothed map Qbar, per weight: ``mean_field_sensitivity(probe_eps=sigma)``.
    The num_probes rows come from the (dither_seed, "dither_block", draw_key)
    stream. ``fixed_dither`` is one externally drawn (dim,) row instead (e.g.
    the forward dither of a training step), whatever num_probes is; one of
    another shape, or beyond half a step, is refused before anything is
    quantized. Each row costs two quantizer rows.
    """
    if fixed_dither is not None:
        if np.ndim(fixed_dither) != 1:
            raise ValueError("invalid dither")
        fixed_dither = checked_dither(fixed_dither, weights.broadcast(spec.step), weights.dim)
        return _update(weights, spec, gains, cfg, least_squares=False, dither=fixed_dither)
    return _update(weights, spec, gains, cfg, least_squares=False,
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
