"""Numerical harnesses that check the backward-rule theory on small objectives.

Each harness measures one claim: the bias of a backward rule against the
dither-smoothed target gradient, the finite-difference mismatch variance,
the probe least-squares error rate, the dithered fixed point, EMA
tracking under drift, linear contraction with a gain-error floor, and
composition of runs across shifted windows. Harnesses return plain data
objects; the CLI serializes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jacobian import ProbeConfig, apply_gains, probe_slope_samples, probe_update
from .objectives import Quadratic, make_pl_instance
from .quant import GroupedWeights, QuantSpec, mean_field_sensitivity, quantize_array
from .rng import substream
from .trainer import RefreshPolicy, TrainConfig, train_vr

__all__ = [
    "DiagnosticsReport",
    "bias_report",
    "fd_reference",
    "fd_mismatch_variance",
    "probe_rate_harness",
    "tracking_harness",
    "pl_contraction_harness",
    "window_composition_harness",
]


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bias of one backward rule, the gains' rule, against the smoothed target gradient.

    ``j_hat`` is the exact oracle sensitivity per weight. ``bound`` is the
    gain mismatch max_i |b_i - J_i| times the upstream gradient norm (the
    quantity whose running sup bounds the residual in the convergence
    statements). All-ones gains are the straight-through rule: their bound
    is max_i |1 - J_i| * |v|. FD-mismatch variances are not part of this
    report: :func:`fd_mismatch_variance` measures them over a run's state
    trace.
    """

    j_hat: np.ndarray
    bias: float
    bound: float
    bound_holds: bool


def bias_report(weights: GroupedWeights, gains: np.ndarray, v_bar: np.ndarray,
                spec: QuantSpec) -> DiagnosticsReport:
    """Compare the gains' backward rule against the smoothed target gradient J_i * v_i.

    The sensitivity oracle J is the exact expected slope of
    :func:`~qatlab.quant.mean_field_sensitivity` at its default offset.
    """
    v_bar = np.asarray(v_bar, dtype=float)
    j_hat = mean_field_sensitivity(weights, spec)
    bias = float(np.linalg.norm(apply_gains(gains, v_bar, weights) - j_hat * v_bar))
    v_norm = float(np.linalg.norm(v_bar))
    bound = float(np.max(np.abs(weights.per_weight(gains) - j_hat))) * v_norm
    return DiagnosticsReport(j_hat=j_hat, bias=bias, bound=bound,
                             bound_holds=bias <= bound + 1e-9 * max(v_norm, 1.0))


def fd_reference(weights: GroupedWeights, spec: QuantSpec) -> np.ndarray:
    """Central difference of the hard quantizer at every weight, at offset eps = step/10.

    Values are 0 or one grid jump over 2*eps, 5 for a jump of one step (eps is
    below half a step).
    """
    step = weights.per_weight(spec.step)
    eps = step / 10.0
    hi = quantize_array(weights.values + eps, spec, step=step)
    lo = quantize_array(weights.values - eps, spec, step=step)
    return (hi - lo) / (2.0 * eps)


def fd_mismatch_variance(trace: list[tuple[GroupedWeights, np.ndarray, np.ndarray]],
                         spec: QuantSpec) -> float:
    """Variance of the coordinate-wise mismatch against the FD reference gradient.

    The mismatch is gains_i * v_i - fd_i * v_i for the rule of the trace's
    own gains (all ones: the straight-through rule), pooled over every
    weight and trace step. The mismatches are written into one
    preallocated (steps, dim) array, so the variance reads one contiguous
    block.
    """
    if not trace:
        raise ValueError("empty trace")
    mism = np.empty((len(trace), trace[0][0].dim))
    for t, (weights, gains, v_bar) in enumerate(trace):
        v = np.asarray(v_bar, dtype=float)
        np.subtract(weights.per_weight(gains) * v, fd_reference(weights, spec) * v, out=mism[t])
    return float(np.var(mism.reshape(-1)))


@dataclass(frozen=True)
class ProbeRateResult:
    probe_counts: np.ndarray
    mean_errors: np.ndarray
    slope: float
    target: float


def probe_rate_harness(spec: QuantSpec, group_dim: int, sigma: float,
                       probe_counts: list[int], trials: int, seed: int = 0) -> ProbeRateResult:
    """Least-squares probe error versus probe count on a frozen mixed group.

    Weights are placed half inside the grid, within two steps of zero,
    and half deep in saturation.
    The probe estimator's population value is the Gaussian-smoothed
    quantizer slope, which matches the dither-smoothed oracle only when
    the probe scale is a sizable fraction of the step (the staircase
    averages out as exp(-2 pi^2 sigma^2 / step^2)) and interior weights
    sit several sigma away from the last grid boundary; callers should
    pass a multi-level grid and sigma >= step/2 so the bias stays below
    the probe noise at the largest probe count. The target is the group
    mean of the exact dither-smoothed slope at offset step/10. The fitted
    log-log slope of mean error against probe count is returned.
    """
    if len(probe_counts) < 3:
        raise ValueError("need at least three probe counts to fit a slope")
    step = float(spec.step)
    rng = substream(seed, "layout")
    n_sat = group_dim // 2
    vals = np.concatenate([
        rng.uniform(-2.0, 2.0, group_dim - n_sat) * step,
        rng.choice((-1.0, 1.0), n_sat) * rng.uniform(1.8, 2.6, n_sat) * step * spec.clip_codes,
    ])
    weights = GroupedWeights(vals, group_size=group_dim)
    target = float(np.mean(mean_field_sensitivity(weights, spec, probe_eps=step / 10.0)))
    counts = np.asarray(probe_counts, dtype=int)
    mean_errors = np.empty(len(counts), dtype=float)
    for k, m in enumerate(counts):
        errs = np.empty(trials)
        for t in range(trials):
            cross, energy = probe_slope_samples(weights, spec, sigma, int(m),
                                                substream(seed, "trial", k, t))
            denom = float(energy.sum())
            if denom == 0.0:
                raise ValueError("zero excitation")
            errs[t] = abs(float(cross.sum()) / denom - target)
        mean_errors[k] = float(np.mean(errs))
    if np.all(mean_errors > 1e-12):
        slope = float(np.polyfit(np.log(counts), np.log(mean_errors), 1)[0])
    else:
        slope = float("-inf")
    return ProbeRateResult(probe_counts=counts, mean_errors=mean_errors, slope=slope,
                           target=target)


@dataclass(frozen=True)
class TrackingResult:
    """Gain trace of :func:`tracking_harness` and its error in the terminal window.

    ``gains`` holds every step; ``oracle`` and ``errors`` hold only the
    last ``max(1, steps // 10)`` steps, the window ``terminal_error``
    averages, because the oracle is evaluated only there.
    """

    errors: np.ndarray
    gains: np.ndarray
    oracle: np.ndarray
    terminal_error: float


def tracking_harness(spec: QuantSpec, group_dim: int, drift_per_step: float, ema_rate: float,
                     steps: int, sigma: float, num_probes: int = 8,
                     seed: int = 0) -> TrackingResult:
    """Track the group-mean sensitivity of a drifting weight group.

    The group starts spread across the interior with one tail already
    saturated and drifts upward, so the target sensitivity keeps falling
    for the whole run, by ``drift_per_step`` steps per step.
    The terminal error is the mean tracking error over the last tenth of
    the run, against the group mean of the exact dither-smoothed slope at
    offset step/10; the oracle is evaluated in that window only (each
    evaluation depends on its own step's weights alone, so the window's
    values are those of an every-step oracle).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    step = float(spec.step)
    cfg = ProbeConfig(probe_sigma=sigma, num_probes=num_probes, seed=seed, ema_rate=ema_rate)
    rng = substream(seed, "layout")
    start = rng.uniform(-1.3, 0.9, group_dim) * step * spec.clip_codes
    weights = GroupedWeights(start, group_size=group_dim)
    gain = np.ones(1)
    gains = np.empty(steps)
    tail = max(1, steps // 10)
    window = steps - tail  # the first step of the terminal window
    oracle_trace = np.empty(tail)
    offset = 0.0
    for t in range(steps):
        offset += drift_per_step * step
        weights = weights.with_values(start + offset)
        gain = probe_update(weights, spec, gain, cfg, draw_key=t)
        gains[t] = float(gain[0])
        if t >= window:
            oracle = mean_field_sensitivity(weights, spec, probe_eps=step / 10.0)
            oracle_trace[t - window] = float(np.mean(oracle))
    errors = np.abs(gains[window:] - oracle_trace)
    return TrackingResult(errors=errors, gains=gains, oracle=oracle_trace,
                          terminal_error=float(np.mean(errors)))


@dataclass(frozen=True)
class PLContractionResult:
    gaps: np.ndarray
    floor: float
    worst_ratio: float
    contraction_bound: float
    contraction_holds: bool


def pl_contraction_harness(mu: float, l_smooth: float, eta: float, jac_err: float,
                           seed: int = 0) -> PLContractionResult:
    """Full-batch descent on a gradient-dominated quadratic with perturbed oracle gains.

    The quadratic is instance 3 of dimension 16, in groups of 8, and the
    run takes 400 steps. The quantizer is pass-through (the smooth surrogate of a
    code-preserving window), so the oracle sensitivity is one; each step
    perturbs the gains downward by jac_err * U(0,1) per group. The floor
    is the mean gap over the trailing fifth of the run, and the
    contraction bound 1 - eta * mu + 1e-3 is checked per step above the
    floor.
    """
    steps, dim = 400, 16
    obj = make_pl_instance(dim, mu, l_smooth, seed=3)
    t_bar = obj.mean_target()
    w = t_bar + substream(seed, "w0").normal(0.0, 1.0, dim)
    layout = GroupedWeights(w, group_size=8)
    gaps = np.empty(steps)
    l_star = obj.optimal_loss()
    for t in range(steps):
        gaps[t] = obj.full_loss(w) - l_star
        v = obj.curvature * (w - t_bar)
        u = substream(seed, "jacnoise", t).uniform(0.0, 1.0, layout.n_groups)
        gains = layout.per_weight(np.clip(1.0 - jac_err * u, 0.0, 1.0))
        w = w - eta * gains * v
    floor = float(np.mean(gaps[int(0.8 * steps):]))
    bound = 1.0 - eta * mu + 1e-3
    above = gaps[:-1] > max(10.0 * floor, 1e-280)
    ratios = gaps[1:][above] / gaps[:-1][above]
    worst = float(np.max(ratios)) if ratios.size else 0.0
    return PLContractionResult(gaps=gaps, floor=floor, worst_ratio=worst,
                               contraction_bound=bound,
                               contraction_holds=bool(worst <= bound))


@dataclass(frozen=True)
class WindowCompositionResult:
    window_gaps: np.ndarray
    final_gap: float


def window_composition_harness(deltas: np.ndarray, steps_per_window: int,
                               seed: int = 0) -> WindowCompositionResult:
    """Chain of quadratic windows whose optimum shifts by delta_k between windows.

    The quadratic has dimension 12, mu 0.1 and smoothness 1. Each window
    warm-starts from the previous endpoint and trains full batch at
    stepsize 0.5 under the pass-through quantizer, with all weights in
    one group; the terminal optimality gap of each window is recorded.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("need a 1-D schedule of window shifts")
    dim = 12
    base = make_pl_instance(dim, 0.1, 1.0, seed=seed)
    target = base.mean_target().copy()
    spec = QuantSpec.identity()
    weights = GroupedWeights(target + substream(seed, "w0").normal(0, 1.0, dim), group_size=dim)
    cfg = TrainConfig(stepsize=0.5, batch_size=1, steps=steps_per_window,
                      refresh=RefreshPolicy("interval", interval=10 ** 9),
                      jac_mode="ste", vr_mode="plain", seed=seed)
    gaps = np.empty(deltas.size)
    for k, delta in enumerate(deltas):
        direction = substream(seed, "shift", k).normal(0, 1.0, dim)
        norm = np.linalg.norm(direction)
        if norm > 0 and delta != 0.0:
            target = target + delta * direction / norm
        obj_k = Quadratic(curvature=base.curvature, targets=target[None, :])
        weights = train_vr(obj_k, weights, spec, cfg).weights
        gaps[k] = obj_k.full_loss(weights.values) - obj_k.optimal_loss()
    return WindowCompositionResult(window_gaps=gaps, final_gap=float(gaps[-1]))
