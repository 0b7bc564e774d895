"""Numerical harnesses that check the backward-rule theory on small objectives.

Each harness measures one claim: the bias of a backward rule against the
dither-smoothed target gradient, the finite-difference mismatch variance,
the probe least-squares error rate, the dithered fixed point, EMA
tracking under drift, linear contraction with a gain-error floor, and
composition of runs across shifted windows. Harnesses return plain data
objects; the CLI serializes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .jacobian import ProbeConfig, SurrogateJacobian, apply_gains, probe_slope_samples, probe_update
from .objectives import Objective, Quadratic, make_pl_instance
from .quant import GroupedWeights, QuantSpec, group_sizes, mean_field_sensitivity, quantize_array
from .rng import substream
from .trainer import RefreshPolicy, TrainConfig, train_vr
from .vrgrad import surrogate_batch

__all__ = [
    "MCConfig",
    "DiagnosticsReport",
    "target_gradient",
    "bias_report",
    "fd_reference",
    "fd_mismatch_variance",
    "probe_rate_harness",
    "tracking_harness",
    "pl_contraction_harness",
    "window_composition_harness",
    "grad_norm_trend",
]


@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo settings for the sensitivity oracle."""

    n_samples: int = 4000
    seed: int = 0
    probe_eps: float | None = None


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bias of both backward rules against the smoothed target gradient.

    ``gamma`` is the straight-through mismatch max_i |1 - J_i|;
    ``epsilon_sup`` is the current gain mismatch times the upstream
    gradient norm (the quantity whose running sup bounds the residual in
    the convergence statements). FD-mismatch variances are filled in by
    :func:`fd_mismatch_variance` runs and default to nan here.
    """

    j_hat: np.ndarray
    j_sem: np.ndarray
    gamma: float
    bias_jacquant: float
    bias_ste: float
    bound_jacquant: float
    bound_ste: float
    jacquant_bound_holds: bool
    ste_bound_holds: bool
    epsilon_sup: float
    fd_mismatch_var_jacquant: float = float("nan")
    fd_mismatch_var_ste: float = float("nan")


def target_gradient(weights: GroupedWeights, v_bar: np.ndarray, spec: QuantSpec,
                    mc: MCConfig = MCConfig()) -> np.ndarray:
    """Smoothed-sensitivity target: per-coordinate J_i * v_i."""
    j_hat = mean_field_sensitivity(weights, spec, probe_eps=mc.probe_eps,
                                   n_samples=mc.n_samples, seed=mc.seed)
    return j_hat * np.asarray(v_bar, dtype=float)


def bias_report(weights: GroupedWeights, jac: SurrogateJacobian, v_bar: np.ndarray,
                spec: QuantSpec, mc: MCConfig = MCConfig()) -> DiagnosticsReport:
    """Compare both backward rules against the smoothed target gradient."""
    v_bar = np.asarray(v_bar, dtype=float)
    j_hat, j_sem = mean_field_sensitivity(weights, spec, probe_eps=mc.probe_eps,
                                          n_samples=mc.n_samples, seed=mc.seed,
                                          return_sem=True)
    g_target = j_hat * v_bar
    g_learned = apply_gains(jac, v_bar, weights.group_bounds)
    v_norm = float(np.linalg.norm(v_bar))
    gains_per_weight = apply_gains(jac, np.ones(weights.dim), weights.group_bounds)
    gamma = float(np.max(np.abs(1.0 - j_hat))) if weights.dim else 0.0
    bias_jq = float(np.linalg.norm(g_learned - g_target))
    bias_ste = float(np.linalg.norm(v_bar - g_target))
    bound_jq = float(np.max(np.abs(gains_per_weight - j_hat))) * v_norm if weights.dim else 0.0
    bound_ste = gamma * v_norm
    slack = 1e-9 * max(v_norm, 1.0)
    return DiagnosticsReport(
        j_hat=j_hat,
        j_sem=j_sem,
        gamma=gamma,
        bias_jacquant=bias_jq,
        bias_ste=bias_ste,
        bound_jacquant=bound_jq,
        bound_ste=bound_ste,
        jacquant_bound_holds=bias_jq <= bound_jq + slack,
        ste_bound_holds=bias_ste <= bound_ste + slack,
        epsilon_sup=bound_jq,
    )


def fd_reference(weights: GroupedWeights, spec: QuantSpec, eps: float | None = None,
                 coords: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Central difference of the hard quantizer at sampled coordinates.

    Values are 0 or step/(2*eps) by construction (eps below half a step).
    Default eps is step/10.
    """
    if coords is None:
        coords = np.arange(weights.dim)
    coords = np.asarray(coords, dtype=int)
    step_c = spec.step_per_weight(weights.group_bounds)[coords]
    eps_c = (step_c / 10.0) if eps is None else eps
    if np.any(np.asarray(eps_c) <= 0):
        raise ValueError("eps must be positive")
    w_c = weights.values[coords]
    hi = quantize_array(w_c + eps_c, spec, step=step_c)
    lo = quantize_array(w_c - eps_c, spec, step=step_c)
    return coords, (hi - lo) / (2.0 * eps_c)


def fd_mismatch_variance(trace: list[tuple[GroupedWeights, SurrogateJacobian, np.ndarray]],
                         spec: QuantSpec, eps: float | None = None,
                         coords: np.ndarray | None = None) -> tuple[float, float]:
    """Variance of the coordinate-wise mismatch against the FD reference gradient.

    The mismatch is rule_i - fd_i * v_i for the learned rule (gains * v)
    and the straight-through rule (v), pooled over sampled coordinates
    and trace steps.
    """
    if not trace:
        raise ValueError("empty trace")
    mism_jq: list[np.ndarray] = []
    mism_ste: list[np.ndarray] = []
    for weights, jac, v_bar in trace:
        idx, fd = fd_reference(weights, spec, eps=eps, coords=coords)
        v = np.asarray(v_bar, dtype=float)[idx]
        gains = apply_gains(jac, np.ones(weights.dim), weights.group_bounds)[idx]
        ref = fd * v
        mism_jq.append(gains * v - ref)
        mism_ste.append(v - ref)
    return float(np.var(np.concatenate(mism_jq))), float(np.var(np.concatenate(mism_ste)))


@dataclass(frozen=True)
class ProbeRateResult:
    probe_counts: np.ndarray
    mean_errors: np.ndarray
    slope: float
    target: float


def probe_rate_harness(spec: QuantSpec, group_dim: int, sigma: float,
                       probe_counts: list[int], trials: int, seed: int = 0,
                       interior_halfwidth: float = 2.0,
                       oracle_samples: int = 100_000) -> ProbeRateResult:
    """Least-squares probe error versus probe count on a frozen mixed group.

    Weights are placed half inside the grid and half deep in saturation.
    The probe estimator's population value is the Gaussian-smoothed
    quantizer slope, which matches the dither-smoothed oracle only when
    the probe scale is a sizable fraction of the step (the staircase
    averages out as exp(-2 pi^2 sigma^2 / step^2)) and interior weights
    sit several sigma away from the last grid boundary; callers should
    pass a multi-level grid and sigma >= step/2 so the bias stays below
    the probe noise at the largest probe count. ``interior_halfwidth``
    is in units of the step. The fitted log-log slope of mean error
    against probe count is returned.
    """
    if len(probe_counts) < 3:
        raise ValueError("need at least three probe counts to fit a slope")
    step = float(spec.step)
    rng = substream(seed, "layout")
    n_sat = group_dim // 2
    vals = np.concatenate([
        rng.uniform(-interior_halfwidth, interior_halfwidth, group_dim - n_sat) * step,
        rng.choice((-1.0, 1.0), n_sat) * rng.uniform(1.8, 2.6, n_sat) * step * spec.clip_codes,
    ])
    weights = GroupedWeights.from_flat(vals, group_size=group_dim)
    # wide FD offset: exact in the linear/flat regions this layout uses,
    # and 10x less oracle noise than the default offset
    oracle = mean_field_sensitivity(weights, spec, probe_eps=step / 10.0,
                                    n_samples=oracle_samples, seed=seed + 1)
    target = float(np.mean(oracle))
    counts = np.asarray(probe_counts, dtype=int)
    mean_errors = np.empty(len(counts), dtype=float)
    for k, m in enumerate(counts):
        errs = np.empty(trials)
        for t in range(trials):
            cross, energy = probe_slope_samples(vals, spec, step, sigma, int(m),
                                                substream(seed, "trial", k, t))
            denom = float(energy.sum())
            if denom == 0.0:
                raise ValueError("zero excitation")
            errs[t] = abs(float(cross.sum()) / denom - target)
        mean_errors[k] = float(np.mean(errs))
    effective = np.maximum(mean_errors, 0.0)
    if np.all(effective > 1e-12):
        slope = float(np.polyfit(np.log(counts), np.log(effective), 1)[0])
    else:
        slope = float("-inf")
    return ProbeRateResult(probe_counts=counts, mean_errors=mean_errors, slope=slope,
                           target=target)


@dataclass(frozen=True)
class TrackingResult:
    errors: np.ndarray
    gains: np.ndarray
    oracle: np.ndarray
    terminal_error: float


def tracking_harness(spec: QuantSpec, group_dim: int, drift_per_step: np.ndarray | float,
                     ema_rates: np.ndarray | float, steps: int, sigma: float,
                     num_probes: int = 8, seed: int = 0,
                     oracle_samples: int = 2000) -> TrackingResult:
    """Track the group-mean sensitivity of a drifting weight group.

    The group starts spread across the interior with one tail already
    saturated and drifts upward, so the target sensitivity keeps falling
    for the whole run. Per-step drift and EMA rate may be schedules.
    The terminal error is the mean tracking error over the last tenth of
    the run.
    """
    step = float(spec.step)
    drift = np.broadcast_to(np.asarray(drift_per_step, dtype=float), (steps,))
    betas = np.broadcast_to(np.asarray(ema_rates, dtype=float), (steps,))
    rng = substream(seed, "layout")
    start = rng.uniform(-1.3, 0.9, group_dim) * step * spec.clip_codes
    weights = GroupedWeights.from_flat(start, group_size=group_dim)
    jac = SurrogateJacobian.identity(1)
    errors = np.empty(steps)
    gains = np.empty(steps)
    oracle_trace = np.empty(steps)
    offset = 0.0
    for t in range(steps):
        offset += float(drift[t]) * step
        weights = weights.with_values(start + offset)
        jac = replace(jac, ema_rate=float(betas[t]))
        jac = probe_update(weights, spec, jac,
                           ProbeConfig(sigma=sigma, num_probes=num_probes, seed_tag=seed),
                           draw_key=t)
        oracle = mean_field_sensitivity(weights, spec, probe_eps=step / 10.0,
                                        n_samples=oracle_samples, seed=seed + 7)
        oracle_trace[t] = float(np.mean(oracle))
        gains[t] = float(jac.gains[0])
        errors[t] = abs(gains[t] - oracle_trace[t])
    tail = max(1, steps // 10)
    return TrackingResult(errors=errors, gains=gains, oracle=oracle_trace,
                          terminal_error=float(np.mean(errors[-tail:])))


@dataclass(frozen=True)
class PLContractionResult:
    gaps: np.ndarray
    floor: float
    worst_ratio: float
    contraction_bound: float
    contraction_holds: bool


def pl_contraction_harness(mu: float, l_smooth: float, eta: float, jac_err: float,
                           steps: int = 400, dim: int = 16, group_size: int = 8,
                           seed: int = 0, instance_seed: int = 3) -> PLContractionResult:
    """Full-batch descent on a gradient-dominated quadratic with perturbed oracle gains.

    The quantizer is pass-through (the smooth surrogate of a
    code-preserving window), so the oracle sensitivity is one; each step
    perturbs the gains downward by jac_err * U(0,1) per group. The floor
    is the mean gap over the trailing fifth of the run, and the
    contraction bound 1 - eta * mu + 1e-3 is checked per step above the
    floor.
    """
    obj = make_pl_instance(dim, mu, l_smooth, seed=instance_seed)
    t_bar = obj.mean_target()
    w = t_bar + substream(seed, "w0").normal(0.0, 1.0, dim)
    sizes = group_sizes(GroupedWeights.from_flat(w, group_size).group_bounds)
    n_groups = sizes.size
    gaps = np.empty(steps)
    l_star = obj.optimal_loss()
    for t in range(steps):
        gaps[t] = obj.full_loss(w) - l_star
        v = obj._apply_a(w - t_bar)
        u = substream(seed, "jacnoise", t).uniform(0.0, 1.0, n_groups)
        gains = np.repeat(np.clip(1.0 - jac_err * u, 0.0, 1.0), sizes)
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


def window_composition_harness(deltas: np.ndarray, steps_per_window: int, dim: int = 12,
                               mu: float = 0.1, l_smooth: float = 1.0, eta: float = 0.5,
                               seed: int = 0,
                               spec: QuantSpec | None = None) -> WindowCompositionResult:
    """Chain of quadratic windows whose optimum shifts by delta_k between windows.

    Each window warm-starts from the previous endpoint and trains full
    batch; the terminal optimality gap of each window is recorded.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValueError("need a 1-D schedule of window shifts")
    base = make_pl_instance(dim, mu, l_smooth, seed=seed)
    target = base.mean_target().copy()
    if spec is None:
        spec = QuantSpec.identity(group_size=dim)
    weights = GroupedWeights.from_flat(target + substream(seed, "w0").normal(0, 1.0, dim),
                                       group_size=spec.group_size)
    cfg = TrainConfig(stepsize=eta, batch_size=1, steps=steps_per_window,
                      refresh=RefreshPolicy("interval", interval=10 ** 9),
                      jac_mode="ste", vr_mode="plain", seed=seed)
    gaps = np.empty(deltas.size)
    for k, delta in enumerate(deltas):
        direction = substream(seed, "shift", k).normal(0, 1.0, dim)
        norm = np.linalg.norm(direction)
        if norm > 0 and delta != 0.0:
            target = target + delta * direction / norm
        obj_k = Quadratic(curvature=base.curvature, targets=target[None, :])
        weights, _ = train_vr(obj_k, weights, spec, cfg)
        gaps[k] = obj_k.full_loss(weights.values) - obj_k.optimal_loss()
    return WindowCompositionResult(window_gaps=gaps, final_gap=float(gaps[-1]))


def grad_norm_trend(obj: Objective, weights0: GroupedWeights, spec: QuantSpec,
                    cfg: TrainConfig, horizons: list[int]) -> dict[int, float]:
    """Minimum upstream-gradient norm over the first T steps, per horizon.

    One run at the longest horizon; prefix minima are reported so the
    decay of the best-seen gradient norm can be checked as T grows. The
    longest horizon's value is the measured residual floor.
    """
    horizons = sorted(set(int(h) for h in horizons))
    if not horizons:
        raise ValueError("need at least one horizon")
    run_cfg = replace(cfg, steps=horizons[-1])
    _, trace = train_vr(obj, weights0, spec, run_cfg)
    norms = np.array([rec.grad_norm for rec in trace])
    return {h: float(np.min(norms[:h])) for h in horizons}
