"""Training loops: variance-reduced, non-variance-reduced, and the plain baseline.

One step samples a minibatch, estimates a gradient from gain-modulated
per-sample gradients, and applies a constant-stepsize SGD update. The
gain vector refreshes on probability or fixed-interval events; each
refresh also synchronizes the variance-reduction anchor. Everything is
deterministic given the config seed.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .jacobian import ProbeConfig, SurrogateJacobian, apply_gains, dither_update, probe_ls_update, probe_update
from .objectives import Objective
from .quant import GroupedWeights, QuantSpec, calibrate_step, dither_quantize, draw_dither, per_weight, quantize
from .rng import substream
from .vrgrad import VRState, ctrl_update, grad_est, init_vr_state, refresh_anchor, surrogate_batch

__all__ = [
    "RefreshPolicy",
    "TrainConfig",
    "MetricsRecord",
    "DivergenceError",
    "TrainResult",
    "train_vr",
    "train_base",
    "run_sweep",
    "write_metrics_csv",
    "METRICS_HEADER",
]

_JAC_MODES = ("ste", "probe", "probe_ls", "dither")
_DIVERGENCE_FACTOR = 1e6

METRICS_HEADER = ("step", "loss", "grad_norm", "surrogate_grad_norm", "mean_gain",
                  "min_gain", "max_gain", "frac_saturated", "refresh")


@dataclass(frozen=True)
class RefreshPolicy:
    """Refresh trigger: probability p per step, or every k-th step."""

    kind: str
    probability: float = 0.01
    interval: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("probability", "interval"):
            raise ValueError(f"unknown refresh kind {self.kind!r}")
        if self.kind == "probability" and not 0.0 < self.probability <= 1.0:
            raise ValueError("refresh probability out of (0,1]")
        if self.kind == "interval" and self.interval < 1:
            raise ValueError("refresh interval must be >= 1")

    def fires(self, step: int, seed: int) -> bool:
        if self.kind == "interval":
            return step % self.interval == 0
        u = float(substream(seed, "refresh", step).uniform())
        return u <= self.probability


@dataclass(frozen=True)
class TrainConfig:
    stepsize: float
    batch_size: int
    steps: int
    refresh: RefreshPolicy
    jac_mode: str = "probe"
    vr_mode: str = "svrg"
    ema_rate: float = 0.9
    probe_sigma: float | None = None
    num_probes: int = 1
    gain_clip_lo: float = 0.0
    gain_clip_hi: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.stepsize > 0:
            raise ValueError("stepsize must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.jac_mode not in _JAC_MODES:
            raise ValueError(f"unknown jac_mode {self.jac_mode!r}")
        if self.vr_mode not in ("plain", "svrg", "saga", "sarah"):
            raise ValueError(f"unknown vr_mode {self.vr_mode!r}")
        if not 0.0 < self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in (0, 1]")

    def probe_config(self, spec: QuantSpec) -> ProbeConfig:
        if self.probe_sigma is not None:
            return ProbeConfig(sigma=self.probe_sigma, num_probes=self.num_probes,
                               seed_tag=self.seed)
        return ProbeConfig.for_spec(spec, num_probes=self.num_probes, seed_tag=self.seed)


@dataclass(frozen=True)
class MetricsRecord:
    """Scalar observables of one training step."""

    step: int
    loss: float
    grad_norm: float
    surrogate_grad_norm: float
    mean_gain: float
    min_gain: float
    max_gain: float
    frac_saturated: float
    refresh: bool


class DivergenceError(RuntimeError):
    """Loss exceeded the divergence guard; carries the trace so far."""

    def __init__(self, message: str, trace: list[MetricsRecord]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainResult:
    """Final weights and gains plus the per-step metrics trace.

    ``state_trace`` holds (weights, gains, mean upstream gradient) triples
    for each step when the run was asked to capture them.
    """

    weights: GroupedWeights
    gains: SurrogateJacobian
    metrics: list[MetricsRecord]
    state_trace: list[tuple[GroupedWeights, SurrogateJacobian, np.ndarray]] | None = None

    def __iter__(self):
        # allows ``weights, metrics = train_...(...)`` unpacking
        return iter((self.weights, self.metrics))


def _frac_saturated(weights: GroupedWeights, spec: QuantSpec) -> float:
    if spec.mode == "identity" or weights.dim == 0:
        return 0.0
    clip = per_weight(spec.clip_level(), weights.group_bounds)
    return float(np.mean(np.abs(weights.values) > clip))


def _sample_batch(n: int, batch_size: int, seed: int, step: int) -> np.ndarray:
    rng = substream(seed, "minibatch", step)
    return rng.choice(n, size=min(batch_size, n), replace=False)


def _record(step: int, loss: float, v_bar: np.ndarray, g: np.ndarray,
            jac: SurrogateJacobian, weights: GroupedWeights, spec: QuantSpec,
            refreshed: bool) -> MetricsRecord:
    return MetricsRecord(
        step=step,
        loss=loss,
        grad_norm=float(np.linalg.norm(v_bar)),
        surrogate_grad_norm=float(np.linalg.norm(g)),
        mean_gain=float(np.mean(jac.gains)),
        min_gain=float(np.min(jac.gains)),
        max_gain=float(np.max(jac.gains)),
        frac_saturated=_frac_saturated(weights, spec),
        refresh=refreshed,
    )


def _guard(loss: float, initial_loss: float, step: int, trace: list[MetricsRecord]) -> None:
    limit = _DIVERGENCE_FACTOR * max(abs(initial_loss), 1e-12)
    if not np.isfinite(loss) or loss > limit:
        raise DivergenceError(f"loss {loss:.3e} exceeded divergence guard at step {step}", trace)


def _update_gains(jac: SurrogateJacobian, weights: GroupedWeights, spec: QuantSpec,
                  cfg: TrainConfig, probe_cfg: ProbeConfig, step: int,
                  fixed_dither=None) -> SurrogateJacobian:
    if cfg.jac_mode == "ste":
        return jac
    if cfg.jac_mode == "probe":
        return probe_update(weights, spec, jac, probe_cfg, draw_key=step)
    if cfg.jac_mode == "probe_ls":
        return probe_ls_update(weights, spec, jac, probe_cfg, draw_key=step)
    return dither_update(weights, spec, jac, probe_cfg, dither_seed=cfg.seed,
                         draw_key=step, fixed_dither=fixed_dither)


def train_vr(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
             initial_gains: SurrogateJacobian | None = None,
             capture_trace: bool = False) -> TrainResult:
    """Variance-reduced loop with anchored refreshes.

    Gains start at identity (the straight-through point) unless given.
    Refresh events update the gains, synchronize the anchor to the new
    point, and recompute the reference gradient.
    """
    probe_cfg = cfg.probe_config(spec)
    jac = initial_gains if initial_gains is not None else SurrogateJacobian.identity(
        weights0.n_groups, ema_rate=cfg.ema_rate, clip_lo=cfg.gain_clip_lo,
        clip_hi=cfg.gain_clip_hi)
    weights = weights0
    state = init_vr_state(cfg.vr_mode, weights, jac, obj, spec)
    trace: list[MetricsRecord] = []
    states: list[tuple[GroupedWeights, SurrogateJacobian, np.ndarray]] | None = (
        [] if capture_trace else None)
    initial_loss = None
    for step in range(1, cfg.steps + 1):
        batch = _sample_batch(obj.n, cfg.batch_size, cfg.seed, step)
        loss, v_bar, _ = surrogate_batch(weights, jac, obj, spec, batch)
        g = grad_est(weights, jac, state, obj, spec, batch)
        if states is not None:
            states.append((weights, jac, v_bar))
        new_weights = weights.with_values(weights.values - cfg.stepsize * g)
        state = ctrl_update(state, new_weights, batch, obj, spec, jac=jac, grad=g)
        refreshed = cfg.refresh.fires(step, cfg.seed)
        if refreshed:
            jac = _update_gains(jac, new_weights, spec, cfg, probe_cfg, step)
            state = refresh_anchor(state, new_weights, jac, obj, spec)
        trace.append(_record(step, loss, v_bar, g, jac, weights, spec, refreshed))
        if initial_loss is None:
            initial_loss = loss
        _guard(loss, initial_loss, step, trace)
        weights = new_weights
    return TrainResult(weights=weights, gains=jac, metrics=trace, state_trace=states)


def train_base(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
               initial_gains: SurrogateJacobian | None = None,
               capture_trace: bool = False) -> TrainResult:
    """Plain minibatch loop; no control variates (vr_mode is ignored).

    Probe modes refresh the gains on the configured schedule. Dither mode
    draws a fresh dither each step, runs the forward on the de-dithered
    proxy, and updates the gains every step reusing the forward dither.
    """
    probe_cfg = cfg.probe_config(spec)
    jac = initial_gains if initial_gains is not None else SurrogateJacobian.identity(
        weights0.n_groups, ema_rate=cfg.ema_rate, clip_lo=cfg.gain_clip_lo,
        clip_hi=cfg.gain_clip_hi)
    weights = weights0
    trace: list[MetricsRecord] = []
    states: list[tuple[GroupedWeights, SurrogateJacobian, np.ndarray]] | None = (
        [] if capture_trace else None)
    initial_loss = None
    for step in range(1, cfg.steps + 1):
        batch = _sample_batch(obj.n, cfg.batch_size, cfg.seed, step)
        dither = None
        if cfg.jac_mode == "dither":
            dither = draw_dither(weights, spec, cfg.seed, seed_tag=step)
            q = dither_quantize(weights, dither, spec)
        else:
            q = quantize(weights, spec)
        loss, v_bar, g = surrogate_batch(weights, jac, obj, spec, batch, q=q)
        if states is not None:
            states.append((weights, jac, v_bar))
        new_weights = weights.with_values(weights.values - cfg.stepsize * g)
        refreshed = False
        if cfg.jac_mode in ("probe", "probe_ls") and cfg.refresh.fires(step, cfg.seed):
            jac = _update_gains(jac, new_weights, spec, cfg, probe_cfg, step)
            refreshed = True
        elif cfg.jac_mode == "dither":
            jac = _update_gains(jac, new_weights, spec, cfg, probe_cfg, step,
                                fixed_dither=dither)
            refreshed = True
        trace.append(_record(step, loss, v_bar, g, jac, weights, spec, refreshed))
        if initial_loss is None:
            initial_loss = loss
        _guard(loss, initial_loss, step, trace)
        weights = new_weights
    return TrainResult(weights=weights, gains=jac, metrics=trace, state_trace=states)


def _run_cell(args) -> dict:
    obj, values, spec, cfg, group_size, refresh, jac_mode, use_base = args
    weights = GroupedWeights.from_flat(values, group_size)
    cell_spec = replace(spec, group_size=group_size, step=float(np.min(spec.step)))
    if spec.per_group:
        cell_spec = calibrate_step(weights, cell_spec)
    cell_cfg = replace(cfg, refresh=refresh, jac_mode=jac_mode)
    result = {
        "group_size": group_size,
        "refresh_kind": refresh.kind,
        "refresh_value": refresh.probability if refresh.kind == "probability" else refresh.interval,
        "jac_mode": jac_mode,
        "seed": cfg.seed,
        "final_loss": float("nan"),
        "steps_run": 0,
        "error": "",
    }
    try:
        runner = train_base if use_base else train_vr
        res = runner(obj, weights, cell_spec, cell_cfg)
        result["final_loss"] = obj.full_loss(quantize(res.weights, cell_spec))
        result["steps_run"] = len(res.metrics)
    except (DivergenceError, ValueError) as exc:
        result["error"] = str(exc)
    return result


def run_sweep(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, base_cfg: TrainConfig,
              group_sizes: list[int] | None = None,
              refresh_policies: list[RefreshPolicy] | None = None,
              jac_modes: list[str] | None = None,
              use_base: bool = False, jobs: int = 1) -> list[dict]:
    """One full run per grid cell; shared seed; errors recorded, sweep continues.

    ``final_loss`` is the full-dataset loss at the final quantized point.
    """
    group_sizes = group_sizes or [spec.group_size]
    refresh_policies = refresh_policies or [base_cfg.refresh]
    jac_modes = jac_modes or [base_cfg.jac_mode]
    if not group_sizes or not refresh_policies or not jac_modes:
        raise ValueError("empty sweep grid")
    cells = [(obj, weights0.values, spec, base_cfg, gs, rp, jm, use_base)
             for gs, rp, jm in product(group_sizes, refresh_policies, jac_modes)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(cell) for cell in cells]


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_metrics_csv(trace: list[MetricsRecord], path: str) -> None:
    """Fixed-header CSV, one row per step; written whole-file-or-nothing."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_HEADER)
    for rec in trace:
        writer.writerow([
            rec.step, repr(rec.loss), repr(rec.grad_norm), repr(rec.surrogate_grad_norm),
            repr(rec.mean_gain), repr(rec.min_gain), repr(rec.max_gain),
            repr(rec.frac_saturated), int(rec.refresh),
        ])
    atomic_write_text(path, buf.getvalue())
