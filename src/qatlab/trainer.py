"""One training loop, entered as the variance-reduced or the plain baseline loop.

One step samples a minibatch, evaluates its per-sample gradients once at
the step's quantized point, estimates a gradient from their gain-modulated
mean, and applies a constant-stepsize SGD update. The entry points differ
only in forward and gain cadence: ``train_vr`` refreshes the gains and the
variance-reduction anchor on probability or fixed-interval events;
``train_base`` has no control variates, refreshes probe gains on that
schedule and ``ste`` never, and in ``dither`` mode runs a dithered forward
and updates the gains every step. Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

# apply_gains is unused here; perfbench's tracer test reads qatlab.trainer.apply_gains
from .jacobian import ProbeConfig, apply_gains, dither_update, probe_ls_update, probe_update
from .objectives import Objective, batch_grad
from .quant import GroupedWeights, QuantSpec, calibrate_step, dither_quantize, draw_dither, quantize
from .rng import substream
from .vrgrad import ctrl_update, grad_est, init_vr_state, refresh_anchor

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
_VR_MODES = ("plain", "svrg", "saga", "sarah")
_DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class RefreshPolicy:
    """Refresh trigger: probability p per step, or every k-th step."""

    kind: str
    probability: float = 0.01
    interval: int = 100

    def __post_init__(self) -> None:
        if self.kind not in ("probability", "interval"):
            raise ValueError(f"refresh kind {self.kind!r} not one of interval|probability")
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
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.stepsize > 0:
            raise ValueError("stepsize must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.jac_mode not in _JAC_MODES:
            raise ValueError(f"jac_mode {self.jac_mode!r} not one of {'|'.join(_JAC_MODES)}")
        if self.vr_mode not in _VR_MODES:
            raise ValueError(f"vr_mode {self.vr_mode!r} not one of {'|'.join(_VR_MODES)}")
        if not 0.0 < self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in (0, 1]")
        if self.probe_sigma is not None and not self.probe_sigma > 0:
            raise ValueError("probe_sigma must be positive or null")
        if self.num_probes < 1:
            raise ValueError("num_probes must be >= 1")

    def probe_config(self, spec: QuantSpec) -> ProbeConfig:
        if self.probe_sigma is not None:
            return ProbeConfig(sigma=self.probe_sigma, num_probes=self.num_probes,
                               seed_tag=self.seed, ema_rate=self.ema_rate)
        return ProbeConfig.for_spec(spec, num_probes=self.num_probes, seed_tag=self.seed,
                                    ema_rate=self.ema_rate)


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


METRICS_HEADER = tuple(f.name for f in fields(MetricsRecord))


class DivergenceError(RuntimeError):
    """Loss exceeded the divergence guard; carries the trace so far."""

    def __init__(self, message: str, trace: list[MetricsRecord]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainResult:
    """Final weights and (n_groups,) gains plus the per-step metrics trace.

    ``state_trace`` holds (weights, gains, mean upstream gradient) triples
    for each step when the run was asked to capture them.
    """

    weights: GroupedWeights
    gains: np.ndarray
    metrics: list[MetricsRecord]
    state_trace: list[tuple[GroupedWeights, np.ndarray, np.ndarray]] | None = None


def _gain_stats(gains: np.ndarray) -> tuple[float, float, float]:
    """Mean, min and max gain: recomputed only when the gains change."""
    return float(np.mean(gains)), float(np.min(gains)), float(np.max(gains))


def _sample_batch(n: int, batch_size: int, seed: int, step: int) -> np.ndarray:
    rng = substream(seed, "minibatch", step)
    return rng.choice(n, size=min(batch_size, n), replace=False)


def _record(step: int, loss: float, v_bar: np.ndarray, g: np.ndarray,
            gain_stats: tuple[float, float, float], weights: GroupedWeights,
            clip: float | np.ndarray | None, refreshed: bool) -> MetricsRecord:
    mean_gain, min_gain, max_gain = gain_stats
    return MetricsRecord(
        step=step,
        loss=loss,
        grad_norm=float(np.linalg.norm(v_bar)),
        surrogate_grad_norm=float(np.linalg.norm(g)),
        mean_gain=mean_gain,
        min_gain=min_gain,
        max_gain=max_gain,
        frac_saturated=0.0 if clip is None else float(np.mean(np.abs(weights.values) > clip)),
        refresh=refreshed,
    )


def _guard(loss: float, initial_loss: float, step: int, trace: list[MetricsRecord]) -> None:
    limit = _DIVERGENCE_FACTOR * max(abs(initial_loss), 1e-12)
    if not np.isfinite(loss) or loss > limit:
        raise DivergenceError(f"loss {loss:.3e} exceeded divergence guard at step {step}", trace)


def _update_gains(gains: np.ndarray, weights: GroupedWeights, spec: QuantSpec,
                  cfg: TrainConfig, probe_cfg: ProbeConfig, step: int,
                  fixed_dither: np.ndarray | None = None) -> np.ndarray:
    if cfg.jac_mode == "ste":
        return gains
    if cfg.jac_mode == "probe":
        return probe_update(weights, spec, gains, probe_cfg, draw_key=step)
    if cfg.jac_mode == "probe_ls":
        return probe_ls_update(weights, spec, gains, probe_cfg, draw_key=step)
    return dither_update(weights, spec, gains, probe_cfg, dither_seed=cfg.seed,
                         draw_key=step, fixed_dither=fixed_dither)


def _train(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
           capture_trace: bool, base: bool) -> TrainResult:
    probe_cfg = cfg.probe_config(spec)
    gains = np.ones(weights0.n_groups)  # the straight-through starting point
    gain_stats, scale = _gain_stats(gains), weights0.per_weight(gains)
    # each weight's clip level is fixed for the run; the identity grid never clips
    clip = None if spec.mode == "identity" else weights0.broadcast(spec.clip_level())
    dithered = base and cfg.jac_mode == "dither"
    scheduled = not base or cfg.jac_mode in ("probe", "probe_ls")
    weights = weights0
    q = None if dithered else quantize(weights, spec)  # the hard forward is carried to the next step
    state = init_vr_state("plain" if base else cfg.vr_mode, q, scale, obj)
    trace: list[MetricsRecord] = []
    states: list[tuple[GroupedWeights, np.ndarray, np.ndarray]] | None = (
        [] if capture_trace else None)
    initial_loss = None
    for step in range(1, cfg.steps + 1):
        batch = _sample_batch(obj.n, cfg.batch_size, cfg.seed, step)
        dither = None
        if dithered:
            dither = draw_dither(weights, spec, cfg.seed, seed_tag=step)
            q = dither_quantize(weights, dither, spec)
        loss, v_bar = batch_grad(obj, q, batch)
        g = grad_est(v_bar, scale, state, obj, batch)
        if states is not None:
            states.append((weights, gains, v_bar))
        new_weights = weights.with_values(weights.values - cfg.stepsize * g)
        if initial_loss is None:
            initial_loss = loss
        if not np.all(np.isfinite(new_weights.values)):
            trace.append(_record(step, loss, v_bar, g, gain_stats, weights, clip, False))
            _guard(loss, initial_loss, step, trace)
            raise DivergenceError(f"latent weights became non-finite at step {step}", trace)
        q_next = None if dithered else quantize(new_weights, spec)
        # SARAH differences the next step against this step's point; SAGA's table moves on
        state = ctrl_update(state, q if state.mode == "sarah" else q_next, scale, batch, obj,
                            grad=g)
        q = q_next
        refreshed = dithered or (scheduled and cfg.refresh.fires(step, cfg.seed))
        if refreshed:
            gains = _update_gains(gains, new_weights, spec, cfg, probe_cfg, step,
                                  fixed_dither=dither)
            gain_stats, scale = _gain_stats(gains), new_weights.per_weight(gains)
            state = refresh_anchor(state, q, scale, obj)
        trace.append(_record(step, loss, v_bar, g, gain_stats, weights, clip, refreshed))
        _guard(loss, initial_loss, step, trace)
        weights = new_weights
    return TrainResult(weights=weights, gains=gains, metrics=trace, state_trace=states)


def train_vr(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
             capture_trace: bool = False) -> TrainResult:
    """Variance-reduced loop with anchored refreshes.

    Gains start at one (the straight-through point). Refresh events update
    the gains, synchronize the anchor to the new point, and recompute the
    reference gradient.
    """
    return _train(obj, weights0, spec, cfg, capture_trace, base=False)


def train_base(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
               capture_trace: bool = False) -> TrainResult:
    """Plain minibatch loop; no control variates (vr_mode is ignored).

    Probe modes refresh the gains on the configured schedule. Dither mode
    draws a fresh dither each step, runs the forward on the de-dithered
    proxy, and updates the gains every step reusing the forward dither.
    """
    return _train(obj, weights0, spec, cfg, capture_trace, base=True)


def _run_cell(args) -> dict:
    obj, values, spec, cfg, group_size, refresh, jac_mode, use_base = args
    weights = GroupedWeights(values, group_size)
    cell_spec = calibrate_step(weights, spec) if spec.per_group else spec
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
    ``jobs`` caps the worker processes; no more start than there are cells.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    group_sizes = group_sizes or [weights0.group_size]
    refresh_policies = refresh_policies or [base_cfg.refresh]
    jac_modes = jac_modes or [base_cfg.jac_mode]
    cells = [(obj, weights0.values, spec, base_cfg, gs, rp, jm, use_base)
             for gs, rp, jm in product(group_sizes, refresh_policies, jac_modes)]
    workers = min(jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    for rec in trace:  # floats as repr, the refresh flag as 0/1
        writer.writerow([int(v) if isinstance(v, bool) else repr(v)
                         for v in (getattr(rec, name) for name in METRICS_HEADER)])
    atomic_write_text(path, buf.getvalue())
