"""One training loop; ``train.loop`` picks the variance-reduced or the plain baseline run.

One step samples a minibatch, evaluates its per-sample gradients once at
the step's quantized point, estimates a gradient from their gain-modulated
mean, and applies a constant-stepsize SGD update. Refresh events, on a
probability or fixed-interval schedule, update the gains and move the
variance-reduction anchor; an event that would change neither is skipped.
``loop: base`` is the plain estimator whatever ``vr_mode`` says, and in
``dither`` mode also runs a dithered forward and updates the gains every
step. Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

# apply_gains is unused here; perfbench's tracer test reads qatlab.trainer.apply_gains
from .jacobian import ProbeConfig, apply_gains, dither_update, probe_ls_update, probe_update
from .objectives import Objective, batch_grad
from .quant import GroupedWeights, QuantSpec, calibrate_step, dither_quantize, draw_dither, quantize
from .rng import substream
from .vrgrad import _MODES as _VR_MODES, ctrl_update, grad_est, init_vr_state, refresh_anchor

__all__ = [
    "RefreshPolicy",
    "TrainConfig",
    "MetricsRecord",
    "DivergenceError",
    "TrainResult",
    "train_vr",
    "train_base",
    "run_sweep",
    "final_loss",
    "write_csv",
    "write_metrics_csv",
    "METRICS_HEADER",
]

_JAC_MODES = ("ste", "probe", "probe_ls", "dither")
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


@dataclass(frozen=True, kw_only=True)
class TrainConfig(ProbeConfig):
    """A run's settings; the gain-update settings and the master seed are ProbeConfig's."""

    stepsize: float
    batch_size: int
    steps: int
    refresh: RefreshPolicy
    loop: str = "vr"
    jac_mode: str = "probe"
    vr_mode: str = "svrg"

    def __post_init__(self) -> None:
        if not self.stepsize > 0:
            raise ValueError("stepsize must be positive")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.loop not in ("vr", "base"):
            raise ValueError("loop must be vr or base")
        if self.jac_mode not in _JAC_MODES:
            raise ValueError(f"jac_mode {self.jac_mode!r} not one of {'|'.join(_JAC_MODES)}")
        if self.vr_mode not in _VR_MODES:
            raise ValueError(f"vr_mode {self.vr_mode!r} not one of {'|'.join(_VR_MODES)}")
        super().__post_init__()


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
    """A run diverged or met a non-finite quantity; carries the trace so far."""

    def __init__(self, message: str, trace: list[MetricsRecord]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class TrainResult:
    """Final weights and (n_groups,) gains plus the per-step metrics trace.

    ``state_trace`` holds the (weights, gains, mean upstream gradient)
    triples of the last ``keep_states`` steps, oldest first, or None when
    the run kept none.
    """

    weights: GroupedWeights
    gains: np.ndarray
    metrics: list[MetricsRecord]
    state_trace: list[tuple[GroupedWeights, np.ndarray, np.ndarray]] | None = None


def _gain_stats(gains: np.ndarray) -> tuple[float, float, float]:
    """Mean (np.mean's sum and divide), min and max gain: recomputed only when gains change."""
    return float(gains.sum() / gains.size), float(gains.min()), float(gains.max())


def _sample_batch(n: int, batch_size: int, seed: int, step: int) -> np.ndarray:
    rng = substream(seed, "minibatch", step)
    return rng.choice(n, size=min(batch_size, n), replace=False)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a contiguous 1-D x, sqrt(x . x): ``np.linalg.norm``'s own formula.

    Rescaled by max |x| only when the plain one overflows on finite entries.
    """
    norm = math.sqrt(x.dot(x))
    if not math.isfinite(norm) and np.isfinite(x).all():
        m = float(np.max(np.abs(x)))
        y = x / m
        norm = m * math.sqrt(y.dot(y))
    return norm


def _failure(step: int, loss: float, initial_loss: float, new_weights: GroupedWeights,
             norms: tuple[float, float]) -> str | None:
    """Why a step ends the run, checked right after its SGD update; None if it does not."""
    if not math.isfinite(loss) or loss > _DIVERGENCE_FACTOR * max(abs(initial_loss), 1e-12):
        return f"loss {loss:.3e} exceeded divergence guard at step {step}"
    if not np.isfinite(new_weights.values).all():
        return f"latent weights became non-finite at step {step}"
    for name, value in zip(("grad_norm", "surrogate_grad_norm"), norms):
        if not math.isfinite(value):
            return f"{name} became non-finite ({value}) at step {step}"
    return None


def _update_gains(gains: np.ndarray, weights: GroupedWeights, spec: QuantSpec,
                  cfg: TrainConfig, step: int, fixed_dither: np.ndarray | None = None) -> np.ndarray:
    if cfg.jac_mode == "ste":
        return gains
    if cfg.jac_mode == "probe":
        return probe_update(weights, spec, gains, cfg, draw_key=step)
    if cfg.jac_mode == "probe_ls":
        return probe_ls_update(weights, spec, gains, cfg, draw_key=step)
    return dither_update(weights, spec, gains, cfg, dither_seed=cfg.seed,
                         draw_key=step, fixed_dither=fixed_dither)


# the step check reports a non-finite value by name and step; numpy's warnings would only repeat it
@np.errstate(all="ignore")
def train_vr(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
             keep_states: int = 0) -> TrainResult:
    """Run ``cfg``'s loop from ``weights0``: the one training entry point.

    Gains start at one (the straight-through point). Refresh events update
    the gains, synchronize the anchor to the new point, and recompute the
    reference gradient. ``keep_states`` is how many trailing step states
    ``state_trace`` holds (0: none); a bool is refused.
    """
    if isinstance(keep_states, bool) or keep_states < 0:
        raise ValueError(f"keep_states must be a count >= 0, got {keep_states!r}")
    gains = np.ones(weights0.n_groups)  # the straight-through starting point
    gain_stats, scale = _gain_stats(gains), weights0.per_weight(gains)
    # each weight's clip level is fixed for the run; the identity grid never clips
    clip = None if spec.mode == "identity" else weights0.broadcast(spec.clip_level())
    base = cfg.loop == "base"  # the plain estimator; in dither mode, a dithered forward too
    dithered = base and cfg.jac_mode == "dither"
    weights = weights0
    q = None if dithered else quantize(weights, spec)  # the hard forward is carried to the next step
    try:
        state = init_vr_state("plain" if base else cfg.vr_mode, q, scale, obj)
    except (ValueError, MemoryError) as exc:
        raise DivergenceError(f"estimator setup failed at step 0: {exc}", []) from exc
    # an event that changes neither the gains nor an anchor is skipped, its draw too
    scheduled = cfg.jac_mode != "ste" or state.mode in ("svrg", "sarah")
    trace: list[MetricsRecord] = []
    # only the trailing window a reader asks for stays alive
    states = deque(maxlen=keep_states) if keep_states else None
    initial_loss = None
    for step in range(1, cfg.steps + 1):
        batch = _sample_batch(obj.n, cfg.batch_size, cfg.seed, step)
        dither = None
        if dithered:
            dither = draw_dither(weights, spec, cfg.seed, draw_key=step)
            q = dither_quantize(weights, dither, spec)
        loss, v_bar = batch_grad(obj, q, batch)
        g = grad_est(v_bar, scale, state, obj, batch)
        if states is not None:
            states.append((weights, gains, v_bar))
        new_weights = weights.with_values(weights.values - cfg.stepsize * g)
        if initial_loss is None:
            initial_loss = loss
        norms = _norm(v_bar), _norm(g)
        failure = _failure(step, loss, initial_loss, new_weights, norms)
        refreshed = False
        if failure is None:
            last = step == cfg.steps  # no step reads the estimator's memory or q after the last one
            q_next = None if dithered or last else quantize(new_weights, spec)
            if not last:
                # SARAH differences the next step against this step's point; SAGA's table moves on
                state = ctrl_update(state, q if state.mode == "sarah" else q_next, scale, batch,
                                    obj, grad=g)
            q = q_next
            refreshed = dithered or (scheduled and cfg.refresh.fires(step, cfg.seed))
        if refreshed:  # the last gains still run: the final record and gains show them
            # a numerical ValueError (zero excitation, a non-finite reference) or an array the
            # machine cannot hold ends the run; the step's row keeps the gains it ran with
            phase = "gain update"
            try:
                gains = _update_gains(gains, new_weights, spec, cfg, step, fixed_dither=dither)
                scale = new_weights.per_weight(gains)
                if not last:
                    phase = "anchor refresh"
                    state = refresh_anchor(state, q, scale, obj)
                gain_stats = _gain_stats(gains)
            except (ValueError, MemoryError) as exc:
                failure, refreshed = f"{phase} failed at step {step}: {exc}", False
        trace.append(MetricsRecord(
            step, loss, *norms, *gain_stats,
            # a count over dim: np.mean's bits; float() keeps numpy's scalar type out of the csv
            frac_saturated=0.0 if clip is None else float(
                np.count_nonzero(np.abs(weights.values) > clip) / weights.dim),
            refresh=refreshed,
        ))
        if failure is not None:
            raise DivergenceError(failure, trace)
        weights = new_weights
    return TrainResult(weights=weights, gains=gains, metrics=trace,
                       state_trace=None if states is None else list(states))


def train_base(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, cfg: TrainConfig,
               keep_states: int = 0) -> TrainResult:
    """:func:`train_vr` with ``loop="base"``; kept for perfbench's tracer, which wraps it."""
    return train_vr(obj, weights0, spec, replace(cfg, loop="base"), keep_states)


@np.errstate(all="ignore")  # as in train_vr: a code that overflows clips to +/-c by design
def final_loss(obj: Objective, weights: GroupedWeights, spec: QuantSpec) -> float:
    """The full-data loss at the quantized weights: the loss a finished run reports."""
    return obj.full_loss(quantize(weights, spec))


def _run_cell(args) -> dict:
    obj, values, spec, cfg, group_size, refresh, jac_mode = args
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
        res = train_vr(obj, weights, cell_spec, cell_cfg)
        result["final_loss"] = final_loss(obj, res.weights, cell_spec)
        result["steps_run"] = len(res.metrics)
    except (DivergenceError, ValueError) as exc:
        result["error"] = str(exc)
    return result


def run_sweep(obj: Objective, weights0: GroupedWeights, spec: QuantSpec, base_cfg: TrainConfig,
              group_sizes: list[int] | None = None,
              refresh_policies: list[RefreshPolicy] | None = None,
              jac_modes: list[str] | None = None,
              jobs: int = 1) -> list[dict]:
    """One full run per grid cell; shared seed; errors recorded, sweep continues.

    ``final_loss`` is the full-dataset loss at the final quantized point.
    ``jobs`` caps the worker processes; no more start than there are cells.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    group_sizes = group_sizes or [weights0.group_size]
    refresh_policies = refresh_policies or [base_cfg.refresh]
    jac_modes = jac_modes or [base_cfg.jac_mode]
    cells = [(obj, weights0.values, spec, base_cfg, gs, rp, jm)
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


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    """A header line and one line per row, written whole-file-or-nothing."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_metrics_csv(trace: list[MetricsRecord], path: str) -> None:
    """Fixed-header CSV, one row per step; written whole-file-or-nothing."""
    rows = ([int(v) if isinstance(v, bool) else repr(v)  # floats as repr, the refresh flag as 0/1
             for v in (getattr(rec, name) for name in METRICS_HEADER)] for rec in trace)
    write_csv(path, METRICS_HEADER, rows)  # one row at a time: no list of every formatted row
