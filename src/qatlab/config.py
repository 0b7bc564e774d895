"""Strict JSON config schema for runs and sweeps.

One nested key-value document describes a run: objective, quantizer,
training loop, optional sweep grid, master seed. Unknown keys are
errors; every omitted key takes a documented default; the parsed config
echoes back with all defaults filled so a summary alone reproduces the
run. Defaults follow the package-wide conventions: EMA rate 0.9,
refresh interval 100, group size 128.

Schema (defaults in parentheses):

  seed: int (0)
  objective:
    kind: quadratic | pl | saturating | linear_regression |
          logistic_regression | mlp | csv  (quadratic)
    dim (64), n_samples (64), seed (master), noise (0.1),
    mu (0.1), l_smooth (1.0), target_spread (0.5)      [quadratic, pl]
    frac_beyond_clip (0.8), interior_curvature (4.0),
    saturated_curvature (1.0)                          [saturating]
    hidden_width (8)                                   [mlp]
    path (required)                                    [csv]
    w0_scale (1.0)
  quant:
    mode: w2 | w1 | w1_58 | generic | identity  (w2)
    step (1.0), bits (null), group_size (128), mid_rise (false),
    calibrate (false)
  train:
    loop: vr | base (vr)
    stepsize (0.05), batch_size (8), steps (200)
    refresh: {kind: interval|probability, interval (100), probability (0.01)}
    jac_mode: ste | probe | probe_ls | dither  (probe)
    vr_mode: plain | svrg | saga | sarah  (svrg)
    ema_rate (0.9), probe_sigma (null -> step/2), num_probes (1)
  sweep:                                    [optional; sweep command only]
    group_sizes ([group_size]), refresh_intervals ([refresh interval]),
    jac_modes ([jac_mode])
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .objectives import (
    LinearRegression,
    Objective,
    Quadratic,
    load_csv_dataset,
    make_classification_task,
    make_mlp_task,
    make_pl_instance,
    make_regression_task,
    make_saturating_task,
)
from .quant import GroupedWeights, QuantSpec, calibrate_step
from .rng import substream
from .trainer import RefreshPolicy, TrainConfig

__all__ = ["RunSetup", "parse_config", "parse_config_dict", "serialize_config", "ConfigError"]


class ConfigError(ValueError):
    """Configuration rejected: names the offending field."""


@dataclass(frozen=True)
class RunSetup:
    """Fully materialized run: objects plus the canonical config echo."""

    config: dict
    objective: Objective
    weights: GroupedWeights
    spec: QuantSpec
    train: TrainConfig
    loop: str
    sweep: dict | None
    seed: int


_OBJECTIVE_DEFAULTS = {
    "kind": "quadratic",
    "dim": 64,
    "n_samples": 64,
    "seed": None,
    "noise": 0.1,
    "mu": 0.1,
    "l_smooth": 1.0,
    "target_spread": 0.5,
    "frac_beyond_clip": 0.8,
    "interior_curvature": 4.0,
    "saturated_curvature": 1.0,
    "hidden_width": 8,
    "path": None,
    "w0_scale": 1.0,
}
_QUANT_DEFAULTS = {
    "mode": "w2",
    "step": 1.0,
    "bits": None,
    "group_size": 128,
    "mid_rise": False,
    "calibrate": False,
}
_REFRESH_DEFAULTS = {"kind": "interval", "interval": 100, "probability": 0.01}
_TRAIN_DEFAULTS = {
    "loop": "vr",
    "stepsize": 0.05,
    "batch_size": 8,
    "steps": 200,
    "refresh": _REFRESH_DEFAULTS,
    "jac_mode": "probe",
    "vr_mode": "svrg",
    "ema_rate": 0.9,
    "probe_sigma": None,
    "num_probes": 1,
}
_KINDS = ("quadratic", "pl", "saturating", "linear_regression",
          "logistic_regression", "mlp", "csv")


def _merge(section: str, given: dict, defaults: dict) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    merged = {}
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {section + '.' + key!r}")
        if isinstance(defaults[key], dict):
            continue  # handled by a nested merge
        merged[key] = value
    for key, default in defaults.items():
        if isinstance(default, dict):
            merged[key] = _merge(f"{section}.{key}", given.get(key, {}), default)
        elif key not in merged:
            merged[key] = default
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _build_quant(cfg: dict, weights: GroupedWeights) -> QuantSpec:
    mode = cfg["mode"]
    gs = cfg["group_size"]
    _require(isinstance(cfg["step"], (int, float)) and cfg["step"] > 0,
             "quant.step must be a positive number")
    try:
        if mode == "generic":
            _require(cfg["bits"] is not None, "quant.bits required for generic mode")
            spec = QuantSpec.generic(int(cfg["bits"]), step=float(cfg["step"]),
                                     group_size=gs, mid_rise=bool(cfg["mid_rise"]))
        elif mode == "w1":
            spec = QuantSpec.w1(step=float(cfg["step"]), group_size=gs)
        elif mode == "w1_58":
            spec = QuantSpec.ternary(step=float(cfg["step"]), group_size=gs)
        elif mode == "w2":
            spec = QuantSpec.w2(step=float(cfg["step"]), group_size=gs,
                                mid_rise=bool(cfg["mid_rise"]))
        elif mode == "identity":
            spec = QuantSpec.identity(step=float(cfg["step"]), group_size=gs)
        else:
            raise ConfigError(f"quant.mode {mode!r} not one of w2|w1|w1_58|generic|identity")
    except ValueError as exc:
        raise ConfigError(f"quant: {exc}") from exc
    if cfg["calibrate"]:
        spec = calibrate_step(weights, spec)
    return spec


def _build_objective(cfg: dict, quant_cfg: dict, master_seed: int,
                     ) -> tuple[Objective, GroupedWeights, QuantSpec | None]:
    kind = cfg["kind"]
    _require(kind in _KINDS, f"objective.kind {kind!r} not one of {'|'.join(_KINDS)}")
    _require(cfg["seed"] is None or (isinstance(cfg["seed"], int) and cfg["seed"] >= 0),
             "objective.seed must be a non-negative integer or null")
    seed = master_seed if cfg["seed"] is None else cfg["seed"]
    dim = cfg["dim"]
    n = cfg["n_samples"]
    _require(isinstance(dim, int) and dim >= 1, "objective.dim must be a positive integer")
    _require(isinstance(n, int) and n >= 1, "objective.n_samples must be a positive integer")

    if kind == "saturating":
        obj, weights, spec = make_saturating_task(
            d=dim, group_size=quant_cfg["group_size"],
            frac_beyond_clip=float(cfg["frac_beyond_clip"]), n_samples=n,
            noise=float(cfg["noise"]), seed=seed,
            interior_curvature=float(cfg["interior_curvature"]),
            saturated_curvature=float(cfg["saturated_curvature"]))
        return obj, weights, spec

    if kind == "quadratic":
        rng = substream(seed, "objective")
        targets = rng.normal(0.0, 1.0, size=(n, dim))
        obj: Objective = Quadratic(curvature=np.ones(dim), targets=targets)
    elif kind == "pl":
        _require(0 < cfg["mu"] <= cfg["l_smooth"], "objective: invalid spectrum bounds")
        obj = make_pl_instance(dim, float(cfg["mu"]), float(cfg["l_smooth"]), seed,
                               n_samples=n, target_spread=float(cfg["target_spread"]))
    elif kind == "linear_regression":
        obj = make_regression_task(dim, n, seed, noise=float(cfg["noise"]))
    elif kind == "logistic_regression":
        obj = make_classification_task(dim, n, seed)
    elif kind == "mlp":
        obj = make_mlp_task(dim, int(cfg["hidden_width"]), n, seed,
                            noise=float(cfg["noise"]))
    else:  # csv
        _require(cfg["path"] is not None, "objective.path required for csv kind")
        try:
            obj = LinearRegression(load_csv_dataset(cfg["path"]))
        except ValueError as exc:
            raise ConfigError(f"objective.path: {exc}") from exc

    w0 = substream(seed, "init").normal(0.0, float(cfg["w0_scale"]), size=obj.dim)
    weights = GroupedWeights.from_flat(w0, group_size=quant_cfg["group_size"])
    return obj, weights, None


def parse_config_dict(raw: dict, seed_override: int | None = None) -> RunSetup:
    """Validate a config mapping and materialize the run objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    for key in raw:
        if key not in ("seed", "objective", "quant", "train", "sweep"):
            raise ConfigError(f"unknown key {key!r}")
    seed = raw.get("seed", 0) if seed_override is None else int(seed_override)
    _require(isinstance(seed, int) and seed >= 0, "seed must be a non-negative integer")

    obj_cfg = _merge("objective", raw.get("objective", {}), _OBJECTIVE_DEFAULTS)
    quant_cfg = _merge("quant", raw.get("quant", {}), _QUANT_DEFAULTS)
    train_cfg = _merge("train", raw.get("train", {}), _TRAIN_DEFAULTS)
    gs = quant_cfg["group_size"]
    _require(isinstance(gs, int) and gs >= 1, "quant.group_size must be a positive integer")
    sigma, num_probes = train_cfg["probe_sigma"], train_cfg["num_probes"]
    _require(sigma is None or (isinstance(sigma, (int, float)) and sigma > 0),
             "train.probe_sigma must be a positive number or null")
    _require(isinstance(num_probes, int) and num_probes >= 1, "train.num_probes must be >= 1")

    objective, weights, task_spec = _build_objective(obj_cfg, quant_cfg, seed)
    if task_spec is not None:
        spec = task_spec
        quant_cfg = dict(quant_cfg)
        quant_cfg.update(mode=spec.mode, step=float(np.min(spec.step)), group_size=spec.group_size)
    else:
        spec = _build_quant(quant_cfg, weights)

    refresh_cfg = train_cfg["refresh"]
    _require(refresh_cfg["kind"] in ("interval", "probability"),
             "train.refresh.kind must be interval or probability")
    if refresh_cfg["kind"] == "probability":
        p = refresh_cfg["probability"]
        _require(isinstance(p, (int, float)) and 0.0 < p <= 1.0,
                 "refresh probability out of (0,1]")
        refresh = RefreshPolicy("probability", probability=float(p))
    else:
        k = refresh_cfg["interval"]
        _require(isinstance(k, int) and k >= 1, "train.refresh.interval must be >= 1")
        refresh = RefreshPolicy("interval", interval=k)

    loop = train_cfg["loop"]
    _require(loop in ("vr", "base"), "train.loop must be vr or base")
    try:
        train = TrainConfig(
            stepsize=float(train_cfg["stepsize"]),
            batch_size=int(train_cfg["batch_size"]),
            steps=int(train_cfg["steps"]),
            refresh=refresh,
            jac_mode=str(train_cfg["jac_mode"]),
            vr_mode=str(train_cfg["vr_mode"]),
            ema_rate=float(train_cfg["ema_rate"]),
            probe_sigma=None if sigma is None else float(sigma),
            num_probes=num_probes,
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"train: {exc}") from exc

    sweep = None
    if "sweep" in raw:
        sweep_defaults = {
            "group_sizes": [quant_cfg["group_size"]],
            "refresh_intervals": [refresh.interval if refresh.kind == "interval" else 100],
            "jac_modes": [train.jac_mode],
        }
        sweep = _merge("sweep", raw["sweep"], sweep_defaults)
        for key in ("group_sizes", "refresh_intervals"):
            _require(isinstance(sweep[key], list) and sweep[key]
                     and all(isinstance(v, int) and v >= 1 for v in sweep[key]),
                     f"sweep.{key} must be a non-empty list of positive integers")
        _require(isinstance(sweep["jac_modes"], list) and sweep["jac_modes"],
                 "sweep.jac_modes must be a non-empty list")

    echo = {
        "seed": seed,
        "objective": obj_cfg,
        "quant": quant_cfg,
        "train": train_cfg,
    }
    if sweep is not None:
        echo["sweep"] = sweep
    return RunSetup(config=echo, objective=objective, weights=weights, spec=spec,
                    train=train, loop=loop, sweep=sweep, seed=seed)


def parse_config(path: str, seed_override: int | None = None) -> RunSetup:
    """Load, validate and materialize a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc
    return parse_config_dict(raw, seed_override=seed_override)


def serialize_config(setup: RunSetup) -> str:
    """Canonical JSON echo; parsing it back reproduces the same setup."""
    return json.dumps(setup.config, indent=2, sort_keys=True)
