"""Strict JSON config schema for runs and sweeps.

One nested key-value document describes a run: objective, quantizer,
training loop, optional sweep grid, master seed. The defaults tables below
are the schema: unknown keys are errors, every omitted key takes its
default, and a given value must have its default's type (a number is
finite, an integer is also a number, every integer lies in int64, and
true/false is never a number). Ranges are checked by the objects each
section builds, and every rejection names its dotted field. A size whose
array numpy cannot index (over 2**63 - 1 bytes: the data block, the
weight vector, a gain update's probe sums) is refused before any array
is built. The parsed
config echoes back with all defaults filled so a summary alone reproduces
the run. Defaults follow the package-wide conventions: EMA rate 0.9,
refresh interval 100, group size 128.

Schema (type, default in parentheses):

  seed: int (0)
  objective:
    kind: quadratic | pl | saturating | linear_regression |
          logistic_regression | mlp | csv  (quadratic)
    dim: int (64), n_samples: int (64), seed: int (null -> master),
    noise: number (0.1)                    [saturating, linear_regression, mlp]
    mu (0.1), l_smooth (1.0), target_spread (0.5): numbers        [pl]
    frac_beyond_clip (0.8), interior_curvature (4.0),
    saturated_curvature (1.0): numbers                            [saturating]
    hidden_width: int (8)                                         [mlp]
    path: str (null; required)                                    [csv]
    w0_scale: number (1.0): initial weights' standard deviation; a saturating
                            task brings its own weights, so only 1.0 there
  quant:
    mode: w2 | w1 | w1_58 | generic | identity  (w2)
    step: number (1.0), group_size: int (128), calibrate: bool (false)
    mid_rise: bool (false): true only for generic and w2 grids
    bits: int (null): generic mode only, where it is required; 2 to 53
  train:
    loop: vr | base (vr): base is the plain estimator (vr_mode unread) and, in
          dither mode, a dithered forward with a gain update every step
    stepsize: number (0.05), batch_size: int (8), steps: int (200)
    refresh: {kind: interval | probability (interval), interval: int (100),
              probability: number (0.01)}
    jac_mode: ste | probe | probe_ls | dither  (probe)
    vr_mode: plain | svrg | saga | sarah  (svrg)
    ema_rate: number (0.9): the gain EMA rate, in (0, 1]
    probe_sigma: number (null): the probes' scale in weight units; null is half
                 the smallest group step, taken at each gain update
    num_probes: int (1): the rows of a gain update: Gaussian probes in the
                probe and probe_ls modes, per-probe dither rows in dither
                mode; with loop base, dither mode's one forward dither is
                the only row, and num_probes is not read
  sweep:                                    [optional; sweep command only]
    group_sizes: ints ([group_size]), jac_modes: strs ([jac_mode]),
    refresh_intervals: ints ([refresh interval]; null -> train.refresh,
                       the default when train.refresh.kind is probability)

A saturating objective brings its own grid (w2, step 1.0, mid-tread, not
calibrated): quant.mode, quant.step, quant.mid_rise and quant.calibrate
may be omitted or restate that grid, and any other value is an error.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

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

__all__ = ["RunSetup", "parse_config", "parse_config_dict", "ConfigError"]


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
    sweep: dict | None


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
_DEFAULTS = {"seed": 0, "objective": _OBJECTIVE_DEFAULTS, "quant": _QUANT_DEFAULTS,
             "train": _TRAIN_DEFAULTS}
# The type of each key whose default may be null; [t] is a non-empty list of t.
_NULLABLE = {"objective.seed": int, "objective.path": str, "quant.bits": int,
             "train.probe_sigma": float, "sweep.refresh_intervals": [int]}
_INT64 = range(-2**63, 2**63)  # numpy's default integer: a larger one overflows on use
_MAX_ARRAY_BYTES = int(np.iinfo(np.intp).max)  # numpy refuses a larger array outright
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false", str: "a string"}

_KINDS = ("quadratic", "pl", "saturating", "linear_regression",
          "logistic_regression", "mlp", "csv")
_QUANT_MODES = {
    "w2": lambda q: QuantSpec.w2(step=q["step"]),
    "w1": lambda q: QuantSpec.w1(step=q["step"]),
    "w1_58": lambda q: QuantSpec.ternary(step=q["step"]),
    "generic": lambda q: QuantSpec.generic(q["bits"], step=q["step"]),
    "identity": lambda q: QuantSpec.identity(step=q["step"]),
}


def _has_type(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and bool(value) and all(_has_type(v, kind[0]) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    if kind is float:  # JSON's NaN and Infinity are no setting's value
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind)


def _merge(section: str, given: dict, defaults: dict) -> dict:
    """Fill one section's defaults; reject unknown keys and values unlike their default."""
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a mapping")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown key {f'{section}.{key}' if section else key!r}")
    merged = {}
    for key, default in defaults.items():
        field = f"{section}.{key}" if section else key
        value = given.get(key, default)
        if isinstance(default, dict):
            merged[key] = _merge(field, value, default)
            continue
        items = value if isinstance(value, list) else [value]
        if any(type(v) is int and v not in _INT64 for v in items):
            raise ConfigError(f"{field} must lie in int64, [-2**63, 2**63 - 1], like every integer")
        kind = _NULLABLE.get(field, [type(default[0])] if isinstance(default, list) else type(default))
        if not (_has_type(value, kind) or (value is None and field in _NULLABLE)):
            name = (f"a non-empty list, each {_TYPE_NAMES[kind[0]]}" if isinstance(kind, list)
                    else _TYPE_NAMES[kind])
            raise ConfigError(f"{field} must be {name}{' or null' if field in _NULLABLE else ''}")
        merged[key] = value
    return merged


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _require_indexable(shape: tuple[int, ...], sized: str) -> None:
    """Refuse a float64 array of ``shape`` that numpy cannot index; ``sized`` names its fields."""
    size = 8 * math.prod(shape)
    _require(size <= _MAX_ARRAY_BYTES, f"{sized} a {shape} float64 array of {size} bytes, "
             f"over numpy's limit of {_MAX_ARRAY_BYTES} bytes")


@contextmanager
def _fields(*sections: str):
    """Name the field of a constructor's ValueError: "step must be ..." -> "quant.step must be ...".

    Constructors start their messages with the setting at fault, which is
    its config key; it is looked up in ``sections`` in order. A message
    that starts with no key names the first section only: "objective: ...".
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]
        section = next((s for s in sections if key in _DEFAULTS[s]), None)
        raise ConfigError(f"{section}.{exc}" if section else f"{sections[0]}: {exc}") from exc


def _build_objective(cfg: dict, group_size: int, master_seed: int,
                     ) -> tuple[Objective, GroupedWeights, QuantSpec | None]:
    kind = cfg["kind"]
    _require(kind in _KINDS, f"objective.kind {kind!r} not one of {'|'.join(_KINDS)}")
    _require(cfg["seed"] is None or cfg["seed"] >= 0,
             "objective.seed must be a non-negative integer or null")
    seed = master_seed if cfg["seed"] is None else cfg["seed"]
    dim = cfg["dim"]
    n = cfg["n_samples"]
    _require(cfg["w0_scale"] >= 0, "objective.w0_scale must be >= 0")
    if kind != "csv":  # checked before any array is built; a csv file brings its own sizes
        _require(dim >= 1, "objective.dim must be a positive integer")
        _require(n >= 1, "objective.n_samples must be a positive integer")
        _require_indexable((dim,), "objective.dim makes the weight vector")
        if kind == "mlp":
            _require_indexable((cfg["hidden_width"] * (dim + 2) + 1,),
                               "objective.hidden_width makes the MLP's weight vector")
        _require_indexable((n, dim), "objective.n_samples and objective.dim make the data block")

    if kind == "saturating":
        _require(cfg["w0_scale"] == 1.0,
                 "objective.w0_scale must be 1.0 or omitted for a saturating objective, which "
                 f"brings its own initial weights; got {json.dumps(cfg['w0_scale'])}")
        return make_saturating_task(
            d=dim, group_size=group_size, frac_beyond_clip=cfg["frac_beyond_clip"],
            n_samples=n, noise=cfg["noise"], seed=seed,
            interior_curvature=cfg["interior_curvature"],
            saturated_curvature=cfg["saturated_curvature"])

    if kind == "quadratic":
        rng = substream(seed, "objective")
        targets = rng.normal(0.0, 1.0, size=(n, dim))
        obj: Objective = Quadratic(curvature=np.ones(dim), targets=targets)
    elif kind == "pl":
        obj = make_pl_instance(dim, cfg["mu"], cfg["l_smooth"], seed,
                               n_samples=n, target_spread=cfg["target_spread"])
    elif kind == "linear_regression":
        obj = make_regression_task(dim, n, seed, noise=cfg["noise"])
    elif kind == "logistic_regression":
        obj = make_classification_task(dim, n, seed)
    elif kind == "mlp":
        obj = make_mlp_task(dim, cfg["hidden_width"], n, seed, noise=cfg["noise"])
    else:  # csv
        _require(cfg["path"] is not None, "objective.path required for csv kind")
        try:
            obj = LinearRegression(load_csv_dataset(cfg["path"]))
        except (OSError, ValueError) as exc:  # absent, a directory, unreadable or not numeric
            raise ConfigError(f"objective.path: {exc}") from exc
        cfg["dim"], cfg["n_samples"] = obj.dim, obj.n  # the echo states the file's sizes

    w0 = substream(seed, "init").normal(0.0, cfg["w0_scale"], size=obj.dim)
    _require(np.all(np.isfinite(w0)),
             f"objective.w0_scale {cfg['w0_scale']!r} gives non-finite initial weights")
    return obj, GroupedWeights(w0, group_size=group_size), None


def _check_sweep(sweep: dict, weights: GroupedWeights, train: TrainConfig) -> None:
    """Build every grid value as its cell will, so that a bad one fails at parse time."""
    axes = {"group_sizes": lambda size: GroupedWeights(weights.values, size),
            "refresh_intervals": lambda k: RefreshPolicy("interval", interval=k),
            "jac_modes": lambda mode: replace(train, jac_mode=mode)}
    for key, build in axes.items():
        try:
            for value in sweep[key] or ():  # null refresh_intervals: train.refresh itself
                build(value)
        except ValueError as exc:
            raise ConfigError(f"sweep.{key}: {exc}") from exc


def parse_config_dict(raw: dict, seed_override: int | None = None) -> RunSetup:
    """Validate a config mapping and materialize the run objects."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    given = {k: v for k, v in raw.items() if k != "sweep"}
    if seed_override is not None:  # it gets the checks of a seed in the file
        given["seed"] = seed_override
    cfg = _merge("", given, _DEFAULTS)
    seed = cfg["seed"]
    _require(seed >= 0, "seed must be a non-negative integer")

    quant = cfg["quant"]
    _require((quant["bits"] is None) == (quant["mode"] != "generic"),
             "quant.bits must be set for generic mode and null for every other mode")
    try:
        with _fields("objective", "quant"):  # the objective lays its weights out in quant's groups
            objective, weights, spec = _build_objective(cfg["objective"], quant["group_size"],
                                                        seed)
    except MemoryError as exc:  # indexable, but more than this machine will allocate
        sizes = {"mlp": "objective.n_samples, objective.dim and objective.hidden_width",
                 "csv": "objective.path's data"}
        sizes = sizes.get(cfg["objective"]["kind"], "objective.n_samples and objective.dim")
        raise ConfigError(f"{sizes} make an objective too large to allocate: {exc}") from exc
    if spec is None:
        _require(quant["mode"] in _QUANT_MODES,
                 f"quant.mode {quant['mode']!r} not one of {'|'.join(_QUANT_MODES)}")
        with _fields("quant"):  # QuantSpec rejects mid_rise on every grid but generic and w2
            spec = replace(_QUANT_MODES[quant["mode"]](quant), mid_rise=quant["mid_rise"])
        if quant["calibrate"]:
            spec = calibrate_step(weights, spec)
    else:  # the task's own grid: the quant section may only restate it
        for key, value in {"mode": spec.mode, "step": spec.step, "mid_rise": spec.mid_rise,
                           "calibrate": False}.items():
            _require(quant[key] == value,
                     f"quant.{key} must be {json.dumps(value)} or omitted for a "
                     f"{cfg['objective']['kind']} objective, which brings its own grid; "
                     f"got {json.dumps(quant[key])}")

    train_cfg = cfg["train"]
    with _fields("train"):
        train = TrainConfig(**{k: v for k, v in train_cfg.items() if k != "refresh"},
                            refresh=RefreshPolicy(**train_cfg["refresh"]), seed=seed)

    sweep = None
    if "sweep" in raw:
        refresh = train.refresh
        sweep = cfg["sweep"] = _merge("sweep", raw["sweep"], {
            "group_sizes": [quant["group_size"]],
            "refresh_intervals": [refresh.interval] if refresh.kind == "interval" else None,
            "jac_modes": [train.jac_mode],
        })
        _check_sweep(sweep, weights, train)
    # a gain update holds (2, n_groups, num_probes) floats; the smallest group makes the most
    smallest = min([weights.group_size, *(sweep["group_sizes"] if sweep else [])])
    _require_indexable((2, -(-weights.dim // smallest), train.num_probes),
                       "train.num_probes makes the gain update")
    return RunSetup(config=cfg, objective=objective, weights=weights, spec=spec,
                    train=train, sweep=sweep)


def parse_config(path: str, seed_override: int | None = None) -> RunSetup:
    """Load, validate and materialize a JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error in {path} at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"parse error in {path}: {exc}") from exc
    return parse_config_dict(raw, seed_override=seed_override)

