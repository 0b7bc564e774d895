"""Grouped symmetric uniform quantization with clipping and subtractive dithering.

The hard quantizer maps weights to a finite grid; the dithered variant
adds uniform noise before quantizing and subtracts it after, which makes
the *expected* map smooth. The smoothed map's derivative is the
sensitivity that the learned backward gains target: close to one in bin
interiors, close to zero under saturation.

Modes:
  - "generic":  mid-tread grid {k*step : |k| <= clip_codes} (default),
                or a mid-rise variant {(k+1/2)*step : -c-1 <= k <= c}.
  - "w2":       generic with clip_codes=1 (three levels mid-tread, or the
                four-level mid-rise variant).
  - "w1_58":    ternary, identical grid to mid-tread w2.
  - "w1":       pure sign, outputs in {-step, +step}, sign(0) = +1.
  - "identity": pass-through (the step->0 surrogate); quantize(w) = w.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .rng import substream

__all__ = [
    "QuantSpec",
    "GroupedWeights",
    "DitherDraw",
    "quantize",
    "quantize_array",
    "dither_quantize",
    "draw_dither",
    "mean_field",
    "mean_field_sensitivity",
    "calibrate_step",
    "group_sizes",
    "per_weight",
    "draw_per_group",
    "dither_block",
]

_MODES = ("generic", "w2", "w1_58", "w1", "identity")

# Cap per mean-field chunk, keeps the MC accumulators at ~16 MB.
_MC_CHUNK_ELEMS = 2_000_000
_MC_BLOCK_ELEMS = 32_768  # a chunk is sampled in row blocks of this size, in cache


@dataclass(frozen=True)
class QuantSpec:
    """Quantizer grid: step size, clip level, mode and group size.

    ``step`` is either one scalar or one value per group (an array of
    length n_groups). ``clip_codes`` is the largest magnitude code c.
    """

    step: float | np.ndarray
    clip_codes: int = 1
    mode: str = "generic"
    group_size: int = 128
    mid_rise: bool = False
    bits: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown quantizer mode {self.mode!r}")
        step = self.step
        if np.isscalar(step):
            if not step > 0:
                raise ValueError("step must be positive")
        else:
            step = np.asarray(step, dtype=float)
            if step.ndim != 1 or not np.all(step > 0):
                raise ValueError("per-group step must be a 1-D positive array")
            object.__setattr__(self, "step", step)
        if self.clip_codes < 1:
            raise ValueError("clip_codes must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.mode in ("w1_58", "w2", "w1") and self.clip_codes != 1:
            raise ValueError(f"mode {self.mode!r} requires clip_codes = 1")
        if self.mid_rise and self.mode not in ("generic", "w2"):
            raise ValueError("mid_rise is only defined for generic/w2 grids")

    # -- constructors ------------------------------------------------------

    @classmethod
    def generic(cls, bits: int, step: float = 1.0, group_size: int = 128,
                mid_rise: bool = False) -> "QuantSpec":
        if bits < 2:
            raise ValueError("generic mode needs bits >= 2")
        return cls(step=step, clip_codes=2 ** (bits - 1) - 1, mode="generic",
                   group_size=group_size, mid_rise=mid_rise, bits=bits)

    @classmethod
    def w1(cls, step: float = 1.0, group_size: int = 128) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w1", group_size=group_size, bits=1)

    @classmethod
    def ternary(cls, step: float = 1.0, group_size: int = 128) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w1_58", group_size=group_size, bits=2)

    @classmethod
    def w2(cls, step: float = 1.0, group_size: int = 128, mid_rise: bool = False) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w2", group_size=group_size,
                   mid_rise=mid_rise, bits=2)

    @classmethod
    def identity(cls, step: float = 1.0, group_size: int = 128) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="identity", group_size=group_size)

    # -- helpers -----------------------------------------------------------

    @property
    def per_group(self) -> bool:
        return not np.isscalar(self.step)

    def step_for_group(self, g: int) -> float:
        return float(self.step[g]) if self.per_group else float(self.step)

    def step_per_weight(self, bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
        """Expand the (possibly per-group) step to one value per weight."""
        return per_weight(self.step, bounds)

    def clip_level(self) -> float | np.ndarray:
        """Magnitude of the largest representable value (mid-tread grids)."""
        c = self.clip_codes
        if self.mid_rise:
            c = c + 0.5
        return self.step * (1.0 if self.mode == "w1" else c)


@dataclass(frozen=True)
class GroupedWeights:
    """Flat weight vector partitioned into contiguous groups."""

    values: np.ndarray
    group_bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValueError("weights must be a flat vector")
        bounds = tuple((int(lo), int(hi)) for lo, hi in self.group_bounds)
        object.__setattr__(self, "group_bounds", bounds)
        pos = 0
        for lo, hi in bounds:
            if lo != pos or hi < lo:
                raise ValueError("group bounds must be contiguous, ordered and disjoint")
            pos = hi
        if pos != values.size:
            raise ValueError("group bounds must cover the full weight vector")

    @classmethod
    def from_flat(cls, values: np.ndarray, group_size: int) -> "GroupedWeights":
        """Partition into contiguous groups; the final group may be short."""
        values = np.asarray(values, dtype=float)
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        starts = range(0, values.size, group_size)
        bounds = tuple(zip(starts, [*starts[1:], values.size])) or ((0, 0),)
        return cls(values=values, group_bounds=bounds)

    @property
    def n_groups(self) -> int:
        return len(self.group_bounds)

    @property
    def dim(self) -> int:
        return self.values.size

    def group(self, g: int) -> np.ndarray:
        lo, hi = self.group_bounds[g]
        return self.values[lo:hi]

    def group_index(self) -> np.ndarray:
        """Group id per weight (int array of length dim)."""
        return np.repeat(np.arange(self.n_groups), group_sizes(self.group_bounds))

    def with_values(self, values: np.ndarray) -> "GroupedWeights":
        return GroupedWeights(values=values, group_bounds=self.group_bounds)


# Cached: every gain application and quantization needs it, and a run keeps one layout.
@lru_cache(maxsize=64)
def group_sizes(bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Size of each contiguous (lo, hi) group, as a read-only int array."""
    edges = np.asarray(bounds, dtype=np.intp).reshape(-1, 2)
    sizes = edges[:, 1] - edges[:, 0]
    sizes.setflags(write=False)
    return sizes


def per_weight(per_group: float | np.ndarray, bounds: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Broadcast a scalar or one value per group to one float per weight."""
    sizes = group_sizes(bounds)
    values = np.empty(sizes.size)
    values[:] = per_group
    return np.repeat(values, sizes)


@dataclass(frozen=True)
class DitherDraw:
    """One realized dither vector, entries in [-step/2, +step/2] per weight."""

    r: np.ndarray
    seed_tag: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))


def quantize_array(x: np.ndarray, spec: QuantSpec, step: float | np.ndarray | None = None) -> np.ndarray:
    """Quantize a raw array; ``step`` broadcasts against ``x`` (scalar by default)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite weight")
    if spec.mode == "identity":
        return x.copy()
    if step is None:
        if spec.per_group:
            raise ValueError("per-group step requires an explicit step argument")
        step = float(spec.step)
    if spec.mode == "w1":
        return np.where(x >= 0, 1.0, -1.0) * step
    c = spec.clip_codes
    codes = np.asarray(x / step)  # the one fresh array, rounded in place (0-d for a scalar x)
    if spec.mid_rise:
        np.clip(np.floor(codes, out=codes), -c - 1, c, out=codes)
        codes += 0.5
    else:  # sign * floor(|x| + 0.5): halves away from zero, where np.round goes to even
        sign = np.sign(codes)
        np.abs(codes, out=codes)
        codes += 0.5
        np.floor(codes, out=codes)
        codes *= sign
        np.clip(codes, -c, c, out=codes)
    codes *= step
    return codes[()]


def quantize(weights: GroupedWeights, spec: QuantSpec) -> np.ndarray:
    """Hard quantization of a grouped weight vector."""
    return quantize_array(weights.values, spec, step=spec.step_per_weight(weights.group_bounds))


def draw_per_group(weights: GroupedWeights, rows: tuple[int, ...], draw) -> np.ndarray:
    """(*rows, dim) block whose columns of group g are ``draw(g, (*rows, size))``."""
    block = np.empty((*rows, weights.dim))
    for g, (lo, hi) in enumerate(weights.group_bounds):
        if hi > lo:
            block[..., lo:hi] = draw(g, (*rows, hi - lo))
    return block


def dither_block(weights: GroupedWeights, spec: QuantSpec, seed: int, key: int,
                 rows: tuple[int, ...]) -> np.ndarray:
    """Uniform dither within half a step; group g draws from ("dither", key, g)."""
    def draw(g: int, shape: tuple[int, ...]) -> np.ndarray:
        half = 0.5 * spec.step_for_group(g)
        return substream(seed, "dither", key, g).uniform(-half, half, size=shape)

    return draw_per_group(weights, rows, draw)


def draw_dither(weights: GroupedWeights, spec: QuantSpec, seed: int, seed_tag: int = 0) -> DitherDraw:
    """Draw one uniform dither vector, one substream per group."""
    return DitherDraw(r=dither_block(weights, spec, seed, seed_tag, ()), seed_tag=seed_tag)


def dither_quantize(weights: GroupedWeights, dither: DitherDraw, spec: QuantSpec) -> np.ndarray:
    """De-dithered proxy: quantize(W + r) - r."""
    step = spec.step_per_weight(weights.group_bounds)
    if np.any(np.abs(dither.r) > 0.5 * step + 1e-15):
        raise ValueError("invalid dither")
    return quantize_array(weights.values + dither.r, spec, step=step) - dither.r


def _mc_average(weights: GroupedWeights, spec: QuantSpec, n_samples: int, seed: int,
                sample, return_sem: bool) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean (and SEM) of ``sample(w, r, step)`` over dither draws r.

    The per-group chunk schedule fixes both the summation order and the memory
    peak; ``sample`` is elementwise, so row blocks of a chunk give the same values.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    values = weights.values
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite weight")
    total, total_sq = np.zeros((2, values.size))
    for g, (lo, hi) in enumerate(weights.group_bounds):
        if hi == lo:
            continue
        step_g = spec.step_for_group(g)
        rng = substream(seed, "dither", g)
        chunk = max(1, _MC_CHUNK_ELEMS // (hi - lo))
        block = max(1, _MC_BLOCK_ELEMS // (hi - lo))
        for done in range(0, n_samples, chunk):
            k = min(chunk, n_samples - done)
            r = rng.uniform(-0.5 * step_g, 0.5 * step_g, size=(k, hi - lo))
            s = np.empty_like(r)
            for a in range(0, k, block):
                s[a:a + block] = sample(values[None, lo:hi], r[a:a + block], step_g)
            total[lo:hi] += s.sum(axis=0)
            total_sq[lo:hi] += np.square(s, out=s).sum(axis=0)
    mean = total / n_samples
    if not return_sem:
        return mean
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / n_samples)


def mean_field(weights: GroupedWeights, spec: QuantSpec, n_samples: int, seed: int,
               return_sem: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo average of the de-dithered proxy over fresh dither draws.

    Deterministic for fixed (weights, spec, seed). With ``return_sem`` the
    per-coordinate standard error of the mean is returned as well, for
    callers that need an MC tolerance.
    """
    return _mc_average(weights, spec, n_samples, seed,
                       lambda w, r, step: quantize_array(w + r, spec, step=step) - r, return_sem)


def mean_field_sensitivity(weights: GroupedWeights, spec: QuantSpec, probe_eps: float | None = None,
                           n_samples: int = 2000, seed: int = 0,
                           return_sem: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Central-difference slope of the dither-averaged quantizer, per coordinate.

    Both +/- evaluations share the same dither draws (common random
    numbers), which removes most of the MC variance. The default offset
    is step/100. Values are reported unclamped.
    """
    def slope(w: np.ndarray, r: np.ndarray, step: float) -> np.ndarray:
        eps = (step / 100.0) if probe_eps is None else float(probe_eps)
        if not eps > 0:
            raise ValueError("probe_eps must be positive")
        hi_q = quantize_array(w + eps + r, spec, step=step)
        lo_q = quantize_array(w - eps + r, spec, step=step)
        return (hi_q - lo_q) / (2.0 * eps)

    return _mc_average(weights, spec, n_samples, seed, slope, return_sem)


def calibrate_step(weights: GroupedWeights, spec: QuantSpec, floor: float = 1e-12) -> QuantSpec:
    """Per-group step = max-abs(group) / clip_codes, frozen thereafter."""
    sizes = group_sizes(weights.group_bounds)
    filled = sizes > 0
    peaks = np.zeros(sizes.size)
    peaks[filled] = np.maximum.reduceat(np.abs(weights.values), (np.cumsum(sizes) - sizes)[filled])
    return replace(spec, step=np.maximum(peaks / spec.clip_codes, floor))
