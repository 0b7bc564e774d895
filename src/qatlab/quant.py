"""Grouped symmetric uniform quantization with clipping and subtractive dithering.

A weight vector of length dim is cut into contiguous groups of
group_size weights, the last group short when group_size does not
divide dim (``GroupedWeights``); each group may carry its own step. The
hard quantizer maps weights to a finite grid; the dithered variant
adds uniform noise before quantizing and subtracts it after, which makes
the *expected* map smooth. The smoothed map's derivative is the
sensitivity that the learned backward gains target. With a dither of one
step it is a box: (Q(x + step/2) - Q(x - step/2)) / step is one inside the
clip level and zero beyond it (w1: two within half a step of zero;
identity: one everywhere), so ``mean_field_sensitivity`` computes it
without draws.

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

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .rng import substream

__all__ = [
    "QuantSpec",
    "GroupedWeights",
    "quantize",
    "quantize_array",
    "dither_quantize",
    "draw_dither",
    "checked_dither",
    "mean_field",
    "mean_field_sensitivity",
    "calibrate_step",
    "next_dither",
    "row_blocks",
    "carried_sum",
]

_MODES = ("generic", "w2", "w1_58", "w1", "identity")

# Every pass over samples or probes (a Monte-Carlo average, a full-data gradient
# or loss, a gain update's probes) holds one (rows, width) block of at most this
# many float64 elements at a time.
_BLOCK_ELEMS = 16_384


def row_blocks(n: int, width: int) -> Iterator[slice]:
    """Row slices of one pass over n rows: as many as fit, at least one; width 1 takes all n.

    numpy sums a single column pairwise, so only one block keeps its column sum's bits.
    """
    rows = max(1, n if width == 1 else _BLOCK_ELEMS // width)
    for a in range(0, n, rows):
        yield slice(a, min(a + rows, n))


def carried_sum(block: np.ndarray, total: float | np.ndarray) -> np.ndarray:
    """``total`` plus the block's column sum, with the bits of one whole block.

    numpy sums a (rows, width >= 2) block over axis 0 row by row, so the carry
    goes into the block's first row, in place. A pass starts it at -0.0: no bit changes.
    """
    block[0] += total
    return block.sum(axis=0)


@dataclass(frozen=True)
class QuantSpec:
    """Quantizer grid: step size, clip level and mode.

    ``step`` is either one scalar or one value per group (an array of
    length n_groups of the weights it quantizes). ``clip_codes`` is the
    largest magnitude code c.
    """

    step: float | np.ndarray
    clip_codes: int = 1
    mode: str = "generic"
    mid_rise: bool = False

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
        if self.mode in ("w1_58", "w2", "w1") and self.clip_codes != 1:
            raise ValueError(f"mode {self.mode!r} requires clip_codes = 1")
        if self.mid_rise and self.mode not in ("generic", "w2"):
            raise ValueError("mid_rise is only defined for generic/w2 grids")

    # -- constructors ------------------------------------------------------

    @classmethod
    def generic(cls, bits: int, step: float = 1.0, mid_rise: bool = False) -> "QuantSpec":
        if bits < 2:
            raise ValueError("bits must be >= 2 for generic mode")
        if bits > 53:  # checked before 2 ** (bits - 1): the clip level stays an exact float
            raise ValueError("bits must be <= 53 for generic mode, for an exact clip level")
        return cls(step=step, clip_codes=2 ** (bits - 1) - 1, mode="generic",
                   mid_rise=mid_rise)

    @classmethod
    def w1(cls, step: float = 1.0) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w1")

    @classmethod
    def ternary(cls, step: float = 1.0) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w1_58")

    @classmethod
    def w2(cls, step: float = 1.0, mid_rise: bool = False) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="w2", mid_rise=mid_rise)

    @classmethod
    def identity(cls, step: float = 1.0) -> "QuantSpec":
        return cls(step=step, clip_codes=1, mode="identity")

    # -- helpers -----------------------------------------------------------

    @property
    def per_group(self) -> bool:
        return not np.isscalar(self.step)

    def clip_level(self) -> float | np.ndarray:
        """Magnitude of the largest representable value (mid-tread grids)."""
        c = self.clip_codes
        if self.mid_rise:
            c = c + 0.5
        return self.step * (1.0 if self.mode == "w1" else c)


@dataclass(frozen=True)
class GroupedWeights:
    """Non-empty flat weight vector cut into contiguous groups of ``group_size``.

    Group g holds weights [g * group_size, (g + 1) * group_size); the last
    group is short when group_size does not divide dim.
    """

    values: np.ndarray
    group_size: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("weights must be a non-empty flat vector")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def n_groups(self) -> int:
        return -(-self.dim // self.group_size)

    @property
    def group_bounds(self) -> tuple[tuple[int, int], ...]:
        """(lo, hi) of each group, for code that walks the groups one at a time."""
        starts = range(0, self.dim, self.group_size)
        return tuple(zip(starts, [*starts[1:], self.dim]))

    def per_weight(self, per_group: float | np.ndarray) -> np.ndarray:
        """Broadcast a scalar or one value per group to one float per weight."""
        values = np.empty(self.n_groups)
        values[:] = per_group
        return np.repeat(values, self.group_size)[:self.dim]

    def broadcast(self, per_group: float | np.ndarray) -> float | np.ndarray:
        """An operand that broadcasts over the values: a scalar as is, else ``per_weight``."""
        return per_group if np.isscalar(per_group) else self.per_weight(per_group)

    def with_values(self, values: np.ndarray) -> "GroupedWeights":
        """Same groups, new values of the same length."""
        new = GroupedWeights(values, self.group_size)
        if new.dim != self.dim:
            raise ValueError("new values must be a flat vector of the weights' length")
        return new


def quantize_array(x: np.ndarray, spec: QuantSpec, step: float | np.ndarray) -> np.ndarray:
    """Quantize a raw array on ``spec``'s grid; ``step`` broadcasts against ``x``."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite weight")
    if spec.mode == "identity":
        return x.copy()
    if spec.mode == "w1":
        return np.where(x >= 0, 1.0, -1.0) * step
    c = spec.clip_codes
    codes = np.asarray(x / step)  # the one fresh array, rounded in place (0-d for a scalar x)
    # clipped with the minimum and maximum ufuncs: np.clip's bits at a lower call cost
    if spec.mid_rise:
        np.floor(codes, out=codes)
        np.minimum(codes, c, out=codes)
        np.maximum(codes, -c - 1, out=codes)
        codes += 0.5
    else:  # sign * floor(|x| + 0.5): halves away from zero, where np.round goes to even
        sign = np.sign(codes)
        np.abs(codes, out=codes)
        codes += 0.5
        np.floor(codes, out=codes)
        np.minimum(codes, c, out=codes)  # the clip is symmetric: clip the magnitude, then sign it
        codes *= sign
    codes *= step
    return codes[()]


def quantize(weights: GroupedWeights, spec: QuantSpec) -> np.ndarray:
    """Hard quantization of a grouped weight vector."""
    return quantize_array(weights.values, spec, step=weights.broadcast(spec.step))


def next_dither(weights: GroupedWeights, spec: QuantSpec, rng: np.random.Generator,
                rows: tuple[int, ...]) -> np.ndarray:
    """The next (*rows, dim) uniform dither of ``rng``, within half of each weight's group step.

    Consecutive calls continue the stream: draws of k and then m - k rows
    give the bits of one m-row draw.
    """
    half = 0.5 * weights.broadcast(spec.step)
    u = rng.random((*rows, weights.dim))
    # Generator.uniform(-half, half)'s own formula, without its slow array-bounds path
    return -half + (half - -half) * u


def draw_dither(weights: GroupedWeights, spec: QuantSpec, seed: int, draw_key: int = 0) -> np.ndarray:
    """One (dim,) uniform dither r, |r| <= step/2, from the ("dither_block", draw_key) stream."""
    return next_dither(weights, spec, substream(seed, "dither_block", draw_key), ())


def checked_dither(r: np.ndarray, step: float | np.ndarray, dim: int) -> np.ndarray:
    """A (..., dim) ``r`` as floats, each within half its weight's step; else ValueError.

    There is no slack: ``next_dither``'s draws lie within the same ``0.5 * step`` by
    construction, at any step size.
    """
    r = np.asarray(r, dtype=float)
    if r.ndim == 0 or r.shape[-1] != dim or np.any(np.abs(r) > 0.5 * step):
        raise ValueError("invalid dither")
    return r


def dither_quantize(weights: GroupedWeights, r: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """De-dithered proxy: quantize(W + r) - r for a (dim,) dither r, or a (..., dim) block of them."""
    step = weights.broadcast(spec.step)
    r = checked_dither(r, step, weights.dim)
    return quantize_array(weights.values + r, spec, step=step) - r


def mean_field(weights: GroupedWeights, spec: QuantSpec, n_samples: int,
               seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean of the de-dithered proxy over fresh dither draws, and its standard error.

    Deterministic for fixed (weights, spec, seed). The per-coordinate
    standard error of the mean is the Monte-Carlo tolerance of the average.

    The samples are the dithered forward of training: row blocks of the
    ("dither",) stream drawn by ``next_dither``, mapped by ``dither_quantize``
    and summed by ``carried_sum``. The bits are those of one (n_samples, dim)
    draw summed over its rows, and memory is bounded by one row block.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed, "dither")
    total = total_sq = -0.0  # the carried column sums of s and s**2
    for rows in row_blocks(n_samples, weights.dim):
        r = next_dither(weights, spec, rng, (rows.stop - rows.start,))
        s = dither_quantize(weights, r, spec)  # checks r's range and the weights' finiteness
        total_sq = carried_sum(np.square(s), total_sq)
        total = carried_sum(s, total)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    return mean, np.sqrt(var / n_samples)


def mean_field_sensitivity(weights: GroupedWeights, spec: QuantSpec,
                           probe_eps: float | None = None) -> np.ndarray:
    """Expected central-difference slope of the dithered quantizer, per coordinate; no draws.

    The slope (Q(w + eps + r) - Q(w - eps + r)) / (2 eps), with r uniform on
    +/- step/2, has mean h * |[w - eps, w + eps] & (-a, a)| / (2 eps): the
    dither-smoothed quantizer's derivative is a box of height h on (-a, a),
    averaged over the window. Generic, w2 and w1_58 grids, mid-tread or
    mid-rise, have h = 1 and a = clip_level(); w1 has h = 2 and a = step/2;
    identity is 1 everywhere. The default offset eps is each weight's
    step/100. A window inside the box gives exactly h, one outside it 0.0.
    """
    values = weights.values
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite weight")
    step = weights.broadcast(spec.step)
    eps = step / 100.0 if probe_eps is None else float(probe_eps)
    if not np.all(eps > 0):
        raise ValueError("probe_eps must be positive")
    if spec.mode == "identity":
        return np.ones(values.size)
    if spec.mode == "w1":
        height, a = 2.0, 0.5 * step
    else:
        height, a = 1.0, weights.broadcast(spec.clip_level())
    # the window's ends and length may overflow; only a window inside the box reads inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = values - eps, values + eps
        overlap = np.maximum(np.minimum(hi, a) - np.maximum(lo, -a), 0.0)  # a miss is +0.0
        share = np.minimum(overlap / (2.0 * eps), 1.0)
    return height * np.where((lo >= -a) & (hi <= a), 1.0, share)


def calibrate_step(weights: GroupedWeights, spec: QuantSpec) -> QuantSpec:
    """Per-group step = max-abs(group) / clip_codes, at least 1e-12, frozen thereafter."""
    starts = np.arange(0, weights.dim, weights.group_size)
    peaks = np.maximum.reduceat(np.abs(weights.values), starts)
    return replace(spec, step=np.maximum(peaks / spec.clip_codes, 1e-12))
