"""Grouped symmetric uniform quantization with clipping and subtractive dithering.

A weight vector of length dim is cut into contiguous groups of
group_size weights, the last group short when group_size does not
divide dim (``GroupedWeights``); each group may carry its own step. The
hard quantizer maps weights to a finite grid; the dithered variant
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
    "mean_field",
    "mean_field_sensitivity",
    "calibrate_step",
    "next_dither",
    "row_blocks",
    "carried_sum",
]

_MODES = ("generic", "w2", "w1_58", "w1", "identity")

# Mean-field chunk size: each chunk's column sum is added to the total, so
# it fixes only the summation order (which the A3 golden pins), not memory.
_MC_CHUNK_ELEMS = 2_000_000
# Every pass over samples or probes (a Monte-Carlo chunk, a full-data gradient
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

    def step_for_group(self, g: int) -> float:
        return float(self.step[g]) if self.per_group else float(self.step)

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


def quantize_array(x: np.ndarray, spec: QuantSpec, step: float | np.ndarray | None = None) -> np.ndarray:
    """Quantize a raw array; ``step`` broadcasts against ``x`` (scalar by default)."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
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
        codes *= sign
        np.minimum(codes, c, out=codes)
        np.maximum(codes, -c, out=codes)
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


def draw_dither(weights: GroupedWeights, spec: QuantSpec, seed: int, seed_tag: int = 0) -> np.ndarray:
    """One (dim,) uniform dither r, |r| <= step/2, from the ("dither_block", seed_tag) stream."""
    return next_dither(weights, spec, substream(seed, "dither_block", seed_tag), ())


def dither_quantize(weights: GroupedWeights, r: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """De-dithered proxy: quantize(W + r) - r for a (dim,) dither r."""
    r = np.asarray(r, dtype=float)
    step = weights.broadcast(spec.step)
    if np.any(np.abs(r) > 0.5 * step + 1e-15):
        raise ValueError("invalid dither")
    return quantize_array(weights.values + r, spec, step=step) - r


def _mc_average(weights: GroupedWeights, spec: QuantSpec, n_samples: int, seed: int,
                sample, return_sem: bool, frozen=None) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Per-coordinate mean (and SEM) of ``sample(w, r, step)`` over dither draws r.

    The per-group chunk schedule fixes only the summation order. Memory is
    bounded by one row block: each block's dither is drawn into one buffer the
    size of the first block, sampled, and added to the chunk's carried column sums.

    ``frozen(w, step)``, given every weight and its step, marks the weights
    whose every sample is +/-0.0. Their sums stay +0.0 unsampled: a group
    with a live weight still draws whole blocks but samples only the live
    columns, and a group without one draws nothing from its stream.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    values = weights.values
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite weight")
    live = (np.ones(values.size, bool) if frozen is None
            else ~frozen(values, weights.broadcast(spec.step)))
    total, total_sq = np.zeros((2, values.size))
    for g, (lo, hi) in enumerate(weights.group_bounds):
        cols = None  # the sampled columns of the group's blocks: None for all
        if not live[lo:hi].all():
            cols = np.flatnonzero(live[lo:hi])
            if cols.size == 0:
                continue
            if cols.size == 1:  # numpy sums one column pairwise: a frozen partner keeps row order
                cols = np.append(cols, np.argmin(live[lo:hi]))
        at = slice(lo, hi) if cols is None else lo + cols
        w = values[None, at]
        step_g = spec.step_for_group(g)
        low, high = -0.5 * step_g, 0.5 * step_g
        rng = substream(seed, "dither", g)
        chunk = max(1, _MC_CHUNK_ELEMS // (hi - lo))
        buf = np.empty((next(row_blocks(min(chunk, n_samples), hi - lo)).stop, hi - lo))
        for done in range(0, n_samples, chunk):
            s_sum = sq_sum = -0.0  # the chunk's carried column sums of s and s**2
            for rows in row_blocks(min(chunk, n_samples - done), hi - lo):
                r = buf[:rows.stop - rows.start]
                rng.random(out=r)
                if cols is not None:
                    r = r.take(cols, axis=1)  # C order, which carried_sum sums row by row
                r *= high - low  # Generator.uniform(low, high)'s bits: low + (high - low) * u
                r += low
                s = sample(w, r, step_g)
                if return_sem:
                    sq_sum = carried_sum(np.square(s), sq_sum)
                s_sum = carried_sum(s, s_sum)
            total[at] += s_sum
            total_sq[at] += sq_sum
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

    A weight is frozen, and never sampled, when the quantizer gives the same
    value at the two ends of every argument its slope sample reads:
    ``(w - eps) + low`` and ``(w + eps) + ((high - low) + low)``, the dither
    map at u = 0 and u = 1 in the sample's float order. Rounding and the
    quantizer are monotone, so each of its samples is +/-0.0 and its mean
    and SEM are +0.0, the bits a sampled one gets. A group of frozen weights
    draws nothing from its ``("dither", g)`` stream. A weight whose offset is
    not positive or whose ends overflow stays live and is sampled as before.
    """
    def offset(step: float | np.ndarray) -> float | np.ndarray:
        return (step / 100.0) if probe_eps is None else float(probe_eps)

    def slope(w: np.ndarray, r: np.ndarray, step: float) -> np.ndarray:
        eps = offset(step)
        if not eps > 0:
            raise ValueError("probe_eps must be positive")
        hi_q = quantize_array(w + eps + r, spec, step=step)
        lo_q = quantize_array(w - eps + r, spec, step=step)
        return (hi_q - lo_q) / (2.0 * eps)

    def frozen(w: np.ndarray, step: float | np.ndarray) -> np.ndarray:
        eps = offset(step)
        low, high = -0.5 * step, 0.5 * step
        with np.errstate(over="ignore"):
            ends = np.stack([(w - eps) + low, (w + eps) + ((high - low) + low)])
            ok = np.isfinite(ends).all(axis=0) & (eps > 0)
            ends[:, ~ok] = 0.0
            q = quantize_array(ends, spec, step=step)
        return ok & (q[0] == q[1])

    return _mc_average(weights, spec, n_samples, seed, slope, return_sem, frozen)


def calibrate_step(weights: GroupedWeights, spec: QuantSpec, floor: float = 1e-12) -> QuantSpec:
    """Per-group step = max-abs(group) / clip_codes, frozen thereafter."""
    starts = np.arange(0, weights.dim, weights.group_size)
    peaks = np.maximum.reduceat(np.abs(weights.values), starts)
    return replace(spec, step=np.maximum(peaks / spec.clip_codes, floor))
