"""Desk-scale differentiable objectives with handwritten per-sample gradients.

Each objective exposes exact analytic gradients of the per-sample loss
with respect to the (quantized) weight vector, one row per batch sample.
Rows use ``np.vecdot`` and stacked ``np.matmul`` (not ``X @ q`` or ``einsum``),
so a row's bits never depend on its batch-mates. A minibatch (``batch_grad``)
is one block of batch_size × dim floats per step. A pass over all samples
(``full_grad``, ``Quadratic.full_loss``) holds one ``quant.row_blocks`` block of
at most 16 384 elements at a time, with the bits of the whole-data computation.
No autodiff framework; finite differences in the tests check every kind.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .quant import GroupedWeights, QuantSpec, carried_sum, row_blocks
from .rng import substream

__all__ = [
    "Dataset",
    "Objective",
    "Quadratic",
    "LinearRegression",
    "LogisticRegression",
    "TwoLayerMLP",
    "checked_indices",
    "per_sample_grad",
    "batch_grad",
    "full_grad",
    "make_pl_instance",
    "make_saturating_task",
    "make_regression_task",
    "make_classification_task",
    "make_mlp_task",
    "load_csv_dataset",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n, p) and target vector (n,)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if inputs.shape[0] != targets.shape[0] or targets.shape[0] < 1:
            raise ValueError("inputs and targets must share a positive sample count")

    @property
    def n(self) -> int:
        return self.targets.shape[0]


class Objective:
    """Interface: per-sample losses and exact gradients; a kind implements ``_rows``, ``full_loss``.

    Attributes: ``n``, the number of samples, and ``dim``, the number of weights.

    ``loss_and_grad_batch`` returns fresh arrays the caller owns: they alias
    neither the objective's data nor an earlier result, so a caller may scale
    or overwrite the rows in place. No ``full_loss`` builds gradient rows.
    """

    dim: int
    n: int

    def _rows(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def loss_and_grad_batch(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses (b,) and gradients (b, d) of the samples ``idx`` at q, in the given order."""
        return self._rows(np.asarray(q, dtype=float), checked_indices(idx, self.n))

    def full_loss(self, q: np.ndarray) -> float:
        """Mean loss over all samples at q."""
        raise NotImplementedError


class Quadratic(Objective):
    """Per-sample loss 0.5 (q - t_i)' A (q - t_i) with diagonal A = diag(curvature)."""

    def __init__(self, curvature: np.ndarray, targets: np.ndarray):
        curvature = np.asarray(curvature, dtype=float)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if targets.ndim != 2 or curvature.shape != targets.shape[1:]:
            raise ValueError("curvature must be a (d,) diagonal of the (n, d) targets")
        self.curvature = curvature
        self.targets = targets
        self.n, self.dim = targets.shape

    def _rows(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = self.targets[idx]  # a gathered copy, turned into q - t_i in place
        np.subtract(q, r, out=r)
        ar = self.curvature * r
        return 0.5 * np.vecdot(r, ar), ar

    def full_loss(self, q: np.ndarray) -> float:
        # the whole-data einsum (it rounds unlike the rows), block by block
        losses = np.empty(self.n)
        for rows in row_blocks(self.n, self.dim):
            r = q[None, :] - self.targets[rows]
            np.einsum("ij,ij->i", r, self.curvature * r, out=losses[rows])
        return 0.5 * float(np.mean(losses))

    def mean_target(self) -> np.ndarray:
        return self.targets.mean(axis=0)

    def optimal_loss(self) -> float:
        """Minimum of the sample-averaged loss (attained at the mean target)."""
        return self.full_loss(self.mean_target())


class LinearRegression(Objective):
    """Per-sample loss 0.5 (x_i . q - y_i)^2."""

    def __init__(self, data: Dataset):
        self.data = data
        self.n, self.dim = data.inputs.shape

    def _rows(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.data.inputs[idx]
        resid = np.vecdot(x, q) - self.data.targets[idx]
        return 0.5 * resid * resid, resid[:, None] * x

    def full_loss(self, q: np.ndarray) -> float:
        # whole-data matmul, as in Quadratic.full_loss
        resid = self.data.inputs @ q - self.data.targets
        return 0.5 * float(np.mean(resid * resid))


class LogisticRegression(Objective):
    """Per-sample logistic loss log(1 + exp(-y_i x_i . q)), labels in {-1, +1}."""

    def __init__(self, data: Dataset):
        labels = np.asarray(data.targets)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")
        self.data = data
        self.n, self.dim = data.inputs.shape

    def _forward(self, q: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses and margins -y x . q of the rows x with labels y."""
        margin = -y * np.vecdot(x, q)
        return np.logaddexp(0.0, margin), margin

    def _rows(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self.data.inputs[idx]
        y = self.data.targets[idx]
        losses, margin = self._forward(q, x, y)
        sigma = 1.0 / (1.0 + np.exp(-margin))
        return losses, (-y * sigma)[:, None] * x

    def full_loss(self, q: np.ndarray) -> float:
        return float(np.mean(self._forward(q, self.data.inputs, self.data.targets)[0]))


class TwoLayerMLP(Objective):
    """One tanh hidden layer, scalar output, squared loss.

    Weight layout (flattened, in order): hidden weights (h, p), hidden
    bias (h), output weights (h), output bias (1).
    """

    def __init__(self, data: Dataset, hidden_width: int):
        if hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        self.data = data
        self.hidden = hidden_width
        self.in_dim = data.inputs.shape[1]
        self.n = data.n
        self.dim = hidden_width * (self.in_dim + 2) + 1

    def unpack(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        h, p = self.hidden, self.in_dim
        w1 = q[: h * p].reshape(h, p)
        b1 = q[h * p: h * p + h]
        w2 = q[h * p + h: h * p + 2 * h]
        b2 = float(q[-1])
        return w1, b1, w2, b2

    @staticmethod
    def _forward(params: tuple[np.ndarray, np.ndarray, np.ndarray, float], x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations (b, h) and output residuals (b,) of the rows x with targets y."""
        w1, b1, w2, b2 = params
        a = np.tanh(np.matmul(w1, x[:, :, None])[:, :, 0] + b1)
        return a, np.vecdot(w2, a) + b2 - y

    def _rows(self, q: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h, p, b = self.hidden, self.in_dim, idx.size
        x = self.data.inputs[idx]
        params = self.unpack(q)
        a, df = self._forward(params, x, self.data.targets[idx])
        w2 = params[2]
        grads = np.empty((b, self.dim))  # each part is written into its slice, in weight order
        dz = grads[:, h * p: h * p + h]
        np.multiply(df[:, None] * w2, 1.0 - a * a, out=dz)
        outer = grads[:, :h * p].reshape(b, h, p, copy=False)  # a view: raises if it cannot be one
        np.multiply(dz[:, :, None], x[:, None, :], out=outer)
        np.multiply(df[:, None], a, out=grads[:, h * p + h: -1])
        grads[:, -1] = df
        return 0.5 * df * df, grads

    def full_loss(self, q: np.ndarray) -> float:
        df = self._forward(self.unpack(q), self.data.inputs, self.data.targets)[1]
        return float(np.mean(0.5 * df * df))


def checked_indices(idx: np.ndarray, n: int) -> np.ndarray:
    """``idx`` as a non-empty int array of sample indices in [0, n); a negative one never wraps."""
    idx = np.asarray(idx, dtype=int)
    if idx.size == 0:
        raise ValueError("empty batch")
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError("sample index out of range")
    return idx


def per_sample_grad(obj: Objective, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """Loss and exact gradient of sample i at the quantized point q."""
    losses, grads = obj.loss_and_grad_batch(q, [i])
    return float(losses[0]), grads[0]


def batch_grad(obj: Objective, q: np.ndarray, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Arithmetic mean of a minibatch's per-sample losses and gradients, in the given order.

    One (b, d) block: ``np.mean`` of the rows, bit for bit (its sum, then a true divide).
    """
    losses, grads = obj.loss_and_grad_batch(q, batch)
    return float(losses.sum() / losses.size), grads.sum(axis=0) / losses.size


def full_grad(obj: Objective, q: np.ndarray) -> np.ndarray:
    """Mean gradient over all samples, one row block at a time.

    Row blocks with a carried column sum: the bits of the one-block ``batch_grad``.
    """
    total = -0.0
    for rows in row_blocks(obj.n, obj.dim):
        total = carried_sum(obj.loss_and_grad_batch(q, np.arange(rows.start, rows.stop))[1], total)
    return total / obj.n


def _check_noise(noise: float) -> None:
    if not noise >= 0:  # a standard deviation
        raise ValueError("noise must be >= 0")


def _scaled(offsets: np.ndarray, scale: float, name: str) -> np.ndarray:
    """``offsets *= scale``, in place; a ValueError naming the setting ``name`` if it overflows."""
    with np.errstate(over="ignore"):
        offsets *= scale
    if not (np.isfinite(offsets.min()) and np.isfinite(offsets.max())):  # no (n, d) temporary
        raise ValueError(f"{name} {scale!r} gives non-finite targets")
    return offsets


def make_pl_instance(d: int, mu: float, l_smooth: float, seed: int,
                     n_samples: int = 1, target_spread: float = 0.0) -> Quadratic:
    """Quadratic with spectrum exactly spanning [mu, l_smooth].

    The gradient-dominance constant is exactly mu and the smoothness
    constant exactly l_smooth. With n_samples > 1, per-sample targets are
    spread (mean-centered) around the base optimum to create minibatch
    noise without moving the full-batch optimum.
    """
    if not 0 < mu <= l_smooth:
        raise ValueError("mu must satisfy 0 < mu <= l_smooth: invalid spectrum bounds")
    if d == 1 and mu != l_smooth:
        raise ValueError("mu must equal l_smooth when d=1: invalid spectrum bounds")
    spectrum = np.linspace(mu, l_smooth, d)
    rng = substream(seed, "objective")
    base = rng.uniform(-1.0, 1.0, size=d)
    if n_samples == 1:
        targets = base[None, :]
    else:
        targets = rng.normal(0.0, 1.0, size=(n_samples, d))  # offsets, made targets in place
        targets -= targets.mean(axis=0)
        _scaled(targets, target_spread, "target_spread")
        targets += base
    return Quadratic(curvature=spectrum, targets=targets)


def make_saturating_task(d: int = 256, group_size: int = 32, frac_beyond_clip: float = 0.8,
                         n_samples: int = 64, noise: float = 1.0, seed: int = 0,
                         interior_curvature: float = 4.0, saturated_curvature: float = 1.0,
                         ) -> tuple[Quadratic, GroupedWeights, QuantSpec]:
    """Quadratic task whose optimum puts a fixed fraction of weights past the clip level.

    Every group mixes saturated coordinates (targets beyond the grid edge)
    with interior coordinates whose targets sit exactly on the grid, so a
    converged run is disturbed only by minibatch noise. Per-sample targets
    are mean-centered around the base target. Interior coordinates carry
    the larger curvature: crossing a bin boundary there is expensive, which
    is exactly where a full-gain backward rule hurts.
    """
    if not 0.0 <= frac_beyond_clip <= 1.0:
        raise ValueError("frac_beyond_clip must lie in [0, 1]")
    _check_noise(noise)
    spec = QuantSpec.w2(step=1.0)
    clip = float(spec.clip_level())
    rng = substream(seed, "objective")
    weights = GroupedWeights(np.zeros(d), group_size)

    base = np.zeros(d)
    w0 = np.zeros(d)
    curvature = np.full(d, interior_curvature, dtype=float)
    for lo, hi in weights.group_bounds:
        size = hi - lo
        n_sat = int(round(frac_beyond_clip * size))
        signs = rng.choice((-1.0, 1.0), size=n_sat)
        base[lo:lo + n_sat] = signs * rng.uniform(1.25, 1.75, size=n_sat) * clip
        w0[lo:lo + n_sat] = signs * rng.uniform(1.2, 1.45, size=n_sat) * clip
        w0[lo + n_sat:hi] = rng.uniform(-0.2, 0.2, size=size - n_sat) * clip
        curvature[lo:lo + n_sat] = saturated_curvature

    targets = rng.normal(0.0, 1.0, size=(n_samples, d))  # offsets, made targets in place
    targets -= targets.mean(axis=0)
    _scaled(targets, noise, "noise")
    targets += base
    obj = Quadratic(curvature=curvature, targets=targets)
    return obj, weights.with_values(w0), spec


def make_regression_task(d: int, n_samples: int, seed: int, noise: float = 0.1) -> LinearRegression:
    """Seeded synthetic linear-regression dataset."""
    _check_noise(noise)
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, d))
    truth = rng.uniform(-1.0, 1.0, size=d)
    targets = inputs @ truth + _scaled(rng.normal(0.0, 1.0, size=n_samples), noise, "noise")
    return LinearRegression(Dataset(inputs=inputs, targets=targets))


def make_classification_task(d: int, n_samples: int, seed: int) -> LogisticRegression:
    """Seeded linearly-separable-ish logistic task with +-1 labels.

    A label is the sign of a random linear score plus N(0, 0.25**2) noise.
    """
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, d))
    truth = rng.uniform(-1.0, 1.0, size=d)
    scores = inputs @ truth + rng.normal(0.0, 0.25, size=n_samples)
    labels = np.where(scores >= 0, 1.0, -1.0)
    return LogisticRegression(Dataset(inputs=inputs, targets=labels))


def make_mlp_task(in_dim: int, hidden_width: int, n_samples: int, seed: int,
                  noise: float = 0.1) -> TwoLayerMLP:
    """Seeded teacher-student task for the tanh MLP."""
    _check_noise(noise)
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, in_dim))
    teacher = TwoLayerMLP(Dataset(inputs=inputs, targets=np.zeros(n_samples)), hidden_width)
    params = rng.normal(0.0, 1.0, size=teacher.dim)
    w1, b1, w2, b2 = teacher.unpack(params)
    targets = (np.tanh(inputs @ w1.T + b1) @ w2 + b2
               + _scaled(rng.normal(0.0, 1.0, size=n_samples), noise, "noise"))
    return TwoLayerMLP(Dataset(inputs=inputs, targets=targets), hidden_width)


def load_csv_dataset(path: str) -> Dataset:
    """CSV with feature columns followed by one target column; header optional."""
    rows: list[list[float]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.reader(fh):
            if not record:
                continue
            try:
                rows.append([float(cell) for cell in record])
            except ValueError:
                if rows:
                    raise
                continue  # header row
    if not rows:
        raise ValueError(f"no numeric rows in {path}")
    data = np.asarray(rows, dtype=float)
    if data.shape[1] < 2:
        raise ValueError("need at least one feature column and one target column")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite value in {path}")
    return Dataset(inputs=data[:, :-1], targets=data[:, -1])
