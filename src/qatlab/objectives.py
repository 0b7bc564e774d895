"""Desk-scale differentiable objectives with handwritten per-sample gradients.

Each objective exposes exact analytic gradients of the per-sample loss
with respect to the (quantized) weight vector. No autodiff framework;
a finite-difference checker in the test suite guards every kind.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .quant import GroupedWeights, QuantSpec
from .rng import substream

__all__ = [
    "Dataset",
    "Objective",
    "Quadratic",
    "LinearRegression",
    "LogisticRegression",
    "TwoLayerMLP",
    "per_sample_grad",
    "batch_grad",
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
    """Interface: per-sample loss and exact gradient w.r.t. the weight vector."""

    dim: int

    @property
    def n(self) -> int:
        raise NotImplementedError

    def loss_and_grad(self, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def full_loss(self, q: np.ndarray) -> float:
        losses = [self.loss_and_grad(q, i)[0] for i in range(self.n)]
        return float(np.mean(losses))


class Quadratic(Objective):
    """Per-sample loss 0.5 (q - t_i)' A (q - t_i) with diagonal or dense A."""

    def __init__(self, curvature: np.ndarray, targets: np.ndarray):
        curvature = np.asarray(curvature, dtype=float)
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        if curvature.ndim not in (1, 2):
            raise ValueError("curvature must be a diagonal vector or a square matrix")
        if curvature.shape[0] != targets.shape[1]:
            raise ValueError("curvature and target dimensions differ")
        self.curvature = curvature
        self.targets = targets
        self.dim = targets.shape[1]

    @property
    def n(self) -> int:
        return self.targets.shape[0]

    def _apply_a(self, x: np.ndarray) -> np.ndarray:
        if self.curvature.ndim == 1:
            return self.curvature * x
        return x @ self.curvature.T

    def loss_and_grad(self, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        r = q - self.targets[i]
        ar = self._apply_a(r)
        return 0.5 * float(r @ ar), ar

    def full_loss(self, q: np.ndarray) -> float:
        r = q[None, :] - self.targets
        return 0.5 * float(np.mean(np.einsum("ij,ij->i", r, self._apply_a(r))))

    def mean_target(self) -> np.ndarray:
        return self.targets.mean(axis=0)

    def optimal_loss(self) -> float:
        """Minimum of the sample-averaged loss (attained at the mean target)."""
        return self.full_loss(self.mean_target())


class LinearRegression(Objective):
    """Per-sample loss 0.5 (x_i . q - y_i)^2."""

    def __init__(self, data: Dataset):
        self.data = data
        self.dim = data.inputs.shape[1]

    @property
    def n(self) -> int:
        return self.data.n

    def loss_and_grad(self, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        x = self.data.inputs[i]
        resid = float(x @ q - self.data.targets[i])
        return 0.5 * resid * resid, resid * x

    def full_loss(self, q: np.ndarray) -> float:
        resid = self.data.inputs @ q - self.data.targets
        return 0.5 * float(np.mean(resid * resid))


class LogisticRegression(Objective):
    """Per-sample logistic loss log(1 + exp(-y_i x_i . q)), labels in {-1, +1}."""

    def __init__(self, data: Dataset):
        labels = np.asarray(data.targets)
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")
        self.data = data
        self.dim = data.inputs.shape[1]

    @property
    def n(self) -> int:
        return self.data.n

    def loss_and_grad(self, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        x = self.data.inputs[i]
        y = self.data.targets[i]
        margin = -y * float(x @ q)
        loss = float(np.logaddexp(0.0, margin))
        sigma = 1.0 / (1.0 + np.exp(-margin))
        return loss, (-y * sigma) * x


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
        self.dim = hidden_width * (self.in_dim + 2) + 1

    @property
    def n(self) -> int:
        return self.data.n

    def unpack(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        h, p = self.hidden, self.in_dim
        w1 = q[: h * p].reshape(h, p)
        b1 = q[h * p: h * p + h]
        w2 = q[h * p + h: h * p + 2 * h]
        b2 = float(q[-1])
        return w1, b1, w2, b2

    def loss_and_grad(self, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
        w1, b1, w2, b2 = self.unpack(q)
        x = self.data.inputs[i]
        y = self.data.targets[i]
        z = w1 @ x + b1
        a = np.tanh(z)
        f = float(w2 @ a + b2)
        df = f - y
        loss = 0.5 * df * df
        dz = (df * w2) * (1.0 - a * a)
        grad = np.concatenate([np.outer(dz, x).ravel(), dz, df * a, [df]])
        return loss, grad


def per_sample_grad(obj: Objective, q: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """Loss and exact gradient of sample i at the quantized point q."""
    if not 0 <= i < obj.n:
        raise IndexError("sample index out of range")
    return obj.loss_and_grad(np.asarray(q, dtype=float), i)


def batch_grad(obj: Objective, q: np.ndarray, batch: np.ndarray) -> tuple[float, np.ndarray]:
    """Arithmetic mean of per-sample losses and gradients, in the given order."""
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise ValueError("empty batch")
    pairs = [per_sample_grad(obj, q, int(i)) for i in batch]
    losses = np.array([p[0] for p in pairs])
    grads = np.stack([p[1] for p in pairs])
    return float(np.mean(losses)), np.mean(grads, axis=0)


def make_pl_instance(d: int, mu: float, l_smooth: float, seed: int,
                     n_samples: int = 1, target_spread: float = 0.0) -> Quadratic:
    """Quadratic with spectrum exactly spanning [mu, l_smooth].

    The gradient-dominance constant is exactly mu and the smoothness
    constant exactly l_smooth. With n_samples > 1, per-sample targets are
    spread (mean-centered) around the base optimum to create minibatch
    noise without moving the full-batch optimum.
    """
    if not 0 < mu <= l_smooth:
        raise ValueError("invalid spectrum bounds")
    if d == 1 and mu != l_smooth:
        raise ValueError("invalid spectrum bounds: d=1 admits a single eigenvalue")
    spectrum = np.linspace(mu, l_smooth, d)
    rng = substream(seed, "objective")
    base = rng.uniform(-1.0, 1.0, size=d)
    if n_samples == 1:
        targets = base[None, :]
    else:
        offsets = rng.normal(0.0, 1.0, size=(n_samples, d))
        offsets -= offsets.mean(axis=0)
        targets = base[None, :] + target_spread * offsets
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
    spec = QuantSpec.w2(step=1.0, group_size=group_size)
    clip = float(spec.clip_level())
    rng = substream(seed, "objective")
    bounds = GroupedWeights.from_flat(np.zeros(d), group_size).group_bounds

    base = np.zeros(d)
    w0 = np.zeros(d)
    curvature = np.full(d, interior_curvature)
    for lo, hi in bounds:
        size = hi - lo
        n_sat = int(round(frac_beyond_clip * size))
        signs = rng.choice((-1.0, 1.0), size=n_sat)
        base[lo:lo + n_sat] = signs * rng.uniform(1.25, 1.75, size=n_sat) * clip
        w0[lo:lo + n_sat] = signs * rng.uniform(1.2, 1.45, size=n_sat) * clip
        w0[lo + n_sat:hi] = rng.uniform(-0.2, 0.2, size=size - n_sat) * clip
        curvature[lo:lo + n_sat] = saturated_curvature

    offsets = rng.normal(0.0, 1.0, size=(n_samples, d))
    offsets -= offsets.mean(axis=0)
    targets = base[None, :] + noise * offsets
    obj = Quadratic(curvature=curvature, targets=targets)
    return obj, GroupedWeights(values=w0, group_bounds=bounds), spec


def make_regression_task(d: int, n_samples: int, seed: int, noise: float = 0.1) -> LinearRegression:
    """Seeded synthetic linear-regression dataset."""
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, d))
    truth = rng.uniform(-1.0, 1.0, size=d)
    targets = inputs @ truth + noise * rng.normal(0.0, 1.0, size=n_samples)
    return LinearRegression(Dataset(inputs=inputs, targets=targets))


def make_classification_task(d: int, n_samples: int, seed: int,
                             margin: float = 1.0) -> LogisticRegression:
    """Seeded linearly-separable-ish logistic task with +-1 labels."""
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, d))
    truth = rng.uniform(-1.0, 1.0, size=d)
    scores = inputs @ truth + margin * rng.normal(0.0, 0.25, size=n_samples)
    labels = np.where(scores >= 0, 1.0, -1.0)
    return LogisticRegression(Dataset(inputs=inputs, targets=labels))


def make_mlp_task(in_dim: int, hidden_width: int, n_samples: int, seed: int,
                  noise: float = 0.1) -> TwoLayerMLP:
    """Seeded teacher-student task for the tanh MLP."""
    rng = substream(seed, "objective")
    inputs = rng.normal(0.0, 1.0, size=(n_samples, in_dim))
    teacher = TwoLayerMLP(Dataset(inputs=inputs, targets=np.zeros(n_samples)), hidden_width)
    params = rng.normal(0.0, 1.0, size=teacher.dim)
    w1, b1, w2, b2 = teacher.unpack(params)
    targets = np.tanh(inputs @ w1.T + b1) @ w2 + b2 + noise * rng.normal(0.0, 1.0, size=n_samples)
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
