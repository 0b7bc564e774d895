from __future__ import annotations

import numpy as np
import pytest

from qatlab.objectives import (
    Dataset,
    LinearRegression,
    LogisticRegression,
    Quadratic,
    TwoLayerMLP,
    batch_grad,
    load_csv_dataset,
    make_mlp_task,
    make_pl_instance,
    make_regression_task,
    make_saturating_task,
    per_sample_grad,
)
from qatlab.quant import quantize
from qatlab.rng import substream


def central_fd(obj, q, i, eps=1e-6):
    """Independent oracle: central finite differences of the per-sample loss."""
    grad = np.zeros_like(q)
    for k in range(q.size):
        hi = q.copy()
        lo = q.copy()
        hi[k] += eps
        lo[k] -= eps
        grad[k] = (obj.loss_and_grad_batch(hi, [i])[0][0]
                   - obj.loss_and_grad_batch(lo, [i])[0][0]) / (2 * eps)
    return grad


def random_instance(kind: str, seed: int):
    rng = substream(seed, "test")
    if kind == "quadratic":
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        diag = rng.uniform(0.5, 2.0, d)
        return Quadratic(curvature=diag, targets=rng.normal(0, 1, (n, d)))
    if kind == "linear":
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        return LinearRegression(Dataset(rng.normal(0, 1, (n, d)), rng.normal(0, 1, n)))
    if kind == "logistic":
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        labels = rng.choice((-1.0, 1.0), n)
        return LogisticRegression(Dataset(rng.normal(0, 1, (n, d)), labels))
    d, n, h = int(rng.integers(2, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 4))
    return TwoLayerMLP(Dataset(rng.normal(0, 1, (n, d)), rng.normal(0, 1, n)), h)


@pytest.mark.parametrize("kind", ["quadratic", "linear", "logistic", "mlp"])
def test_analytic_gradients_match_finite_differences(kind):
    # 100 random instances per kind, relative error <= 1e-5.
    for seed in range(100):
        obj = random_instance(kind, seed)
        rng = substream(seed, "point")
        q = rng.normal(0, 1, obj.dim)
        i = int(rng.integers(0, obj.n))
        _, grad = per_sample_grad(obj, q, i)
        fd = central_fd(obj, q, i)
        scale = max(np.linalg.norm(fd), 1.0)
        assert np.linalg.norm(grad - fd) / scale <= 1e-5


def test_quadratic_minimum_gives_zero_loss_and_gradient():
    target = np.array([0.3, -1.2])
    obj = Quadratic(curvature=np.ones(2), targets=target[None, :])
    loss, grad = per_sample_grad(obj, target, 0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(2))


@pytest.mark.parametrize("curvature", [np.eye(3), np.float64(1.0), np.ones(2), np.ones((3, 1))],
                         ids=["square", "scalar", "short", "column"])
def test_quadratic_takes_only_a_diagonal_of_the_targets_dimension(curvature):
    with pytest.raises(ValueError, match="diagonal"):
        Quadratic(curvature=curvature, targets=np.zeros((4, 3)))


def test_objectives_hold_their_sample_count_and_dimension():
    data = Dataset(np.zeros((5, 3)), np.ones(5))
    for obj in (Quadratic(np.ones(3), np.zeros((5, 3))), LinearRegression(data),
                LogisticRegression(data), TwoLayerMLP(data, hidden_width=2)):
        assert "n" in vars(obj) and obj.n == 5
    assert Quadratic(np.ones(3), np.zeros(3)).n == 1  # one target vector is one sample


def test_linear_regression_single_sample_example():
    obj = LinearRegression(Dataset(inputs=np.array([[1.0, 0.0]]), targets=np.array([2.0])))
    loss, grad = per_sample_grad(obj, np.zeros(2), 0)
    assert loss == pytest.approx(2.0)
    assert grad == pytest.approx([-2.0, 0.0])


def test_loss_nonnegative():
    for seed in range(10):
        for kind in ("linear", "logistic", "mlp"):
            obj = random_instance(kind, seed)
            q = substream(seed, "pt").normal(0, 2, obj.dim)
            for i in range(obj.n):
                assert per_sample_grad(obj, q, i)[0] >= 0.0


def test_index_out_of_range():
    obj = random_instance("linear", 0)
    with pytest.raises(IndexError):
        per_sample_grad(obj, np.zeros(obj.dim), obj.n)


def test_batch_grad_singleton_equals_per_sample():
    obj = random_instance("linear", 3)
    q = np.ones(obj.dim)
    loss, grad = batch_grad(obj, q, np.array([1]))
    loss1, grad1 = per_sample_grad(obj, q, 1)
    assert loss == loss1
    assert np.array_equal(grad, grad1)


def test_batch_grad_duplicates_weight_by_count():
    obj = random_instance("linear", 4)
    q = np.full(obj.dim, 0.5)
    dup = batch_grad(obj, q, np.array([0, 0, 1, 1]))
    plain = batch_grad(obj, q, np.array([0, 1]))
    assert dup[0] == pytest.approx(plain[0], rel=1e-15)
    np.testing.assert_allclose(dup[1], plain[1], rtol=1e-14)


def test_batch_grad_matches_independent_summation():
    obj = random_instance("mlp", 7)
    q = substream(7, "pt").normal(0, 1, obj.dim)
    batch = np.array([0, 1, 0])
    _, grad = batch_grad(obj, q, batch)
    total = np.zeros(obj.dim)
    for i in batch:
        total = total + per_sample_grad(obj, q, int(i))[1]
    np.testing.assert_allclose(grad, total / 3, rtol=1e-14)


def test_batch_grad_linearity_over_disjoint_unions():
    obj = make_regression_task(4, 6, seed=9)
    q = np.linspace(-1, 1, obj.dim)
    s1, s2 = np.array([0, 1]), np.array([2])
    l1, g1 = batch_grad(obj, q, s1)
    l2, g2 = batch_grad(obj, q, s2)
    lu, gu = batch_grad(obj, q, np.concatenate([s1, s2]))
    assert abs(lu - (2 * l1 + l2) / 3) <= 1e-12
    assert np.all(np.abs(gu - (2 * g1 + g2) / 3) <= 1e-12)


def test_batch_grad_empty_rejected():
    obj = random_instance("linear", 5)
    with pytest.raises(ValueError, match="empty"):
        batch_grad(obj, np.zeros(obj.dim), np.array([], dtype=int))


def test_pl_instance_identity_case():
    obj = make_pl_instance(3, 1.0, 1.0, seed=0)
    assert np.array_equal(obj.curvature, np.ones(3))


def test_pl_instance_spectrum_attains_bounds():
    obj = make_pl_instance(2, 0.1, 1.0, seed=1)
    assert sorted(obj.curvature) == [pytest.approx(0.1), pytest.approx(1.0)]
    with pytest.raises(ValueError, match="invalid spectrum"):
        make_pl_instance(4, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError, match="invalid spectrum"):
        make_pl_instance(4, 2.0, 1.0, seed=0)


def test_pl_instance_gradient_descent_contraction_closed_form():
    mu, ls, eta = 0.1, 1.0, 0.5
    obj = make_pl_instance(6, mu, ls, seed=2)
    t_star = obj.mean_target()
    w = t_star + substream(3, "w0").normal(0, 1, 6)
    expected = w.copy()
    for _ in range(50):
        w = w - eta * (obj.curvature * (w - t_star))
        expected = t_star + (1 - eta * obj.curvature) * (expected - t_star)
        assert np.all(np.abs(w - expected) <= 1e-12)
    gap0 = obj.full_loss(expected) - obj.optimal_loss()
    w = expected
    for _ in range(20):
        w_next = w - eta * (obj.curvature * (w - t_star))
        gap_next = obj.full_loss(w_next) - obj.optimal_loss()
        gap = obj.full_loss(w) - obj.optimal_loss()
        if gap < 1e-20:
            break
        assert gap_next / gap <= (1 - eta * mu) + 1e-12
        w = w_next
    assert gap0 > 0


def test_pl_instance_centered_targets_keep_optimum():
    obj = make_pl_instance(4, 0.2, 1.0, seed=5, n_samples=16, target_spread=0.3)
    base = make_pl_instance(4, 0.2, 1.0, seed=5)
    np.testing.assert_allclose(obj.mean_target(), base.mean_target(), atol=1e-12)


def test_saturating_task_fraction_beyond_clip():
    obj, weights, spec = make_saturating_task(d=128, group_size=16, frac_beyond_clip=0.5, seed=3)
    clip = float(spec.clip_level())
    frac = np.mean(np.abs(obj.mean_target()) > clip)
    assert frac == pytest.approx(0.5, abs=0.05)
    # every group mixes saturated and interior targets
    t = obj.mean_target()
    for lo, hi in weights.group_bounds:
        seg = np.abs(t[lo:hi]) > clip
        assert 0 < seg.sum() < hi - lo
    # initial point is representable and near the per-coordinate optima
    q0 = quantize(weights, spec)
    assert obj.full_loss(q0) < obj.full_loss(np.zeros(128))


def test_classification_task_labels_and_determinism():
    from qatlab.objectives import make_classification_task

    a = make_classification_task(6, 40, seed=13)
    b = make_classification_task(6, 40, seed=13)
    assert np.array_equal(a.data.targets, b.data.targets)
    assert set(np.unique(a.data.targets)) <= {-1.0, 1.0}
    loss, grad = per_sample_grad(a, np.zeros(6), 0)
    assert loss == pytest.approx(np.log(2.0))
    assert grad.shape == (6,)


def test_mlp_and_regression_generators_are_seeded():
    a = make_mlp_task(3, 4, 10, seed=11)
    b = make_mlp_task(3, 4, 10, seed=11)
    assert np.array_equal(a.data.inputs, b.data.inputs)
    assert np.array_equal(a.data.targets, b.data.targets)
    r1 = make_regression_task(5, 20, seed=4)
    r2 = make_regression_task(5, 20, seed=4)
    assert np.array_equal(r1.data.targets, r2.data.targets)


def test_csv_dataset_loader(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    data = load_csv_dataset(str(path))
    assert data.inputs.shape == (2, 2)
    np.testing.assert_allclose(data.targets, [3.0, 6.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("only_header\n")
    with pytest.raises(ValueError):
        load_csv_dataset(str(bad))
