"""Property tests: batched objective rows against one-sample loop references.

The references below restate each kind's one-sample loss and gradient
(and each kind's whole-data loss) as plain per-sample formulas.
``loss_and_grad_batch`` must match them bit for bit for every row of any
batch, duplicates included, so a row never depends on its batch-mates.
The in-place SAGA update is checked the same way against the row-by-row
table update, and the estimator's one formula on mean gradients against
the mean of its per-sample control-variate rows. The rows are fresh
arrays the caller owns, and the SAGA table and ``full_loss`` allocate no
(n, d) block beyond the one table. With the block size cut to a few
elements, ``full_grad`` and ``full_loss`` in row blocks must match their
one-block references bit for bit, and a full-data pass of the benchmark's
SVRG problem must hold one block at a time beyond SVRG's anchor table. A
minibatch is one block whatever its width.
"""

from __future__ import annotations

import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qatlab import quant
from qatlab.jacobian import ProbeConfig, probe_update
from qatlab.objectives import (
    Dataset,
    LinearRegression,
    LogisticRegression,
    Quadratic,
    TwoLayerMLP,
    batch_grad,
    full_grad,
    make_mlp_task,
    make_pl_instance,
    per_sample_grad,
)
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.rng import substream
from qatlab.vrgrad import (
    ctrl_update,
    grad_est,
    init_vr_state,
    refresh_anchor,
    surrogate_per_sample,
)

SETTINGS = settings(max_examples=60, deadline=None)
KINDS = ("quadratic", "linear_regression", "logistic_regression", "mlp")


def loop_quadratic(obj, q, i):
    r = q - obj.targets[i]
    ar = obj.curvature * r
    return 0.5 * float(r @ ar), ar


def loop_linear(obj, q, i):
    x = obj.data.inputs[i]
    resid = float(x @ q - obj.data.targets[i])
    return 0.5 * resid * resid, resid * x


def loop_logistic(obj, q, i):
    x = obj.data.inputs[i]
    y = obj.data.targets[i]
    margin = -y * float(x @ q)
    loss = float(np.logaddexp(0.0, margin))
    sigma = 1.0 / (1.0 + np.exp(-margin))
    return loss, (-y * sigma) * x


def loop_mlp(obj, q, i):
    w1, b1, w2, b2 = obj.unpack(q)
    x = obj.data.inputs[i]
    y = obj.data.targets[i]
    a = np.tanh(w1 @ x + b1)
    f = float(w2 @ a + b2)
    df = f - y
    dz = (df * w2) * (1.0 - a * a)
    return 0.5 * df * df, np.concatenate([np.outer(dz, x).ravel(), dz, df * a, [df]])


LOOPS = {Quadratic: loop_quadratic, LinearRegression: loop_linear,
         LogisticRegression: loop_logistic, TwoLayerMLP: loop_mlp}


def loop_full_loss(obj, q):
    if isinstance(obj, Quadratic):
        r = q[None, :] - obj.targets
        return 0.5 * float(np.mean(np.einsum("ij,ij->i", r, obj.curvature * r)))
    if isinstance(obj, LinearRegression):
        resid = obj.data.inputs @ q - obj.data.targets
        return 0.5 * float(np.mean(resid * resid))
    return float(np.mean([LOOPS[type(obj)](obj, q, i)[0] for i in range(obj.n)]))


def make_objective(kind: str, n: int, d: int, seed: int):
    rng = substream(seed, "batch-property")
    inputs = rng.normal(0.0, 1.0, size=(n, d))
    if kind == "quadratic":
        return Quadratic(rng.uniform(0.1, 3.0, size=d), rng.normal(0.0, 1.0, size=(n, d)))
    if kind == "linear_regression":
        return LinearRegression(Dataset(inputs, rng.normal(0.0, 1.0, size=n)))
    if kind == "logistic_regression":
        return LogisticRegression(Dataset(inputs, rng.choice((-1.0, 1.0), size=n)))
    return TwoLayerMLP(Dataset(inputs, rng.normal(0.0, 1.0, size=n)),
                       hidden_width=int(rng.integers(1, 9)))


def same_bits(got, expected) -> bool:
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@st.composite
def problems(draw, kinds=KINDS, max_n=12):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, 12 if kind == "mlp" else 40))
    obj = make_objective(kind, n, d, draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    q = substream(draw(st.integers(0, 2**16)), "q").normal(0.0, scale, size=obj.dim)
    batch = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return obj, q, np.array(batch)


@SETTINGS
@given(problems())
def test_batch_rows_match_per_sample_loop(problem):
    obj, q, batch = problem
    losses, grads = obj.loss_and_grad_batch(q, batch)
    assert losses.shape == (batch.size,) and grads.shape == (batch.size, obj.dim)
    loop = LOOPS[type(obj)]
    for k, i in enumerate(batch):
        loss, grad = loop(obj, q, int(i))
        assert same_bits(losses[k], loss) and same_bits(grads[k], grad)
        assert same_bits(per_sample_grad(obj, q, int(i))[1], grad)
    mean_loss, mean_grad = batch_grad(obj, q, batch)
    pairs = [loop(obj, q, int(i)) for i in batch]
    assert same_bits(mean_loss, np.mean([p[0] for p in pairs]))
    assert same_bits(mean_grad, np.mean(np.stack([p[1] for p in pairs]), axis=0))


@SETTINGS
@given(problems())
def test_full_loss_matches_loop_reference(problem):
    obj, q, _ = problem
    assert same_bits(obj.full_loss(q), loop_full_loss(obj, q))


@SETTINGS
@given(problems(kinds=("logistic_regression", "mlp")))
def test_full_loss_is_the_mean_of_the_batch_losses(problem):
    obj, q, _ = problem
    losses = obj.loss_and_grad_batch(q, np.arange(obj.n))[0]
    assert same_bits(obj.full_loss(q), float(np.mean(losses)))


def one_block_batch_grad(obj, q, batch):
    """The mean over one block holding every row: numpy's mean of the whole (b, d) block."""
    losses, grads = obj.loss_and_grad_batch(q, batch)
    return float(np.mean(losses)), np.mean(grads, axis=0)


@SETTINGS
@given(problems(max_n=30), st.integers(1, 40))
@example(problem=(make_objective("quadratic", 9, 1, 0), np.array([0.3]), np.arange(9)), block=2)
@example(problem=(make_objective("quadratic", 30, 1, 2), np.array([-0.7]), np.arange(30)[::-1]),
         block=1)  # one weight: the gradient and the loss take all 30 rows in one block
def test_row_blocks_match_one_block(problem, block):
    # blocks of `block` elements: one row each for dim >= block, most with a short last block
    obj, q, batch = problem
    with patch.object(quant, "_BLOCK_ELEMS", block):
        grad = full_grad(obj, q)
        full = obj.full_loss(q)
        loss, batch_mean = batch_grad(obj, q, batch)  # wider than a block: still one block
    assert same_bits(grad, one_block_batch_grad(obj, q, np.arange(obj.n))[1])
    assert same_bits(full, loop_full_loss(obj, q))
    expected_loss, expected_grad = one_block_batch_grad(obj, q, batch)
    assert same_bits(loss, expected_loss) and same_bits(batch_mean, expected_grad)


class CallRecorder:
    """Records the indices of every ``loss_and_grad_batch`` call an objective answers."""

    def __init__(self, obj):
        self.obj, self.calls = obj, []

    def __getattr__(self, name):
        return getattr(self.obj, name)

    def loss_and_grad_batch(self, q, idx):
        self.calls.append(np.asarray(idx).tolist())
        return self.obj.loss_and_grad_batch(q, idx)


@pytest.mark.parametrize("kind", KINDS)
def test_full_grad_checks_every_block(kind):
    obj = CallRecorder(make_objective(kind, 5, 3, seed=0))
    q = np.zeros(obj.dim)
    with patch.object(quant, "_BLOCK_ELEMS", 1):  # one row per block
        full_grad(obj, q)
    # every block goes through the checked entry point, each row once, in order
    assert obj.calls == [[i] for i in range(obj.n)]


@pytest.mark.parametrize("kind", KINDS)
def test_minibatch_wider_than_a_block_is_one_checked_block(kind):
    obj = CallRecorder(make_objective(kind, 5, 3, seed=0))
    q = np.zeros(obj.dim)
    with patch.object(quant, "_BLOCK_ELEMS", 1):  # a block of one row: the bad index comes last
        batch_grad(obj, q, [4, 0, 2])
        assert obj.calls == [[4, 0, 2]]
        with pytest.raises(IndexError, match="out of range"):
            batch_grad(obj, q, [0, 1, 2, 5])
        with pytest.raises(IndexError, match="out of range"):
            batch_grad(obj, q, [0, 1, -1])
        with pytest.raises(ValueError, match="empty"):
            batch_grad(obj, q, [])


def concatenated_mlp_rows(obj, q, idx):
    """The MLP rows as one outer-product block concatenated with the other parts."""
    w1, b1, w2, b2 = obj.unpack(q)
    x = obj.data.inputs[idx]
    a = np.tanh(np.matmul(w1, x[:, :, None])[:, :, 0] + b1)
    df = np.vecdot(w2, a) + b2 - obj.data.targets[idx]
    dz = (df[:, None] * w2) * (1.0 - a * a)
    outer = (dz[:, :, None] * x[:, None, :]).reshape(idx.size, -1)
    return 0.5 * df * df, np.concatenate([outer, dz, df[:, None] * a, df[:, None]], axis=1)


@SETTINGS
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**16), st.data())
def test_mlp_rows_match_the_concatenated_block(in_dim, width, n, seed, data):
    rng = substream(seed, "mlp-rows")
    obj = TwoLayerMLP(Dataset(rng.normal(0.0, 1.0, (n, in_dim)), rng.normal(0.0, 1.0, n)), width)
    q = rng.normal(0.0, 1.0, obj.dim)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    losses, grads = obj.loss_and_grad_batch(q, idx)
    expected_losses, expected_grads = concatenated_mlp_rows(obj, q, idx)
    assert same_bits(losses, expected_losses) and same_bits(grads, expected_grads)


def held_arrays(obj) -> list[np.ndarray]:
    """The arrays an objective holds: its own attributes and its dataset's."""
    held = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
    return held + ([obj.data.inputs, obj.data.targets] if hasattr(obj, "data") else [])


@pytest.mark.parametrize("kind", KINDS)
def test_returned_rows_are_the_callers_own(kind):
    obj = make_objective(kind, 6, 5, seed=3)
    q = substream(3, "q").normal(0.0, 1.0, obj.dim)
    held = [a.copy() for a in held_arrays(obj)]
    for idx in (np.arange(obj.n), np.array([4, 1, 4])):
        losses, grads = obj.loss_and_grad_batch(q, idx)
        expected = losses.copy(), grads.copy()
        losses[:] = np.nan
        grads[:] = np.nan
        again = obj.loss_and_grad_batch(q, idx)
        assert same_bits(again[0], expected[0]) and same_bits(again[1], expected[1])
    assert all(same_bits(a, b) for a, b in zip(held_arrays(obj), held, strict=True))


def traced_peak(call) -> int:
    """Bytes allocated at the peak of ``call()`` over what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_row_blocks_are_written_once():
    # the benchmark's MLP shape (d = 4225, n = 256): one (n, d) block is 8.65 MB
    obj = make_mlp_task(64, 64, 256, seed=0)
    block = obj.n * obj.dim * 8
    weights = GroupedWeights(np.linspace(-1.0, 1.0, obj.dim), group_size=128)
    spec = QuantSpec.generic(bits=4, step=0.25)
    q, scale = quantize(weights, spec), np.full(weights.dim, 0.5)
    # SAGA's table is the rows, scaled where they were written
    saga_peak = traced_peak(lambda: init_vr_state("saga", q, scale, obj))
    assert saga_peak <= 1.25 * block
    assert traced_peak(lambda: obj.full_loss(q)) <= 0.1 * block  # no gradient rows at all


def test_full_data_passes_hold_one_row_block():
    # the benchmark's SVRG problem (pl, n = 64, d = 4096): one (n, d) block is 2 MiB
    obj = make_pl_instance(4096, 0.1, 1.0, seed=0, n_samples=64, target_spread=0.5)
    block = obj.targets.nbytes
    weights = GroupedWeights(np.linspace(-1.0, 1.0, obj.dim), group_size=32)
    q, scale = quantize(weights, QuantSpec.w2(step=0.5)), np.full(weights.dim, 0.5)
    # SVRG's anchor table is state, the size of the targets; its fill holds the temporaries
    # of one 128 KiB row block's rows (about 2.5 blocks for this objective) at a time
    first = np.arange(obj.n)[next(quant.row_blocks(obj.n, obj.dim))]
    one_block = traced_peak(lambda: obj.loss_and_grad_batch(q, first))
    assert traced_peak(lambda: init_vr_state("svrg", q, scale, obj)) < block + one_block + 2**14
    # SARAH's reference is a full-data mean: one block's rows and the carried (d,) sum
    assert traced_peak(lambda: init_vr_state("sarah", q, scale, obj)) < one_block + 2**15 + 2**14
    state = init_vr_state("svrg", q, scale, obj)
    table = state.table
    moved = quantize(weights.with_values(weights.values + 0.3), QuantSpec.w2(step=0.5))
    assert traced_peak(lambda: refresh_anchor(state, moved, scale, obj)) < one_block + 2**14
    assert refresh_anchor(state, moved, scale, obj).table is table
    assert traced_peak(lambda: obj.full_loss(q)) < 2**20
    # an 8-probe gain update: one (8, d) block is 256 KiB, and each takes several temporaries
    cfg = ProbeConfig(probe_sigma=0.25, num_probes=8)
    assert traced_peak(lambda: probe_update(weights, QuantSpec.w2(step=0.5),
                                            np.ones(weights.n_groups), cfg)) < 0.75 * 2**20
    # the targets are built in place: the one (n, d) block and little more
    assert traced_peak(lambda: make_pl_instance(4096, 0.1, 1.0, seed=0, n_samples=64,
                                                target_spread=0.5)) < block + 2**18


@pytest.mark.parametrize("kind", KINDS)
def test_sample_indices_are_range_checked_not_wrapped(kind):
    obj = make_objective(kind, 4, 3, seed=0)
    q = np.zeros(obj.dim)
    for bad in ([-1], [0, 4], [2, -4]):
        with pytest.raises(IndexError, match="out of range"):
            obj.loss_and_grad_batch(q, bad)
    with pytest.raises(IndexError, match="out of range"):
        per_sample_grad(obj, q, -1)
    with pytest.raises(ValueError, match="empty"):
        obj.loss_and_grad_batch(q, [])


def loop_saga_update(table, mean, fresh_rows, batch):
    """The row-by-row SAGA update: each index's fresh row replaces its table row in turn."""
    table, mean = table.copy(), mean.copy()
    for k, i in enumerate(batch):
        mean = mean + (fresh_rows[k] - table[i]) / table.shape[0]
        table[i] = fresh_rows[k]
    return table, mean


@SETTINGS
@given(st.integers(1, 12), st.sampled_from([1, 2, 7, 30]), st.integers(0, 2**16), st.data())
def test_saga_update_in_place_matches_row_loop(n, d, seed, data):
    obj = make_objective("linear_regression", n, d, seed)
    weights = GroupedWeights(substream(seed, "w").normal(0.0, 1.0, d), group_size=4)
    spec = QuantSpec.generic(bits=3, step=0.3)
    scale = weights.per_weight(substream(seed, "gains").uniform(0.0, 1.0, weights.n_groups))
    state = init_vr_state("saga", quantize(weights, spec), scale, obj)
    # drift the table away from one point so every row differs from the fresh ones
    state = ctrl_update(state, quantize(weights.with_values(weights.values * 0.7), spec),
                        np.ones(d), np.arange(n), obj)
    batch = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True)))
    moved = quantize(weights.with_values(weights.values + 0.4), spec)
    fresh = [surrogate_per_sample(moved, scale, obj, int(i)) for i in batch]
    table, mean = loop_saga_update(state.table, state.reference, fresh, batch)
    table_id, mean_id = id(state.table), id(state.reference)
    after = ctrl_update(state, moved, scale, batch, obj)
    assert after is state and id(after.table) == table_id and id(after.reference) == mean_id
    assert same_bits(after.table, table) and same_bits(after.reference, mean)


def row_form_estimate(q, scale, state, obj, batch, anchor):
    """mean_i(scale * v_i - h_i) + r, with h_i the control row of sample i.

    SVRG's rows are recomputed at ``anchor``, its (quantized point, scale);
    SAGA's are read from its table and SARAH's recomputed at its control point.
    Also returns the largest magnitude among the terms, the size of any cancellation.
    """
    if state.mode == "sarah" and state.control is None:
        return state.reference, 0.0
    rows = scale * obj.loss_and_grad_batch(q, batch)[1]
    if state.mode == "plain":
        return np.mean(rows, axis=0), np.max(np.abs(rows))
    if state.mode == "saga":
        control = state.table[batch]
    else:
        q_c, scale_c = anchor if state.mode == "svrg" else state.control
        control = scale_c * obj.loss_and_grad_batch(q_c, batch)[1]
    size = max(np.max(np.abs(rows)), np.max(np.abs(control)), np.max(np.abs(state.reference)))
    return np.mean(rows - control, axis=0) + state.reference, size


@SETTINGS
@given(st.sampled_from(("plain", "svrg", "saga", "sarah")), st.sampled_from(KINDS),
       st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**16), st.booleans(),
       st.booleans(), st.data())
def test_mean_gradient_estimate_matches_row_form(mode, kind, n, d, seed, after_refresh,
                                                 per_weight, data):
    obj = make_objective(kind, n, d, seed)
    weights = GroupedWeights(substream(seed, "w").normal(0.0, 1.0, obj.dim), group_size=3)
    spec = QuantSpec.generic(bits=4, step=0.25)
    # one gain per group of 3 weights, or any diagonal: the estimators read only the diagonal
    size = obj.dim if per_weight else weights.n_groups
    scale, scale_c = (substream(seed, label).uniform(0.0, 1.0, size) for label in ("gains", "ctrl"))
    if not per_weight:
        scale, scale_c = weights.per_weight(scale), weights.per_weight(scale_c)
    q = quantize(weights, spec)
    state = init_vr_state(mode, q, scale_c, obj)
    if mode == "saga":  # drift the table: some rows at another point and another scale
        drift = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                            unique=True)))
        state = ctrl_update(state, quantize(weights.with_values(weights.values * 0.6), spec),
                            scale, drift, obj)
    if mode == "sarah" and not after_refresh:
        estimate = substream(seed, "estimate").normal(0.0, 1.0, obj.dim)
        state = ctrl_update(state, q, scale_c, [0], obj, grad=estimate)
    moved = quantize(weights.with_values(weights.values
                                         + substream(seed, "move").normal(0.0, 0.3, obj.dim)),
                     spec)
    batch = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    got = grad_est(batch_grad(obj, moved, batch)[1], scale, state, obj, batch)
    expected, size = row_form_estimate(moved, scale, state, obj, batch, (q, scale_c))
    # a coordinate that cancels to near zero is compared against what cancelled
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * size)
