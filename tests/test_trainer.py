from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from qatlab.config import parse_config_dict
from qatlab.jacobian import apply_gains
from qatlab.objectives import Quadratic, make_pl_instance, make_regression_task, make_saturating_task
from qatlab.quant import GroupedWeights, QuantSpec, quantize
from qatlab.rng import substream
from qatlab.trainer import (
    DivergenceError,
    MetricsRecord,
    RefreshPolicy,
    TrainConfig,
    run_sweep,
    train_base,
    train_vr,
    write_metrics_csv,
)
from qatlab.vrgrad import surrogate_batch


def sgd_reference(obj, w0, eta, steps, seed, batch_size):
    """Independent plain-SGD oracle (no quantizer, no gains)."""
    from qatlab.objectives import batch_grad

    w = w0.copy()
    trail = [w.copy()]
    for step in range(1, steps + 1):
        rng = substream(seed, "minibatch", step)
        batch = rng.choice(obj.n, size=min(batch_size, obj.n), replace=False)
        _, g = batch_grad(obj, w, batch)
        w = w - eta * g
        trail.append(w.copy())
    return trail


def test_reduction_to_plain_sgd_on_passthrough():
    obj = make_regression_task(6, 16, seed=1)
    w0 = GroupedWeights(substream(2, "w0").normal(0, 1, 6), group_size=3)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=1000,
                      refresh=RefreshPolicy("interval", interval=100),
                      jac_mode="ste", vr_mode="plain", seed=7)
    result = train_vr(obj, w0, spec, cfg)
    final, trace = result.weights, result.metrics
    ref = sgd_reference(obj, w0.values, 0.05, 1000, seed=7, batch_size=4)
    assert np.max(np.abs(final.values - ref[-1])) <= 1e-8
    assert len(trace) == 1000


def test_base_dither_passthrough_reduces_to_sgd():
    obj = make_regression_task(4, 8, seed=3)
    w0 = GroupedWeights(substream(4, "w0").normal(0, 1, 4), group_size=4)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.1, batch_size=2, steps=200,
                      refresh=RefreshPolicy("interval", interval=50),
                      jac_mode="dither", vr_mode="plain", seed=5)
    final = train_base(obj, w0, spec, cfg).weights
    ref = sgd_reference(obj, w0.values, 0.1, 200, seed=5, batch_size=2)
    assert np.max(np.abs(final.values - ref[-1])) <= 1e-8


def test_deterministic_traces_and_csv_bytes(tmp_path):
    obj, w0, spec = make_saturating_task(d=64, group_size=16, seed=2)
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=60,
                      refresh=RefreshPolicy("interval", interval=10),
                      jac_mode="probe", vr_mode="svrg", seed=11)
    trace_a = train_vr(obj, w0, spec, cfg).metrics
    trace_b = train_vr(obj, w0, spec, cfg).metrics
    assert trace_a == trace_b
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(trace_a, str(p1))
    write_metrics_csv(trace_b, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_refresh_accounting_interval():
    obj = make_regression_task(5, 10, seed=6)
    w0 = GroupedWeights(np.zeros(5), group_size=5)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.01, batch_size=2, steps=50,
                      refresh=RefreshPolicy("interval", interval=10),
                      jac_mode="probe", vr_mode="svrg", seed=0)
    trace = train_vr(obj, w0, spec, cfg).metrics
    flagged = [r.step for r in trace if r.refresh]
    assert flagged == [10, 20, 30, 40, 50]


def test_refresh_probability_one_fires_every_step():
    obj = make_regression_task(4, 8, seed=8)
    w0 = GroupedWeights(np.zeros(4), group_size=4)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.02, batch_size=2, steps=20,
                      refresh=RefreshPolicy("probability", probability=1.0),
                      jac_mode="ste", vr_mode="svrg", seed=1)
    trace = train_vr(obj, w0, spec, cfg).metrics
    assert all(r.refresh for r in trace)


def test_always_refresh_svrg_yields_full_batch_gradient():
    # With p = 1 the anchor tracks the iterate, so the estimator equals
    # the full-batch modulated gradient at every step.
    obj = make_regression_task(4, 6, seed=9)
    w0 = GroupedWeights(substream(1, "w").normal(0, 1, 4), group_size=4)
    spec = QuantSpec.identity()
    eta = 0.05
    cfg = TrainConfig(stepsize=eta, batch_size=2, steps=30,
                      refresh=RefreshPolicy("probability", probability=1.0),
                      jac_mode="ste", vr_mode="svrg", seed=2)
    result = train_vr(obj, w0, spec, cfg)
    final, trace = result.weights, result.metrics
    w = w0
    for rec in trace:
        g_full = surrogate_batch(quantize(w, spec), np.ones(w.dim), obj, np.arange(obj.n))
        assert rec.surrogate_grad_norm == pytest.approx(float(np.linalg.norm(g_full)), rel=1e-12)
        w = w.with_values(w.values - eta * g_full)
    np.testing.assert_allclose(final.values, w.values, rtol=1e-12)


def test_sarah_differences_consecutive_points():
    # v_t = mean_i (B F_i(w_t) - B F_i(w_{t-1})) + v_{t-1}: the estimate moves every step,
    # not only at refreshes, and follows the recursion until the first refresh (step 5)
    setup = parse_config_dict({
        "objective": {"kind": "linear_regression", "dim": 16, "n_samples": 16},
        "quant": {"mode": "identity"},
        "train": {"loop": "vr", "vr_mode": "sarah", "batch_size": 4, "stepsize": 0.02,
                  "steps": 12, "refresh": {"interval": 5}},
    })
    obj, cfg = setup.objective, setup.train
    res = train_vr(obj, setup.weights, setup.spec, cfg, keep_states=cfg.steps)
    norms = [rec.surrogate_grad_norm for rec in res.metrics]
    assert all(a != b for a, b in zip(norms, norms[1:]))
    w, gains, _ = res.state_trace[0]

    def mean_grad(point, batch):
        return obj.loss_and_grad_batch(point.values, batch)[1].mean(axis=0)

    g = apply_gains(gains, mean_grad(w, np.arange(obj.n)), w)
    for step in range(2, 6):
        w_prev, (w, gains, _) = w, res.state_trace[step - 1]
        batch = substream(cfg.seed, "minibatch", step).choice(obj.n, size=4, replace=False)
        g = apply_gains(gains, mean_grad(w, batch) - mean_grad(w_prev, batch), w) + g
        assert norms[step - 1] == pytest.approx(float(np.linalg.norm(g)), rel=1e-12)


def test_pl_quadratic_full_batch_contracts_at_theory_rate():
    mu, ls, eta = 0.1, 1.0, 0.5
    obj = make_pl_instance(8, mu, ls, seed=4)
    w0 = GroupedWeights(obj.mean_target() + substream(5, "w").normal(0, 1, 8), group_size=8)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=eta, batch_size=obj.n, steps=120,
                      refresh=RefreshPolicy("interval", interval=1000),
                      jac_mode="ste", vr_mode="plain", seed=3)
    result = train_vr(obj, w0, spec, cfg)
    final, trace = result.weights, result.metrics
    l_star = obj.optimal_loss()
    gaps = [r.loss - l_star for r in trace]
    for prev, nxt in zip(gaps, gaps[1:]):
        if prev < 1e-20:
            break
        assert nxt / prev <= (1 - eta * mu) + 1e-6
    # closed-form oracle for the final iterate
    expected = obj.mean_target() + (1 - eta * obj.curvature) ** 120 * (w0.values - obj.mean_target())
    np.testing.assert_allclose(final.values, expected, atol=1e-10)


def test_divergence_guard_raises():
    obj = make_pl_instance(4, 1.0, 1.0, seed=6)
    w0 = GroupedWeights(obj.mean_target() + 1.0, group_size=4)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=50.0, batch_size=1, steps=500,
                      refresh=RefreshPolicy("interval", interval=100),
                      jac_mode="ste", vr_mode="plain", seed=0)
    with pytest.raises(DivergenceError) as err:
        train_vr(obj, w0, spec, cfg)
    assert len(err.value.trace) >= 1


def test_gain_damping_on_fully_saturated_group():
    # One group sits deep beyond the clip level the whole run; its learned
    # gain must fall to <= 0.2 by the final step.
    d, gs = 32, 16
    rng = substream(7, "w")
    base = np.concatenate([np.full(gs, 3.0), rng.uniform(-0.3, 0.3, gs)])
    targets = base[None, :] + 0.0
    obj = Quadratic(curvature=np.ones(d), targets=targets)
    w0 = GroupedWeights(base + rng.uniform(-0.05, 0.05, d), group_size=gs)
    spec = QuantSpec.w2(step=1.0)
    cfg = TrainConfig(stepsize=0.02, batch_size=1, steps=200,
                      refresh=RefreshPolicy("interval", interval=20),
                      jac_mode="probe", vr_mode="plain", probe_sigma=0.25,
                      num_probes=8, seed=9)
    result = train_vr(obj, w0, spec, cfg)
    final, trace = result.weights, result.metrics
    sat_frac = np.mean([r.frac_saturated for r in trace])
    assert sat_frac >= 0.45  # half the coordinates stay saturated
    assert trace[-1].min_gain <= 0.2


def test_metrics_record_fields_finite_and_fractional():
    obj, w0, spec = make_saturating_task(d=64, group_size=16, seed=5)
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=30,
                      refresh=RefreshPolicy("interval", interval=10),
                      jac_mode="dither", vr_mode="plain", seed=12)
    trace = train_base(obj, w0, spec, cfg).metrics
    for rec in trace:
        assert isinstance(rec, MetricsRecord)
        assert np.isfinite([rec.loss, rec.grad_norm, rec.surrogate_grad_norm,
                            rec.mean_gain, rec.min_gain, rec.max_gain]).all()
        assert 0.0 <= rec.frac_saturated <= 1.0
    assert all(r.refresh for r in trace)  # dither mode updates gains every step


def test_sweep_single_cell_matches_single_run():
    obj, w0, spec = make_saturating_task(d=32, group_size=16, seed=1)
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=20,
                      refresh=RefreshPolicy("interval", interval=10),
                      jac_mode="probe", vr_mode="plain", seed=3)
    table = run_sweep(obj, w0, spec, cfg, group_sizes=[16])
    assert len(table) == 1
    final = train_vr(obj, w0, spec, cfg).weights
    assert table[0]["final_loss"] == pytest.approx(obj.full_loss(quantize(final, spec)))
    assert table[0]["error"] == ""


def test_sweep_grid_runs_all_cells_and_records_errors():
    obj, w0, spec = make_saturating_task(d=32, group_size=16, seed=2)
    good = TrainConfig(stepsize=0.05, batch_size=4, steps=10,
                       refresh=RefreshPolicy("interval", interval=5),
                       jac_mode="probe", vr_mode="plain", seed=3)
    table = run_sweep(obj, w0, spec, good, group_sizes=[8, 16],
                      jac_modes=["ste", "probe"])
    assert len(table) == 4
    assert all(rec["seed"] == 3 for rec in table)
    # divergent cell: pass-through quantizer lets the iterates blow up
    div_obj = make_pl_instance(8, 1.0, 1.0, seed=5)
    div_w0 = GroupedWeights(div_obj.mean_target() + 1.0, group_size=8)
    bad = TrainConfig(stepsize=50.0, batch_size=1, steps=100,
                      refresh=RefreshPolicy("interval", interval=5),
                      jac_mode="ste", vr_mode="plain", seed=3)
    table = run_sweep(div_obj, div_w0, QuantSpec.identity(), bad, group_sizes=[8])
    assert table[0]["error"] != ""
    assert np.isnan(table[0]["final_loss"])


def test_sweep_group_size_sensitivity_is_mild():
    # Final loss varies by < 20% across group sizes on the default task.
    obj, w0, spec = make_saturating_task(seed=4)
    cfg = TrainConfig(stepsize=0.12, batch_size=8, steps=300,
                      refresh=RefreshPolicy("interval", interval=25),
                      jac_mode="probe", vr_mode="plain", probe_sigma=0.25,
                      num_probes=8, seed=7)
    table = run_sweep(obj, w0, spec, cfg, group_sizes=[8, 32, 128], use_base=True)
    losses = [rec["final_loss"] for rec in table]
    assert all(rec["error"] == "" for rec in table)
    assert (max(losses) - min(losses)) / min(losses) < 0.20


def test_sweep_parallel_jobs_matches_serial():
    obj, w0, spec = make_saturating_task(d=64, group_size=16, seed=3)
    cfg = TrainConfig(stepsize=0.1, batch_size=4, steps=15,
                      refresh=RefreshPolicy("interval", interval=5),
                      jac_mode="probe", vr_mode="plain", seed=5)
    serial = run_sweep(obj, w0, spec, cfg, group_sizes=[8, 16], jac_modes=["ste", "probe"])
    parallel = run_sweep(obj, w0, spec, cfg, group_sizes=[8, 16],
                         jac_modes=["ste", "probe"], jobs=2)
    assert serial == parallel
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(obj, w0, spec, cfg, jobs=0)


def test_config_validation():
    with pytest.raises(ValueError, match="refresh probability"):
        RefreshPolicy("probability", probability=1.5)
    with pytest.raises(ValueError):
        TrainConfig(stepsize=0.0, batch_size=1, steps=1,
                    refresh=RefreshPolicy("interval", interval=1))
    with pytest.raises(ValueError, match="jac_mode"):
        TrainConfig(stepsize=0.1, batch_size=1, steps=1,
                    refresh=RefreshPolicy("interval", interval=1), jac_mode="nope")


@pytest.mark.parametrize("runner", [train_base, train_vr])
def test_loss_guard_reported_before_non_finite_weights(runner):
    # the second step's loss is inf and its update overflows the weights too
    obj = make_regression_task(4, 6, seed=3)
    w0 = GroupedWeights(np.full(4, 0.5), group_size=4)
    cfg = TrainConfig(stepsize=1e200, batch_size=2, steps=5,
                      refresh=RefreshPolicy("interval", interval=100),
                      jac_mode="ste", vr_mode="plain", seed=0)
    with pytest.raises(DivergenceError) as err:  # and no numpy warning, which the tests raise
        runner(obj, w0, QuantSpec.identity(), cfg)
    assert "exceeded divergence guard at step 2" in str(err.value)
    assert [r.step for r in err.value.trace] == [1, 2]


def saturating_run(keep_states, steps=400, mode="probe"):
    # A6's run: d = 256 in groups of 32, 400 steps, probe gains refreshed every 25
    obj, w0, spec = make_saturating_task(seed=0)
    cfg = TrainConfig(stepsize=0.12, batch_size=8, steps=steps,
                      refresh=RefreshPolicy("interval", interval=25), jac_mode=mode,
                      vr_mode="plain", probe_sigma=0.25, num_probes=8, seed=100)
    return lambda: train_base(obj, w0, spec, cfg, keep_states=keep_states)


@pytest.mark.parametrize("k", [1, 7, 40, 41])
def test_state_window_is_the_tail_of_a_full_capture(k):
    full = saturating_run(40, steps=40)()
    tail = saturating_run(k, steps=40)()
    assert len(full.state_trace) == 40
    assert len(tail.state_trace) == min(k, 40)
    for (w, g, v), (w_full, g_full, v_full) in zip(tail.state_trace,
                                                    full.state_trace[-k:], strict=True):
        assert type(w) is type(w_full) and w.group_size == w_full.group_size
        for a, b in ((w.values, w_full.values), (g, g_full), (v, v_full)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # the window changes nothing else
    assert tail.metrics == full.metrics
    assert tail.weights.values.tobytes() == full.weights.values.tobytes()


def test_keep_no_states_or_refuse_a_flag():
    assert saturating_run(0, steps=3)().state_trace is None
    for bad in (True, False, -1):
        with pytest.raises(ValueError, match="keep_states"):
            saturating_run(bad, steps=3)()
    obj, w0, spec = make_saturating_task(seed=0)
    cfg = TrainConfig(stepsize=0.1, batch_size=2, steps=1,
                      refresh=RefreshPolicy("interval", interval=1), jac_mode="ste")
    with pytest.raises(TypeError):
        train_vr(obj, w0, spec, cfg, capture_trace=True)


def test_a_state_window_holds_less_than_half_a_full_capture():
    def traced_peak(call) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    window, full = traced_peak(saturating_run(100)), traced_peak(saturating_run(400))
    assert window < 0.5 * full, (window, full)


def test_recorded_norms_rescale_only_on_overflow():
    from qatlab.trainer import _norm

    with np.errstate(over="ignore"):  # as inside a run
        # a plain sum of squares overflows on these finite entries; max |x| rescales it
        assert _norm(np.array([1e155, 1.0])) == 1e155
        assert _norm(np.array([-1.7e308, 1.7e308])) == np.inf  # the norm itself is out of range
        assert _norm(np.array([np.inf, 1.0])) == np.inf
    x = substream(3, "norm").normal(0.0, 1.0, 50)
    assert _norm(x) == np.linalg.norm(x)  # finite norms keep numpy's bits
