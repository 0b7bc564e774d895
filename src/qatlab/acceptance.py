"""Aggregate acceptance checks: one callable per criterion, plus a runner.

Every check pins its own tolerances and seeds, measures what it claims,
and reports measured values alongside the thresholds. Statistical checks
use frozen seeds so results are reproducible run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    bias_report,
    fd_mismatch_variance,
    pl_contraction_harness,
    probe_rate_harness,
    tracking_harness,
    window_composition_harness,
)
from .jacobian import ProbeConfig, dither_update
from .objectives import batch_grad, full_grad, make_regression_task, make_saturating_task
from .quant import GroupedWeights, QuantSpec, mean_field, mean_field_sensitivity, quantize, quantize_array
from .rng import substream
from .trainer import RefreshPolicy, TrainConfig, train_base, train_vr, write_metrics_csv
from .vrgrad import estimator_variance, grad_est, init_vr_state

__all__ = ["CriterionResult", "run_criterion", "run_all", "CRITERIA", "A5_JAC_ERRS"]

# the gain error of each of A5's two runs; the pl-contraction table reads them from here
A5_JAC_ERRS = {"perturbed": 0.2, "clean": 0.0}

TIME_BUDGETS = {"A1": 10.0, "A2": 60.0, "A3": 60.0, "A4": 60.0, "A5": 30.0,
                "A6": 300.0, "A7": 60.0, "A8": 60.0, "A9": 600.0}


@dataclass
class CriterionResult:
    name: str
    description: str
    passed: bool
    elapsed_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name} {status} ({self.elapsed_s:.1f}s) {self.description}"


def a1_quantizer_suite() -> tuple[bool, dict]:
    """Grid membership, idempotence, monotonicity, dither unbiasedness."""
    rng = np.random.default_rng(11)
    checks = {}
    specs = [QuantSpec.w2(step=0.5), QuantSpec.ternary(step=1.0),
             QuantSpec.generic(bits=3, step=0.3), QuantSpec.w1(step=0.7),
             QuantSpec.w2(step=0.5, mid_rise=True)]
    member = idem = mono = True
    for spec in specs:
        w = np.sort(rng.uniform(-4, 4, size=4096))
        step = float(spec.step)
        q = quantize_array(w, spec, step)
        if spec.mode == "w1":
            member &= bool(np.all(np.isin(np.round(q / step, 9), (-1.0, 1.0))))
        elif spec.mid_rise:
            codes = q / step - 0.5
            member &= bool(np.allclose(codes, np.round(codes))
                           and codes.min() >= -spec.clip_codes - 1
                           and codes.max() <= spec.clip_codes)
        else:
            codes = q / step
            member &= bool(np.allclose(codes, np.round(codes))
                           and np.max(np.abs(codes)) <= spec.clip_codes + 1e-9)
        idem &= bool(np.array_equal(quantize_array(q, spec, step), q))
        mono &= bool(np.all(np.diff(q) >= 0))
    checks["grid_membership"] = member
    checks["idempotence"] = idem
    checks["monotonicity"] = mono

    # dither unbiasedness on interior coordinates, 1e5 samples, 4 sigma
    spec = QuantSpec.generic(bits=3, step=1.0)  # clip at 3 steps
    vals = np.array([-2.0, -1.4, -0.7, -0.2, 0.0, 0.3, 1.1, 1.9])
    weights = GroupedWeights(vals, group_size=8)
    mean, sem = mean_field(weights, spec, n_samples=100_000, seed=17)
    dev = np.abs(mean - vals)
    checks["dither_unbiasedness"] = bool(np.all(dev <= 4.0 * sem + 1e-12))
    details = {**checks, "max_unbiasedness_dev": float(np.max(dev)),
               "max_allowed": float(np.max(4.0 * sem))}
    return all(checks.values()), details


def a2_probe_ls_rate() -> tuple[bool, dict]:
    """Log-log slope of probe-LS error vs probe count within [-0.65, -0.35]."""
    res = probe_rate_harness(QuantSpec.generic(bits=4, step=1.0), group_dim=16,
                             sigma=0.6, probe_counts=[16, 64, 256, 1024],
                             trials=200, seed=1)
    passed = -0.65 <= res.slope <= -0.35
    return passed, {"slope": res.slope, "band": [-0.65, -0.35],
                    "mean_errors": res.mean_errors.tolist(),
                    "probe_counts": res.probe_counts.tolist()}


def a3_dither_fixed_point() -> tuple[bool, dict]:
    """Iterated dither updates land within 0.05 of the group-mean sensitivity."""
    spec = QuantSpec.w2(step=1.0)
    rng = substream(23, "layout")
    d_g = 48
    groups = []
    for frac in (0.25, 0.5, 0.75):
        n_sat = int(frac * d_g)
        seg = np.concatenate([
            rng.uniform(-0.2, 0.2, d_g - n_sat),
            rng.choice((-1.0, 1.0), n_sat) * rng.uniform(1.8, 2.6, n_sat),
        ])
        groups.append(seg)
    weights = GroupedWeights(np.concatenate(groups), group_size=d_g)
    oracle = mean_field_sensitivity(weights, spec, probe_eps=0.1)
    target = np.array([np.mean(oracle[lo:hi]) for lo, hi in weights.group_bounds])
    gains = np.ones(weights.n_groups)
    cfg = ProbeConfig(probe_sigma=0.25, num_probes=16, seed=31, ema_rate=0.05)
    first_reach = None
    max_updates = 2000
    for t in range(max_updates):
        gains = dither_update(weights, spec, gains, cfg, dither_seed=37, draw_key=t)
        if first_reach is None and np.all(np.abs(gains - target) <= 0.05):
            first_reach = t + 1
    final_err = np.abs(gains - target)
    passed = bool(np.all(final_err <= 0.05)) and first_reach is not None
    return passed, {"max_final_error": float(np.max(final_err)), "tolerance": 0.05,
                    "first_reach_update": first_reach, "max_updates": max_updates,
                    "targets": target.tolist(), "gains": gains.tolist()}


def a4_vr_variance() -> tuple[bool, dict]:
    """SVRG variance halves the plain variance near the anchor; exact unbiasedness."""
    obj = make_regression_task(16, 64, seed=41)
    weights = GroupedWeights(substream(43, "w0").normal(0, 1, 16), group_size=8)
    spec = QuantSpec.generic(bits=4, step=0.25)
    scale = weights.per_weight(np.ones(weights.n_groups))
    q = quantize(weights, spec)
    state_svrg = init_vr_state("svrg", q, scale, obj)
    state_plain = init_vr_state("plain", q, scale, obj)
    direction = substream(47, "dir").normal(0, 1, 16)
    direction *= 0.1 * np.linalg.norm(weights.values) / np.linalg.norm(direction)
    q_moved = quantize(weights.with_values(weights.values + direction), spec)
    v_svrg, v_plain = estimator_variance((state_svrg, state_plain), q_moved, scale, obj,
                                         batch_size=4, trials=1000, seed=53)
    variance_ok = v_svrg <= 0.5 * v_plain and v_plain > 0

    # exhaustive unbiasedness on a small instance
    from itertools import combinations

    small = make_regression_task(5, 6, seed=59)
    w_small = GroupedWeights(np.linspace(-1, 1, 5), group_size=5)
    spec_small = QuantSpec.generic(bits=4, step=0.25)
    scale_small = w_small.per_weight(np.array([0.7]))
    q_small = quantize(w_small, spec_small)
    q_moved_small = quantize(w_small.with_values(w_small.values + 0.15), spec_small)
    target = scale_small * full_grad(small, q_moved_small)
    worst = 0.0
    for mode in ("svrg", "saga"):
        state = init_vr_state(mode, q_small, scale_small, small)
        for bs in (1, 2):
            acc = np.zeros(5)
            batches = [np.array(b) for b in combinations(range(6), bs)]
            for b in batches:
                acc += grad_est(batch_grad(small, q_moved_small, b)[1], scale_small, state,
                                small, b)
            worst = max(worst, float(np.max(np.abs(acc / len(batches) - target))))
    unbiased_ok = worst <= 1e-12
    passed = variance_ok and unbiased_ok
    return passed, {"svrg_variance": v_svrg, "plain_variance": v_plain,
                    "ratio": v_svrg / v_plain if v_plain else float("nan"),
                    "ratio_threshold": 0.5,
                    "max_unbiasedness_dev": worst, "unbiasedness_tol": 1e-12}


def a5_pl_contraction() -> tuple[bool, dict]:
    """Per-step contraction at 1 - eta*mu + 1e-3; floor grows with the gain error."""
    runs = {arm: pl_contraction_harness(mu=0.1, l_smooth=1.0, eta=0.5, jac_err=err, seed=4)
            for arm, err in A5_JAC_ERRS.items()}
    noisy, clean = runs["perturbed"], runs["clean"]
    passed = (noisy.contraction_holds and clean.contraction_holds
              and clean.floor < noisy.floor)
    details = {"bound": noisy.contraction_bound}
    for arm, err in A5_JAC_ERRS.items():
        details[f"worst_ratio_{arm}"] = runs[arm].worst_ratio
        details[f"floor_jac_err_{err:g}"] = runs[arm].floor
    return passed, details


def a6_dominance() -> tuple[bool, dict]:
    """Learned gains beat the straight-through rule on the saturating task.

    Three comparisons per seed: terminal-window loss, bias to the smoothed
    target gradient, and FD-mismatch variance; each must win in >= 4 of 5
    seeds.
    """
    wins = {"loss": 0, "bias": 0, "fd_var": 0}
    per_seed = []
    for seed in range(5):
        obj, w0, spec = make_saturating_task(seed=seed)
        clip = float(spec.clip_level())
        assert np.mean(np.abs(obj.mean_target()) > clip) >= 0.30
        window, bias, fd_var = {}, {}, {}
        for mode in ("probe", "ste"):
            cfg = TrainConfig(stepsize=0.12, batch_size=8, steps=400,
                              refresh=RefreshPolicy("interval", interval=25),
                              jac_mode=mode, vr_mode="plain", probe_sigma=0.25,
                              num_probes=8, seed=seed + 100)
            # each run is reduced before the next one trains: one 100-state window at a time
            res = train_base(obj, w0, spec, cfg, keep_states=100)
            window[mode] = float(np.mean([r.loss for r in res.metrics[-50:]]))
            fd_var[mode] = fd_mismatch_variance(res.state_trace, spec)  # ste gains are all ones
            if mode == "probe":  # both rules' bias at the learned run's final point
                v_bar = full_grad(obj, quantize(res.weights, spec))
                for rule, gains in (("probe", res.gains), ("ste", np.ones_like(res.gains))):
                    bias[rule] = bias_report(res.weights, gains, v_bar, spec).bias
            del res
        wins["loss"] += window["probe"] <= window["ste"]
        wins["bias"] += bias["probe"] < bias["ste"]
        wins["fd_var"] += fd_var["probe"] < fd_var["ste"]
        per_seed.append({"seed": seed, "loss_probe": window["probe"],
                         "loss_ste": window["ste"], "bias_probe": bias["probe"],
                         "bias_ste": bias["ste"], "fd_var_probe": fd_var["probe"],
                         "fd_var_ste": fd_var["ste"]})
    passed = all(v >= 4 for v in wins.values())
    return passed, {"wins_of_5": wins, "required": 4, "per_seed": per_seed}


def a7_tracking() -> tuple[bool, dict]:
    """Slow drift tracks better than fast drift; static error within 0.05."""
    spec = QuantSpec.w2(step=1.0)
    common = dict(group_dim=48, ema_rate=0.1, sigma=0.25, num_probes=16, seed=2)
    static = tracking_harness(spec, drift_per_step=0.0, steps=120, **common)
    total = 1.6
    fast = tracking_harness(spec, drift_per_step=total / 60, steps=60, **common)
    slow = tracking_harness(spec, drift_per_step=total / 360, steps=360, **common)
    passed = static.terminal_error <= 0.05 and slow.terminal_error < fast.terminal_error
    return passed, {"static_terminal": static.terminal_error, "static_tol": 0.05,
                    "slow_terminal": slow.terminal_error,
                    "fast_terminal": fast.terminal_error}


def a8_window_composition() -> tuple[bool, dict]:
    """Decaying inter-window shifts end lower than constant shifts."""
    decaying = window_composition_harness(0.1 * 0.5 ** np.arange(6),
                                          steps_per_window=40, seed=6)
    constant = window_composition_harness(np.full(6, 0.1), steps_per_window=40, seed=6)
    passed = decaying.final_gap < constant.final_gap
    return passed, {"final_gap_decaying": decaying.final_gap,
                    "final_gap_constant": constant.final_gap,
                    "window_gaps_decaying": decaying.window_gaps.tolist(),
                    "window_gaps_constant": constant.window_gaps.tolist()}


def a9_reduction_determinism() -> tuple[bool, dict]:
    """Pass-through STE run reproduces plain SGD; same seed, same bytes."""
    import os
    import tempfile

    obj = make_regression_task(6, 16, seed=1)
    w0 = GroupedWeights(substream(2, "w0").normal(0, 1, 6), group_size=3)
    spec = QuantSpec.identity()
    cfg = TrainConfig(stepsize=0.05, batch_size=4, steps=1000,
                      refresh=RefreshPolicy("interval", interval=100),
                      jac_mode="ste", vr_mode="plain", seed=7)
    res = train_vr(obj, w0, spec, cfg)
    w_ref = w0.values.copy()
    max_dev = 0.0
    for step in range(1, 1001):
        rng = substream(7, "minibatch", step)
        batch = rng.choice(obj.n, size=4, replace=False)
        _, g = batch_grad(obj, w_ref, batch)
        w_ref = w_ref - 0.05 * g
    max_dev = float(np.max(np.abs(res.weights.values - w_ref)))
    reduction_ok = max_dev <= 1e-8

    res2 = train_vr(obj, w0, spec, cfg)
    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write_metrics_csv(res.metrics, p1)
        write_metrics_csv(res2.metrics, p2)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            identical = f1.read() == f2.read()
    passed = reduction_ok and identical
    return passed, {"max_sgd_deviation": max_dev, "sgd_tol": 1e-8,
                    "byte_identical_metrics": identical}


CRITERIA = {
    "A1": ("quantizer suite: grid, idempotence, monotonicity, dither unbiasedness",
           a1_quantizer_suite),
    "A2": ("probe-LS error rate vs probe count", a2_probe_ls_rate),
    "A3": ("dither fixed point on frozen mixed-saturation weights", a3_dither_fixed_point),
    "A4": ("variance reduction: SVRG dominance and exact unbiasedness", a4_vr_variance),
    "A5": ("linear contraction and gain-error floor on the PL quadratic",
           a5_pl_contraction),
    "A6": ("dominance over the straight-through rule on the saturating task",
           a6_dominance),
    "A7": ("EMA tracking under weight drift", a7_tracking),
    "A8": ("window composition under shrinking shifts", a8_window_composition),
    "A9": ("reduction to SGD and byte-identical determinism", a9_reduction_determinism),
}


def run_criterion(name: str) -> CriterionResult:
    description, fn = CRITERIA[name]
    start = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - start
    budget = TIME_BUDGETS[name]
    details["elapsed_budget_s"] = budget
    if elapsed > budget:
        details["over_time_budget"] = True
        passed = False
    return CriterionResult(name=name, description=description, passed=bool(passed),
                           elapsed_s=elapsed, details=details)


def run_all(names: list[str] | None = None, echo: bool = False) -> list[CriterionResult]:
    names = names or list(CRITERIA)
    results = []
    for name in names:
        result = run_criterion(name)
        results.append(result)
        if echo:
            print(result.line(), flush=True)
    return results
