"""Desk-scale lab for quantization-aware training with learned backward gains."""

from .quant import (
    QuantSpec,
    GroupedWeights,
    quantize,
    dither_quantize,
    draw_dither,
    mean_field,
    mean_field_sensitivity,
    calibrate_step,
)
from .jacobian import (
    ProbeConfig,
    probe_update,
    probe_ls_update,
    dither_update,
    apply_gains,
)
from .objectives import (
    Dataset,
    Objective,
    Quadratic,
    LinearRegression,
    LogisticRegression,
    TwoLayerMLP,
    per_sample_grad,
    batch_grad,
    full_grad,
    make_pl_instance,
    make_saturating_task,
)
from .vrgrad import VRState, init_vr_state, grad_est, ctrl_update, refresh_anchor, estimator_variance
from .trainer import TrainConfig, MetricsRecord, RefreshPolicy, DivergenceError, TrainResult, train_vr, train_base, run_sweep

__version__ = "0.1.0"
