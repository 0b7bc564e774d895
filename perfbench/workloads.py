"""The benchmark's workloads: the run configs a workload seed expands to.

Each instance of a training workload is one `qatlab train` config whose
master seed comes from the workload seed, so the seed picks the objective's
data, the initial weights, the minibatches and every probe and dither draw.
``verify-gate`` runs `qatlab verify-all`, whose criteria pin their own
seeds, so its inputs are the same for every workload seed.
"""

from __future__ import annotations

TRAIN_WORKLOADS = ("vr-svrg-probe", "base-dither", "vr-saga-mlp")
WORKLOADS = TRAIN_WORKLOADS + ("verify-gate",)

# Steps per training run, sized so that one run takes about 1-3 s on one core
# and a 20 s window holds several runs.
STEPS = {"vr-svrg-probe": 200, "base-dither": 100, "vr-saga-mlp": 100}

# Problem instances per workload seed. One MLP run's final loss varies by about
# 25 % (quartile spread over median) from seed to seed, so vr-saga-mlp cycles
# through 20 instances and reports their typical loss; the quadratics vary by 2 %.
INSTANCES = {"vr-svrg-probe": 1, "base-dither": 1, "vr-saga-mlp": 20, "verify-gate": 0}


def instance_configs(workload: str, seed: int) -> list[dict]:
    """The configs a workload seed expands to, one per problem instance."""
    count = INSTANCES[workload]
    return [make_config(workload, seed * count + j) for j in range(count)]


def make_config(workload: str, seed: int) -> dict:
    """The `qatlab train` config of one instance of a training workload."""
    if workload == "vr-svrg-probe":
        # SVRG anchor differences: apply_gains, grad_est and quantize dominate.
        return {
            "seed": seed,
            "objective": {"kind": "pl", "dim": 4096, "n_samples": 64},
            "quant": {"mode": "w2", "group_size": 32},
            "train": {"loop": "vr", "vr_mode": "svrg", "jac_mode": "probe",
                      "num_probes": 8, "batch_size": 8, "steps": STEPS[workload],
                      "refresh": {"kind": "interval", "interval": 25}},
        }
    if workload == "base-dither":
        # A dither draw and a per-group gain update on every step: rng and jacobian.
        return {
            "seed": seed,
            "objective": {"kind": "saturating", "dim": 4096, "n_samples": 64},
            "quant": {"group_size": 32},
            "train": {"loop": "base", "jac_mode": "dither", "num_probes": 8,
                      "probe_sigma": 0.25, "stepsize": 0.12, "batch_size": 8,
                      "steps": STEPS[workload]},
        }
    if workload == "vr-saga-mlp":
        # SAGA table writes, the costliest per-sample gradient, per-group steps.
        return {
            "seed": seed,
            "objective": {"kind": "mlp", "dim": 64, "hidden_width": 64, "n_samples": 256},
            "quant": {"mode": "generic", "bits": 4, "calibrate": True, "group_size": 128},
            "train": {"loop": "vr", "vr_mode": "saga", "jac_mode": "probe_ls",
                      "num_probes": 4, "batch_size": 8, "steps": STEPS[workload],
                      "refresh": {"kind": "interval", "interval": 25}},
        }
    raise ValueError(f"not a training workload: {workload!r}")
