"""Batch entry point: train runs, harness diagnostics, sweeps, verify-all.

Commands:
  train       one training run from a config; writes metrics.csv + summary.json
  diagnose    one named harness; writes table.csv + verdict.json
  sweep       grid over group size / refresh interval / backward mode;
              writes sweep.csv + summary.json
  verify-all  every acceptance criterion; writes report.json

Every output file is written to a temp file and renamed, so files are
complete or absent. Exit status is 0 only when nothing hard-failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .acceptance import run_all
from .config import ConfigError, RunSetup, parse_config
from .quant import quantize
from .trainer import (DivergenceError, RefreshPolicy, atomic_write_text, run_sweep, train_base,
                      train_vr, write_metrics_csv)

__all__ = ["RunManifest", "run", "main", "DIAGNOSE_NAMES"]

DIAGNOSE_NAMES = {
    "probe-rate": "A2",
    "dither-fixed-point": "A3",
    "vr-variance": "A4",
    "pl-contraction": "A5",
    "dominance": "A6",
    "tracking": "A7",
    "windows": "A8",
}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_path: str | None = None
    output_dir: str = "out"
    seed_override: int | None = None
    jobs: int = 1
    harness: str | None = None


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                       default=_json_default) + "\n")


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _rows_to_csv(path: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_text(path, buf.getvalue())


def _load_setup(manifest: RunManifest) -> RunSetup:
    if not manifest.config_path:
        raise ConfigError("this command needs --config")
    return parse_config(manifest.config_path, seed_override=manifest.seed_override)


def _cmd_train(manifest: RunManifest) -> int:
    setup = _load_setup(manifest)
    out = manifest.output_dir
    os.makedirs(out, exist_ok=True)
    summary = {
        "command": "train",
        "config": setup.config,
        "seed": setup.seed,
        "error": None,
        "final_loss": None,
        "steps_run": 0,
        "wall_time_s": None,
        "outputs": {"metrics": os.path.join(out, "metrics.csv")},
    }
    start = time.perf_counter()
    status = 0
    runner = train_base if setup.loop == "base" else train_vr
    try:
        result = runner(setup.objective, setup.weights, setup.spec, setup.train)
        write_metrics_csv(result.metrics, os.path.join(out, "metrics.csv"))
        summary["final_loss"] = setup.objective.full_loss(quantize(result.weights, setup.spec))
        summary["steps_run"] = len(result.metrics)
        summary["final_gains"] = result.gains.gains.tolist()
    except DivergenceError as exc:
        write_metrics_csv(exc.trace, os.path.join(out, "metrics.csv"))
        summary["error"] = str(exc)
        summary["steps_run"] = len(exc.trace)
        status = 1
    summary["wall_time_s"] = time.perf_counter() - start
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"train: {'error: ' + summary['error'] if summary['error'] else 'ok'}; "
          f"wrote {out}/metrics.csv and {out}/summary.json")
    return status


def _cmd_sweep(manifest: RunManifest) -> int:
    setup = _load_setup(manifest)
    out = manifest.output_dir
    os.makedirs(out, exist_ok=True)
    sweep = setup.sweep or {}
    policies = [RefreshPolicy("interval", interval=k)
                for k in sweep.get("refresh_intervals", [100])]
    start = time.perf_counter()
    table = run_sweep(setup.objective, setup.weights, setup.spec, setup.train,
                      group_sizes=sweep.get("group_sizes"),
                      refresh_policies=policies,
                      jac_modes=sweep.get("jac_modes"),
                      use_base=setup.loop == "base",
                      jobs=manifest.jobs)
    header = ["group_size", "refresh_kind", "refresh_value", "jac_mode", "seed",
              "final_loss", "steps_run", "error"]
    _rows_to_csv(os.path.join(out, "sweep.csv"), header,
                 [[row[k] for k in header] for row in table])
    errors = [row["error"] for row in table if row["error"]]
    summary = {
        "command": "sweep",
        "config": setup.config,
        "seed": setup.seed,
        "cells": len(table),
        "cells_with_errors": len(errors),
        "errors": errors,
        "wall_time_s": time.perf_counter() - start,
        "outputs": {"sweep": os.path.join(out, "sweep.csv")},
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"sweep: {len(table)} cells, {len(errors)} errors; wrote {out}/sweep.csv")
    return 1 if errors else 0


def _diagnose_table(name: str, details: dict) -> tuple[list[str], list[list]]:
    if name == "probe-rate":
        return ["probe_count", "mean_error"], [
            [m, e] for m, e in zip(details["probe_counts"], details["mean_errors"])]
    if name == "dither-fixed-point":
        return ["group", "gain", "target", "abs_error"], [
            [g, gain, target, abs(gain - target)]
            for g, (gain, target) in enumerate(zip(details["gains"], details["targets"]))]
    if name == "vr-variance":
        return ["estimator", "variance"], [["svrg", details["svrg_variance"]],
                                           ["plain", details["plain_variance"]]]
    if name == "pl-contraction":
        return ["jac_err", "floor", "worst_ratio"], [
            [0.2, details["floor_jac_err_0.2"], details["worst_ratio_perturbed"]],
            [0.0, details["floor_jac_err_0"], details["worst_ratio_clean"]]]
    if name == "dominance":
        header = ["seed", "loss_probe", "loss_ste", "bias_probe", "bias_ste",
                  "fd_var_probe", "fd_var_ste"]
        return header, [[row[k] for k in header] for row in details["per_seed"]]
    if name == "tracking":
        return ["schedule", "terminal_error"], [["static", details["static_terminal"]],
                                                ["slow", details["slow_terminal"]],
                                                ["fast", details["fast_terminal"]]]
    # windows
    return ["window", "gap_decaying", "gap_constant"], [
        [k, d, c] for k, (d, c) in enumerate(zip(details["window_gaps_decaying"],
                                                 details["window_gaps_constant"]))]


def _cmd_diagnose(manifest: RunManifest) -> int:
    name = manifest.harness or ""
    if name not in DIAGNOSE_NAMES:
        print(f"unknown harness {name!r}; choose from {sorted(DIAGNOSE_NAMES)}",
              file=sys.stderr)
        return 2
    out = manifest.output_dir
    os.makedirs(out, exist_ok=True)
    result = run_all([DIAGNOSE_NAMES[name]])[0]
    header, rows = _diagnose_table(name, result.details)
    _rows_to_csv(os.path.join(out, "table.csv"), header, rows)
    _write_json(os.path.join(out, "verdict.json"), {
        "harness": name,
        "criterion": result.name,
        "passed": result.passed,
        "elapsed_s": result.elapsed_s,
        "details": result.details,
    })
    print(result.line())
    print(f"wrote {out}/table.csv and {out}/verdict.json")
    return 0 if result.passed else 1


def _cmd_verify_all(manifest: RunManifest) -> int:
    out = manifest.output_dir
    os.makedirs(out, exist_ok=True)
    results = run_all(echo=True)
    total = sum(r.elapsed_s for r in results)
    report = {
        "command": "verify-all",
        "passed": all(r.passed for r in results),
        "total_elapsed_s": total,
        "criteria": [{
            "name": r.name,
            "description": r.description,
            "passed": r.passed,
            "elapsed_s": r.elapsed_s,
            "details": r.details,
        } for r in results],
    }
    _write_json(os.path.join(out, "report.json"), report)
    print(f"verify-all: {'PASS' if report['passed'] else 'FAIL'} "
          f"({total:.1f}s); wrote {out}/report.json")
    return 0 if report["passed"] else 1


def run(manifest: RunManifest) -> int:
    """Dispatch a manifest; returns the process exit status."""
    try:
        if manifest.command == "train":
            return _cmd_train(manifest)
        if manifest.command == "sweep":
            return _cmd_sweep(manifest)
        if manifest.command == "diagnose":
            return _cmd_diagnose(manifest)
        if manifest.command == "verify-all":
            return _cmd_verify_all(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"unknown command {manifest.command!r}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qatlab",
                                     description="quantization-aware training lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "sweep", "diagnose", "verify-all"):
        p = sub.add_parser(name)
        if name == "diagnose":
            p.add_argument("harness", choices=sorted(DIAGNOSE_NAMES))
        p.add_argument("--config", default=None, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    args = parser.parse_args(argv)
    manifest = RunManifest(command=args.command, config_path=args.config,
                           output_dir=args.out, seed_override=args.seed,
                           jobs=args.jobs, harness=getattr(args, "harness", None))
    return run(manifest)


if __name__ == "__main__":
    raise SystemExit(main())
