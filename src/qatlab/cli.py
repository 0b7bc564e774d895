"""Batch entry point: train runs, harness diagnostics, sweeps, verify-all.

Commands, each with only the flags it reads:
  train --config C [--out D] [--seed S]
              one training run from a config; writes metrics.csv + summary.json
  sweep --config C [--out D] [--seed S] [--jobs N]
              grid over group size / refresh interval / backward mode;
              writes sweep.csv + summary.json
  diagnose HARNESS [--out D]
              one named harness; writes table.csv + verdict.json
  verify-all [--out D]
              every acceptance criterion; writes report.json

Every output file is written to a temp file and renamed, so files are
complete or absent. Exit status is 0 only when nothing hard-failed; a bad
flag, config field or path exits 2 without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .acceptance import run_all
from .config import ConfigError, parse_config
from .trainer import (DivergenceError, RefreshPolicy, atomic_write_text, final_loss, run_sweep,
                      train_vr, write_csv, write_metrics_csv)

__all__ = ["main", "DIAGNOSE_NAMES"]

DIAGNOSE_NAMES = {
    "probe-rate": "A2",
    "dither-fixed-point": "A3",
    "vr-variance": "A4",
    "pl-contraction": "A5",
    "dominance": "A6",
    "tracking": "A7",
    "windows": "A8",
}


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


def _cmd_train(args: argparse.Namespace) -> int:
    setup = parse_config(args.config, seed_override=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    summary = {
        "command": "train",
        "config": setup.config,
        "seed": setup.train.seed,
        "error": None,
        "final_loss": None,
        "steps_run": 0,
        "wall_time_s": None,
        "outputs": {"metrics": os.path.join(out, "metrics.csv")},
    }
    start = time.perf_counter()
    status = 0
    try:
        result = train_vr(setup.objective, setup.weights, setup.spec, setup.train)
        write_metrics_csv(result.metrics, os.path.join(out, "metrics.csv"))
        summary["final_loss"] = final_loss(setup.objective, result.weights, setup.spec)
        summary["steps_run"] = len(result.metrics)
        summary["final_gains"] = result.gains.tolist()
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    setup = parse_config(args.config, seed_override=args.seed)
    out = args.out
    os.makedirs(out, exist_ok=True)
    sweep = setup.sweep or {}
    intervals = sweep.get("refresh_intervals")  # none: every cell runs train.refresh
    policies = [RefreshPolicy("interval", interval=k) for k in intervals] if intervals else None
    start = time.perf_counter()
    table = run_sweep(setup.objective, setup.weights, setup.spec, setup.train,
                      group_sizes=sweep.get("group_sizes"),
                      refresh_policies=policies,
                      jac_modes=sweep.get("jac_modes"),
                      jobs=args.jobs)
    header = ["group_size", "refresh_kind", "refresh_value", "jac_mode", "seed",
              "final_loss", "steps_run", "error"]
    write_csv(os.path.join(out, "sweep.csv"), header, [[row[k] for k in header] for row in table])
    errors = [row["error"] for row in table if row["error"]]
    summary = {
        "command": "sweep",
        "config": setup.config,
        "seed": setup.train.seed,
        "cells": len(table),
        "cells_with_errors": len(errors),
        "errors": errors,
        "wall_time_s": time.perf_counter() - start,
        "outputs": {"sweep": os.path.join(out, "sweep.csv")},
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    print(f"sweep: {len(table)} cells, {len(errors)} errors; wrote {out}/sweep.csv")
    return 1 if errors else 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    name, out = args.harness, args.out
    os.makedirs(out, exist_ok=True)
    result = run_all([DIAGNOSE_NAMES[name]])[0]
    write_csv(os.path.join(out, "table.csv"), *result.table)
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


def _cmd_verify_all(args: argparse.Namespace) -> int:
    out = args.out
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qatlab",
                                     description="quantization-aware training lab")
    sub = parser.add_subparsers(dest="command", required=True)
    train, sweep = sub.add_parser("train"), sub.add_parser("sweep")
    for p in (train, sweep):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
    sweep.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    diagnose = sub.add_parser("diagnose")
    diagnose.add_argument("harness", choices=sorted(DIAGNOSE_NAMES))
    for p, handler in ((train, _cmd_train), (sweep, _cmd_sweep), (diagnose, _cmd_diagnose),
                       (sub.add_parser("verify-all"), _cmd_verify_all)):
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(handler=handler)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a config path that is absent or a directory, an --out that is a file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
