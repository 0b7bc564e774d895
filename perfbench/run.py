"""qatlab benchmark: one workload, one seed, one measured window.

  python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; qatlab is imported from its ``src``. The
run generates the workload's configs from the seed, times set-up in fresh
processes, then runs the workload as a closed loop in one more fresh
process with BLAS and OpenMP pinned to one thread. Human-readable lines
come first; the last line of standard output is the JSON result. With
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run. Scratch files go to .perfbench-out/ under the
checkout root; the spans of a traced run stay there as a CSV file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench-out")

SETUP_PROBES = 7
# Seconds the worker's reference work takes on the machine the bounds were set
# on (2-vCPU Intel Xeon virtual machine, Python 3.11, numpy 2.4). Timings are scaled by
# REFERENCE_S / (reference time measured next to them), which takes out most of
# the drift in the speed of a shared machine.
REFERENCE_S = 0.08
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, WORKER, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(numpy_version: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy_version}


def _scaled(seconds: float, ref_s: float) -> float:
    return seconds * REFERENCE_S / ref_s


def end_to_end(probes: list[dict], result: dict) -> dict:
    # Timings count every run that finished, also one whose outputs failed a
    # check; the loss counts runs that passed. Instance losses are right-skewed,
    # so their geometric mean is the typical value.
    runs = [r for r in result["runs"] if "busy_s" in r]
    losses = {r["instance"]: math.log(r["final_loss"]) for r in runs if r["ok"]}
    return {
        "steps_per_s": (statistics.median(r["work"] / _scaled(r["busy_s"], r["ref_s"])
                                          for r in runs), "1/s"),
        "run_s": (statistics.median(_scaled(r["run_s"], r["ref_s"]) for r in runs), "s"),
        "setup_s": (statistics.median(_scaled(p["setup_s"], p["ref_s"]) for p in probes), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "final_loss": (math.exp(statistics.fmean(losses.values())), "loss"),
    }


def unscaled(probes: list[dict], result: dict) -> str:
    """Medians of the raw wall times, for the human-readable output."""
    runs = result["runs"]
    return (f"wall medians: run_s {statistics.median(r['run_s'] for r in runs):.4g} s, "
            f"setup_s {statistics.median(p['setup_s'] for p in probes):.4g} s, "
            f"reference {statistics.median(r['ref_s'] for r in runs):.4g} s "
            f"(REFERENCE_S {REFERENCE_S} s)")


def per_layer(result: dict) -> dict:
    metrics = dict(result["layers"])
    runs = result["runs"]
    # Runs alternate untraced, traced; each pair ran the same instance back to back.
    pairs = list(zip(runs[0::2], runs[1::2]))
    metrics["trace.untraced_run_s"] = (statistics.median(u["run_s"] for u, _ in pairs), "s")
    metrics["trace.traced_run_s"] = (statistics.median(t["run_s"] for _, t in pairs), "s")
    overhead = statistics.median(t["run_s"] / u["run_s"] - 1.0 for u, t in pairs)
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def measure(workload: str, seed: int, seconds: int, trace: int,
            work: str) -> tuple[dict, str, dict]:
    """The result line, the raw wall medians line and the worker's raw result."""
    started = time.perf_counter()
    for j, config in enumerate(workloads.instance_configs(workload, seed)):
        with open(os.path.join(work, f"config-{j:03d}.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    probes = [_worker(["setup", "--work", work], left()) for _ in range(SETUP_PROBES)]
    args = ["loop", "--work", work, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.csv")]
    result = _worker(args, left())

    runs = result["runs"]
    failed = sum(not r["ok"] for r in runs)
    traced = [r for r in runs if r["traced"]]
    if trace:
        complete = bool(traced) and "layers" in result
    else:
        complete = len({r["instance"] for r in runs}) == max(1, workloads.INSTANCES[workload])
    correct = failed == 0 and complete
    metrics = per_layer(result) if trace else end_to_end(probes, result)
    summary = {"correct": bool(correct), "attempted": len(runs), "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    return summary, unscaled(probes, result), result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qatlab", "__init__.py")):
        print(f"no qatlab source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        summary, wall, result = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine", json.dumps(machine(result["numpy"])))
    print(f"workload {args.workload} seed {args.seed}: {summary['attempted']} runs, "
          f"{summary['failed']} failed, failed_frac {summary['failed'] / summary['attempted']:.3f}")
    print(wall)
    for share, name, self_ms, calls in result.get("ranking", [])[:12]:
        print(f"  self {100 * share:5.1f} %  {name:<40} {self_ms:10.2f} ms  {calls:8.0f} calls")
    for name, metric in summary["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
