"""One measurement in a fresh process, started by run.py.

  worker.py setup --work DIR
      time `import qatlab.cli` plus `config.parse_config` of the first
      instance config in DIR (verify-gate has none and only imports), then
      the reference work.
  worker.py loop --work DIR --seconds S --trace 0|1 [--spans PATH]
      closed loop of whole runs through `qatlab.cli.main` for S seconds,
      checking every run's outputs and timing the reference work before
      and after each. With --trace 1 untraced and traced runs alternate.

Each mode prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

# Functions whose per-call latency is reported as a 99th percentile.
P99_FUNCTIONS = ("rng.substream", "jacobian.apply_gains", "vrgrad.grad_est", "vrgrad.ctrl_update")
# Call counts reported per training step (0 on verify-gate, which has no steps).
PER_STEP_FUNCTIONS = ("rng.substream", "objectives.per_sample_grad", "quant.quantize")


def reference_s() -> float:
    """Wall time of a fixed piece of reference work, a probe of machine speed.

    The work is of the kinds qatlab does, none of it qatlab's own code:
    Python loops over small array slices, generator construction and
    whole-vector passes. It never changes with the program, and it
    allocates too little to move the process's peak RSS.
    """
    import numpy as np

    x = np.linspace(-2.0, 2.0, 4096)
    out = np.empty_like(x)
    # The collector's cost grows with the objects the program keeps alive.
    gc.disable()
    try:
        start = time.perf_counter()
        for rep in range(320):
            for lo in range(0, x.size, 32):
                out[lo:lo + 32] = 0.5 * x[lo:lo + 32]
            gen = np.random.default_rng(np.random.SeedSequence(rep, spawn_key=(7,)))
            gen.uniform(-0.5, 0.5, size=1024).sum()
            np.clip(np.floor(out + 0.5), -1.0, 1.0) @ x
        return time.perf_counter() - start
    finally:
        gc.enable()


def _configs(work: str) -> list[str]:
    return sorted(glob.glob(os.path.join(work, "config-*.json")))


def _check_source(qatlab) -> None:
    # Refuse to measure an installed copy instead of the checkout's source.
    if os.path.dirname(os.path.abspath(qatlab.__file__)) != os.path.join(SRC, "qatlab"):
        raise SystemExit(f"qatlab imported from {qatlab.__file__}, not from {SRC}")


def setup_probe(work: str) -> dict:
    configs = _configs(work)
    start = time.perf_counter()
    import qatlab.cli
    from qatlab.config import parse_config
    if configs:
        parse_config(configs[0])
    elapsed = time.perf_counter() - start
    _check_source(qatlab)
    return {"setup_s": elapsed, "ref_s": reference_s()}


class Loop:
    """Runs whole commands one after another and checks each one's outputs."""

    def __init__(self, work: str):
        import qatlab.cli
        _check_source(qatlab)
        self.cli = qatlab.cli
        self.work = work
        self.configs = _configs(work)
        self.first_output: dict[int, bytes] = {}
        self.runs: list[dict] = []

    def run(self, instance: int, traced: bool) -> None:
        """One whole run of an instance, from config parse to outputs written."""
        out = os.path.join(self.work, f"out-{instance}")
        if self.configs:
            argv = ["train", "--config", self.configs[instance], "--out", out]
        else:
            argv = ["verify-all", "--out", out]
        record = {"index": len(self.runs), "instance": instance, "traced": traced, "ok": False}
        ref_before = reference_s()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = self.cli.main(argv)
            record["run_s"] = time.perf_counter() - start
            record.update(self._check(instance, out, status))
        except Exception:  # a crashed run is a failed run; the loop goes on
            record["run_s"] = time.perf_counter() - start
            record["error"] = traceback.format_exc(limit=3)
        # Machine speed on both sides of the run, for runs of several seconds.
        record["ref_s"] = 0.5 * (ref_before + reference_s())
        if not record["ok"]:
            print(f"run failed: {record}", file=sys.stderr)
        self.runs.append(record)

    def _check(self, instance: int, out: str, status: int) -> dict:
        if self.configs:
            with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(out, "metrics.csv"), "rb") as fh:
                output = fh.read()
            loss = summary["final_loss"]
            ok = (status == 0 and summary["error"] is None and loss is not None
                  and math.isfinite(loss) and summary["steps_run"] > 0)
            steps = work = summary["steps_run"]
            busy = summary["wall_time_s"]
        else:
            with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            criteria = report["criteria"]
            busy = report.pop("total_elapsed_s")
            for criterion in criteria:
                criterion.pop("elapsed_s")
            output = json.dumps(report, sort_keys=True).encode()
            per_seed = next(c for c in criteria if c["name"] == "A6")["details"]["per_seed"]
            loss = statistics.fmean(row["loss_probe"] for row in per_seed)
            ok = (status == 0 and report["passed"] and len(criteria) == 9
                  and all(c["passed"] for c in criteria))
            steps, work = 0, len(criteria)
        # Same instance, same bytes: the determinism contract, traced or not.
        first = self.first_output.setdefault(instance, output)
        return {"ok": ok and output == first, "same_output": output == first,
                "final_loss": loss, "steps": steps, "work": work, "busy_s": busy}

    def window(self, seconds: float, tracer=None) -> None:
        """Run instances round-robin from the first until ``seconds`` pass.

        Untraced, the window also lasts until each instance ran once. With a
        tracer, each instance runs untraced and then traced, so every traced
        run has an untraced twin just before it, and the window ends on a pair.
        """
        instances = max(1, len(self.configs))
        per_instance = 2 if tracer is not None else 1
        minimum = 2 if tracer is not None else instances
        deadline = time.perf_counter() + seconds
        count = 0
        while count < minimum or count % per_instance or time.perf_counter() < deadline:
            instance = (count // per_instance) % instances
            if tracer is not None and count % 2:
                tracer.run_id = len(self.runs)
                with tracer.installed():
                    self.run(instance, traced=True)
            else:
                self.run(instance, traced=False)
            count += 1


def layer_metrics(tracer, traced_runs: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics as medians over traced runs, and the self-time ranking.

    The ranking lists (share of traced run_s, name, self ms, calls) per run.
    """
    import numpy as np

    from tracer import CRITERIA, TRACED_FUNCTIONS

    cols = tracer.arrays()
    run_ids = np.array([r["index"] for r in traced_runs])
    steps = [r["steps"] for r in traced_runs]
    name_ids = {name: i for i, name in enumerate(tracer.names)}
    run_s_ms = statistics.median(r["run_s"] for r in traced_runs) * 1e3

    def per_run(name: str, column: str) -> tuple[list[float], np.ndarray]:
        mask = cols["name"] == name_ids[name]
        at = cols["run"][mask][:, None] == run_ids[None, :]
        values = cols[column][mask]
        return at.sum(axis=0).tolist(), (values[:, None] * at).sum(axis=0)

    metrics: dict[str, tuple[float, str]] = {}
    ranking = []
    for name in TRACED_FUNCTIONS:
        calls, self_s = per_run(name, "self")
        calls_median = statistics.median(calls)
        self_ms = float(np.median(self_s)) * 1e3
        metrics[f"{name}.calls"] = (calls_median, "count")
        metrics[f"{name}.self_ms"] = (self_ms, "ms")
        if name in P99_FUNCTIONS:
            durations = cols["duration"][cols["name"] == name_ids[name]]
            p99 = float(np.percentile(durations, 99)) * 1e6 if durations.size else 0.0
            metrics[f"{name}.p99_us"] = (p99, "us")
        if name in PER_STEP_FUNCTIONS:
            per_step = [c / s if s else 0.0 for c, s in zip(calls, steps)]
            metrics[f"{name}.per_step"] = (statistics.median(per_step), "count")
        if calls_median:
            ranking.append((self_ms / run_s_ms, name, self_ms, calls_median))
    for key in CRITERIA:
        _, seconds = per_run(f"acceptance.{key}", "duration")
        metrics[f"acceptance.{key}.s"] = (float(np.median(seconds)), "s")
    ranking.sort(reverse=True)
    return metrics, ranking


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(setup_probe(args.work)))
        return 0

    import numpy as np

    loop = Loop(args.work)
    result: dict = {"numpy": np.__version__}
    if not args.trace:
        loop.window(args.seconds)
    else:
        from tracer import Tracer

        tracer = Tracer()
        loop.window(args.seconds, tracer=tracer)
        traced = [r for r in loop.runs if r["traced"] and "steps" in r]
        if traced:
            result["layers"], result["ranking"] = layer_metrics(tracer, traced)
        if args.spans:
            tracer.write(args.spans)
    result["runs"] = loop.runs
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
