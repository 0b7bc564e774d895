"""Spans around qatlab's public functions, recorded from outside the package.

The tracer replaces a function at every attribute of a loaded ``qatlab``
module that holds it, because callers that did ``from .rng import
substream`` resolve their own module's attribute, not the defining one.
Each wrapped call records one span (name, start, end, parent, run id) in
memory; nothing is written until the caller asks for it. Uninstalling puts
every original object back.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

# Public functions wrapped per layer (module of the qatlab package).
LAYER_FUNCTIONS = {
    "config": ("parse_config",),
    "rng": ("substream",),
    "quant": ("quantize", "quantize_array", "draw_dither", "dither_quantize",
              "mean_field", "mean_field_sensitivity", "calibrate_step"),
    "jacobian": ("apply_gains", "probe_update", "probe_ls_update", "dither_update",
                 "probe_slope_samples"),
    "objectives": ("per_sample_grad", "batch_grad"),
    "vrgrad": ("surrogate_per_sample", "surrogate_batch", "grad_est", "ctrl_update",
               "refresh_anchor", "init_vr_state"),
    "trainer": ("train_vr", "train_base", "write_metrics_csv"),
    "diagnostics": ("bias_report", "fd_mismatch_variance", "probe_rate_harness",
                    "tracking_harness", "pl_contraction_harness",
                    "window_composition_harness"),
    "cli": ("main",),
}
TRACED_FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns)
CRITERIA = tuple(f"A{k}" for k in range(1, 10))

_NAME, _PARENT, _RUN, _START, _END = range(5)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, stack[-1] if stack else -1, self.run_id, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function and acceptance criterion; restore on exit."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "qatlab" or key.startswith("qatlab."))]
        try:
            for qualified in TRACED_FUNCTIONS:
                layer, fn_name = qualified.split(".")
                original = getattr(sys.modules[f"qatlab.{layer}"], fn_name)
                wrapper = self.wrap(qualified, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            criteria = sys.modules["qatlab.acceptance"].CRITERIA
            for key in CRITERIA:
                description, fn = criteria[key]
                self._patch(criteria, key, (description, self.wrap(f"acceptance.{key}", fn)))
            yield self
        finally:
            self.uninstall()

    def _patch(self, container, key: str, value) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, value)

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns, with each span's self time: duration minus its children's."""
        table = np.array(self.spans, dtype=float).reshape(-1, 5)
        parent = table[:, _PARENT].astype(int)
        duration = table[:, _END] - table[:, _START]
        nested = parent >= 0
        children = np.zeros(len(table))
        np.add.at(children, parent[nested], duration[nested])
        return {"name": table[:, _NAME].astype(int), "run": table[:, _RUN].astype(int),
                "duration": duration, "self": duration - children}

    def write(self, path: str) -> None:
        """Write every span as CSV: run, name, start and end in microseconds, parent row."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "name", "start_us", "end_us", "parent"])
            origin = self.spans[0][_START] if self.spans else 0.0
            for name_id, parent, run, start, end in self.spans:
                writer.writerow([run, self.names[name_id], f"{(start - origin) * 1e6:.3f}",
                                 f"{(end - origin) * 1e6:.3f}", parent])
