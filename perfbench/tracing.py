"""Per-layer tracing done from outside the library.

`Tracer.install()` wraps each function in `TRACED` at every `ferrospin.*`
module binding that holds it (so `cli`'s imported names are wrapped too);
`uninstall()` restores the originals.  Each call records a span
(name, start, end, parent span, op id) in memory.  A traced name that the
library no longer defines is reported as absent and does not stop the run.

The modules are the layers.  A layer's self time is the time its spans
cover minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function): the functions the per-layer metrics read, plus
# saw_marginal and trajectory_csv, so that time spent in their own loops is
# charged to their own layer
TRACED = (
    ("cli", "main"),
    ("model", "load_instance"),
    ("model", "instance_hash"),
    ("model", "tilt"),
    ("sawtree", "saw_marginal"),
    ("sawtree", "build_saw_tree"),
    ("sawtree", "pin_saw_tree"),
    ("sawtree", "prune_pinned_leaves"),
    ("sawtree", "evaluate_ratios"),
    ("exact", "conditional_marginal"),
    ("exact", "gibbs_distribution"),
    ("exact", "glauber_matrix"),
    ("exact", "alternating_scan_matrix"),
    ("exact", "spectral_report"),
    ("exact", "exact_mixing_time"),
    ("regions", "construct_region"),
    ("regions", "verify_region"),
    ("samplers", "trajectory_csv"),
    ("samplers", "monotone_coupled_step"),
    ("samplers", "coupling_time"),
    ("samplers", "field_dynamics_step"),
    ("harness", "coupling_mixing_estimate"),
)
LAYERS = ("cli", "model", "sawtree", "exact", "regions", "samplers", "harness")

# name -> the count kept from each call's result
_COUNTERS = {
    "sawtree.build_saw_tree": len,
    "exact.glauber_matrix": lambda kernel: kernel.n,
    "exact.alternating_scan_matrix": lambda kernel: kernel.n,
    "regions.verify_region": lambda ver: (ver.nodes_visited, bool(ver.partial)),
    "exact.exact_mixing_time": int,
    "samplers.coupling_time": lambda t: 0 if t is None else int(t),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, op_id)
        self.results: dict[str, list] = {}  # name -> derived counts per call
        self.op_id = -1
        self.absent: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        record = self.results.setdefault(name, [])
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if count is not None:
                record.append(count(result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "ferrospin" or key.startswith("ferrospin.")]
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"ferrospin.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def self_times(self) -> dict[str, list[float]]:
        """name -> [calls, total time, self time]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                fh.write(json.dumps([i, name, round(start, 7), round(end, 7),
                                     parent, op_id]) + "\n")

