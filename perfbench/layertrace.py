"""Outside-in layer trace for the benchmark.

Wraps the public functions of each ddpath module from the outside, so the
program itself carries no tracing code.  Every call into a wrapped function
records a span (job, span id, parent span id, layer, start ns, end ns);
self time is a span's duration minus the time its child spans cover.  Only
calls through a public name are seen: ``Kernel.make_gate`` calling
``self.multiply_mm`` for a swap gate shows up as a ``multiply_mm`` child,
while the recursion inside ``_mul_mm`` stays inside its span.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# layer -> (defining module, public functions); a Kernel method is named
# "Kernel.<method>"
LAYERS = {
    "circuit.build": ("ddpath.circuit", (
        "ghz", "qft", "deutsch_jozsa", "w_state", "graph_state", "entangled_qft",
        "transpile", "invert", "concat_inverse")),
    "qasm.parse": ("ddpath.qasm", ("parse",)),
    "simpath.make_path": ("ddpath.simpath", (
        "make_path", "sequential_path", "alternating_path", "heuristic_path")),
    "simpath.validate": ("ddpath.simpath", ("validate",)),
    "simpath.execute": ("ddpath.simpath", ("execute",)),
    "kernel.make_gate": ("ddpath.kernel", ("Kernel.make_gate",)),
    "kernel.multiply_mv": ("ddpath.kernel", ("Kernel.multiply_mv",)),
    "kernel.multiply_mm": ("ddpath.kernel", ("Kernel.multiply_mm",)),
    "kernel.node_count": ("ddpath.kernel", ("Kernel.node_count",)),
    "kernel.gc": ("ddpath.kernel", ("Kernel.gc",)),
    "kernel.inner_product": ("ddpath.kernel", ("Kernel.inner_product",)),
    "tnbridge.export": ("ddpath.tnbridge", ("export_tensor_network",)),
    "tnbridge.greedy_plan": ("ddpath.tnbridge", ("greedy_plan",)),
    "tnbridge.import_path": ("ddpath.tnbridge", ("import_path",)),
}

# per-layer metrics: name -> unit, in the order they are printed
METRICS = {
    "circuit.build_s": "s",
    "qasm.parse_s": "s",
    "simpath.make_path_s": "s",
    "simpath.validate_s": "s",
    "simpath.execute_self_s": "s",
    "simpath.tasks_mv": "count",
    "simpath.tasks_mm": "count",
    "kernel.make_gate_s": "s",
    "kernel.make_gate_calls": "count",
    "kernel.multiply_mv_s": "s",
    "kernel.multiply_mv_calls": "count",
    "kernel.multiply_mm_s": "s",
    "kernel.multiply_mm_calls": "count",
    "kernel.node_count_s": "s",
    "kernel.node_count_calls": "count",
    "kernel.gc_s": "s",
    "kernel.gc_runs": "count",
    "kernel.gc_removed": "count",
    "kernel.unique_size_max": "entries",
    "kernel.inner_product_s": "s",
    "tnbridge.export_s": "s",
    "tnbridge.greedy_plan_s": "s",
    "tnbridge.import_path_s": "s",
    "job.other_s": "s",
    "trace.job_s_mean": "s",
    "trace.job_s_p50": "s",
    "trace.untraced_job_s_p50": "s",
    "trace.overhead_s": "s",
}


class _Frame:
    __slots__ = ("span", "layer", "child_ns")

    def __init__(self, span: int, layer: str):
        self.span = span
        self.layer = layer
        self.child_ns = 0


class Tracer:
    """Span recorder; ``install`` patches ddpath, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.tasks = {"kernel.multiply_mv": 0, "kernel.multiply_mm": 0}
        self.gc_removed = 0
        self.unique_size_max = 0
        self.jobs = 0
        self._job = 0
        self._next_span = 0
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # spans

    def _open(self, layer: str) -> _Frame:
        self._next_span += 1
        frame = _Frame(self._next_span, layer)
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame, t0: int, t1: int) -> None:
        self._stack.pop()
        duration = t1 - t0
        self.self_ns[frame.layer] += duration - frame.child_ns
        self.calls[frame.layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_ns += duration
        self.spans.append((self._job, frame.span, parent.span if parent else 0,
                           frame.layer, t0, t1))

    def job(self, fn, *args):
        """Run ``fn(*args)`` as one job under a root span; returns (result, ns)."""
        self._job += 1
        self.jobs += 1
        frame = self._open("job")
        t0 = time.perf_counter_ns()
        try:
            return fn(*args), time.perf_counter_ns() - t0
        finally:
            self._close(frame, t0, time.perf_counter_ns())

    def _wrap(self, layer: str, fn, kernel_method: bool):
        stack = self._stack
        clock = time.perf_counter_ns
        tasks = self.tasks

        def traced(*args, **kwargs):
            parent = stack[-1].layer if stack else None
            if kernel_method:
                self._see_unique(args[0])
            frame = self._open(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, clock())
            if kernel_method:
                self._see_unique(args[0])
            if layer in tasks and parent == "simpath.execute":
                tasks[layer] += 1
            elif layer == "kernel.gc":
                self.gc_removed += result
            return result

        return traced

    def _see_unique(self, kernel) -> None:
        size = kernel.unique_size
        if size > self.unique_size_max:
            self.unique_size_max = size

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        """Route every public binding of the traced functions through spans."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ddpath" or name.startswith("ddpath."))]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for name in names:
                if name.startswith("Kernel."):
                    attr = name[len("Kernel."):]
                    original = getattr(module.Kernel, attr)
                    self._patch(module.Kernel, attr, self._wrap(layer, original, True))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(layer, original, False)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
                generators = sys.modules["ddpath.circuit"].GENERATORS
                for key, value in list(generators.items()):
                    if value is original:
                        self._patch(generators, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results

    def metrics(self, traced_s: list[float], untraced_s: list[float]) -> dict:
        """Per-job means of self time and counts over the traced jobs, plus
        the traced and untraced job medians of the same run."""
        jobs = max(self.jobs, 1)
        values = {f"{layer}_s": self.self_ns[layer] / 1e9 / jobs for layer in LAYERS}
        values["simpath.execute_self_s"] = values.pop("simpath.execute_s")
        values["job.other_s"] = self.self_ns["job"] / 1e9 / jobs
        for layer in ("kernel.make_gate", "kernel.multiply_mv", "kernel.multiply_mm",
                      "kernel.node_count"):
            values[f"{layer}_calls"] = self.calls[layer] / jobs
        values["kernel.gc_runs"] = self.calls["kernel.gc"] / jobs
        values["kernel.gc_removed"] = self.gc_removed / jobs
        values["kernel.unique_size_max"] = self.unique_size_max
        values["simpath.tasks_mv"] = self.tasks["kernel.multiply_mv"] / jobs
        values["simpath.tasks_mm"] = self.tasks["kernel.multiply_mm"] / jobs
        values["trace.job_s_mean"] = sum(self.self_ns.values()) / 1e9 / jobs
        values["trace.job_s_p50"] = statistics.median(traced_s)
        values["trace.untraced_job_s_p50"] = statistics.median(untraced_s)
        values["trace.overhead_s"] = values["trace.job_s_p50"] - values["trace.untraced_job_s_p50"]
        return {m: {"value": values[m], "unit": unit} for m, unit in METRICS.items()}

    def write_spans(self, path: str) -> None:
        """One JSON array per line: job, span, parent span, layer, start ns, end ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
