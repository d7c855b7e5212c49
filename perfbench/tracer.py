"""Span tracer installed from outside the library, around its public calls.

Each traced function is replaced where the calling module binds it (for
example ``skillpack.compress.quantize_gptq``, the name `compress_delta`
looks up), so the library itself is untouched. A span records name,
start, end, parent span and workload; spans stay in memory and are written
out as JSON lines when the run ends. Per-layer metrics are derived from the
spans: total seconds, self seconds (a span minus its direct children),
call counts and counts computed from argument shapes.

Allocation peaks come from `tracemalloc`, and only in a separate memory
pass (`Tracer.memory_pass`), so they do not distort the timed spans.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc

import numpy as np

# (module path, attribute, span name). A function bound in several places
# is wrapped at each binding under the same span name.
BINDINGS = (
    ("skillpack.compress", "svd", "tensors.svd"),
    ("skillpack.compress", "quantize_gptq", "quantize.gptq"),
    ("skillpack.compress", "magnitude_prune", "tensors.magnitude_prune"),
    ("skillpack", "compress_delta", "compress.compress_delta"),
    ("skillpack.packs", "pack_codes", "quantize.pack_codes"),
    ("skillpack.packs", "unpack_codes", "quantize.unpack_codes"),
    ("skillpack", "save_pack", "packs.save_pack"),
    ("skillpack", "load_pack", "packs.load_pack"),
    ("skillpack.toy", "predict_stats", "packs.predict_stats"),
    ("skillpack.container", "write_container", "container.write"),
    ("skillpack.container", "read_container", "container.read"),
    ("skillpack.container", "fetch_blob", "container.fetch_blob"),
    ("skillpack.toy", "toy_forward", "toy.toy_forward"),
    ("skillpack", "eval_retention", "toy.eval_retention"),
    ("skillpack", "budget_plan", "toy.budget_plan"),
    ("skillpack", "gen_toy", "toy.gen_toy"),
    ("skillpack", "load_checkpoint", "checkpoints.load"),
    ("skillpack", "load_delta", "checkpoints.load"),
    ("skillpack", "save_checkpoint", "checkpoints.save"),
    ("skillpack", "save_delta", "checkpoints.save"),
    ("skillpack", "diff", "checkpoints.diff"),
    ("skillpack", "apply_pack", "checkpoints.apply_pack"),
    ("skillpack.toy", "apply_pack", "checkpoints.apply_pack"),
    ("skillpack.routing", "route", "routing.route"),
    ("skillpack", "fuse", "routing.fuse"),
    ("skillpack.routing", "fuse", "routing.fuse"),
    ("skillpack", "train_router", "routing.train_router"),
)
# Entry classes whose `reconstruct` method is wrapped as packs.reconstruct.
RECONSTRUCT_CLASSES = ("DenseEntry", "PrunedSparseEntry", "QuantizedSvdEntry")

# Functions whose allocation peak the memory pass records.
PEAK_SPANS = ("packs.load_pack", "checkpoints.load", "routing.fuse")

# Every per-layer metric, with its unit; BENCHMARK.json lists the same names.
PER_LAYER_UNITS = {
    "tensors.svd.s": "s", "tensors.svd.calls": "count", "tensors.svd.gflop": "gflop",
    "quantize.gptq.s": "s", "quantize.gptq.calls": "count",
    "quantize.gptq.columns": "count", "quantize.gptq.gflop": "gflop",
    "tensors.magnitude_prune.s": "s",
    "compress.compress_delta.s": "s", "compress.compress_delta.self_s": "s",
    "quantize.pack_codes.s": "s", "packs.save_pack.s": "s",
    "container.write.s": "s", "container.write.bytes": "bytes",
    "toy.toy_forward.s": "s", "toy.toy_forward.calls": "count", "toy.toy_forward.tokens": "count",
    "toy.eval_retention.s": "s", "toy.budget_plan.s": "s",
    "packs.predict_stats.s": "s", "packs.predict_stats.calls": "count",
    "container.read.s": "s", "container.read.bytes": "bytes",
    "container.fetch_blob.s": "s", "container.fetch_blob.calls": "count",
    "quantize.unpack_codes.s": "s",
    "packs.load_pack.s": "s", "packs.load_pack.peak_alloc_mb": "MB",
    "checkpoints.load.s": "s", "checkpoints.load.bytes": "bytes", "checkpoints.load.peak_alloc_mb": "MB",
    "packs.reconstruct.s": "s", "packs.reconstruct.calls": "count",
    "routing.route.s": "s", "routing.route.calls": "count",
    "routing.fuse.s": "s", "routing.fuse.self_s": "s", "routing.fuse.peak_alloc_mb": "MB",
    "checkpoints.apply_pack.s": "s",
    "toy.gen_toy.s": "s", "checkpoints.diff.s": "s", "checkpoints.save.s": "s",
    "routing.train_router.s": "s",
    "trace.overhead_pct": "%",
}


def _svd_gflop(args) -> float:
    # Golub & Van Loan's count for a thin SVD with both factors, m >= n.
    m, n = sorted(np.shape(args[0]), reverse=True)
    return (6.0 * m * n * n + 20.0 * n**3) / 1e9


def _gptq_gflop(args) -> float:
    # Hessian x x^T, Cholesky + inverse + Cholesky, then the column sweep.
    rows, cols = np.shape(args[0])
    samples = np.shape(args[1])[1]
    return (2.0 * cols * cols * samples + (8.0 / 3.0) * cols**3 + float(rows) * cols * cols) / 1e9


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


# Span name -> {counter suffix: function of the call's positional arguments}.
ARG_COUNTERS = {
    "tensors.svd": {"gflop": _svd_gflop},
    "quantize.gptq": {"columns": lambda a: np.shape(a[0])[1], "gflop": _gptq_gflop},
    "toy.toy_forward": {"tokens": lambda a: len(a[1])},
    "container.read": {"bytes": _file_bytes},
    "checkpoints.load": {"bytes": _file_bytes},
}
# Counters read after the call (the file exists only once it is written).
POST_COUNTERS = {"container.write": {"bytes": _file_bytes}}


class Tracer:
    """Collects spans while installed; install/uninstall swap the bindings."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.phase = "setup"
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()
        self._peaks: dict[str, float] = {}
        self._peak_stack: list[list[int]] = []
        self._memory = False

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        import importlib

        import skillpack.packs as packs

        for module_path, attr, name in BINDINGS:
            module = importlib.import_module(module_path)
            self._swap(module, attr, self._wrap(getattr(module, attr), name))
        for cls_name in RECONSTRUCT_CLASSES:
            cls = getattr(packs, cls_name)
            self._swap(cls, "reconstruct", self._wrap(cls.reconstruct, "packs.reconstruct"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _swap(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        arg_counters = ARG_COUNTERS.get(name, {})
        post_counters = POST_COUNTERS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._memory:
                return self._call_measuring_peak(fn, name, args, kwargs)
            span = {
                "name": name,
                "phase": self.phase,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans),
                "children_s": 0.0,
            }
            for key, count in arg_counters.items():
                span[key] = count(args)
            self.spans.append(span)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span["start"] = start - self._t0
                span["end"] = end - self._t0
                if self._stack:
                    self._stack[-1]["children_s"] += end - start
                for key, count in post_counters.items():
                    span[key] = count(args)

        return traced

    # -- memory pass --------------------------------------------------------
    def memory_pass(self, body) -> None:
        """Run `body()` under tracemalloc, recording peaks of PEAK_SPANS calls."""
        self._memory = True
        tracemalloc.start()
        try:
            body()
        finally:
            tracemalloc.stop()
            self._memory = False

    def _call_measuring_peak(self, fn, name, args, kwargs):
        if name not in PEAK_SPANS:
            return fn(*args, **kwargs)
        # The peak counter is global: save it for the enclosing measured
        # call, reset it for this one, and fold this call's peak back in.
        current, outer_peak = tracemalloc.get_traced_memory()
        if self._peak_stack:
            self._peak_stack[-1][0] = max(self._peak_stack[-1][0], outer_peak)
        tracemalloc.reset_peak()
        self._peak_stack.append([current])
        try:
            return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            inner_peak = max(self._peak_stack.pop()[0], peak)
            mb = (inner_peak - current) / 2**20
            self._peaks[name] = max(self._peaks.get(name, 0.0), mb)
            if self._peak_stack:
                self._peak_stack[-1][0] = max(self._peak_stack[-1][0], inner_peak)

    # -- results ------------------------------------------------------------
    def per_layer(self, setup_reps: int, traced_rounds: int, overhead_pct: float) -> dict[str, dict]:
        """Per-layer metrics for one set-up plus one round.

        Set-up spans are averaged over the set-up repetitions and round
        spans over the traced rounds; one-off work between them ("prep",
        such as router training) counts once. The parts are added, so a
        layer used in both set-up and rounds reports both costs.
        """
        divisor = {"setup": setup_reps, "prep": 1, "round": traced_rounds}
        totals: dict[str, float] = {}
        for span in self.spans:
            share = 1.0 / divisor[span["phase"]]
            name = span["name"]
            seconds = span["end"] - span["start"]
            for key, value in (
                ("s", seconds),
                ("self_s", seconds - span["children_s"]),
                ("calls", 1),
                *((k, span[k]) for k in ("gflop", "columns", "tokens", "bytes") if k in span),
            ):
                metric = f"{name}.{key}"
                totals[metric] = totals.get(metric, 0.0) + share * value
        metrics = {}
        for metric, unit in PER_LAYER_UNITS.items():
            if metric.endswith(".peak_alloc_mb"):
                value = self._peaks.get(metric[: -len(".peak_alloc_mb")], 0.0)
            elif metric == "trace.overhead_pct":
                value = overhead_pct
            else:
                value = totals.get(metric, 0.0)
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {k: v for k, v in span.items() if k != "children_s"}
                record["workload"] = self.workload
                fh.write(json.dumps(record) + "\n")
