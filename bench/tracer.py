"""Span tracer that wraps agencykit's public functions from outside the package.

The package imports names with ``from x import y``, so a function is looked up
in every module that imported it, not only where it is defined. ``install``
therefore replaces the function object under every ``agencykit.*`` module
attribute that refers to it, and ``uninstall`` puts the originals back.

Spans are kept in memory as ``(name, start, end, parent)`` tuples, where
``parent`` is the index of the enclosing span or -1, and written out once at
the end. A span's self time is its duration minus the part of its interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module that defines the function, function name, span name). The span name
# is the layer metric prefix; run_exhibit spans are named after the exhibit.
TARGETS = (
    ("agencykit.experiments", "run_exhibit", "experiments"),
    ("agencykit.environments", "build_ringworld", "environments.build_ringworld"),
    ("agencykit.viability", "viability_kernel", "viability.viability_kernel"),
    ("agencykit.empowerment", "median_empowerment_on_kernel",
     "empowerment.median_empowerment_on_kernel"),
    ("agencykit.empowerment", "feasible_empowerment", "empowerment.feasible_empowerment"),
    ("agencykit.empowerment", "channel_capacity", "empowerment.channel_capacity"),
    ("agencykit.packaging", "packaging_endomap", "packaging.packaging_endomap"),
    ("agencykit.artifacts", "write_artifact", "artifacts.write_artifact"),
    ("agencykit.artifacts", "audit", "artifacts.audit"),
)

EXHIBIT_NAMES = ("holonomy", "sweep", "ablations", "learning", "packaging", "nulls")

# Every per-layer metric the traced run reports, with its unit. A layer a
# workload never enters reports 0.
LAYER_METRICS = {
    **{f"experiments.{name}.wall_s": "s" for name in EXHIBIT_NAMES},
    "environments.build_ringworld.calls": "count",
    "environments.build_ringworld.distinct_configs": "count",
    "environments.build_ringworld.self_s": "s",
    "viability.viability_kernel.calls": "count",
    "viability.viability_kernel.sweeps": "count",
    "viability.viability_kernel.self_s": "s",
    "empowerment.median_empowerment_on_kernel.self_s": "s",
    "empowerment.feasible_empowerment.self_s": "s",
    "empowerment.channel_capacity.calls": "count",
    "empowerment.channel_capacity.self_s": "s",
    "empowerment.channel_capacity.iterations_total": "count",
    "empowerment.channel_capacity.iterations_max": "count",
    "empowerment.channel_capacity.uncertified": "count",
    "empowerment.channel_capacity.distinct_channels": "count",
    "empowerment.channel_capacity.distinct_channels_cyclic": "count",
    "empowerment.channel_capacity.rows_total": "count",
    "empowerment.channel_capacity.distinct_rows_total": "count",
    "packaging.packaging_endomap.calls": "count",
    "packaging.packaging_endomap.self_s": "s",
    "kernel.probs_bytes_computed": "bytes",
    "kernel.support_nnz": "count",
    "artifacts.write_artifact.self_s": "s",
    "artifacts.audit.self_s": "s",
    "artifacts.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _digest(data: bytes, shape: tuple[int, ...]) -> bytes:
    return hashlib.blake2b(repr(shape).encode() + data, digest_size=16).digest()


def channel_key(w: np.ndarray) -> bytes:
    """Exact identity of a channel matrix: its shape and float bytes."""
    return _digest(np.ascontiguousarray(w).tobytes(), w.shape)


def cyclic_channel_key(w: np.ndarray) -> bytes:
    """Channel identity up to a cyclic shift of the output labels.

    The canonical shift minimises the rotated column sums lexicographically,
    then the rotated matrix bytes among shifts that tie, so every rotation
    of one matrix maps to the same key.
    """
    n = w.shape[1]
    rotations = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    sums = w.sum(axis=0)[rotations]
    first = np.lexsort(sums.T[::-1])[0]
    tied = np.flatnonzero((sums == sums[first]).all(axis=1))
    best = min(np.ascontiguousarray(w[:, rotations[k]]).tobytes() for k in tied)
    return _digest(best, w.shape)


def kernel_arrays(kernel) -> tuple[int, int]:
    """(bytes, nonzero count) of the arrays a kernel object holds."""
    arrays = [v for v in vars(kernel).values() if isinstance(v, np.ndarray)]
    nbytes = sum(a.nbytes for a in arrays)
    nnz = sum(int(np.count_nonzero(a)) for a in arrays if a.dtype.kind == "f")
    return nbytes, nnz


def patch_targets(make_wrapper) -> list[tuple[object, str, object]]:
    """Patch every agencykit module attribute that names a target function.

    ``make_wrapper(fn, span_name)`` returns the replacement. The result lists
    ``(module, attribute, original)`` for ``unpatch``.
    """
    patches = []
    for module_name, attr, span_name in TARGETS:
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            continue
        wrapped = make_wrapper(original, span_name)
        for name, module in list(sys.modules.items()):
            if name != "agencykit" and not name.startswith("agencykit."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    patches.append((module, key, original))
    return patches


def unpatch(patches: list[tuple[object, str, object]]) -> None:
    for module, key, original in reversed(patches):
        setattr(module, key, original)


class Tracer:
    """Records spans and layer counters around patched agencykit functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._configs: set[str] = set()
        self._channels: set[bytes] = set()
        self._channels_cyclic: set[bytes] = set()
        self._kernels = weakref.WeakValueDictionary()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent)
        self._stack.pop()

    def wrap(self, fn, span_name: str):
        signature = inspect.signature(fn)
        observe = getattr(self, "_observe_" + fn.__name__, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            name = span_name
            if fn.__name__ == "run_exhibit":
                name = f"experiments.{bound.arguments['name']}"
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            # counting gets a span of its own, so its cost is not charged to
            # the caller's self time
            index = self.begin("trace.observe")
            try:
                if "k" in bound.arguments:
                    self._see_kernel(bound.arguments["k"])
                if observe is not None:
                    observe(bound.arguments, result)
            finally:
                self.end(index)
            return result

        return traced

    def install(self) -> None:
        self._patches = patch_targets(self.wrap)

    def uninstall(self) -> None:
        unpatch(self._patches)
        self._patches = []

    # Counters taken from the arguments and results of the traced calls; every
    # kernel passed as ``k`` is measured once.

    def _see_kernel(self, kernel) -> None:
        if self._kernels.get(id(kernel)) is kernel:
            return
        self._kernels[id(kernel)] = kernel
        nbytes, nnz = kernel_arrays(kernel)
        c = self.counters
        c["kernel.probs_bytes_computed"] = max(c["kernel.probs_bytes_computed"], nbytes)
        c["kernel.support_nnz"] = max(c["kernel.support_nnz"], nnz)

    def _observe_build_ringworld(self, args, env) -> None:
        self._configs.add(repr(args["cfg"]))
        self.counters["environments.build_ringworld.distinct_configs"] = len(self._configs)
        self._see_kernel(env.kernel)

    def _observe_viability_kernel(self, args, result) -> None:
        self.counters["viability.viability_kernel.sweeps"] += result.iterations

    def _observe_channel_capacity(self, args, result) -> None:
        w = args["w"]
        w = np.asarray(getattr(w, "matrix", w), dtype=np.float64)
        tol = args["tol"]
        prefix = "empowerment.channel_capacity."
        c = self.counters
        c[prefix + "iterations_total"] += result.iterations
        c[prefix + "iterations_max"] = max(c[prefix + "iterations_max"], result.iterations)
        c[prefix + "uncertified"] += result.gap > tol
        c[prefix + "rows_total"] += w.shape[0]
        if w.shape[0]:
            c[prefix + "distinct_rows_total"] += len(np.unique(w, axis=0))
        self._channels.add(channel_key(w))
        c[prefix + "distinct_channels"] = len(self._channels)
        if w.ndim == 2 and w.shape[1]:
            self._channels_cyclic.add(cyclic_channel_key(w))
        c[prefix + "distinct_channels_cyclic"] = len(self._channels_cyclic)

    def _observe_write_artifact(self, args, path) -> None:
        self.counters["artifacts.bytes_written"] += os.path.getsize(path)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, from the recorded spans."""
        out = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_s"}
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        wall_s: dict[str, float] = defaultdict(float)
        # wall time excludes the tracer's own counting inside the span;
        # parents come before their children, so a reverse walk sums subtrees
        observed = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            if name == "trace.observe":
                observed[i] = end - start
            if parent >= 0:
                observed[parent] += observed[i]
        for (name, start, end, _), own, obs in zip(
            self.spans, self_times(self.spans), observed
        ):
            calls[name] += 1
            self_s[name] += own
            wall_s[name] += end - start - obs
        for name in calls:
            for field, table in (("calls", calls), ("self_s", self_s), ("wall_s", wall_s)):
                key = f"{name}.{field}"
                if key in out:
                    out[key] = float(table[name])
        for key, value in self.counters.items():
            out[key] = float(value)
        return out

    def write_spans(self, path: str | Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]
        Path(path).write_text(json.dumps(rows), encoding="utf-8")

