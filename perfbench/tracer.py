"""Span recording from outside the program, and per-layer metrics.

The tracer wraps hodgekit functions under the names each caller module
sees them by (``hodgekit.homology.boundary_matrix``, ``hodgekit.cli.
betti_checked``, ...), and class attributes such as
``SparseMatrix.from_entries``.  Each call inside a request records a span:
request id, span id, parent span id, name, start, end and operand sizes.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children; the request's own
span is named ``cli.overhead``, so its self time is what no wrapped layer
accounts for.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# Span name for each wrapped function, as "module:qualname".  Several
# functions may share a name; their self times add up.
TARGETS = {
    "hodgekit.complex:build_complex": "complex.build",
    "hodgekit.chains:boundary_matrix": "chains.boundary",
    "hodgekit.chains:SparseMatrix.from_entries": "chains.from_entries",
    "hodgekit.chains:SparseMatrix.from_dense": "chains.from_entries",
    "hodgekit.chains:SparseMatrix.toarray": "chains.toarray",
    "hodgekit.chains:compose": "chains.compose",
    "hodgekit.chains:apply": "chains.apply",
    "hodgekit.chains:add": "chains.add",
    "hodgekit.chains:transpose": "chains.transpose",
    "hodgekit.homology:rank_gf2": "homology.rank_gf2",
    "hodgekit.homology:rank_real": "homology.rank_real",
    "hodgekit.homology:betti": "homology.betti",
    "hodgekit.homology:betti_checked": "homology.betti",
    "hodgekit.hodge:hodge_laplacian": "hodge.laplacian",
    "hodgekit.hodge:adjoint_boundary": "hodge.adjoint",
    "hodgekit.hodge:hodge_decompose": "hodge.decompose",
    "hodgekit.hodge:symmetrized": "hodge.symmetrized",
    "hodgekit.spectral:eigendecompose": "spectral.eigendecompose",
    "hodgekit.spectral:sft": "spectral.sft",
    "hodgekit.spectral:inverse_sft": "spectral.sft",
    "hodgekit.spectral:compare_spectra": "spectral.compare",
    "hodgekit.filters:build_filter": "filters.build",
    "hodgekit.filters:apply_filter": "filters.apply",
    "hodgekit.sheaf:Sheaf.__init__": "sheaf.construct",
    "hodgekit.sheaf:sheaf_coboundary": "sheaf.coboundary",
    "hodgekit.sheaf:sheaf_cohomology_dims": "sheaf.cohomology",
    "hodgekit.sheaf:sheaf_laplacian": "sheaf.laplacian",
    "hodgekit.sheaf:check_consistency": "sheaf.check",
    "hodgekit.io:load_json": "io.parse",
    "hodgekit.io:parse_complex": "io.parse",
    "hodgekit.io:parse_signal": "io.parse",
    "hodgekit.io:parse_filter": "io.parse",
    "hodgekit.io:parse_weights": "io.parse",
    "hodgekit.io:parse_sheaf": "io.parse",
    "hodgekit.io:parse_assignment": "io.parse",
    "hodgekit.io:matrix_to_csv": "io.emit",
    "hodgekit.cli:_emit": "io.emit",
    "hodgekit.cli:_emit_json": "io.emit",
}
ROOT_SPAN = "cli.overhead"


def _sizes_toarray(args, kwargs, result):
    m = args[0]
    return {"nnz": m.nnz, "cells": m.rows * m.cols}


# Operand sizes recorded by some spans: fn(args, kwargs, result) -> dict.
SIZERS = {
    "hodgekit.complex:build_complex": lambda a, k, r: {"simplices": len(r)},
    "hodgekit.chains:SparseMatrix.toarray": _sizes_toarray,
    "hodgekit.hodge:hodge_laplacian": lambda a, k, r: {"nnz": r.full.nnz},
    "hodgekit.sheaf:Sheaf.__init__": lambda a, k, r: {"stalks": sum(a[2].values())},
    "hodgekit.io:load_json": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "hodgekit.cli:_emit": lambda a, k, r: {"bytes": len(a[0])},
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []  # (request, span, parent, name, t0, t1, sizes)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, sizer):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1]
            self._stack.append(span)
            result = failed = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                sizes = sizer(args, kwargs, result) if sizer and failed is None else None
                self.spans.append((self._request, span, parent, name, t0, t1, sizes))

        return traced

    def install(self) -> None:
        """Wrap every target under every name a hodgekit module binds it to."""
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "hodgekit" or n.startswith("hodgekit.")) and m is not None]
        for target, name in TARGETS.items():
            modname, _, qualname = target.partition(":")
            owner = sys.modules.get(modname)
            path = qualname.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(path[-1]) if owner is not None else None
            if raw is None:
                self.missing.append(target)
                continue
            sizer = SIZERS.get(target)
            if len(path) > 1:  # class attribute: patch it once on the class
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, sizer))
                else:
                    wrapped = self._wrap(raw, name, sizer)
                self._patch(owner, path[-1], raw, wrapped)
                continue
            wrapped = self._wrap(raw, name, sizer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, attr, raw, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def request(self, index: int, call):
        """Run call() as request `index` under a root span; return its result."""
        self._request = index
        span = self._next_span
        self._next_span += 1
        self._stack.append(span)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((index, span, None, ROOT_SPAN, t0, t1, None))


def self_times(spans) -> tuple[dict, list[str]]:
    """Per-span self time, and the problems found checking span nesting.

    Each child must lie inside its parent, each self time must be
    non-negative, and per request the self times must add up to the
    root span's duration.
    """
    by_id = {s[1]: s for s in spans}
    child_time = defaultdict(float)
    problems = []
    for req, _, parent, name, t0, t1, _ in spans:
        if parent is None:
            continue
        p = by_id.get(parent)
        if p is None or p[0] != req or t0 < p[4] or t1 > p[5]:
            problems.append(f"span {name} of request {req} is outside its parent")
        child_time[parent] += t1 - t0
    selfs = {s[1]: (s[5] - s[4]) - child_time[s[1]] for s in spans}
    total = defaultdict(float)
    latency = {}
    for s in spans:
        total[s[0]] += selfs[s[1]]
        if s[2] is None:
            latency[s[0]] = s[5] - s[4]
        if selfs[s[1]] < -1e-9:
            problems.append(f"span {s[3]} of request {s[0]} has negative self time")
    for req, lat in latency.items():
        if abs(total[req] - lat) > 1e-9 + 1e-9 * lat:
            problems.append(f"self times of request {req} sum to {total[req]}, not {lat}")
    return selfs, problems


# Per-layer metrics: name -> (unit, how to compute it from the aggregates).
SELF_TIME_LAYERS = (
    "homology.rank_gf2", "homology.rank_real", "homology.betti",
    "chains.boundary", "chains.from_entries", "chains.compose", "chains.toarray",
    "chains.apply", "chains.add", "chains.transpose",
    "complex.build",
    "hodge.laplacian", "hodge.adjoint", "hodge.decompose", "hodge.symmetrized",
    "spectral.eigendecompose", "spectral.sft", "spectral.compare",
    "filters.build", "filters.apply",
    "sheaf.construct", "sheaf.coboundary", "sheaf.cohomology", "sheaf.laplacian",
    "sheaf.check",
    "io.parse", "io.emit", ROOT_SPAN,
)
COUNTS = {
    # metric: (unit, span name or names, size key or None for a call count)
    "homology.rank.calls": ("count", ("homology.rank_gf2", "homology.rank_real"), None),
    "hodge.laplacian.calls": ("count", ("hodge.laplacian",), None),
    "hodge.laplacian.nnz": ("count", ("hodge.laplacian",), "nnz"),
    "chains.nnz": ("count", ("chains.toarray",), "nnz"),
    "chains.dense_cells": ("count", ("chains.toarray",), "cells"),
    "complex.simplices": ("count", ("complex.build",), "simplices"),
    "sheaf.stalk_total": ("count", ("sheaf.construct",), "stalks"),
    "io.bytes_in": ("B", ("io.parse",), "bytes"),
    "io.bytes_out": ("B", ("io.emit",), "bytes"),
}


def layer_units() -> dict[str, str]:
    units = {f"{name}.self_s": "s" for name in SELF_TIME_LAYERS}
    units.update({name: unit for name, (unit, _, _) in COUNTS.items()})
    units["chains.density"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_metrics(spans, selfs: dict, requests: int) -> dict[str, float]:
    """Mean per traced request of every self time, count and size."""
    self_sum = defaultdict(float)
    calls = defaultdict(int)
    sizes = defaultdict(float)
    for s in spans:
        self_sum[s[3]] += selfs[s[1]]
        calls[s[3]] += 1
        for key, value in (s[6] or {}).items():
            sizes[(s[3], key)] += value
    out = {f"{name}.self_s": self_sum[name] / requests for name in SELF_TIME_LAYERS}
    for metric, (_, names, key) in COUNTS.items():
        total = sum(calls[n] if key is None else sizes[(n, key)] for n in names)
        out[metric] = total / requests
    cells = out["chains.dense_cells"]
    out["chains.density"] = out["chains.nnz"] / cells if cells else 1.0
    return out
