"""Known-answer checks applied to every request's output.

Each check is cheap next to the request, or compares against a reference
written before timing started.  A check returns None when the output is
right and a short reason when it is not.  JSON output must be strict: the
non-standard tokens NaN and Infinity fail it.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Checker:
    """Checks outputs against a request's check spec; caches reference files."""

    def __init__(self):
        self._files: dict[str, object] = {}

    def _load(self, path: str):
        if path not in self._files:
            with open(path, encoding="utf-8") as fh:
                self._files[path] = json.load(fh)
        return self._files[path]

    def check(self, spec: dict, code: int | None, stdout: str, value=None) -> str | None:
        """Return None if the output matches spec, else why it does not."""
        kind = spec["kind"]
        if kind == "laplacian_trace":
            return self._laplacian_trace(spec, value)
        want = spec.get("code", 0) if kind == "exit" else 0
        if code != want:
            return f"exit code {code}, expected {want}"
        if kind == "exit":
            return None
        if kind in ("spectrum", "laplacian_csv"):
            try:
                rows = list(csv.reader(io.StringIO(stdout)))
            except csv.Error as exc:
                return f"bad CSV: {exc}"
            return getattr(self, "_" + kind)(spec, rows)
        try:
            obj = strict_json(stdout)
        except ValueError as exc:
            return f"stdout is not strict JSON: {exc}"
        return getattr(self, "_" + kind)(spec, obj)

    def _betti(self, spec, obj):
        b = obj.get("betti")
        if not isinstance(b, list) or len(b) != spec["length"]:
            return f"betti {b!r} has the wrong shape"
        if spec["exact"] is not None and b != spec["exact"]:
            return f"betti {b}, expected {spec['exact']}"
        if sum((-1) ** i * v for i, v in enumerate(b)) != spec["euler"]:
            return f"alternating sum of {b} != Euler characteristic {spec['euler']}"
        if b[0] != spec["components"]:
            return f"b0 {b[0]} != {spec['components']} components"
        return None

    def _decompose(self, spec, obj):
        x = np.array(self._load(spec["signal"])["values"])
        parts = [np.array(obj[k]) for k in ("irrot", "harmonic", "solenoid")]
        scale = float(x @ x)
        if any(p.shape != x.shape for p in parts):
            return "part lengths differ from the signal"
        if np.linalg.norm(sum(parts) - x) > 1e-8 * max(scale, 1.0) ** 0.5:
            return "parts do not sum to the signal"
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(float(parts[i] @ parts[j])) > 1e-7 * max(scale, 1.0):
                    return "parts are not orthogonal"
        return None

    def _spectrum(self, spec, rows):
        if not rows or rows[0] != ["eigenvalue"]:
            return "missing eigenvalue header"
        try:
            ev = np.array([float(r[0]) for r in rows[1:]])
        except (ValueError, IndexError) as exc:
            return f"bad eigenvalue row: {exc}"
        if len(ev) != spec["count"] or not np.all(np.isfinite(ev)):
            return f"{len(ev)} eigenvalues, expected {spec['count']} finite ones"
        if not _close(float(ev.sum()), spec["trace"], 1e-8):
            return f"eigenvalues sum to {ev.sum()}, trace is {spec['trace']}"
        if ev.min() < -1e-8 * max(ev.max(), 1.0):
            return f"negative eigenvalue {ev.min()}"
        return None

    def _norm(self, spec, obj):
        v = np.array(obj["values"])
        if len(v) != spec["count"]:
            return f"{len(v)} coefficients, expected {spec['count']}"
        if not _close(float(np.linalg.norm(v)), spec["norm"], 1e-9):
            return "the transform does not preserve the norm"
        return None

    def _filter(self, spec, obj):
        want = np.array(self._load(spec["expected"]))
        got = np.array(obj["values"])
        if got.shape != want.shape:
            return f"{len(got)} values, expected {len(want)}"
        if np.linalg.norm(got - want) > 1e-9 * max(np.linalg.norm(want), 1.0):
            return "filter output differs from the reference"
        return None

    def _spectra_compare(self, spec, obj):
        if obj["agree"] is not True:
            return "spectra do not agree"
        if obj["zero_mult_diff"] != obj["b0_minus_b1"] or obj["b0_minus_b1"] != spec["b0_minus_b1"]:
            return (f"zero_mult_diff {obj['zero_mult_diff']}, b0_minus_b1 "
                    f"{obj['b0_minus_b1']}, expected {spec['b0_minus_b1']}")
        return None

    def _sheaf_cohomology(self, spec, obj):
        if obj["cohomology_dims"] != spec["dims"]:
            return f"cohomology {obj['cohomology_dims']}, expected {spec['dims']}"
        return None

    def _sheaf_check(self, spec, obj):
        if obj["consistent"] is not spec["consistent"]:
            return f"consistent is {obj['consistent']}, expected {spec['consistent']}"
        return None

    def _laplacian_csv(self, spec, rows):
        want = np.array(self._load(spec["expected"]))
        labels = spec["labels"]
        if not rows or rows[0] != [""] + labels or [r[0] for r in rows[1:]] != labels:
            return "row or column labels differ"
        try:
            got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        except ValueError as exc:
            return f"bad matrix entry: {exc}"
        if got.shape != want.shape or not np.allclose(got, want, rtol=0, atol=1e-12):
            return "Laplacian differs from the reference"
        return None

    def _generate(self, spec, obj):
        got = sorted(sorted(t) for t in obj["top_simplices"])
        if got != sorted(sorted(t) for t in spec["tops"]):
            return "generated complex differs from the fixture"
        return None

    def _graph(self, spec, obj):
        tops = obj["top_simplices"]
        n = spec["n"]
        edges = [tuple(t) for t in tops if len(t) == 2]
        vertices = {v for t in tops for v in t}
        if vertices != set(range(n)) or any(len(t) not in (1, 2) for t in tops):
            return "generated graph does not span 0..n-1 with vertices and edges"
        if len(set(edges)) != len(edges) or any(a >= b for a, b in edges):
            return "generated graph repeats or misorders an edge"
        if spec["edges"] is not None and len(edges) != spec["edges"]:
            return f"{len(edges)} edges, expected {spec['edges']}"
        cycle = {tuple(sorted((i, (i + 1) % n))) for i in range(spec["cycle"])}
        if not cycle <= set(edges):
            return "generated graph lacks its cycle"
        return None

    def _laplacian_trace(self, spec, ops):
        got = float(sum(v for (r, c), v in ops.full.entries.items() if r == c))
        if not _close(got, spec["trace"], 1e-9):
            return f"Laplacian trace {got}, expected {spec['trace']}"
        return None
