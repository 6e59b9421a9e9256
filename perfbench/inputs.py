"""Seeded inputs, reference answers and request plans for each workload.

Everything here is the benchmark's own work: it runs before timing starts
and never imports hodgekit.  A plan is a list of requests; each request is
either a CLI argv (run as ``hodgekit.cli.main(argv)``) or one library call,
plus the check its output must pass.  The program only ever sees the files
written here.

Random complexes are 2-dimensional flag (clique) complexes in the Kahle
model (Kahle 2009, "Topology of random clique complexes").  A new seed
must change the structure but not the problem size, so that timings from
different seeds are comparable: the graph has exactly M = round(p*C(n,2))
edges, and graphs are redrawn until the triangle count is within 1% of
its expectation C(n,3)*p^3.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

import numpy as np

WORKLOADS = ("homology", "signal", "sheaf", "cli-small")
SIZES = ("full", "tiny")

# (n, p) per complex.  "full" is the measured size; "tiny" keeps every
# request and check but runs in milliseconds, for the self-tests.
HOMOLOGY_POOL = {
    "full": [(120, 0.12), (124, 0.12), (128, 0.12), (132, 0.12)],
    "tiny": [(12, 0.4), (14, 0.4)],
}
SIGNAL_COMPLEX = {"full": (100, 0.15), "tiny": (12, 0.4)}
SIGNAL_GRAPH = {"full": (100, 0.15), "tiny": (12, 0.3)}
SHEAF_POOL = {"full": [(58, 0.2), (62, 0.2)], "tiny": [(8, 0.5)]}
STALK_DIM = 3


class Complex:
    """Simplices of a complex in hodgekit's canonical order, with counts."""

    def __init__(self, n_vertices: int, edges, triangles=()):
        self.vertices = list(range(n_vertices))
        self.edges = sorted(tuple(e) for e in edges)
        self.triangles = sorted(tuple(t) for t in triangles)

    @property
    def counts(self) -> list[int]:
        out = [len(self.vertices), len(self.edges)]
        if self.triangles:
            out.append(len(self.triangles))
        return out

    def euler(self) -> int:
        return sum((-1) ** i * k for i, k in enumerate(self.counts))

    def top_simplices(self) -> list[list[int]]:
        covered_e = {f for t in self.triangles for f in combinations(t, 2)}
        covered_v = {v for e in self.edges for v in e}
        tops = [list(t) for t in self.triangles]
        tops += [list(e) for e in self.edges if e not in covered_e]
        tops += [[v] for v in self.vertices if v not in covered_v]
        return tops

    def components(self) -> int:
        parent = list(self.vertices)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            parent[find(a)] = find(b)
        return len({find(v) for v in self.vertices})

    def boundaries(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense real d1 (V x E) and d2 (E x T) with hodgekit's signs."""
        e_index = {e: i for i, e in enumerate(self.edges)}
        d1 = np.zeros((len(self.vertices), len(self.edges)))
        for j, (a, b) in enumerate(self.edges):
            d1[b, j] += 1.0
            d1[a, j] -= 1.0
        d2 = np.zeros((len(self.edges), len(self.triangles)))
        for j, (a, b, c) in enumerate(self.triangles):
            d2[e_index[(b, c)], j] += 1.0
            d2[e_index[(a, c)], j] -= 1.0
            d2[e_index[(a, b)], j] += 1.0
        return d1, d2

    def real_betti(self) -> list[int]:
        d1, d2 = self.boundaries()
        r1 = int(np.linalg.matrix_rank(d1)) if d1.size else 0
        r2 = int(np.linalg.matrix_rank(d2)) if d2.size else 0
        out = [len(self.vertices) - r1, len(self.edges) - r1 - r2]
        if self.triangles:
            out.append(len(self.triangles) - r2)
        return out


def kahle(n: int, p: float, rng: np.random.Generator, max_dim: int = 2) -> Complex:
    """Flag complex of a random graph with round(p*C(n,2)) edges.

    With max_dim 2 the triangle count is held within 1% of C(n,3)*p^3.
    """
    pairs = list(combinations(range(n), 2))
    m = round(p * len(pairs))
    want = len(pairs) * (n - 2) / 3 * p**3
    while True:
        edges = [pairs[i] for i in rng.choice(len(pairs), size=m, replace=False)]
        if max_dim < 2:
            return Complex(n, edges)
        nbrs = [set() for _ in range(n)]
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        triangles = [(a, b, c) for a, b in edges for c in nbrs[a] & nbrs[b] if c > b]
        if abs(len(triangles) - want) <= max(1.0, 0.01 * want):
            return Complex(n, edges, triangles)


def torus7() -> Complex:
    tris = {tuple(sorted((i % 7, (i + 1) % 7, (i + 3) % 7))) for i in range(7)}
    tris |= {tuple(sorted((i % 7, (i + 2) % 7, (i + 3) % 7))) for i in range(7)}
    return _from_triangles(7, tris)


def sphere2() -> Complex:
    equator = [1, 2, 3, 4]
    tris = {
        tuple(sorted((pole, equator[i], equator[(i + 1) % 4])))
        for pole in (0, 5)
        for i in range(4)
    }
    return _from_triangles(6, tris)


def rp2() -> Complex:
    """The 6-vertex real projective plane: GF(2) Betti [1,1,1], real [1,0,0]."""
    tris = [(0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
            (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]
    return _from_triangles(6, tris)


def _from_triangles(n: int, tris) -> Complex:
    edges = {f for t in tris for f in combinations(sorted(t), 2)}
    return Complex(n, edges, tris)


def orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class Writer:
    """Writes input and reference files into one directory."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def json(self, name: str, obj) -> str:
        path = self.root / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    def complex(self, name: str, cx: Complex) -> str:
        return self.json(name, {"top_simplices": cx.top_simplices()})


def _betti_request(w: Writer, name: str, cx: Complex, exact=None, extra=(), defect=None):
    return {
        "name": name,
        "argv": ["betti", w.complex(f"{name}.json", cx), *extra],
        "check": {"kind": "betti", "euler": cx.euler(), "components": cx.components(),
                  "length": len(cx.counts), "exact": exact},
        "known_defect": defect,
    }


def _signal_requests(w: Writer, tag: str, cx: Complex, rng: np.random.Generator):
    """decompose, spectrum, sft and filter on one complex's edge signals."""
    cpath = w.complex(f"{tag}.json", cx)
    x = rng.standard_normal(len(cx.edges))
    spath = w.json(f"{tag}_signal.json", {"dim": 1, "values": x.tolist()})
    alpha0 = float(rng.uniform(0.5, 1.0))
    down = [float(rng.standard_normal() * 10.0 ** -j) for j in range(1, 4)]
    up = [float(rng.standard_normal() * 10.0 ** -j) for j in range(1, 4)]
    fpath = w.json(f"{tag}_filter.json", {"dim": 1, "alpha0": alpha0, "down": down, "up": up})
    d1, d2 = cx.boundaries()
    l_down, l_up = d1.T @ d1, d2 @ d2.T
    y = alpha0 * x
    for base, coeffs in ((l_down, down), (l_up, up)):
        power = x
        for coeff in coeffs:
            power = base @ power
            y = y + coeff * power
    ypath = w.json(f"{tag}_filter_expected.json", y.tolist())
    e, t = len(cx.edges), len(cx.triangles)
    norm = float(np.linalg.norm(x))
    return [
        {"name": f"decompose:{tag}", "argv": ["decompose", cpath, spath, "--dim", "1"],
         "check": {"kind": "decompose", "signal": spath}},
        {"name": f"spectrum:{tag}", "argv": ["spectrum", cpath, "--dim", "1"],
         "check": {"kind": "spectrum", "count": e, "trace": 2 * e + 3 * t}},
        {"name": f"sft:{tag}", "argv": ["sft", cpath, spath, "--dim", "1"],
         "check": {"kind": "norm", "count": e, "norm": norm}},
        {"name": f"filter:{tag}", "argv": ["filter", cpath, spath, fpath],
         "check": {"kind": "filter", "expected": ypath}},
    ]


def _graph_request(w: Writer, tag: str, g: Complex):
    b0 = g.components()
    b1 = len(g.edges) - len(g.vertices) + b0
    return {"name": f"spectra-compare:{tag}",
            "argv": ["spectra-compare", w.complex(f"{tag}.json", g)],
            "check": {"kind": "spectra_compare", "b0_minus_b1": b0 - b1}}


def _sheaf_requests(w: Writer, tag: str, cx: Complex, rng: np.random.Generator,
                    library: bool = True):
    """Gauge O(k) sheaf: restriction for face s of t is g_t g_s^T.

    It is isomorphic to the constant sheaf R^k, so its cohomology is k times
    the real Betti numbers, and x_s = g_s c is a global section.
    """
    k = STALK_DIM
    simplices = [(v,) for v in cx.vertices] + cx.edges + cx.triangles
    gauge = {s: orthogonal(k, rng) for s in simplices}
    restrictions = []
    for tau in cx.edges + cx.triangles:
        for i in range(len(tau)):
            sigma = tau[:i] + tau[i + 1:]
            restrictions.append({"face": list(sigma), "coface": list(tau),
                                 "matrix": (gauge[tau] @ gauge[sigma].T).tolist()})
    stalks = {json.dumps(list(s)): k for s in simplices}
    cpath = w.complex(f"{tag}.json", cx)
    shpath = w.json(f"{tag}_sheaf.json", {"stalks": stalks, "restrictions": restrictions})
    c = rng.standard_normal(k)
    good = [(gauge[(v,)] @ c).tolist() for v in cx.vertices]
    bad = [list(b) for b in good]
    touched = cx.edges[int(rng.integers(len(cx.edges)))][0]
    bad[touched] = (np.array(bad[touched]) + 0.1 * rng.standard_normal(k)).tolist()
    gpath = w.json(f"{tag}_global.json", {"dim": 0, "blocks": good})
    bpath = w.json(f"{tag}_perturbed.json", {"dim": 0, "blocks": bad})
    e, t = len(cx.edges), len(cx.triangles)
    out = [
        {"name": f"sheaf-cohomology:{tag}", "argv": ["sheaf-cohomology", cpath, shpath],
         "check": {"kind": "sheaf_cohomology", "dims": [k * b for b in cx.real_betti()]}},
        {"name": f"sheaf-check-global:{tag}", "argv": ["sheaf-check", cpath, shpath, gpath],
         "check": {"kind": "sheaf_check", "consistent": True}},
        {"name": f"sheaf-check-perturbed:{tag}", "argv": ["sheaf-check", cpath, shpath, bpath],
         "check": {"kind": "sheaf_check", "consistent": False}},
    ]
    if library:
        out.append({"name": f"sheaf_laplacian:{tag}",
                    "library": {"call": "sheaf_laplacian", "complex": cpath,
                                "sheaf": shpath, "dim": 1},
                    "check": {"kind": "laplacian_trace", "trace": k * (2 * e + 3 * t)}})
    return out


def _homology(w: Writer, size: str, rng: np.random.Generator):
    return [_betti_request(w, f"betti:kahle{i}", kahle(n, p, rng))
            for i, (n, p) in enumerate(HOMOLOGY_POOL[size])]


def _signal(w: Writer, size: str, rng: np.random.Generator):
    out = _signal_requests(w, "kahle", kahle(*SIGNAL_COMPLEX[size], rng), rng)
    out.append(_graph_request(w, "gnm", kahle(*SIGNAL_GRAPH[size], rng, max_dim=1)))
    return out


def _sheaf(w: Writer, size: str, rng: np.random.Generator):
    out = []
    for i, (n, p) in enumerate(SHEAF_POOL[size]):
        out += _sheaf_requests(w, f"gauge{i}", kahle(n, p, rng), rng)
    return out


def _cli_small(w: Writer, size: str, rng: np.random.Generator):
    """Every subcommand on fixture-size inputs (at most about 40 edges)."""
    seed = int(rng.integers(2**31))
    torus, sphere, proj = torus7(), sphere2(), rp2()
    small = kahle(9, 0.5, rng)
    out = [
        {"name": "generate:torus", "argv": ["generate", "torus"],
         "check": {"kind": "generate", "tops": torus.top_simplices()}},
        {"name": "generate:random-graph",
         "argv": ["generate", "random-graph", "--n", "12", "--p", "0.3", "--seed", str(seed)],
         "check": {"kind": "graph", "n": 12, "cycle": 0, "edges": None}},
        {"name": "generate:crosslinked-cycle",
         "argv": ["generate", "crosslinked-cycle", "--n", "10", "--k", "3", "--seed", str(seed)],
         "check": {"kind": "graph", "n": 10, "cycle": 10, "edges": 13}},
        _betti_request(w, "betti:torus7", torus, exact=[1, 2, 1]),
        _betti_request(w, "betti:sphere2", sphere, exact=[1, 0, 1],
                       extra=["--dump-matrix", str(w.root / "dump_")]),
        # GF(2) is the default field, and RP^2 has GF(2) Betti [1, 1, 1].
        _betti_request(w, "betti:rp2", proj, exact=[1, 1, 1],
                       defect="betti exits 3 on the 2-torsion of RP^2"),
        _betti_request(w, "betti:kahle9", small),
    ]
    tpath = w.complex("torus7.json", torus)
    d1, d2 = torus.boundaries()
    lpath = w.json("torus7_l1.json", (d1.T @ d1 + d2 @ d2.T).tolist())
    labels = ["-".join(map(str, e)) for e in torus.edges]
    out.append({"name": "laplacian:torus7", "argv": ["laplacian", tpath, "--dim", "1"],
                "check": {"kind": "laplacian_csv", "expected": lpath, "labels": labels}})
    out.append({"name": "spectrum:sphere2",
                "argv": ["spectrum", w.complex("sphere2.json", sphere), "--dim", "1"],
                "check": {"kind": "spectrum", "count": len(sphere.edges),
                          "trace": 2 * len(sphere.edges) + 3 * len(sphere.triangles)}})
    x = rng.standard_normal(len(torus.edges))
    xpath = w.json("torus7_signal.json", {"dim": 1, "values": x.tolist()})
    norm = float(np.linalg.norm(x))
    for extra in ([], ["--inverse"]):
        out.append({"name": "sft:torus7" + "".join(extra),
                    "argv": ["sft", tpath, xpath, "--dim", "1", *extra],
                    "check": {"kind": "norm", "count": len(torus.edges), "norm": norm}})
    sig = _signal_requests(w, "kahle9", small, rng)
    out.append(sig[0])
    nan_values = rng.standard_normal(len(small.edges)).tolist()
    nan_values[int(rng.integers(len(nan_values)))] = float("nan")
    npath = w.json("kahle9_nan_signal.json", {"dim": 1, "values": nan_values})
    out.append({"name": "decompose:nan", "argv": ["decompose", sig[0]["argv"][1], npath, "--dim", "1"],
                "check": {"kind": "exit", "code": 2},
                "known_defect": "decompose exits 0 on a NaN signal and prints NaN"})
    out.append(sig[3])
    out.append(_graph_request(w, "gnm10", kahle(10, 0.3, rng, max_dim=1)))
    out += _sheaf_requests(w, "gauge_sphere2", sphere, rng, library=False)
    return out


BUILDERS = {"homology": _homology, "signal": _signal, "sheaf": _sheaf, "cli-small": _cli_small}


def build_plan(workload: str, seed: int, size: str, root: Path) -> list[dict]:
    """Write the workload's inputs under root and return its request mix."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan = BUILDERS[workload](Writer(root), size, rng)
    for req in plan:
        req.setdefault("known_defect", None)
    return plan
