"""Shared fixture complexes and sheaf builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hodgekit import Simplex, SimplicialComplex, build_complex
from hodgekit import generators as gen
from hodgekit.sheaf import Sheaf


def fraction_rank(matrix) -> int:
    """Exact rational rank of an integer matrix, by Gaussian elimination over Fractions."""
    a = np.asarray(matrix, dtype=int)
    rows = [[Fraction(int(v)) for v in row] for row in a]
    rank = 0
    for col in range(a.shape[1]):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def tetra_boundary_tops() -> list[list[int]]:
    return [list(f.vertices) for f in Simplex((0, 1, 2, 3)).faces()]


# Name -> top simplices for every complex the property suites sweep over.
CORPUS_TOPS: dict[str, list[list[int]]] = {
    "vertex": [[0]],
    "six-isolated": [[v] for v in range(6)],
    "path4": gen.path(4),
    "tree5": [[0, 1], [1, 2], [1, 3], [3, 4]],
    "star4": [[0, 1], [0, 2], [0, 3]],
    "hollow-triangle": gen.cycle(3),
    "filled-triangle": [[0, 1, 2]],
    "two-shared-edge": [[0, 1, 2], [1, 2, 3]],
    "two-disjoint-triangles": [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]],
    "cycle8": gen.cycle(8),
    "crosslinked-12-3": gen.crosslinked_cycle(12, 3, seed=7),
    "tetra": [[0, 1, 2, 3]],
    "tetra-boundary": tetra_boundary_tops(),
    "sphere2": gen.sphere2(),
    "torus7": gen.torus(),
    "sparse-labels": [[2, 10], [10, 40], [2, 40], [55]],
}

CORPUS: dict[str, SimplicialComplex] = {
    name: build_complex(tops) for name, tops in CORPUS_TOPS.items()
}


def klein_bottle_tops() -> list[list[int]]:
    """4x4 grid with opposite sides glued, one pair with a flip: counts [16, 48, 32]."""

    def vertex(i: int, j: int) -> int:
        return i % 4 + 4 * j if j < 4 else -i % 4

    tops = []
    for j in range(4):
        for i in range(4):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i, j + 1), vertex(i + 1, j + 1)
            tops += [[a, b, d], [a, c, d]]
    return tops


# Complexes with 2-torsion in integral homology, so the two fields disagree:
# name -> (top simplices, GF(2) Betti, rational Betti).  Kept out of CORPUS,
# whose tests assert that the fields agree.
TORSION: dict[str, tuple[list[list[int]], list[int], list[int]]] = {
    "rp2": (
        [[0, 1, 3], [0, 1, 5], [0, 2, 4], [0, 2, 5], [0, 3, 4],
         [1, 2, 3], [1, 2, 4], [1, 4, 5], [2, 3, 5], [3, 4, 5]],
        [1, 1, 1],
        [1, 0, 0],
    ),
    "klein4x4": (klein_bottle_tops(), [1, 2, 1], [1, 1, 0]),
}


@pytest.fixture(params=sorted(CORPUS), ids=sorted(CORPUS))
def corpus_complex(request) -> SimplicialComplex:
    return CORPUS[request.param]


def random_complex(rng: np.random.Generator, n_vertices: int = 7) -> SimplicialComplex:
    """Random complex of dimension at most 3 covering all vertices."""
    tops: list[list[int]] = [[v] for v in range(n_vertices)]
    for _ in range(int(rng.integers(3, 8))):
        size = int(rng.integers(2, 5))
        verts = rng.choice(n_vertices, size=size, replace=False)
        tops.append(sorted(int(v) for v in verts))
    return build_complex(tops)


def random_clique_complex(
    rng: np.random.Generator, n_vertices: int, p: float, max_dim: int = 3
) -> SimplicialComplex:
    """Clique (flag) complex of a G(n, p) graph, cliques up to max_dim + 1 vertices."""
    adjacent = np.triu(rng.random((n_vertices, n_vertices)) < p, 1)
    adjacent |= adjacent.T
    cliques = [[v] for v in range(n_vertices)]
    frontier = cliques
    for _ in range(max_dim):
        frontier = [
            s + [v] for s in frontier for v in range(s[-1] + 1, n_vertices)
            if all(adjacent[u, v] for u in s)
        ]
        cliques += frontier
    return build_complex(cliques)


LEFT_SHIFT = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
DROP_LAST = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def shift_register_sheaf() -> tuple[SimplicialComplex, Sheaf]:
    """Line complex 0-1-2 with length-3 windows on vertices, overlaps on edges."""
    line = build_complex([[0, 1], [1, 2]])
    stalks = {(0,): 3, (1,): 3, (2,): 3, (0, 1): 2, (1, 2): 2}
    maps = {
        ((0,), (0, 1)): LEFT_SHIFT,
        ((1,), (0, 1)): DROP_LAST,
        ((1,), (1, 2)): LEFT_SHIFT,
        ((2,), (1, 2)): DROP_LAST,
    }
    return line, Sheaf(line, stalks, maps)


def gauge_sheaf(c: SimplicialComplex, seed: int = 0) -> Sheaf:
    """Rank-1 sheaf with restriction scalars g(coface)/g(face).

    Compositions telescope, so it commutes by construction; it is
    conjugate to the constant sheaf and shares its cohomology.
    """
    rng = np.random.default_rng(seed)
    g = {}
    stalks = {}
    for n in range(c.max_dim + 1):
        for s in c.simplices(n):
            g[s] = float(rng.uniform(0.5, 2.0))
            stalks[s] = 1
    maps = {}
    for n in range(1, c.max_dim + 1):
        for coface in c.simplices(n):
            for face in coface.faces():
                maps[(face, coface)] = np.array([[g[coface] / g[face]]])
    return Sheaf(c, stalks, maps)
