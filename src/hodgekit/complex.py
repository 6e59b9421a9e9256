"""Abstract simplicial complexes with canonical ordering and face navigation.

A complex is built once from its top simplices, closed downward, and then
immutable.  All matrices produced elsewhere in the package index simplices
by the canonical order fixed here: within each dimension, simplices are
sorted lexicographically by their ascending vertex tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .chains import Field, SparseMatrix
from .errors import (
    DuplicateVertex,
    EmptySimplex,
    InvalidVertex,
    UnknownSimplex,
    ZeroDimensional,
)


def _check_vertices(vertices: Iterable[int]) -> tuple[int, ...]:
    verts = tuple(vertices)
    if len(verts) == 0:
        raise EmptySimplex("a simplex needs at least one vertex")
    for v in verts:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 0:
            raise InvalidVertex(f"vertex labels must be non-negative integers, got {v!r}")
    if len(set(verts)) != len(verts):
        raise DuplicateVertex(f"repeated vertex in {list(verts)}")
    return tuple(sorted(int(v) for v in verts))


@dataclass(frozen=True)
class Simplex:
    """An abstract simplex: a strictly increasing tuple of vertex labels."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _check_vertices(self.vertices))

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def faces(self) -> tuple[Simplex, ...]:
        """All codimension-1 faces, ordered by deleted-vertex position.

        The i-th entry is the face obtained by deleting the i-th vertex of
        the ascending vertex tuple; its incidence sign is (-1)**i.
        """
        if self.dimension == 0:
            raise ZeroDimensional(f"{self} has no faces")
        return tuple(
            Simplex(self.vertices[:i] + self.vertices[i + 1 :])
            for i in range(len(self.vertices))
        )

    def __repr__(self) -> str:
        return f"Simplex{self.vertices}"


class SimplicialComplex:
    """Downward-closed set of simplices with per-dimension canonical order.

    Instances are immutable after construction and safe to share between
    threads.  Vertex labels may be any non-negative integers; their dense
    index is their position in the canonical dimension-0 list.
    """

    def __init__(self, top_simplices: Iterable[Iterable[int]]):
        seen: set[Simplex] = set()
        for raw in top_simplices:
            top = Simplex(tuple(raw))
            n = len(top.vertices)
            for size in range(1, n + 1):
                for combo in combinations(top.vertices, size):
                    seen.add(Simplex(combo))
        if not seen:
            raise EmptySimplex("a complex needs at least one simplex")
        max_dim = max(s.dimension for s in seen)
        by_dim: list[list[Simplex]] = [[] for _ in range(max_dim + 1)]
        for s in seen:
            by_dim[s.dimension].append(s)
        for bucket in by_dim:
            bucket.sort(key=lambda s: s.vertices)
        self._by_dim: tuple[tuple[Simplex, ...], ...] = tuple(tuple(b) for b in by_dim)
        self._index: dict[Simplex, int] = {
            s: i for bucket in self._by_dim for i, s in enumerate(bucket)
        }

    @property
    def max_dim(self) -> int:
        return len(self._by_dim) - 1

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """Canonically ordered n-simplices (empty tuple above max_dim)."""
        if n < 0:
            raise ValueError("dimension must be non-negative")
        if n > self.max_dim:
            return ()
        return self._by_dim[n]

    def n_simplices(self, n: int) -> int:
        return len(self.simplices(n))

    def index(self, s: Simplex) -> int:
        """Position of s within its dimension's canonical order."""
        try:
            return self._index[s]
        except KeyError:
            raise UnknownSimplex(f"{s} is not in the complex") from None

    def __contains__(self, s: Simplex) -> bool:
        return s in self._index

    def __len__(self) -> int:
        return len(self._index)

    @property
    def vertices(self) -> tuple[int, ...]:
        """Original vertex labels in canonical (ascending) order."""
        return tuple(s.vertices[0] for s in self._by_dim[0])

    def cofaces(self, s: Simplex) -> tuple[Simplex, ...]:
        """All stored (dim+1)-simplices having s as a face."""
        if s not in self._index:
            raise UnknownSimplex(f"{s} is not in the complex")
        want = set(s.vertices)
        return tuple(
            t for t in self.simplices(s.dimension + 1) if want.issubset(t.vertices)
        )

    def _edge_ends(self) -> np.ndarray:
        """(#edges, 2) positions of each edge's endpoints in the vertex order."""
        ends = np.array([e.vertices for e in self.simplices(1)], dtype=np.int64)
        return np.searchsorted(self.vertices, ends.reshape(-1, 2))

    def adjacency_matrix(self) -> SparseMatrix:
        """Symmetric 0/1 vertex-to-vertex matrix; A[i,j] = 1 iff edge {i,j}."""
        n, ends = self.n_simplices(0), self._edge_ends()
        ones = np.ones(2 * len(ends))
        return SparseMatrix.from_coo(n, n, ends.ravel(), ends[:, ::-1].ravel(), ones, Field.REAL)

    def degree_matrix(self) -> SparseMatrix:
        """Diagonal matrix of vertex degrees (incident edge counts)."""
        n = self.n_simplices(0)
        deg = np.bincount(self._edge_ends().reshape(-1), minlength=n)
        return SparseMatrix.from_coo(n, n, np.arange(n), np.arange(n), deg, Field.REAL)

    def __repr__(self) -> str:
        counts = ",".join(str(len(b)) for b in self._by_dim)
        return f"SimplicialComplex(dim={self.max_dim}, counts=[{counts}])"


def build_complex(top_simplices: Sequence[Iterable[int]]) -> SimplicialComplex:
    """Build the downward closure of the given top simplices.

    Duplicate inputs are allowed and collapse to one stored simplex; the
    result is independent of input order.
    """
    return SimplicialComplex(top_simplices)
