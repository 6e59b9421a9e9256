"""Abstract simplicial complexes with canonical ordering and face navigation.

A complex is built once from its top simplices, closed downward, and then
immutable.  All matrices produced elsewhere in the package index simplices
by the canonical order fixed here: within each dimension, simplices are
sorted lexicographically by their ascending vertex tuples.  Face incidence
is decided here too, once, in each dimension's face table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .chains import Field, SparseMatrix
from .errors import (
    DimensionOutOfRange,
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


def _vertex_labels(flat: list) -> list:
    """flat with each value that is not a vertex label (a non-negative integer, numpy
    integers included, bools not) replaced by None; all-int lists need one type pass."""
    if set(map(type, flat)) <= {int} and min(flat, default=0) >= 0:
        return flat
    label = (int, np.integer)
    return [int(v) if isinstance(v, label) and type(v) is not bool and v >= 0 else None for v in flat]


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

    Dimension n is held as a lexicographically sorted (N_n, n+1) int64 array
    of vertex positions and its face table; Simplex objects are built on first use.
    Instances are immutable after construction and safe to share between
    threads.  Vertex labels may be any non-negative integers; their dense
    index is their position in the canonical dimension-0 list.
    """

    def __init__(self, top_simplices: Iterable[Iterable[int]]):
        tops: list[tuple] = []
        try:
            tops.extend(map(tuple, top_simplices))
        except TypeError:  # a top is not iterable; a bad top before it raises first
            SimplicialComplex([*tops, (0,)])
            raise
        if not tops:
            raise EmptySimplex("a complex needs at least one simplex")
        flat = _vertex_labels(list(chain.from_iterable(tops)))
        self._labels = tuple(sorted(set(flat) - {None}))
        self._position = position = {v: p for p, v in enumerate(self._labels)}
        ids = np.fromiter(map(position.get, flat, repeat(-1)), np.int64, len(flat))
        width = np.fromiter(map(len, tops), np.int64, len(tops))
        first, bad, base = np.cumsum(width) - width, width == 0, len(position) + 1
        self._arrays, self._tables, faces = [], [], np.zeros((0, width.max()), dtype=np.int64)
        # Each size's simplices are the faces one size up plus its tops (sorted rows, bad if they
        # hold a -1 or a repeat). Row keys read positions + 1 as base-(V + 1) digits; unique keys give
        # the simplices and the table of those faces: _tables[k] is dimension k + 1's, empty on top.
        for size in range(faces.shape[1], 0, -1):
            at = np.flatnonzero(width == size)
            own = np.sort(ids[first[at, None] + np.arange(size)], axis=1, kind="stable")
            bad[at] = (own[:, 0] < 0) | (own[:, 1:] == own[:, :-1]).any(axis=1)
            rows = np.concatenate([faces, own])
            key, span = np.zeros(len(rows), np.int64), 1  # every key is below span
            for digit in rows.T + 1:
                if span * base > 2**63:  # the next digit would wrap: rank the key so far first
                    key, span = np.unique(key, return_inverse=True)[1], len(key)
                key, span = key * base + digit, span * base
            _, unique, inverse = np.unique(key, return_index=True, return_inverse=True)
            self._tables.insert(0, inverse[: len(faces)].reshape(-1, size + 1))
            self._tables[0].flags.writeable = False
            self._arrays.insert(0, simplices := rows[unique])
            keep = np.array([[k for k in range(size) if k != i] for i in range(size)], int)
            faces = simplices[:, keep].reshape(len(simplices) * size, size - 1)
        if bad.any():  # the first bad top in input order raises what Simplex raises
            _check_vertices(tops[np.argmax(bad)])
        self._objects: list[tuple | None] = [None] * len(self._arrays)

    @property
    def max_dim(self) -> int:
        return len(self._arrays) - 1

    def simplices(self, n: int) -> tuple[Simplex, ...]:
        """Canonically ordered n-simplices (empty tuple above max_dim)."""
        if not self.n_simplices(n):
            return ()
        if self._objects[n] is None:
            rows = self._arrays[n].tolist()
            self._objects[n] = tuple(Simplex(tuple(self._labels[p] for p in row)) for row in rows)
        return self._objects[n]

    def n_simplices(self, n: int) -> int:
        if n < 0:
            raise ValueError("dimension must be non-negative")
        return len(self._arrays[n]) if n <= self.max_dim else 0

    def face_table(self, n: int) -> np.ndarray:
        """Read-only (N_n, n+1) positions: [j, i] is the face of n-simplex j
        that deletes its i-th vertex."""
        if not 1 <= n <= self.max_dim:
            raise DimensionOutOfRange(f"boundary dimension {n} outside 1..{self.max_dim}")
        return self._tables[n - 1]

    def _find(self, keys: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Dimension and canonical position of each key (a Simplex, or vertex
        labels in any order), one batch per dimension.  The first key that
        Simplex or index would refuse raises what they raise (EmptySimplex,
        InvalidVertex, DuplicateVertex, UnknownSimplex).  An n-simplex is
        found by its key: the position of its first n vertices times the
        vertex count plus its last vertex, increasing in canonical order."""
        rows = [key.vertices if isinstance(key, Simplex) else key for key in keys]
        flat = _vertex_labels(list(chain.from_iterable(rows)))  # non-labels are not found
        ids = np.fromiter(map(self._position.get, flat, repeat(-1)), np.int64, len(flat))
        width = np.fromiter(map(len, rows), np.int64, len(rows))
        found, first, count = np.full(len(rows), -1), np.cumsum(width) - width, len(self._labels)
        for size in set(width.tolist()) & set(range(1, self.max_dim + 2)):
            at = np.flatnonzero(width == size)
            row = np.sort(ids[first[at, None] + np.arange(size)], axis=1)
            pos = np.where((row >= 0).all(axis=1), row[:, 0], -1)
            for k in range(1, size):  # a repeated vertex has no key, so it is not found
                key = pos * count + row[:, k]
                stored = self._tables[k - 1][:, -1] * count + self._arrays[k][:, -1]
                j = np.searchsorted(stored, key).clip(max=len(stored) - 1)
                pos = np.where(stored[j] == key, j, -1)
            found[at] = pos
        if (found < 0).any():  # the first key not found; Simplex raises if its labels are bad
            s = Simplex(tuple(rows[np.argmax(found < 0)]))
            raise UnknownSimplex(f"{s} is not in the complex")
        return width - 1, found

    def index(self, s: Simplex) -> int:
        """Position of s within its dimension's canonical order."""
        return int(self._find([s])[1][0])

    def __contains__(self, s: Simplex) -> bool:
        try:
            return self.index(s) >= 0
        except UnknownSimplex:
            return False

    def __len__(self) -> int:
        return sum(map(len, self._arrays))

    @property
    def vertices(self) -> tuple[int, ...]:
        """Original vertex labels in canonical (ascending) order."""
        return self._labels

    def cofaces(self, s: Simplex) -> tuple[Simplex, ...]:
        """All stored (dim+1)-simplices having s as a face."""
        j, above = self.index(s), self.simplices(s.dimension + 1)
        rows = np.flatnonzero((self._tables[s.dimension] == j).any(axis=1))
        return tuple(above[r] for r in rows)

    def adjacency_matrix(self) -> SparseMatrix:
        """Symmetric 0/1 vertex-to-vertex matrix; A[i,j] = 1 iff edge {i,j}."""
        n, ends = self.n_simplices(0), self._tables[0]
        ones = np.ones(2 * len(ends))
        return SparseMatrix.from_coo(n, n, ends.ravel(), ends[:, ::-1].ravel(), ones, Field.REAL)

    def degree_matrix(self) -> SparseMatrix:
        """Diagonal matrix of vertex degrees (incident edge counts)."""
        n, a = self.n_simplices(0), self.adjacency_matrix()
        deg = np.bincount(a.row, a.data, n)
        return SparseMatrix.from_coo(n, n, np.arange(n), np.arange(n), deg, Field.REAL)

    def __repr__(self) -> str:
        counts = ",".join(str(len(a)) for a in self._arrays)
        return f"SimplicialComplex(dim={self.max_dim}, counts=[{counts}])"


def build_complex(top_simplices: Sequence[Iterable[int]]) -> SimplicialComplex:
    """Build the downward closure of the given top simplices.

    Duplicate inputs are allowed and collapse to one stored simplex; the
    result is independent of input order.
    """
    return SimplicialComplex(top_simplices)
