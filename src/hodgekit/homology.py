"""Rank computation in both fields, GF(2) diagonal reduction, Betti numbers.

Betti numbers come straight from two boundary-matrix ranks per dimension:
b_n = (#C_n - rank d_n) - rank d_{n+1}, with d_0 the zero map (every vertex
is a cycle) and the map above the top dimension empty; each d_n is ranked
once and used on both sides.  GF(2) elimination is exact and serves as the
reference; real elimination is tolerance-based, and a disagreement between
the two is reported as a diagnostic rather than silently resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chains import Field, SparseMatrix, boundary_matrix
from .errors import FieldDisagreement, FieldMismatch

if TYPE_CHECKING:
    from .complex import SimplicialComplex


@dataclass(frozen=True)
class RankProfile:
    rank: int
    nullity: int
    cols: int

    def __post_init__(self) -> None:
        assert self.rank + self.nullity == self.cols


def rank_gf2(m: SparseMatrix) -> RankProfile:
    """Exact GF(2) rank by xor row reduction with first-nonzero pivoting."""
    if m.field_tag is not Field.GF2:
        raise FieldMismatch("rank_gf2 needs a GF(2) matrix")
    a = m.toarray()
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = -1
        for row in range(rank, rows):
            if a[row, col]:
                pivot = row
                break
        if pivot < 0:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        for row in range(rank + 1, rows):
            if a[row, col]:
                a[row] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return RankProfile(rank, cols - rank, cols)


def rank_real(m: SparseMatrix, tol: float | None = None) -> RankProfile:
    """Numerical rank by elimination with partial (max-magnitude) pivoting.

    A pivot counts while its magnitude exceeds tol; the default tol is
    1e-9 times the largest absolute entry of the input.
    """
    if m.field_tag is not Field.REAL:
        raise FieldMismatch("rank_real needs a real matrix")
    a = m.toarray().astype(np.float64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return RankProfile(0, cols, cols)
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale == 0.0:
        return RankProfile(0, cols, cols)
    if tol is None:
        tol = 1e-9 * scale
    rank = 0
    for col in range(cols):
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        factors = a[rank + 1 :, col] / a[rank, col]
        a[rank + 1 :] -= np.outer(factors, a[rank])
        rank += 1
        if rank == rows:
            break
    return RankProfile(rank, cols - rank, cols)


RowOp = tuple[str, int, int]


def snf_gf2(m: SparseMatrix) -> tuple[int, list[RowOp], list[RowOp]]:
    """Diagonalize a GF(2) matrix, returning rank and replayable op logs.

    Ops are ("swap", i, j) meaning exchange rows/columns i and j, and
    ("add", src, dst) meaning xor row/column src into dst.  Replaying the
    row log then the column log on the input yields a matrix with 1s on
    the first diag_count diagonal positions and 0 everywhere else.
    """
    if m.field_tag is not Field.GF2:
        raise FieldMismatch("snf_gf2 needs a GF(2) matrix")
    a = m.toarray()
    rows, cols = a.shape
    row_ops: list[RowOp] = []
    col_ops: list[RowOp] = []
    k = 0
    while k < min(rows, cols):
        pivot = None
        for r in range(k, rows):
            nz = np.nonzero(a[r, k:])[0]
            if nz.size:
                pivot = (r, k + int(nz[0]))
                break
        if pivot is None:
            break
        r, c = pivot
        if r != k:
            a[[k, r]] = a[[r, k]]
            row_ops.append(("swap", k, r))
        if c != k:
            a[:, [k, c]] = a[:, [c, k]]
            col_ops.append(("swap", k, c))
        for i in range(rows):
            if i != k and a[i, k]:
                a[i] ^= a[k]
                row_ops.append(("add", k, i))
        for j in range(cols):
            if j != k and a[k, j]:
                a[:, j] ^= a[:, k]
                col_ops.append(("add", k, j))
        k += 1
    return k, row_ops, col_ops


def replay_gf2_ops(
    m: SparseMatrix, row_ops: list[RowOp], col_ops: list[RowOp]
) -> np.ndarray:
    """Apply logged row then column operations to a copy of m (dense)."""
    a = m.toarray().copy()
    for kind, i, j in row_ops:
        if kind == "swap":
            a[[i, j]] = a[[j, i]]
        else:
            a[j] ^= a[i]
    for kind, i, j in col_ops:
        if kind == "swap":
            a[:, [i, j]] = a[:, [j, i]]
        else:
            a[:, j] ^= a[:, i]
    return a


def betti(c: SimplicialComplex, field_tag: Field = Field.GF2) -> list[int]:
    """Betti numbers b_0..b_max: counts of n-dimensional voids."""
    rank = rank_gf2 if field_tag is Field.GF2 else rank_real
    ranks = [rank(boundary_matrix(c, n, field_tag)).rank for n in range(1, c.max_dim + 1)]
    ranks = [0, *ranks, 0]  # d_0 and the map above the top dimension are zero
    return [c.n_simplices(n) - ranks[n] - ranks[n + 1] for n in range(c.max_dim + 1)]


def betti_checked(c: SimplicialComplex) -> list[int]:
    """Betti numbers computed in both fields, raising if they disagree.

    Torsion is out of scope, so the fields must agree; a mismatch means
    the real-rank tolerance misjudged a pivot.
    """
    exact = betti(c, Field.GF2)
    numeric = betti(c, Field.REAL)
    if exact != numeric:
        raise FieldDisagreement(
            f"GF(2) Betti {exact} != real Betti {numeric}"
        )
    return exact


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def connected_components(c: SimplicialComplex) -> int:
    """Number of connected components, by union-find over the edges."""
    uf = _UnionFind(c.vertices)
    for edge in c.simplices(1):
        uf.union(*edge.vertices)
    return len({uf.find(v) for v in c.vertices})
