"""Rank computation in both fields, GF(2) diagonal reduction, Betti numbers.

Betti numbers come straight from two boundary-matrix ranks per dimension:
b_n = (#C_n - rank d_n) - rank d_{n+1}, with d_0 the zero map (every vertex
is a cycle) and the map above the top dimension empty.  Boundary maps are
integer matrices, so their ranks are exact in both fields: rank d_1 is
|V| minus the number of connected components, and d_2..d_max are reduced
sparsely, column by column and top-down with clearing, by one driver over
a per-field column kernel: bitset columns over GF(2), and {row: value}
columns mod one prime, 2**61 - 1, over the rationals.  A difference between
the GF(2) and rational Betti numbers is 2-torsion, not numerical trouble.
GF(2) diagonal reduction works on bitset rows, with no dense copy; the check
of its op logs, replay_gf2_ops, stays dense.  Tolerance-based real
elimination serves real-valued matrices such as sheaf coboundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .chains import Field, SparseMatrix, boundary_matrix, transpose
from .errors import FieldMismatch

if TYPE_CHECKING:
    from .complex import SimplicialComplex


@dataclass(frozen=True)
class RankProfile:
    rank: int
    nullity: int
    cols: int

    def __post_init__(self) -> None:
        assert self.rank + self.nullity == self.cols


def _check_tol(tol: float | None) -> None:
    """Raise ValueError for a NaN, infinite or negative tolerance; None passes."""
    if tol is not None and not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")


def rank_gf2(m: SparseMatrix) -> RankProfile:
    """Exact GF(2) rank by sparse column reduction on bitset columns."""
    if m.field_tag is not Field.GF2:
        raise FieldMismatch("rank_gf2 needs a GF(2) matrix")
    (rank,) = _ranks([m], Field.GF2)
    return RankProfile(rank, m.cols - rank, m.cols)


def rank_real(m: SparseMatrix, tol: float | None = None) -> RankProfile:
    """Numerical rank by elimination with partial (max-magnitude) pivoting.

    A pivot counts while its magnitude exceeds tol; the default tol is
    1e-9 times the largest absolute entry of the input.  A NaN, infinite
    or negative tol raises ValueError.  Only the columns with an entry, the first k
    rows and the k rows with an entry are eliminated: pivot slots stay below k.
    """
    if m.field_tag is not Field.REAL:
        raise FieldMismatch("rank_real needs a real matrix")
    _check_tol(tol)
    used, at = np.unique(m.col, return_inverse=True)  # (row, at) keeps m's sorted order
    rows = m.row[np.diff(m.row, prepend=-1) != 0]  # m.row is sorted, so these are its distinct rows
    kept = np.concatenate([np.arange(len(rows)), rows[rows >= len(rows)]])  # sorted, as rows[i] >= i
    a = SparseMatrix(len(kept), len(used), np.searchsorted(kept, m.row), at, m.data, Field.REAL).toarray()
    if tol is None:
        tol = 1e-9 * np.max(np.abs(m.data), initial=0.0)
    rank = 0
    for col in range(len(used)):
        pivot = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot, col]) <= tol:
            continue
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        below = rank + 1 + a[rank + 1 :, col].nonzero()[0]
        factors = a[below, col] / a[rank, col]
        a[below, col:] -= np.outer(factors, a[rank, col:])
        rank += 1
        if rank == len(a):
            break
    return RankProfile(rank, m.cols - rank, m.cols)


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
    rows = _gf2_columns(transpose(m))  # bit j of rows[i] is entry (i, j)
    row_ops: list[RowOp] = []
    col_ops: list[RowOp] = []
    k = 0  # pivot: the first row with a bit at or past k, at its lowest such bit
    while (r := next((i for i in range(k, len(rows)) if rows[i] >> k), None)) is not None:
        tail = rows[r] >> k
        c = k + (tail & -tail).bit_length() - 1
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            row_ops.append(("swap", k, r))
        if c != k:  # rows above k are already e_i, with neither bit
            flip = 1 << k | 1 << c
            rows[k:] = [x ^ flip if (x >> k ^ x >> c) & 1 else x for x in rows[k:]]
            col_ops.append(("swap", k, c))
        # Row k is xored into the others; column k is then e_k, so a column add only clears (k, j).
        for i in range(k + 1, len(rows)):
            if rows[i] >> k & 1:
                rows[i] ^= rows[k]
                row_ops.append(("add", k, i))
        col_ops.extend(("add", k, j) for j in range(k + 1, rows[k].bit_length()) if rows[k] >> j & 1)
        rows[k] = 1 << k
        k += 1
    return k, row_ops, col_ops


def replay_gf2_ops(
    m: SparseMatrix, row_ops: list[RowOp], col_ops: list[RowOp]
) -> np.ndarray:
    """Apply logged row then column operations to a copy of m (dense)."""
    a = m.toarray()
    for b, ops in ((a, row_ops), (a.T, col_ops)):  # the columns of a are the rows of a.T
        for kind, i, j in ops:
            if kind == "swap":
                b[[i, j]] = b[[j, i]]
            else:
                b[j] ^= b[i]
    return a


# The Mersenne prime 2**61 - 1.  A rank mod p never exceeds the rational rank, and
# equals it unless p divides one of the matrix's elementary divisors.
_P = 2**61 - 1


def _gf2_columns(m: SparseMatrix) -> list[int]:
    """Bitset columns: bit r of column j is set for a nonzero in row r."""
    columns = [0] * m.cols
    for r, j in zip(m.row.tolist(), m.col.tolist()):
        columns[j] |= 1 << r
    return columns


def _gf2_reduce(col: int, reduced: dict[int, int]) -> None:
    """Reduce col against reduced (keyed by pivot, its highest set bit); store it if nonzero."""
    while col:
        low = col.bit_length() - 1
        other = reduced.get(low)
        if other is None:
            reduced[low] = col
            return
        col ^= other


def _modp_columns(m: SparseMatrix) -> list[dict[int, int]]:
    """{row: value mod p} columns of an integer matrix."""
    columns: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for r, j, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
        columns[j][r] = int(v) % _P
    return columns


def _modp_reduce(col: dict[int, int], reduced: dict[int, dict[int, int]]) -> None:
    """Reduce col against reduced (keyed by pivot, its largest row); store it scaled to pivot 1."""
    while col:
        low = max(col)
        other = reduced.get(low)
        if other is None:
            inverse = pow(col[low], -1, _P)
            reduced[low] = {r: v * inverse % _P for r, v in col.items()}
            return
        factor = col[low]
        for r, v in other.items():
            x = (col.get(r, 0) - factor * v) % _P
            if x:
                col[r] = x
            else:
                del col[r]


_KERNELS = {Field.GF2: (_gf2_columns, _gf2_reduce), Field.REAL: (_modp_columns, _modp_reduce)}


def _ranks(maps: list[SparseMatrix], field_tag: Field) -> list[int]:
    """Exact ranks of consecutive boundary maps d_k..d_max, reduced top-down.

    Clearing: a column of d_n whose index is a pivot row of the reduced
    d_{n+1} is skipped.  The reduced columns of d_{n+1} are cycles of d_n
    with distinct pivots, so each skipped column of d_n is a combination of
    the others and the rank is unchanged.  The field's kernel builds a
    map's columns and reduces one column into the pivot table.
    """
    columns, reduce = _KERNELS[field_tag]
    ranks, pivots = [], {}
    for d in reversed(maps):
        reduced: dict = {}
        for j, col in enumerate(columns(d)):
            if j not in pivots:
                reduce(col, reduced)
        ranks.insert(0, len(reduced))
        pivots = reduced
    return ranks


def betti(c: SimplicialComplex, field_tag: Field = Field.GF2) -> list[int]:
    """Betti numbers b_0..b_max over GF(2) or the rationals (Field.REAL).

    Both are exact.  They differ only when the integral homology has
    2-torsion: the real projective plane gives [1, 1, 1] over GF(2) and
    [1, 0, 0] over the rationals.  The rational rank of each d_n is its
    rank mod one prime, 2**61 - 1, which is wrong only if that prime
    divides a torsion coefficient of the integral homology.
    """
    maps = [boundary_matrix(c, n, field_tag) for n in range(2, c.max_dim + 1)]
    # rank d_1 = |V| - #components.
    ranks = [c.n_simplices(0) - connected_components(c), *_ranks(maps, field_tag)]
    return _dims([c.n_simplices(n) for n in range(c.max_dim + 1)], ranks)


def _dims(sizes: list[int], ranks: list[int]) -> list[int]:
    """Kernel minus image: sizes[n] - r_n - r_(n+1), where ranks[n] is r_(n+1), the rank
    of the map between dimensions n and n+1; the maps past either end are zero."""
    r = [0, *ranks, 0]
    return [size - r[n] - r[n + 1] for n, size in enumerate(sizes)]


def connected_components(c: SimplicialComplex) -> int:
    """Number of connected components, in rounds over the edge array: the larger root of each
    edge whose end roots differ hooks to the least smaller one, then parent = parent[parent] until
    it stops changing.  Hooks lower roots, so rounds end; each two at least halve a component's roots."""
    parent = np.arange(c.n_simplices(0))
    ends = c.face_table(1).T if c.max_dim >= 1 else np.zeros((2, 0), int)
    a, b = parent[ends]
    while (hook := a != b).any():
        np.minimum.at(parent, np.maximum(a, b)[hook], np.minimum(a, b)[hook])
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped
        a, b = parent[ends]
    return int(np.count_nonzero(parent == np.arange(len(parent))))
