"""Rank computation in both fields, GF(2) diagonal reduction, Betti numbers.

Betti numbers come straight from two boundary-matrix ranks per dimension:
b_n = (#C_n - rank d_n) - rank d_{n+1}, with d_0 the zero map (every vertex
is a cycle) and the map above the top dimension empty.  Boundary maps are
integer matrices, so their ranks are exact in both fields: rank d_1 is
|V| minus the number of connected components, and d_2..d_max are reduced
sparsely, column by column and top-down with clearing, over GF(2) on
bitset columns and over Z/p on {row: value} columns.  A difference between
the GF(2) and rational Betti numbers is 2-torsion, not numerical trouble.
Tolerance-based real elimination remains for real-valued matrices such as
sheaf coboundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Container

import numpy as np

from .chains import Field, SparseMatrix, boundary_matrix
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
    rank = len(_reduce_gf2(m))
    return RankProfile(rank, m.cols - rank, m.cols)


def rank_real(m: SparseMatrix, tol: float | None = None) -> RankProfile:
    """Numerical rank by elimination with partial (max-magnitude) pivoting.

    A pivot counts while its magnitude exceeds tol; the default tol is
    1e-9 times the largest absolute entry of the input.  A NaN, infinite
    or negative tol raises ValueError.
    """
    if m.field_tag is not Field.REAL:
        raise FieldMismatch("rank_real needs a real matrix")
    _check_tol(tol)
    a = m.toarray().astype(np.float64)
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return RankProfile(0, cols, cols)
    scale = np.max(np.abs(a))
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
        below = rank + 1 + a[rank + 1 :, col].nonzero()[0]
        factors = a[below, col] / a[rank, col]
        a[below, col:] -= np.outer(factors, a[rank, col:])
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
        nz_rows, nz_cols = np.nonzero(a[k:, k:])
        if nz_rows.size == 0:
            break
        r, c = k + int(nz_rows[0]), k + int(nz_cols[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            row_ops.append(("swap", k, r))
        if c != k:
            a[:, [k, c]] = a[:, [c, k]]
            col_ops.append(("swap", k, c))
        # Row k and column k stay fixed while they are xored into the others.
        (targets,) = a[:, k].nonzero()
        targets = targets[targets != k]
        a[targets] ^= a[k]
        row_ops.extend(("add", k, int(i)) for i in targets)
        (targets,) = a[k].nonzero()
        targets = targets[targets != k]
        a[:, targets] ^= a[:, [k]]
        col_ops.extend(("add", k, int(j)) for j in targets)
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


# Two primes below 2**31.  A rank mod p never exceeds the rational rank, and equals
# it unless p divides one of the matrix's elementary divisors.
_PRIMES = (2**31 - 1, 2**31 - 19)


def _reduce_gf2(m: SparseMatrix, skip: Container[int] = ()) -> dict[int, int]:
    """Column-reduce m over GF(2); the reduced columns keyed by pivot row.

    Each column is a Python int with bit r set for a nonzero in row r, and
    its pivot is its highest set bit.  Entries are read mod 2 (boundary
    entries are +-1).  Columns whose index is in skip are left out.
    """
    columns = [0] * m.cols
    for r, j in zip(m.row.tolist(), m.col.tolist()):
        columns[j] |= 1 << r
    reduced: dict[int, int] = {}
    for j, col in enumerate(columns):
        if j in skip:
            continue
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return reduced


def _reduce_mod_p(m: SparseMatrix, p: int, skip: Container[int] = ()) -> dict[int, dict]:
    """Column-reduce an integer matrix over Z/p; reduced columns keyed by pivot row.

    Each column is a {row: value mod p} dict, its pivot is its largest row,
    and a stored column is scaled so that its pivot entry is 1.  Columns
    whose index is in skip are left out.
    """
    columns: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for r, j, v in zip(m.row.tolist(), m.col.tolist(), m.data.tolist()):
        columns[j][r] = int(v) % p
    reduced: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        if j in skip:
            continue
        while col:
            low = max(col)
            other = reduced.get(low)
            if other is None:
                inverse = pow(col[low], -1, p)
                reduced[low] = {r: v * inverse % p for r, v in col.items()}
                break
            factor = col[low]
            for r, v in other.items():
                x = (col.get(r, 0) - factor * v) % p
                if x:
                    col[r] = x
                else:
                    del col[r]
    return reduced


def _cleared_ranks(maps: list[SparseMatrix], reduce) -> list[int]:
    """Ranks of the consecutive boundary maps d_k..d_max, reduced top-down.

    Clearing: a column of d_n whose index is a pivot row of the reduced
    d_{n+1} is skipped.  The reduced columns of d_{n+1} are cycles of d_n
    with distinct pivots, so each skipped column of d_n is a combination of
    the others and the rank is unchanged.
    """
    ranks, pivots = [], {}
    for d in reversed(maps):
        pivots = reduce(d, skip=pivots)
        ranks.insert(0, len(pivots))
    return ranks


def betti(c: SimplicialComplex, field_tag: Field = Field.GF2) -> list[int]:
    """Betti numbers b_0..b_max over GF(2) or the rationals (Field.REAL).

    Both are exact.  They differ only when the integral homology has
    2-torsion: the real projective plane gives [1, 1, 1] over GF(2) and
    [1, 0, 0] over the rationals.  The rational rank of each d_n is the
    larger of its ranks mod two primes below 2**31.
    """
    maps = [boundary_matrix(c, n, field_tag) for n in range(2, c.max_dim + 1)]
    if field_tag is Field.GF2:
        upper = _cleared_ranks(maps, _reduce_gf2)
    else:
        per_prime = [_cleared_ranks(maps, partial(_reduce_mod_p, p=p)) for p in _PRIMES]
        upper = [max(ranks) for ranks in zip(*per_prime)]
    # d_0 and the map above the top are zero; rank d_1 = |V| - #components.
    ranks = [0, c.n_simplices(0) - connected_components(c), *upper, 0]
    return [c.n_simplices(n) - ranks[n] - ranks[n + 1] for n in range(c.max_dim + 1)]


def connected_components(c: SimplicialComplex) -> int:
    """Number of connected components, by union-find over the edges."""
    parent = list(range(c.n_simplices(0)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in c.face_table(1).tolist() if c.max_dim >= 1 else ():
        parent[find(a)] = find(b)
    return sum(find(v) == v for v in range(len(parent)))
