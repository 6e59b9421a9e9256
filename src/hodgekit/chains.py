"""Boundary and coboundary matrices over GF(2) and oriented reals.

The sparse matrix here is the carrier for every operator in the package:
boundary maps, Laplacians, filters, and sheaf coboundaries.  Matrices are
immutable values held as coordinate arrays sorted by position.  Every
operation builds its result through SparseMatrix.from_coo, which sums in
the tagged field (mod 2 for GF(2), float64 with a zero threshold of 1e-12
for the reals) and rejects NaN and infinite entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import DimensionOutOfRange, FieldMismatch, ShapeMismatch

if TYPE_CHECKING:
    from .complex import SimplicialComplex

REAL_ZERO_TOL = 1e-12


class Field(Enum):
    GF2 = "gf2"
    REAL = "real"


@dataclass(frozen=True, eq=False)
class Cochain:
    """A value vector aligned to the canonical order of the n-simplices."""

    dimension: int
    values: np.ndarray
    field: Field = Field.REAL

    def __post_init__(self) -> None:
        gf2 = self.field is Field.GF2
        vals = np.asarray(self.values) % 2 if gf2 else self.values
        object.__setattr__(self, "values", np.asarray(vals, np.uint8 if gf2 else np.float64))

    def __len__(self) -> int:
        return len(self.values)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lay runs of the given lengths end to end: each slot's run and offset in it."""
    run = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(run)) - np.repeat(np.cumsum(counts) - counts, counts)
    return run, offset


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Immutable coordinate-form sparse matrix tagged with its field.

    row, col and data are read-only arrays sorted by (row, col) with no
    position repeated.  GF(2) entries are exactly 1 (uint8); real entries
    are float64 of magnitude above REAL_ZERO_TOL.  A NaN or infinite entry
    raises ValueError in from_coo, which every constructor calls.
    """

    rows: int
    cols: int
    row: np.ndarray = field(repr=False)
    col: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)
    field_tag: Field

    @classmethod
    def from_coo(cls, rows: int, cols: int, row, col, data, field_tag: Field) -> SparseMatrix:
        """Matrix from coordinate arrays in any order; repeats are summed in order.

        GF(2) sums are reduced mod 2 and real sums with |v| <= REAL_ZERO_TOL
        dropped.  Raises ShapeMismatch for a position outside rows x cols
        and ValueError for a NaN or infinite sum.
        """
        row, col = (np.asarray(x, dtype=np.int64) for x in (row, col))
        outside = (row < 0) | (row >= rows) | (col < 0) | (col >= cols)
        if outside.any():
            r, c = row[outside][0], col[outside][0]
            raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
        order = np.lexsort((col, row))  # by (row, col)
        r, c = row[order], col[order]
        first = np.ones(len(r), bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        slot = np.empty_like(order)
        slot[order] = np.cumsum(first) - 1
        r, c = r[first], c[first]
        sums = np.bincount(slot, np.asarray(data, dtype=np.float64), len(r))
        finite = np.isfinite(sums)
        if not finite.all():
            raise ValueError(f"non-finite entry at {(int(r[~finite][0]), int(c[~finite][0]))}")
        if field_tag is Field.GF2:
            sums = sums.astype(np.int64) % 2
        keep = ~(np.abs(sums) <= REAL_ZERO_TOL)
        r, c = r[keep], c[keep]
        data_out = sums[keep].astype(np.uint8 if field_tag is Field.GF2 else np.float64)
        for a in (r, c, data_out):
            a.flags.writeable = False
        return cls(int(rows), int(cols), r, c, data_out, field_tag)

    @classmethod
    def from_entries(
        cls, rows: int, cols: int, triplets: Iterable[tuple[int, int, float]], field_tag: Field
    ) -> SparseMatrix:
        triplets = list(triplets)
        r, c, v = zip(*triplets) if triplets else ((), (), ())
        return cls.from_coo(rows, cols, r, c, v, field_tag)

    @classmethod
    def from_dense(cls, array: np.ndarray, field_tag: Field) -> SparseMatrix:
        a = np.asarray(array)
        r, c = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], r, c, a[r, c], field_tag)

    @classmethod
    def zeros(cls, rows: int, cols: int, field_tag: Field) -> SparseMatrix:
        return cls.from_coo(rows, cols, (), (), (), field_tag)

    @classmethod
    def identity(cls, n: int, field_tag: Field) -> SparseMatrix:
        return cls.from_coo(n, n, np.arange(n), np.arange(n), np.ones(n), field_tag)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def entries(self) -> dict[tuple[int, int], float]:
        """Read-only view {(row, col): value} in position order."""
        return dict(zip(zip(self.row.tolist(), self.col.tolist()), self.data.tolist()))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.row, self.col] = self.data
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.field_tag == other.field_tag
            and np.array_equal(self.row, other.row)
            and np.array_equal(self.col, other.col)
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return (
            f"SparseMatrix({self.rows}x{self.cols}, {self.field_tag.value},"
            f" nnz={self.nnz})"
        )


def transpose(m: SparseMatrix) -> SparseMatrix:
    return SparseMatrix.from_coo(m.cols, m.rows, m.col, m.row, m.data, m.field_tag)


def boundary_matrix(c: SimplicialComplex, n: int, field_tag: Field) -> SparseMatrix:
    """Boundary map from n-chains to (n-1)-chains, shape (#C_{n-1}, #C_n).

    GF(2) entries record bare face incidence.  Real entries carry the
    induced-orientation sign: the face obtained by deleting the i-th vertex
    of the ascending vertex tuple gets (-1)**i.  Raises DimensionOutOfRange
    unless 1 <= n <= c.max_dim.
    """
    faces, cols = c.face_table(n).ravel(), c.n_simplices(n)
    signs = np.tile((-1.0) ** np.arange(n + 1), cols)
    return SparseMatrix.from_coo(
        c.n_simplices(n - 1), cols, faces, np.repeat(np.arange(cols), n + 1), signs, field_tag
    )


def coboundary_matrix(c: SimplicialComplex, n: int, field_tag: Field) -> SparseMatrix:
    """Transpose of boundary_matrix(c, n+1); 0 x #C_n when nothing is above."""
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(
            f"coboundary dimension {n} outside 0..{c.max_dim}"
        )
    if n == c.max_dim:
        return SparseMatrix.zeros(0, c.n_simplices(n), field_tag)
    return transpose(boundary_matrix(c, n + 1, field_tag))


def apply(m: SparseMatrix, x: Cochain, result_dim: int | None = None) -> Cochain:
    """Matrix-vector product in the matrix's field.

    The result keeps x's dimension tag unless result_dim overrides it
    (boundary maps move between dimensions, operators on one chain do not).
    """
    if m.field_tag is not x.field:
        raise FieldMismatch(f"{m.field_tag.value} matrix applied to {x.field.value} cochain")
    if m.cols != len(x):
        raise ShapeMismatch(f"matrix has {m.cols} columns, cochain length {len(x)}")
    dim = x.dimension if result_dim is None else result_dim
    out = np.bincount(m.row, m.data * x.values[m.col], m.rows)
    return Cochain(dim, out, m.field_tag)


def compose(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Matrix product a @ b in the common field: each a[i,k] meets row k of b."""
    if a.field_tag is not b.field_tag:
        raise FieldMismatch(
            f"cannot compose {a.field_tag.value} with {b.field_tag.value}"
        )
    if a.cols != b.rows:
        raise ShapeMismatch(f"inner dimensions differ: {a.cols} vs {b.rows}")
    lo, hi = np.searchsorted(b.row, a.col), np.searchsorted(b.row, a.col, side="right")
    i, offset = _runs(hi - lo)
    k = lo[i] + offset
    return SparseMatrix.from_coo(
        a.rows, b.cols, a.row[i], b.col[k], a.data[i] * b.data[k], a.field_tag
    )


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Entrywise sum in the common field (xor for GF(2))."""
    if a.field_tag is not b.field_tag:
        raise FieldMismatch(f"cannot add {a.field_tag.value} and {b.field_tag.value}")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    parts = [np.concatenate([getattr(a, k), getattr(b, k)]) for k in ("row", "col", "data")]
    return SparseMatrix.from_coo(a.rows, a.cols, *parts, a.field_tag)
