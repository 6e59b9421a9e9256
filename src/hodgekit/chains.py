"""Boundary and coboundary matrices over GF(2) and oriented reals.

The sparse matrix here is the carrier for every operator in the package:
boundary maps, Laplacians, filters, and sheaf coboundaries.  Matrices are
immutable values held as coordinate arrays sorted by position.  Every
operation builds its result through SparseMatrix.from_coo, which sorts by one int64
key (row * cols + col, or ranks past 2**63 cells), sums in the tagged field (mod 2
for GF(2), float64 with a zero threshold of 1e-12) and rejects NaN and infinities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import DimensionOutOfRange, FieldMismatch, ShapeMismatch

if TYPE_CHECKING:
    from .complex import SimplicialComplex

REAL_ZERO_TOL = 1e-12
FLOAT_MAX = float(np.finfo(np.float64).max)


class Field(Enum):
    GF2 = "gf2"
    REAL = "real"


@dataclass(frozen=True, eq=False)
class Cochain:
    """A value vector aligned to the canonical order of the n-simplices.  Values other than an int
    or float ndarray meet _finite_reals's type rule, else ValueError; NaN and infinity pass."""

    dimension: int
    values: np.ndarray
    field: Field = Field.REAL

    def __post_init__(self) -> None:
        gf2, v = self.field is Field.GF2, self.values
        if not (type(v) is np.ndarray and v.dtype.kind in "iuf") and _finite_reals(list(v), False) is None:
            raise ValueError("cochain values must be ints or floats, not bools, strings or None")
        v = np.asarray(v) % 2 if gf2 else v
        object.__setattr__(self, "values", np.asarray(v, np.uint8 if gf2 else np.float64))

    def __len__(self) -> int:
        return len(self.values)


def _finite_reals(leaves: list, finite: bool = True) -> np.ndarray | None:
    """The leaves as float64, or None unless each is a Python or numpy int or float (finite, unless
    not finite), never a bool, str or None; a Python int in float range exactly, unrounded."""
    kinds = set(map(type, leaves))
    real = all(t in (int, float) or issubclass(t, (np.integer, np.floating)) for t in kinds)
    if not real or int in kinds and not all(abs(v) <= FLOAT_MAX for v in leaves if type(v) is int):
        return None
    values = np.fromiter(leaves, np.float64, len(leaves))
    return values if not finite or np.isfinite(values).all() else None


def _grids(ms) -> np.ndarray | None:
    """(rows, row length) of each m, (0, 0) if empty; None unless each is a list of equal-length lists."""
    rows = list(chain.from_iterable(ms)) if set(map(type, ms)) <= {list} else [None]
    if not set(map(type, rows)) <= {list}:
        return None
    count, length = (np.fromiter(map(len, x), np.int64, len(x)) for x in (ms, rows))
    width = np.where(count > 0, np.append(length, 0)[np.cumsum(count) - count], 0)  # first row's
    return np.stack([count, width], axis=1) if (np.repeat(width, count) == length).all() else None


def _entries(m) -> tuple[tuple[int, ...], list]:
    """Shape and row-major entries of an array or a list of equally long lists; other lists are
    flat, anything else one entry.  A non-numeric dtype or ragged rows hold the entry None."""
    if isinstance(m, np.ndarray):
        return m.shape, m.ravel().tolist() if m.dtype.kind in "iuf" else [None]
    if type(m) is list and set(map(type, m)) == {list}:
        return (len(m), len(m[0])), [v for r in m for v in r] if len(set(map(len, m))) == 1 else [None]
    return ((len(m),), m) if type(m) is list else ((), [m])


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

        Positions sort by one stable int64 key, row * cols + col (by row and column ranks on a
        shape of 2**63 cells or more, where it would wrap).  GF(2) sums are reduced mod 2 and real
        sums with |v| <= REAL_ZERO_TOL dropped.  Raises ShapeMismatch for a position outside the
        shape, ValueError for a shape that is not a Python or numpy int >= 0 (a bool is not),
        non-integer positions, unequal lengths or a non-finite sum.
        """
        row, col, values = np.asarray(row), np.asarray(col), np.asarray(data, dtype=np.float64)
        shape_ok = all(type(n) is not bool and isinstance(n, (int, np.integer)) and n >= 0 for n in (rows, cols))
        if not shape_ok or row.size and {row.dtype.kind, col.dtype.kind} - {"i", "u"}:
            raise ValueError(f"need shape >= 0, integer positions: {rows!r}x{cols!r}, {row.dtype}, {col.dtype}")
        row, col = row.astype(np.int64, copy=False), col.astype(np.int64, copy=False)
        if not row.ndim == 1 or not row.shape == col.shape == values.shape:
            raise ValueError("row, col and data must be flat and of one length")
        outside = (row < 0) | (row >= rows) | (col < 0) | (col >= cols)
        if outside.any():
            r, c = row[outside][0], col[outside][0]
            raise ShapeMismatch(f"entry ({r},{c}) outside {rows}x{cols}")
        wide = int(rows) * int(cols) >= 2**63  # row * cols would wrap: key by ranks instead
        (_, i), (at, j) = (np.unique(a, return_inverse=True) if wide else (a, a) for a in (row, col))
        key = i * (len(at) if wide else int(cols)) + j
        order = np.argsort(key, kind="stable")  # a position's entries stay in input order
        key = key[order]
        new = np.empty(len(key), bool)  # where each position starts, in key order
        new[:1], new[1:] = True, key[1:] != key[:-1]
        del key  # no longer needed: free it before the slot and value arrays
        r, c, slot = row[order[new]], col[order[new]], np.cumsum(new) - 1
        sums = np.bincount(slot, values[order], len(r))
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
    i, k = _runs(hi - lo)
    k += lo[i]  # b's entry for each product
    row, col, data = a.row[i], b.col[k], a.data[i] * b.data[k]
    del i, k  # gone before from_coo sorts: products are the largest arrays of a Laplacian
    return SparseMatrix.from_coo(a.rows, b.cols, row, col, data, a.field_tag)


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Entrywise sum in the common field (xor for GF(2))."""
    if a.field_tag is not b.field_tag:
        raise FieldMismatch(f"cannot add {a.field_tag.value} and {b.field_tag.value}")
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    parts = [np.concatenate([getattr(a, k), getattr(b, k)]) for k in ("row", "col", "data")]
    return SparseMatrix.from_coo(a.rows, a.cols, *parts, a.field_tag)
