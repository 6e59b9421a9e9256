"""Cellular sheaves: stalks, restriction maps, coboundaries, Laplacians.

A sheaf attaches a real vector space (stalk) to every simplex and a linear
restriction map to every face-to-coface incidence.  Validation rejects
sheaves whose restriction maps fail to commute around codimension-2
incidences, since those would not produce a cochain complex; a Sheaf is
held as that complex.  The sheaf coboundary generalizes the signed
simplicial coboundary: the block for an incident pair carries that pair's
boundary-matrix sign, so the constant sheaf with identity maps reproduces
the simplicial operators exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from .chains import (Cochain, Field, SparseMatrix, _entries, _finite_reals, _grids, _runs, apply,
                     coboundary_matrix, compose)
from .complex import Simplex
from .errors import (
    InconsistentSheaf,
    MissingRestriction,
    MissingStalk,
    ShapeMismatch,
    UnknownSimplex,
)
from .hodge import HodgeOperators, InnerProductWeights, _assemble, _sides
from .homology import _check_tol, _dims, rank_real

if TYPE_CHECKING:
    from .complex import SimplicialComplex

COMMUTE_TOL = 1e-10


# Per-simplex stalk vectors stacked in canonical simplex order: a real cochain.
Assignment = Cochain


class Sheaf:
    """Validated sheaf over a simplicial complex.

    stalk_dims and restrictions are Mappings or lists of (key, value) pairs.
    Each simplex (a Simplex or vertex labels) gets an integer (not a bool)
    >= 0, each dimension's totalling below 2**63, else ValueError; each
    (face, coface) pair with two nonzero stalks a map of shape (stalk(coface),
    stalk(face)), or flat with that many entries, else ShapeMismatch: a numpy
    array of integer or floating dtype, or a list of equally long rows or of
    entries, each a finite Python or numpy int or float (not a bool), else
    ValueError.  Every value is checked, then a simplex or pair given twice keeps
    its last.  Held as its cochain complex: stalk offsets _offsets[n], _delta[n].
    """

    def __init__(self, c: SimplicialComplex, stalk_dims: Mapping | Iterable[tuple],
                 restrictions: Mapping | Iterable[tuple]):
        self.complex = c
        keys, given = _pairs(stalk_dims)
        dim, pos = c._find(keys)
        bad = [k for k, d in enumerate(given) if type(d) is bool
               or not isinstance(d, (int, np.integer)) or not 0 <= int(d) < 2**63]
        if bad:
            s = c.simplices(dim[bad[0]])[pos[bad[0]]]
            raise ValueError(f"stalk dimension for {s} must be a non-negative integer below 2**63")
        keep = _last(pos * (c.max_dim + 1) + dim)  # the last stalk given for each simplex
        dim, pos, given = dim[keep], pos[keep], np.array(given, dtype=np.int64)[keep]
        stalks = [np.full(c.n_simplices(n), -1) for n in range(c.max_dim + 1)]
        for n, dims in enumerate(stalks):
            dims[pos[dim == n]] = given[dim == n]
            if (dims < 0).any():
                raise MissingStalk(f"no stalk dimension for {c.simplices(n)[np.argmax(dims < 0)]}")
            over = np.cumsum(dims, dtype=np.uint64) >= 2**63  # exact up to the first total past int64
            if over.any():
                s = c.simplices(n)[np.argmax(over)]
                raise ValueError(f"stalks of dimension {n} total 2**63 or more at {s}")
        self._set_offsets(stalks)
        self._set_coboundaries(stalks, restrictions)
        self._check_commutativity()

    def _set_offsets(self, stalks: list[np.ndarray]) -> None:
        self._offsets = [np.concatenate([[0], np.cumsum(dims)]) for dims in stalks]
        for offsets in self._offsets:
            offsets.flags.writeable = False

    def _set_coboundaries(self, stalks: list[np.ndarray], restrictions: Mapping | Iterable) -> None:
        c, (keys, matrices) = self.complex, _pairs(restrictions)
        faces, cofaces = tuple(zip(*keys)) or ((), ())
        (face_dim, f), (dim, j) = c._find(faces), c._find(cofaces)

        def pair(k: int) -> str:
            return f"({c.simplices(face_dim[k])[f[k]]}, {c.simplices(dim[k])[j[k]]})"

        cells = np.full(len(keys), -1)  # each pair's face-table cell, -1 unless it is incident
        for n in range(1, c.max_dim + 1):
            at = np.flatnonzero((dim == n) & (face_dim == n - 1))
            hit = c.face_table(n)[j[at]] == f[at, None]
            cells[at] = np.where(hit.any(axis=1), j[at] * (n + 1) + hit.argmax(axis=1), -1)
        if (cells < 0).any():
            raise ValueError(f"{pair(np.argmax(cells < 0))} is not an incident pair")
        shape = _grids(matrices)
        if shape is not None and shape[:, 0].all():  # non-empty lists of equally long lists: at once
            size, leaves = shape.prod(axis=1), list(chain.from_iterable(chain.from_iterable(matrices)))
        else:  # any other form map by map
            shapes, entries = zip(*map(_entries, matrices))
            # (rows, cols) of a 2-D map; a flat one's (-1, -1) needs only its count; (-2, -2) fits no pair.
            shape = np.array([s if len(s) == 2 else (-1, -1) if len(s) == 1 else (-2, -2) for s in shapes])
            size, leaves = np.array([len(e) for e in entries]), list(chain.from_iterable(entries))
        if (data := _finite_reals(leaves)) is None:  # name the first map that fails the number rule
            k = next(k for k, m in enumerate(matrices) if _finite_reals(_entries(m)[1]) is None)
            raise ValueError(f"restriction {pair(k)} is not an array of finite numbers")
        source = np.cumsum(size) - size
        self._delta = []
        for n in range(1, c.max_dim + 1):
            table, at = c.face_table(n), np.flatnonzero(dim == n)
            want = np.stack([stalks[n][j[at]], stalks[n - 1][f[at]]], axis=1)
            count, rest = np.divmod(size[at], np.maximum(want[:, 1], 1))  # no product to wrap
            wrong = (rest != 0) | (count != np.where(want[:, 1] > 0, want[:, 0], 0))
            wrong |= (shape[at, 0] != -1) & (shape[at] != want).any(axis=1)
            if wrong.any():
                k = np.argmax(wrong)
                got, expected = _entries(matrices[at[k]])[0], tuple(want[k].tolist())
                raise ShapeMismatch(f"restriction {pair(at[k])} has shape {got}, expected {expected}")
            missing = ((stalks[n][:, None] > 0) & (stalks[n - 1][table] > 0)).ravel()
            missing[cells[at]] = False
            if missing.any():
                row, i = divmod(int(np.argmax(missing)), n + 1)
                omitted = (c.simplices(n - 1)[table[row, i]], c.simplices(n)[row])
                raise MissingRestriction(f"no restriction map for {omitted}")
            last = _last(cells[at])  # from_coo would sum the maps of a cell given twice
            at, (coface, i) = at[last], np.divmod(cells[at[last]], n + 1)
            # Each map, row-major, at its coface's rows and its face's columns, times (-1)**i.
            row_off, col_off, face = self._offsets[n], self._offsets[n - 1], f[at]
            block_of, slot = _runs(size[at])
            down, across = np.divmod(slot, stalks[n - 1][face][block_of])
            row, col = row_off[coface[block_of]] + down, col_off[face[block_of]] + across
            values = (-1.0) ** i[block_of] * data[source[at][block_of] + slot]
            delta = SparseMatrix.from_coo(row_off[-1], col_off[-1], row, col, values, Field.REAL)
            self._delta.append(delta)
        self._delta.append(SparseMatrix.zeros(0, self.total_dim(c.max_dim), Field.REAL))

    def _check_commutativity(self) -> None:
        """Both paths rho > tau > sigma to each codimension-2 face must agree.
        Their incidence signs are opposite, so the (rho, sigma) block of
        delta_(k-1) delta_(k-2) is their difference: check delta delta = 0."""
        c = self.complex
        for k in range(2, c.max_dim + 1):
            try:
                dd = compose(self._delta[k - 1], self._delta[k - 2])
            except ValueError:  # a path's product is not finite
                raise InconsistentSheaf("restriction maps overflow on a path") from None
            bad = np.flatnonzero(np.abs(dd.data) > COMMUTE_TOL)
            if len(bad):
                rho = np.searchsorted(self.offsets(k), dd.row[bad[0]], side="right") - 1
                sigma = np.searchsorted(self.offsets(k - 2), dd.col[bad[0]], side="right") - 1
                pair = f"{c.simplices(k - 2)[sigma]} and {c.simplices(k)[rho]}"
                raise InconsistentSheaf(f"restriction maps do not commute between {pair}")

    def stalk_dim(self, s: Simplex) -> int:
        j, offsets = self.complex.index(s), self._offsets[s.dimension]
        return int(offsets[j + 1] - offsets[j])

    def restriction(self, face: Simplex, coface: Simplex) -> np.ndarray:
        """The map from face's stalk to coface's, read out of the coboundary:
        its block at the coface's rows and the face's columns, times (-1)**i
        for the face's slot i.  As in every SparseMatrix, an entry with
        |v| <= REAL_ZERO_TOL (1e-12) was dropped and reads back as 0.0."""
        c, n = self.complex, coface.dimension
        try:
            j, f = c.index(coface), c.index(face)
            (i,) = np.flatnonzero(c.face_table(n)[j] == f) if face.dimension == n - 1 else ()
        except (UnknownSimplex, ValueError):  # ValueError: face fills no slot of coface
            raise MissingRestriction(f"no restriction map for ({face}, {coface})") from None
        (r0, r1), (c0, c1) = self._offsets[n][j : j + 2], self._offsets[n - 1][f : f + 2]
        d = self._delta[n - 1]
        lo, hi = np.searchsorted(d.row, [r0, r1])
        inside = lo + np.flatnonzero((c0 <= d.col[lo:hi]) & (d.col[lo:hi] < c1))
        block = np.zeros((r1 - r0, c1 - c0))
        block[d.row[inside] - r0, d.col[inside] - c0] = (-1.0) ** i * d.data[inside]
        return block

    def offsets(self, n: int) -> np.ndarray:
        """Start offset of each n-simplex's block in the stacked vector (read-only)."""
        return self._offsets[n] if self.complex.n_simplices(n) else np.zeros(1, int)

    def total_dim(self, n: int) -> int:
        return int(self.offsets(n)[-1])


def _pairs(given: Mapping | Iterable[tuple]) -> tuple:
    """Keys and values, in order, of a Mapping or of (key, value) pairs."""
    return tuple(zip(*(given.items() if isinstance(given, Mapping) else given))) or ((), ())


def _last(cell: np.ndarray) -> np.ndarray:
    """Where each distinct value of cell occurs last, in increasing value order."""
    return len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]


def constant_sheaf(c: SimplicialComplex) -> Sheaf:
    """Rank-1 stalks with identity restrictions: its coboundaries are the
    simplicial ones, and identity maps commute."""
    sh = Sheaf.__new__(Sheaf)
    sh.complex = c
    sh._set_offsets([np.ones(c.n_simplices(n), np.int64) for n in range(c.max_dim + 1)])
    sh._delta = [coboundary_matrix(c, n, Field.REAL) for n in range(c.max_dim + 1)]
    return sh


def sheaf_coboundary(c: SimplicialComplex, sh: Sheaf, n: int) -> SparseMatrix:
    """Block coboundary from dim-n stalks to dim-(n+1) stalks.

    The block for an incident pair is the restriction map times that
    pair's entry of the real boundary map d_(n+1), the signed incidence
    number (-1)**i of the face's slot i; this is the unique sign choice
    consistent with the two-step coboundary vanishing in every dimension.
    Raises ShapeMismatch unless c is the sheaf's own complex.
    """
    _check_complex(c, sh)
    c._check_dim(n)
    return sh._delta[n]


def _check_complex(c: SimplicialComplex, sh: Sheaf) -> None:
    if c is not sh.complex:
        raise ShapeMismatch("the sheaf is over another complex")


def check_consistency(
    c: SimplicialComplex, sh: Sheaf, x: Assignment, tol: float = 1e-9
) -> tuple[bool, Assignment]:
    """Residual of an assignment under the sheaf coboundary.

    A zero residual means the data agrees across every shared coface; the
    returned assignment lives on the (n+1)-simplices.  A NaN, infinite or
    negative tol raises ValueError.
    """
    _check_tol(tol)
    n = x.dimension
    if len(x) != sh.total_dim(n):
        raise ShapeMismatch(
            f"assignment length {len(x)} != stalk total {sh.total_dim(n)}"
        )
    residual = apply(sheaf_coboundary(c, sh, n), x, n + 1)
    return bool(np.max(np.abs(residual.values), initial=0.0) <= tol), residual


def sheaf_cohomology_dims(
    c: SimplicialComplex, sh: Sheaf, tol: float | None = None
) -> list[int]:
    """Cohomology dimensions: kernel of one coboundary minus image of the last."""
    _check_complex(c, sh)
    _check_tol(tol)
    ranks = [rank_real(sheaf_coboundary(c, sh, n), tol).rank for n in range(c.max_dim)]
    return _dims([sh.total_dim(n) for n in range(c.max_dim + 1)], ranks)


def sheaf_laplacian(
    c: SimplicialComplex,
    sh: Sheaf,
    n: int,
    w: InnerProductWeights | None = None,
) -> HodgeOperators:
    """Up, down, and combined sheaf Laplacians on the dim-n stalk space.

    down = delta_(n-1) delta_(n-1)* and up = delta_n* delta_n, adjoints
    taken on the cochain side (delta* = W_n^(-1) delta^T W_(n+1)).  Weights
    are stalk-level diagonal inner products per dimension (length equal to
    the stacked stalk dimension).  With the constant sheaf and standard
    weights this is exactly the simplicial Hodge Laplacian; with weights W
    it is the transpose of hodge_laplacian(c, n, W^(-1)).
    """
    _check_complex(c, sh)
    c._check_dim(n)
    maps = {(k, k + 1): sheaf_coboundary(c, sh, k) for k in (n, n - 1) if 0 <= k < c.max_dim}
    return _assemble(n, *_sides(n, w, sh.total_dim, maps))
