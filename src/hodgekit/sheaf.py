"""Cellular sheaves: stalks, restriction maps, coboundaries, Laplacians.

A sheaf attaches a real vector space (stalk) to every simplex and a linear
restriction map to every face-to-coface incidence.  Validation rejects
sheaves whose restriction maps fail to commute around codimension-2
incidences, since those would not produce a cochain complex.  The sheaf
coboundary generalizes the signed simplicial coboundary: the block for an
incident pair carries that pair's boundary-matrix sign, so the constant
sheaf with identity maps reproduces the simplicial operators exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from .chains import Cochain, Field, SparseMatrix, _runs, apply, boundary_matrix
from .complex import Simplex
from .errors import (
    DimensionOutOfRange,
    InconsistentSheaf,
    MissingRestriction,
    MissingStalk,
    ShapeMismatch,
    UnknownSimplex,
)
from .hodge import HodgeOperators, InnerProductWeights, _adjoint, _assemble
from .homology import _check_tol, rank_real

if TYPE_CHECKING:
    from .complex import SimplicialComplex

COMMUTE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Assignment:
    """Per-simplex stalk vectors stacked in canonical simplex order."""

    dimension: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float64)
        )

    def __len__(self) -> int:
        return len(self.values)


class Sheaf:
    """Validated sheaf over a simplicial complex.

    stalk_dims must cover every simplex of the complex.  restrictions maps
    (face, coface) pairs to arrays of shape (stalk(coface), stalk(face));
    pairs where either stalk is zero-dimensional may be omitted.
    """

    def __init__(
        self,
        c: SimplicialComplex,
        stalk_dims: Mapping[Simplex | Iterable[int], int],
        restrictions: Mapping[tuple, "np.ndarray | list"],
    ):
        self.complex = c
        # Held by position: _stalks[n][j], and _maps[n][(face, coface)] for coface dimension n.
        self._stalks: list[list[int]] = [[-1] * c.n_simplices(n) for n in range(c.max_dim + 1)]
        for key, dim in stalk_dims.items():
            s = _simplex(key)
            j = c.index(s)
            if not isinstance(dim, (int, np.integer)) or dim < 0:
                raise ValueError(f"stalk dimension for {s} must be a non-negative integer")
            self._stalks[s.dimension][j] = int(dim)
        for n, dims in enumerate(self._stalks):
            if -1 in dims:
                raise MissingStalk(f"no stalk dimension for {c.simplices(n)[dims.index(-1)]}")

        self._maps: list[dict[tuple[int, int], np.ndarray]] = [{} for _ in self._stalks]
        for (face_key, coface_key), matrix in restrictions.items():
            face, coface = _simplex(face_key), _simplex(coface_key)
            n, (f, j) = self._pair(face, coface)
            arr = np.asarray(matrix, dtype=np.float64)
            expected = (self._stalks[n][j], self._stalks[n - 1][f])
            if arr.size == expected[0] * expected[1]:
                arr = arr.reshape(expected)
            if arr.shape != expected:
                raise ShapeMismatch(
                    f"restriction ({face}, {coface}) has shape {arr.shape}, "
                    f"expected {expected}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"restriction ({face}, {coface}) has a non-finite entry")
            self._maps[n][(f, j)] = arr

        for n in range(1, c.max_dim + 1):
            for j, faces in enumerate(c.face_table(n).tolist()):
                for f in faces:
                    if (f, j) in self._maps[n]:
                        continue
                    shape = (self._stalks[n][j], self._stalks[n - 1][f])
                    if 0 not in shape:
                        pair = (c.simplices(n - 1)[f], c.simplices(n)[j])
                        raise MissingRestriction(f"no restriction map for {pair}")
                    self._maps[n][(f, j)] = np.zeros(shape)

        self._check_commutativity()

    def _pair(self, face: Simplex, coface: Simplex) -> tuple[int, tuple[int, int]]:
        """Coface dimension and (face, coface) positions of an incident pair."""
        n, f, j = coface.dimension, self.complex.index(face), self.complex.index(coface)
        if face.dimension != n - 1 or f not in self.complex.face_table(n)[j]:
            raise ValueError(f"({face}, {coface}) is not an incident pair")
        return n, (f, j)

    def _check_commutativity(self) -> None:
        """Both paths rho > tau > sigma to each codimension-2 face must agree."""
        c = self.complex
        for k in range(2, c.max_dim + 1):
            below = c.face_table(k - 1).tolist()
            for rho, taus in enumerate(c.face_table(k).tolist()):
                paths: dict[int, list[np.ndarray]] = {}
                for tau in taus:
                    for sigma in below[tau]:
                        paths.setdefault(sigma, []).append(
                            self._maps[k][(tau, rho)] @ self._maps[k - 1][(sigma, tau)]
                        )
                for sigma, (first, second) in paths.items():
                    defect = np.max(np.abs(first - second), initial=0.0)
                    if not defect <= COMMUTE_TOL:
                        raise InconsistentSheaf(
                            "restriction maps do not commute between "
                            f"{c.simplices(k - 2)[sigma]} and {c.simplices(k)[rho]}"
                        )

    def stalk_dim(self, s: Simplex) -> int:
        j = self.complex.index(s)
        return self._stalks[s.dimension][j]

    def restriction(self, face: Simplex, coface: Simplex) -> np.ndarray:
        try:
            n, pair = self._pair(face, coface)
        except (UnknownSimplex, ValueError):
            raise MissingRestriction(f"no restriction map for ({face}, {coface})") from None
        return self._maps[n][pair]

    def offsets(self, n: int) -> np.ndarray:
        """Start offset of each n-simplex's block in the stacked vector."""
        dims = self._stalks[n] if self.complex.n_simplices(n) else []
        return np.concatenate([[0], np.cumsum(dims)]).astype(int)

    def total_dim(self, n: int) -> int:
        return int(self.offsets(n)[-1])


def _simplex(key: Simplex | Iterable[int]) -> Simplex:
    return key if isinstance(key, Simplex) else Simplex(tuple(key))


def constant_sheaf(c: SimplicialComplex) -> Sheaf:
    """Rank-1 stalks with identity restrictions everywhere."""
    stalks = {s: 1 for n in range(c.max_dim + 1) for s in c.simplices(n)}
    maps = {
        (c.simplices(n - 1)[f], coface): np.eye(1)
        for n in range(1, c.max_dim + 1)
        for coface, faces in zip(c.simplices(n), c.face_table(n).tolist())
        for f in faces
    }
    return Sheaf(c, stalks, maps)


def sheaf_coboundary(c: SimplicialComplex, sh: Sheaf, n: int) -> SparseMatrix:
    """Block coboundary from dim-n stalks to dim-(n+1) stalks.

    The block for an incident pair is the restriction map times that
    pair's entry of the real boundary map d_(n+1), the signed incidence
    number; this is the unique sign choice consistent with the two-step
    coboundary vanishing in every dimension.
    """
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{c.max_dim}")
    cols = sh.total_dim(n)
    if n == c.max_dim:
        return SparseMatrix.zeros(0, cols, Field.REAL)
    row_off, col_off = sh.offsets(n + 1), sh.offsets(n)
    d, maps = boundary_matrix(c, n + 1, Field.REAL), sh._maps[n + 1]
    values = [
        sign * maps[(face, coface)].ravel()
        for face, coface, sign in zip(d.row.tolist(), d.col.tolist(), d.data.tolist())
    ]
    # One block per nonzero of d, placed at its coface's rows and its face's columns.
    p, q = np.diff(row_off)[d.col], np.diff(col_off)[d.row]
    block_of, slot = _runs(p * q)
    down, across = np.divmod(slot, q[block_of])
    row, col = row_off[d.col[block_of]] + down, col_off[d.row[block_of]] + across
    return SparseMatrix.from_coo(row_off[-1], cols, row, col, np.concatenate(values), Field.REAL)


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
    residual = apply(sheaf_coboundary(c, sh, n), Cochain(n, x.values), n + 1).values
    consistent = bool(np.max(np.abs(residual), initial=0.0) <= tol)
    return consistent, Assignment(n + 1, residual)


def sheaf_cohomology_dims(
    c: SimplicialComplex, sh: Sheaf, tol: float | None = None
) -> list[int]:
    """Cohomology dimensions: kernel of one coboundary minus image of the last."""
    dims = []
    prev_rank = 0
    for n in range(c.max_dim + 1):
        profile = rank_real(sheaf_coboundary(c, sh, n), tol)
        dims.append(profile.nullity - prev_rank)
        prev_rank = profile.rank
    return dims


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
    if not 0 <= n <= c.max_dim:
        raise DimensionOutOfRange(f"dimension {n} outside 0..{c.max_dim}")
    w = w or InnerProductWeights.ones()
    w_n = w.vector(n, sh.total_dim(n))
    below = above = None
    if n < c.max_dim:
        d = sheaf_coboundary(c, sh, n)
        above = (_adjoint(d, w_n, w.vector(n + 1, sh.total_dim(n + 1))), d)
    if n >= 1:
        d = sheaf_coboundary(c, sh, n - 1)
        below = (d, _adjoint(d, w.vector(n - 1, sh.total_dim(n - 1)), w_n))
    return _assemble(n, w_n, below, above)
